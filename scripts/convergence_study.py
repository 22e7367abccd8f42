#!/usr/bin/env python3
"""Convergence study: entropy of mixing vs relative entropy.

Runs the central numerical experiment twice:

  1. classical route: exact type-class evaluation out to n = 2^max_exp,
  2. quantum route: dense eigensolves for a non-commuting pair at small n,

and prints the gap S[sigma|rho] - S_mix(n) for each n. For the classical pair
each gap stands next to its closed-form series a1/N + a2/N^2 + a3/N^3,
N = n + 1 (mixing.gap_series), which the gap approaches as n grows.

Usage: python scripts/convergence_study.py [--max-exp 12] [--out-dir results]
"""

import argparse
from pathlib import Path

import numpy as np

from mixent import (
    ClassicalDistribution,
    HermitianOperator,
    apply_unitary,
    convergence_sweep,
    gibbs_state,
    random_haar_unitary,
)
from mixent.mixing import gap_series, records_to_csv


def print_sweep(title, records, series=None):
    """One row per record; with series = (a1, a2, a3), its prediction too."""
    print(f"\n{title}")
    print(f"relative entropy S[sigma|rho] = {records[-1].s_rel:.10f}")
    head = f"{'n':>6}  {'S_mix':>14}  {'gap':>14}"
    print(head + (f"  {'series':>14}" if series else ""))
    for r in records:
        row = f"{r.n:6d}  {r.s_mix:14.10f}  {r.gap:14.8e}"
        if series:
            a1, a2, a3 = series
            big_n = r.n + 1
            row += f"  {a1 / big_n + a2 / big_n**2 + a3 / big_n**3:14.8e}"
        print(row)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-exp", type=int, default=12, help="classical sweep up to 2^max_exp")
    ap.add_argument("--dense-max-n", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out-dir", default="results/convergence")
    args = ap.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # classical pair: rho and sigma swap their weights
    rho = ClassicalDistribution([0.7, 0.3])
    sigma = ClassicalDistribution([0.3, 0.7])
    n_list = [2**k for k in range(args.max_exp + 1)]
    records = convergence_sweep(sigma, rho, n_list, method="classical-exact")
    print_sweep("classical pair (0.3,0.7) into (0.7,0.3)", records, gap_series(sigma, rho))
    (out / "classical_records.csv").write_text(records_to_csv(records))

    # quantum pair: Gibbs qubit kicked by a Haar collision (non-commuting)
    h = HermitianOperator(np.diag([0.0, 1.0]))
    rho_q = gibbs_state(h, 1.0)
    sigma_q = apply_unitary(rho_q, random_haar_unitary(args.seed, 2))
    records_q = convergence_sweep(
        sigma_q, rho_q, list(range(1, args.dense_max_n + 1)), method="dense"
    )
    print_sweep("non-commuting qubit pair (dense eigensolves)", records_q)
    (out / "quantum_records.csv").write_text(records_to_csv(records_q))

    print(f"\nwrote {out}/classical_records.csv and {out}/quantum_records.csv")


if __name__ == "__main__":
    main()
