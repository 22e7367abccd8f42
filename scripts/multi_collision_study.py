#!/usr/bin/env python3
"""Mixing applied after several collisions: the m-sigma variant.

Spreads m_sigma collided molecules over n_total reservoir slots and tracks
the entropy of mixing against the candidate limit m_sigma * S[sigma|rho].
`mixent verify` criterion 8 asserts the m_sigma = 2 rate, gap ~ m^2 a1/N
(mixing.gap_series), to N = 128; for other m and larger N the trend is
evidence, not a check.

Usage: python scripts/multi_collision_study.py [--m-max 3] [--n-max 512]
"""

import argparse

from mixent import ClassicalDistribution, classical_mixing_entropy_exact


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-max", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=512)
    args = ap.parse_args()

    rho = ClassicalDistribution([0.6, 0.4])
    sigma = ClassicalDistribution([0.2, 0.8])

    for m_sigma in range(1, args.m_max + 1):
        print(f"\nm_sigma = {m_sigma} (candidate limit {m_sigma} * S[sigma|rho])")
        print(f"{'n_total':>8}  {'S_mix':>14}  {'gap to m*S_rel':>16}")
        n_total = max(8, 4 * m_sigma)
        while n_total <= args.n_max:
            rec = classical_mixing_entropy_exact(sigma, rho, n_total - m_sigma, m_sigma)
            print(f"{n_total:8d}  {rec.s_mix:14.10f}  {rec.gap:16.3e}")
            n_total *= 2


if __name__ == "__main__":
    main()
