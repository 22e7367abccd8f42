"""Typical-string counting, the insertion factor, and the averaged entropy increase.

Numerically verifies the classical chain: multinomial string counting gives the
Shannon entropy per symbol, inserting one extra symbol multiplies the count by
(n+1)/(n rho_a + 1) -> 1/rho_a, and averaging the log-increase over sigma gives
exactly the classical relative entropy.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InfiniteRelativeEntropyError
from .states import (
    ClassicalDistribution,
    DensityOperator,
    _supported_pair,
    entropy_of_spectrum,
    relative_entropy,
    shannon_entropy,
)

# defaults shared by the `appendix` command and verify criterion 7
TYPICALITY_RHO = (0.5, 0.5)
TYPICALITY_N = (100, 1000, 10_000)
INSERTION_N = (10, 100, 1000, 10_000)
INSERTION_RHO = (0.05, 0.1, 0.25, 0.5, 0.9, 1.0)
FORMULA_PAIRS = 50


def log_multinomial(counts: tuple) -> float:
    """ln(N! / prod m_a!) for symbol counts m_1..m_d summing to N, in nats."""
    return math.lgamma(sum(counts) + 1) - math.fsum(math.lgamma(x + 1) for x in counts)


def round_counts(dist: ClassicalDistribution, n: int) -> tuple:
    """Largest-remainder rounding of n*p_a to symbol counts summing to n.

    Deterministic: leftover units go to the largest fractional remainders,
    ties broken by lower index.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    raw = n * dist.p
    floors = np.floor(raw).astype(int)
    leftover = n - int(floors.sum())
    remainders = raw - floors
    order = np.lexsort((np.arange(dist.dim), -remainders))
    for idx in order[:leftover]:
        floors[idx] += 1
    return tuple(int(x) for x in floors)


def typicality_entropy_check(rho: ClassicalDistribution, n: int) -> dict:
    """Compare ln(multinomial of rounded counts)/n against S[rho].

    Returns the row {n, lhs_per_symbol, S_rho, deficit}. The deficit
    S[rho] - lhs is positive and O(ln n / n): the typical class alone
    already counts ~ e^{n S[rho]} strings.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    counts = round_counts(rho, n)
    lhs = log_multinomial(counts) / n
    s_rho = shannon_entropy(rho)
    return {"n": n, "lhs_per_symbol": lhs, "S_rho": s_rho, "deficit": s_rho - lhs}


def insertion_factor(n: int, rho_a: float) -> dict:
    """Exact factor (n+1)/(round(n rho_a) + 1) against its large-n limit 1/rho_a.

    Returns the row {n, rho_a, exact, limit, rel_err, bound}, with the bound
    2/(n rho_a) on rel_err = |exact - limit| rho_a.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 < rho_a <= 1.0:
        raise InfiniteRelativeEntropyError(
            f"insertion factor diverges for rho_a = {rho_a}"
        )
    m = round(n * rho_a)
    exact = (n + 1) / (m + 1)
    limit = 1.0 / rho_a
    return {"n": n, "rho_a": rho_a, "exact": exact, "limit": limit,
            "rel_err": abs(exact - limit) * rho_a, "bound": 2.0 / (n * rho_a)}


def classical_mixing_increase_formula(
    sigma: ClassicalDistribution, rho: ClassicalDistribution
) -> float:
    """Average entropy increase -sum_a sigma_a ln rho_a - S[sigma], in nats.

    This is the classical relative entropy S[sigma|rho]; it must match the
    operator-level relative entropy on diagonal embeddings to 1e-12. sigma's
    rounding weight off rho's support is dropped as relative_entropy drops it.
    """
    sigma_p, rho_p = _supported_pair(sigma, rho)
    support = sigma_p > 0.0
    cross = -math.fsum(sigma_p[support] * np.log(rho_p[support]))
    return cross - entropy_of_spectrum(sigma_p)


def random_distribution_pairs(seed: int, count: int) -> list:
    """count (sigma, rho) full-support probability vectors over 2..5 letters.

    They are drawn from seed + 700, a stream apart from the run's other draws.
    """
    rng = np.random.default_rng(seed + 700)
    pairs = []
    for _ in range(count):
        d = int(rng.integers(2, 6))
        sig = rng.uniform(0.05, 1.0, size=d)
        rho = rng.uniform(0.05, 1.0, size=d)
        pairs.append((sig / sig.sum(), rho / rho.sum()))
    return pairs


def max_increase_formula_error(pairs: Sequence[tuple]) -> float:
    """Largest |increase formula - operator relative entropy| over (sigma, rho) pairs.

    The operator side is one stacked relative_entropy call per dimension, on
    the pairs' diagonal embeddings; each pair keeps its own 2-D call's bits.
    """
    max_err = 0.0
    for d in sorted({len(sig_p) for sig_p, _ in pairs}):
        group = [(ClassicalDistribution(s), ClassicalDistribution(r))
                 for s, r in pairs if len(s) == d]
        # the stack of diag(p), as each pair's as_density() entries
        stacks = [DensityOperator(np.array([x.p for x in xs])[:, None, :] * np.eye(d))
                  for xs in zip(*group)]
        for (sigma, rho), operator in zip(group, relative_entropy(*stacks)):
            direct = classical_mixing_increase_formula(sigma, rho)
            max_err = max(max_err, abs(direct - float(operator)))
    return max_err


def appendix_checks(rho: ClassicalDistribution, pairs: Sequence[tuple]) -> dict:
    """What the `appendix` command and verify criterion 7 both compute.

    Typicality of rho over TYPICALITY_N with the deficits' ordering, the
    INSERTION_N x INSERTION_RHO rows against their bound, and the largest
    increase-formula error over the pairs. Each caller adds its own rule on
    the deficits' values.
    """
    typicality = [typicality_entropy_check(rho, n) for n in TYPICALITY_N]
    deficits = [row["deficit"] for row in typicality]
    rows = [insertion_factor(n, rho_a) for n in INSERTION_N for rho_a in INSERTION_RHO]
    return {
        "typicality": typicality,
        "deficits": deficits,
        "deficits_decreasing": all(b < a for a, b in zip(deficits, deficits[1:])),
        "insertion_rows": rows,
        "insertion_ok": all(row["rel_err"] < row["bound"] for row in rows),
        "max_formula_err": max_increase_formula_error(pairs),
    }
