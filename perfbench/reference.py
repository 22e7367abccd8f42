"""Independent references the benchmark checks the program's outputs against.

Nothing here imports mixent: both references are built from the definitions,
so a defect in the program cannot hide in its own oracle.

Classical gap. For commuting states, with N = n + 1 systems,

    gap(n) = S[sigma|rho] - S_mix(n) = D(R || rho^{(x)N})
           = E_{m ~ Mult(N, rho)} [ rbar ln rbar - rbar + 1 ],
    rbar   = sum_a m_a sigma_a / rho_a / N,

because a string of type m has eigenvalue rho^m * rbar(m) under R and
E[rbar] = 1. Every term is nonnegative and the O(n) entropies never appear,
so nothing cancels: the sum is exact to rounding at any n.

Quantum mixing entropy. R is built by averaging the N tensor transposes of
sigma (x) rho^{(x)n} that move the sigma factor through every slot, then
diagonalized with scipy's LAPACK wrapper (the program uses numpy's).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.special import gammaln, xlogy

# Below this |x| the excess (1+x) ln(1+x) - x is summed as its Taylor series,
# whose 48 terms leave a truncation under 1e-17 of the sum. Above it the
# direct formula loses at most a few ulps to cancellation.
_SERIES_RADIUS = 0.5
_SERIES_TERMS = 48
_SERIES_COEFFS = [(-1) ** k / (k * (k - 1)) for k in range(2, _SERIES_TERMS + 2)]


def log_excess(x: np.ndarray) -> np.ndarray:
    """ln f(1 + x) with f(r) = r ln r - r + 1 >= 0, free of cancellation at x ~ 0."""
    x = np.asarray(x, dtype=float)
    f = np.empty_like(x)
    small = np.abs(x) < _SERIES_RADIUS
    xs = x[small]
    acc = np.zeros_like(xs)
    for c in reversed(_SERIES_COEFFS):
        acc = acc * xs + c
    f[small] = acc * xs * xs
    xb = x[~small]
    f[~small] = xlogy(1.0 + xb, 1.0 + xb) - xb
    with np.errstate(divide="ignore"):
        return np.log(f)


_BLOCK_ROWS = 1 << 18


def _type_blocks(n_total: int, d: int):
    """Every count vector (m_1..m_d) summing to n_total, in blocks of rows.

    Blocks keep the reference's memory far below the program's own peak, so
    the benchmark's peak_rss_mb stays the program's.
    """
    if d == 2:
        for lo in range(0, n_total + 1, _BLOCK_ROWS):
            first = np.arange(lo, min(lo + _BLOCK_ROWS, n_total + 1), dtype=np.int64)
            yield np.stack([first, n_total - first], axis=1)
    elif d == 3:
        per_block = max(1, _BLOCK_ROWS // (n_total + 1))
        for lo in range(0, n_total + 1, per_block):
            m1 = np.arange(lo, min(lo + per_block, n_total + 1), dtype=np.int64)
            lengths = n_total - m1 + 1
            starts = np.cumsum(lengths) - lengths
            m1 = np.repeat(m1, lengths)
            m2 = np.arange(m1.size, dtype=np.int64) - np.repeat(starts, lengths)
            yield np.stack([m1, m2, n_total - m1 - m2], axis=1)
    else:
        raise ValueError(f"reference enumerates d = 2 or 3, got d = {d}")


def classical_gap(sigma, rho, n: int) -> float:
    """Cancellation-free gap(n) = D(R || rho^{(x)(n+1)}) for probability vectors."""
    sigma = np.asarray(sigma, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if np.any(rho <= 0.0):
        raise ValueError("rho must have full support")
    n_total = n + 1
    log_rho = np.log(rho)
    shift = (sigma - rho) / rho                    # ratio_a - 1, without rounding 1
    log_fact = gammaln(np.arange(n_total + 1) + 1.0)
    log_pmf_blocks, log_term_blocks = [], []
    for counts in _type_blocks(n_total, rho.size):
        log_pmf = log_fact[n_total] - log_fact[counts].sum(axis=1) + counts @ log_rho
        log_pmf_blocks.append(log_pmf)
        log_term_blocks.append(log_pmf + log_excess(counts @ shift / n_total))
    # dividing by the summed pmf cancels the shared rounding of ln N!
    return math.exp(
        _log_fsum_exp(np.concatenate(log_term_blocks))
        - _log_fsum_exp(np.concatenate(log_pmf_blocks))
    )


# Terms below e^-92 (1e-40) of the largest are skipped: with at most 1e7 terms
# they move the sum by under 1e-33 of itself, far below one rounding.
_NEGLIGIBLE_LOG = -92.0


def _log_fsum_exp(log_values: np.ndarray) -> float:
    """ln sum exp(log_values), the shifted terms added exactly with fsum."""
    top = float(log_values.max())
    shifted = log_values - top
    kept = shifted[shifted > _NEGLIGIBLE_LOG]
    return top + math.log(math.fsum(np.exp(kept).tolist()))


def chi2(sigma, rho) -> float:
    """chi^2(sigma || rho) = sum_a (sigma_a - rho_a)^2 / rho_a; gap ~ chi2 / (2(n+1))."""
    sigma = np.asarray(sigma, dtype=float)
    rho = np.asarray(rho, dtype=float)
    return math.fsum((sigma - rho) ** 2 / rho)


def _entropy(eigs: np.ndarray) -> float:
    pos = eigs[eigs > 0.0]
    return -math.fsum(pos * np.log(pos))


def symmetrized_state(sigma: np.ndarray, rho: np.ndarray, n: int) -> np.ndarray:
    """R = mean over k of the product state with sigma moved into slot k."""
    d = sigma.shape[0]
    n_total = n + 1
    product = sigma
    for _ in range(n):
        product = np.kron(product, rho)
    tensor = product.reshape((d,) * (2 * n_total))
    acc = np.zeros_like(tensor)
    for k in range(n_total):
        # slot order with sigma (slot 0 of the product) placed at position k
        order = list(range(1, k + 1)) + [0] + list(range(k + 1, n_total))
        acc += tensor.transpose(order + [n_total + p for p in order])
    return (acc / n_total).reshape(d**n_total, d**n_total)


def quantum_mixing(sigma: np.ndarray, rho: np.ndarray, n: int) -> tuple:
    """(S_mix, gap) for matrix states, from a harness-built R."""
    s_sigma = _entropy(scipy.linalg.eigvalsh(sigma))
    s_rho = _entropy(scipy.linalg.eigvalsh(rho))
    s_r = _entropy(scipy.linalg.eigvalsh(symmetrized_state(sigma, rho, n)))
    s_mix = s_r - n * s_rho - s_sigma
    log_diff = scipy.linalg.logm(sigma) - scipy.linalg.logm(rho)
    s_rel = float(np.real(np.trace(sigma @ log_diff)))
    return s_mix, s_rel - s_mix
