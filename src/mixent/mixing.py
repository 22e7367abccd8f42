"""The graceful mixing map: symmetrized states and the entropy of mixing.

One sigma-molecule loses its identity among n rho-molecules:

    R = (1/(n+1)) * sum_k  rho^k (x) sigma (x) rho^(n-k)

and the entropy of mixing S_mix = S[R] - n S[rho] - S[sigma] is computed by
two independent routes so each can serve as the other's oracle: the dense
spectrum of R in rho's eigenbasis, from the k + 1 blocks R splits into
because swapping the two sites of any of k = (n+1) // 2 site pairs leaves
it invariant (for commuting states only R's diagonal, R being diagonal in
their joint eigenbasis); and, for commuting states, the gap first,
gap = S[sigma|rho] - S_mix = D(R || rho^{(x)(n+1)}), with
S_mix = S[sigma|rho] - gap. For one sigma the gap is E[L ln L] under
Mult(N, rho), one integral over t with O(d) work per node at any N
(gap_integrals, one pass for all of a sweep's N). The exact type-class
spectrum is its oracle at small n: its gap() sums the same expectation over
every type class and its entropy() is S[R].
The conjectured n -> infinity limit is the relative entropy S[sigma|rho];
for commuting states gap_series gives the rate, the first three terms of the
gap's series in 1/N. The type-class route also spreads m sigma factors over
N = n + m systems, the mixture after m collisions, whose candidate limit is
m S[sigma|rho]; there S_mix = m S[sigma|rho] - gap, and the acceptance
matrix asserts its leading term m^2 a1/N.
scipy is imported on the first call to gammaln, so only the type-class
spectrum pays for it: m >= 2 records and the oracles.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Sequence, Union

import numpy as np

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InvalidStateError,
)
from .collisions import (
    DENSE_DIM_CAP,
    check_dense_dim,
    kron_sum,
    reservoir_hamiltonian,
    site_kron_sum,
)
from .states import (
    ClassicalDistribution,
    DensityOperator,
    HermitianOperator,
    _as_square_complex,
    _check_square_pair,
    _supported_pair,
    clamp_spectrum,
    entropy_of_spectrum,
    relative_entropy,
    von_neumann_entropy,
)

TWIRL_FACTORIAL_CAP = 8      # N! permutations enumerated explicitly
TYPE_CLASS_BUDGET = 5_000_000
GAP_STEP, GAP_X_MIN = 0.25, -40.0   # gap_integrals' trapezoid rule in x = ln t
GAP_BLOCK = 16                      # N per gap_integrals block, which bounds its memory
# gap_integrals refuses a gap that the rounding of ln E[L e^-tL] as w - t, about
# eps (|w| + t) (GAP_ROUND is four times that), may move by more than GAP_REL_ERR of itself
GAP_ROUND, GAP_REL_ERR = 4 * sys.float_info.epsilon, 1e-12
# 1/k!, k = 13 down to 2: e^y - 1 - y = y^2 polyval(G_SERIES, y) to 2e-18 for |y| < 1/4
G_SERIES = [1.0 / math.factorial(k) for k in range(13, 1, -1)]
COMMUTE_TOL = 1e-10
NORMALIZATION_TOL = 1e-9
LOG_FLOAT_MAX = math.log(sys.float_info.max)
# rho eigenvalues closer than this are one degenerate block when
# simultaneously diagonalizing a commuting pair
DEGENERACY_GAP = 1e-8

SWEEP_CSV_HEADER = "n,method,S_mix_nats,S_rel_nats,gap_nats,wall_time_ms"
METHODS = ("auto", "dense", "classical-exact")

StateLike = Union[DensityOperator, ClassicalDistribution]


@dataclass(frozen=True)
class MixingRecord:
    """One (n, S_mix) sample of the convergence study.

    gap = S_rel - S_mix is stored signed so its sign structure stays visible.
    """

    n: int
    s_mix: float
    s_rel: float
    gap: float
    method: str
    wall_time_ms: float = 0.0

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.method},{self.s_mix!r},{self.s_rel!r},"
            f"{self.gap!r},{self.wall_time_ms!r}"
        )


@dataclass(frozen=True)
class TypeClassSpectrum:
    """Spectrum of a classical symmetrized mixture, one entry per type class.

    The types are every count vector of the supported symbols with sum N, in
    _type_runs's order (one run at d <= 2, one per first count at d >= 3);
    each string of type t has the eigenvalue q(t) = rho^t L(t) (see
    type_class_spectrum). weight[t] = mult(t) rho^t is the type's
    probability under Mult(N, rho), excess[t] = L(t) - 1 and log_l[t] =
    ln L(t); gap() is D(R || rho^{(x)N}) from these. counts[t], type t's
    symbol counts, is built on first use, as are log_q (-inf for q = 0) and
    log_mult, which entropy(), S[R], the gap's oracle at small N, reads.
    """

    n_total: int
    m_sigma: int
    weight: np.ndarray
    excess: np.ndarray
    log_l: np.ndarray
    sigma_p: np.ndarray
    rho_p: np.ndarray

    @cached_property
    def counts(self) -> np.ndarray:
        return _type_count_matrix(self.n_total, len(self.rho_p))

    @cached_property
    def log_mult(self) -> np.ndarray:
        lgamma = gammaln(np.arange(self.n_total + 2))    # ln k! = lgamma[k + 1]
        return lgamma[self.n_total + 1] - lgamma[self.counts + 1].sum(axis=1)

    @cached_property
    def log_q(self) -> np.ndarray:
        log_rho_t = self.counts @ np.log(self.rho_p)
        if self.m_sigma > 1:
            return log_rho_t + self.log_l
        # ln of the mean ratio itself, not log_l, so that S[R] keeps its bits
        with np.errstate(divide="ignore"):
            return log_rho_t + np.log(self.counts @ (self.sigma_p / self.rho_p) / self.n_total)

    def entropy(self) -> float:
        """S[R] = -sum_t mult(t) q(t) ln q(t) over every type, in nats.

        Terms with q(t) = 0 are left out. Each term carries the rounding of
        ln N!, about eps ln N! relative, which gap() cancels and this does not.
        """
        finite = np.isfinite(self.log_q)
        lq = self.log_q[finite]
        return math.fsum(-np.exp(self.log_mult[finite] + lq) * lq)

    def gap(self) -> float:
        """E[L ln L - L + 1] under Mult(N, rho): m S[sigma|rho] - S_mix.

        Every term is >= 0 (1 where L = 0), so no O(N) entropy is formed and
        the gap keeps its relative precision at any N. The sum is divided by
        the weights' sum, which cancels the rounding of ln N! shared by every
        weight. A type whose L ln L leaves the double range is a cap.
        """
        # L ln L - L + 1, which is 1 where L = 0 (there 1 + excess is 0)
        terms = 1.0 + self.excess
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(terms, self.log_l, out=terms, where=self.excess > -1.0)
            terms -= self.excess
            terms *= self.weight
        gap = float(terms.sum() / self.weight.sum())
        if not math.isfinite(gap):
            # a type's L ln L passed the double range (its weight may be 0)
            raise CapExceededError(f"gap term L ln L overflows float range: gap {gap}")
        return gap

    def validate(self):
        """One entry per type; the weights and E[L] = sum(mult q) are 1."""
        num_types = _num_types(self.n_total, len(self.rho_p))
        if len(self.weight) != num_types:
            raise InvalidStateError(
                f"{len(self.weight)} type weights for {num_types} type classes"
            )
        total = float(self.weight.sum())
        mean_l = 1.0 + float(self.weight @ self.excess) / total
        if not (abs(total - 1.0) <= NORMALIZATION_TOL and abs(mean_l - 1.0) <= NORMALIZATION_TOL):
            raise InvalidStateError(
                f"type weights sum to {total!r} and E[L] is {mean_l!r}: "
                f"both must be 1 to {NORMALIZATION_TOL}"
            )


@dataclass(frozen=True)
class SymmetrizedMixture:
    """Dense d^N x d^N symmetrized mixture of sigma among rho factors.

    Commuting states need no dense matrix: their spectrum is a
    TypeClassSpectrum (see type_class_spectrum).
    """

    matrix: np.ndarray


@dataclass(frozen=True)
class GracefulReport:
    """Residuals certifying the mixing map conserves energy and free dynamics."""

    energy_residual: float
    commutation_residual: float
    state_residual: float


def dense_state_entropy(matrix: np.ndarray) -> float:
    """Entropy of a dense state from its full spectrum, in nats.

    The eigensolve is real symmetric for float64 and Hermitian for
    complex128. LAPACK returns finite eigenvalues for a matrix holding NaN,
    so a non-finite entry is refused first, by its sum: that needs no
    D x D temporary, and no state's entries (all within [-1, 1]) sum to an
    overflow. mixing_entropy brings it each of R's symmetry blocks (see
    pair_swap_blocks), never a commuting pair's diagonal R: it builds only
    that diagonal.
    """
    total = matrix.sum()
    if not np.isfinite(total):
        raise InvalidStateError(f"entries sum to {total}: not a valid state")
    return entropy_of_spectrum(clamp_spectrum(np.linalg.eigvalsh(matrix)))


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def symmetrized_state_dense(
    sigma: DensityOperator,
    rho: DensityOperator,
    n: int,
    dense_cap: int = DENSE_DIM_CAP,
) -> SymmetrizedMixture:
    """Dense R = (1/(n+1)) sum_k rho^k (x) sigma (x) rho^(n-k).

    R is float64 when sigma and rho are both real, complex128 otherwise.
    """
    _check_square_pair(sigma.entries, rho.entries)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    n_total = n + 1
    acc = kron_sum(rho.entries, sigma.entries, n_total, dense_cap)
    acc /= n_total
    return SymmetrizedMixture(matrix=acc)


def _pair_swap_basis(d: int) -> np.ndarray:
    """Real orthogonal rows for two d-level sites, SWAP-symmetric ones first.

    The d(d+1)/2 symmetric states |ii> and (|ij> + |ji>)/sqrt(2), i < j, then
    the d(d-1)/2 antisymmetric ones (|ij> - |ji>)/sqrt(2).
    """
    pairs = list(itertools.combinations(range(d), 2))
    q = np.zeros((d * d, d * d))
    q[np.arange(d), np.arange(d) * (d + 1)] = 1.0
    half = math.sqrt(0.5)
    for row, (i, j) in enumerate(pairs):
        q[d + row, [i * d + j, j * d + i]] = half
        q[d + len(pairs) + row, [i * d + j, j * d + i]] = half, -half
    return q


def pair_swap_blocks(
    sigma: DensityOperator,
    rho: DensityOperator,
    n: int,
    dense_cap: int = DENSE_DIM_CAP,
) -> list:
    """[(C(k, a), block_a) for a = 0..k]: R as a direct sum of symmetry blocks.

    The N = n + 1 sites group into k = N // 2 pairs and at most one leftover
    site. A pair's factors rho (x) rho and sigma (x) rho + rho (x) sigma
    commute with its SWAP, so in _pair_swap_basis each is block diagonal,
    symmetric block then antisymmetric block; N R is the kron sum over pairs
    and leftover, so R is a direct sum over the 2^k sectors that pick one
    block per pair. Permuting the pairs maps every sector with a
    antisymmetric pairs onto one block_a, site_kron_sum of a antisymmetric
    pair factors, k - a symmetric ones and the leftover (rho, sigma), over N.
    So S[R] = sum_a C(k, a) S[block_a], and no block is wider than
    (d(d+1)/2)^k d^(N mod 2). d^N > dense_cap is refused before anything is
    built.
    """
    _check_square_pair(sigma.entries, rho.entries)
    d, n_total = rho.dim, n + 1
    check_dense_dim(d, n_total, dense_cap)
    k, odd = divmod(n_total, 2)
    q = _pair_swap_basis(d)
    s, r = sigma.entries, rho.entries
    pair_a = q @ np.kron(r, r) @ q.T
    pair_b = q @ (np.kron(s, r) + np.kron(r, s)) @ q.T
    sym, anti = slice(0, d * (d + 1) // 2), slice(d * (d + 1) // 2, d * d)
    sym_site = (pair_a[sym, sym], pair_b[sym, sym])
    anti_site = (pair_a[anti, anti], pair_b[anti, anti])
    return [
        (math.comb(k, a),
         site_kron_sum([anti_site] * a + [sym_site] * (k - a) + [(r, s)] * odd) / n_total)
        for a in range(k + 1)
    ]


def gammaln(x):
    """scipy.special.gammaln, imported on the first call, not with mixent."""
    from scipy.special import gammaln as scipy_gammaln

    return scipy_gammaln(x)


def _num_types(n_total: int, d: int) -> int:
    """C(N + d - 1, d - 1), the types of d symbols with sum N, refused past
    TYPE_CLASS_BUDGET, as are the per-symbol tables of N + 1 entries that
    every enumeration indexes; nothing is allocated.
    """
    if n_total + 1 > TYPE_CLASS_BUDGET:
        raise CapExceededError(
            f"per-symbol tables of {n_total + 1} entries exceed the enumeration "
            f"budget {TYPE_CLASS_BUDGET}"
        )
    num_types = math.comb(n_total + d - 1, d - 1)
    if num_types > TYPE_CLASS_BUDGET:
        raise CapExceededError(
            f"{num_types} type classes exceed the enumeration budget {TYPE_CLASS_BUDGET}"
        )
    return num_types


def _type_count_matrix(n_total: int, d: int) -> np.ndarray:
    """Every count vector of d symbols with sum N, as C-contiguous int64.

    Filled run by run from _type_runs, in its order: symbol a's column takes
    the counts its lookup picks from 0..N. The budget is checked before
    anything is allocated.
    """
    counts = np.empty((_num_types(n_total, d), d), np.int64)
    c = [np.arange(n_total + 1)] * d
    for rows, lookup in _type_runs(n_total, d):
        for a, picked in enumerate(lookup(c)):
            counts[rows, a] = picked
    return counts


def _lookup(index: list, tables) -> list:
    """[tables[a][..., index[a]]]: each symbol's entries for one run, views
    where index[a] is an int or a slice."""
    return [table[..., i] for table, i in zip(tables, index)]


def _gather(index: list, tables) -> list:
    """_lookup's entries where index[a] may be an int array: a gather."""
    return [table.take(i, axis=-1) for table, i in zip(tables, index)]


def _type_runs(n_total: int, d: int):
    """Yield (rows, lookup) per run of the types of d symbols with sum N = n_total.

    lookup(tables), for per-symbol tables whose last axis has length N + 1,
    gives each symbol's entries for the run's types, tables[a] looked up at
    symbol a's count. The types are in lexicographic order, the order of the
    stars-and-bars bar positions itertools.combinations(range(N + d - 1),
    d - 1) lists, and rows number them. Runs take two shapes. At d <= 2 one
    run holds every type and its lookups are views: d = 1 is its single
    type, d = 2 is c0 against N - c0. At d >= 3 a run is the types with one
    first count c0, the last C(N - c0 + d - 2, d - 2) rows of the
    (d-1)-symbol count matrix for N with its first column less c0, a gather
    from that small matrix, itself filled from these runs for d - 1.
    """
    if d <= 2:
        index = [n_total] if d == 1 else [slice(0, n_total + 1), slice(n_total, None, -1)]
        yield slice(0, math.comb(n_total + d - 1, d - 1)), partial(_lookup, index)
        return
    # the (d-1)-symbol matrix by symbol, so that each gathered column is contiguous
    tail = np.ascontiguousarray(_type_count_matrix(n_total, d - 1).T)
    start = 0
    for c0 in range(n_total + 1):
        size = math.comb(n_total - c0 + d - 2, d - 2)
        run = tail[:, tail.shape[1] - size:]
        yield slice(start, start + size), partial(_gather, [c0, run[0] - c0, *run[1:]])
        start += size


def _fold(out: np.ndarray, rows: slice, first: float, picked: list):
    """out[rows] = ((first + picked[0]) + picked[1]) + ..., in place: picked
    is a run's lookup (_type_runs), views at d <= 2 and a gather per first
    count at d >= 3, and each type's sum takes its symbols in one order."""
    sums = out[rows]
    np.add(first, picked[0], out=sums)
    for values in picked[1:]:
        sums += values


def _ratio_excess(sigma_p: np.ndarray, rho_p: np.ndarray) -> np.ndarray:
    """(sigma - rho)/rho on rho's support, the ratios less 1; refused past the double range."""
    with np.errstate(over="ignore"):
        delta = (sigma_p - rho_p) / rho_p
    if not np.isfinite(delta).all():
        s, r = (float(p[np.argmin(np.isfinite(delta))]) for p in (sigma_p, rho_p))
        raise CapExceededError(f"ratio sigma/rho = {s!r}/{r!r} overflows float range")
    return delta


def gap_series(sigma: ClassicalDistribution, rho: ClassicalDistribution) -> tuple:
    """(a1, a2, a3): gap = a1/N + a2/N^2 + a3/N^3 + O(N^-4) for m = 1.

    The gap is E[L ln L - L + 1] with L - 1 the mean of N draws of
    Y = sigma_a/rho_a - 1 under rho; expanding L ln L - L + 1 about L = 1
    and taking the moments of that mean from the cumulants k_j of Y gives
    the series (Hall, The Bootstrap and Edgeworth Expansion, 1992, ch. 2).
    Y lives on rho's support (see _supported_pair), where E[Y] = 0:

        a1 = k2/2,  a2 = k2^2/4 - k3/6,  a3 = k4/12 - k2 k3/2 + k2^3/2

    a1 = chi2(sigma, rho)/2. sigma = rho gives (0, 0, 0), as the gap is 0.
    """
    sigma_p, rho_p = _supported_pair(sigma, rho)
    y = _ratio_excess(sigma_p, rho_p)
    k2, k3 = float(rho_p @ y**2), float(rho_p @ y**3)
    k4 = float(rho_p @ y**4) - 3.0 * k2**2
    return k2 / 2, k2**2 / 4 - k3 / 6, k4 / 12 - k2 * k3 / 2 + k2**3 / 2


def gap_integrals(sigma_p: np.ndarray, rho_p: np.ndarray, n_totals: Sequence[int]) -> list:
    """The m = 1 gap E[L ln L] under Mult(N, rho) for each N of n_totals.

    L is the mean of N draws of r = sigma/rho, the pair on rho's support (_supported_pair).
    By Frullani's ln L = int (e^-t - e^-tL) dt/t (Knessl, Appl. Math. Lett. 11, 1998), with
    E[L e^-tL] = psi phi^(N-1), psi and phi = sigma and rho . e^-sr, s = t/N: gap = int
    e^-t (-expm1(w)) dx, t = e^x, w = v + (N-1) u, u = ln phi + s = log1p(rho . g), v =
    ln psi + s = log1p(sigma . g - s chi2), g = e^y - 1 - y, y = -s delta, delta = (sigma -
    rho)/rho, chi2 = rho . delta^2. Where |w| > 1 the integrand is e^-t - E[L e^-tL], E's
    log past s = 1 by log-sum-exps. Trapezoid rule in x (Trefethen & Weideman, SIAM Rev.
    56, 2014) from GAP_X_MIN - ln r_max, below which the integrand is t chi2/N, to ln 60
    + max(0, ln N - ln r_min), past which it is below e^-60: a positive L is >= r_min/N.
    x_min does not depend on N, so every N's nodes are a prefix of one lattice. The
    integrand is evaluated once per node for GAP_BLOCK N at a time, one column each, and
    each column is fsum-ed over its own nodes: a gap keeps the bits of a one-N call, and
    memory does not grow with the number of N. A gap that is not finite, or that w - t's
    rounding may move past GAP_REL_ERR of itself, is refused (CapExceededError).
    """
    delta = _ratio_excess(sigma_p, rho_p)
    chi2, gaps = float((rho_p * delta) @ delta), []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_pair = np.log([sigma_p, rho_p])
        log_r = log_pair[0] - log_pair[1]
        log_r_min = float(log_r[sigma_p > 0.0].min())
        x_min = GAP_X_MIN - GAP_STEP * math.ceil(float(log_r.max()) / GAP_STEP)
        for start in range(0, len(n_totals), GAP_BLOCK):
            block = n_totals[start:start + GAP_BLOCK]
            sizes = [math.ceil((max(math.log(n) - log_r_min, 0.0) + math.log(60.0) - x_min)
                               / GAP_STEP) + 1 for n in block]
            # node k of N = block[j] at k len(block) + j, up to the longest N's last node
            rows = max(sizes)
            x = np.repeat(x_min + GAP_STEP * np.arange(rows), len(block))
            log_n = np.tile([math.log(n) for n in block], rows)
            n_rho = np.tile([float(n - 1) for n in block], rows)
            t = np.exp(x)
            s = t / np.tile(np.array(block, dtype=float), rows)
            y = np.multiply.outer(-s, delta)
            em = np.expm1(y)
            h = np.where(np.abs(y) < 0.25, np.polyval(G_SERIES, y), (em - y) / y / y)
            # past s max|delta| = 1: sigma . expm1(y), taking sigma . delta as chi2,
            # or ln(sigma . e^y)
            z = em @ sigma_p + s * float(rho_p @ delta)
            v = np.where(s * float(np.abs(delta).max()) < 1.0,
                         np.log1p((h * y * y) @ sigma_p - s * chi2),
                         np.where(z > -0.5, np.log1p(z), np.log(np.exp(y) @ sigma_p)))
            # (N-1) log1p(s q), s q = rho . g: (N-1) s q below 1e-20, where s q may underflow
            q = s * (h @ (rho_p * delta * delta))
            w = v + np.where(s * q < 1e-20, (n_rho * s) * q, n_rho * np.log1p(s * q))
            f = np.exp(-t)
            abs_w = np.abs(w)
            near = abs_w <= 1.0
            f[near] *= -np.expm1(w[near])
            # w - t rounds by eps t, below the log-sum-exps' (N - 1) eps, while s < 1;
            # past it w - t can cancel to nothing
            log_e = w - t
            lse = ~near & (s >= 1.0)
            terms = log_pair[:, None, :] - np.exp(np.add.outer(x[lse] - log_n[lse], log_r))
            log_psi, log_phi = np.logaddexp.reduce(terms, axis=2)
            log_e[lse] = log_psi + n_rho[lse] * log_phi
            f[~near] -= np.exp(log_e[~near])
            f = f.reshape(-1, len(block))
            # the most that rounding can move each w - t node's term, exp(log_e + r) (1 - e^-r);
            # past an N's last node s > 60, so a column's sum is over its own nodes
            r = GAP_ROUND * (abs_w + t)
            slack = np.where(near | lse, 0.0, np.exp(log_e + r) * -np.expm1(-r)).reshape(f.shape)
            for j, (n, size, bound) in enumerate(zip(block, sizes, slack.sum(axis=0).tolist())):
                gap, bound = GAP_STEP * math.fsum(f[:size, j].tolist()), GAP_STEP * bound
                if not (math.isfinite(gap) and bound <= GAP_REL_ERR * abs(gap)):
                    raise CapExceededError(f"gap integral at N = {n} is {gap!r}, but rounding may "
                                           f"move it by {bound!r}: past {GAP_REL_ERR} of itself")
                gaps.append(gap)
    return gaps


def _log_choose(n: int, k: int) -> float:
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def _placement_factors(ratios: np.ndarray, n_total: int, m_sigma: int) -> np.ndarray:
    """factors[a, j, c] = C(c, j) ratios[a]^j for c = 0..N and j = 0..m.

    Symbol a with count c contributes (1 + ratios[a] x)^c, truncated at x^m,
    to the placement polynomial whose x^m coefficient is e_m.
    """
    c = np.arange(n_total + 1)
    factors = np.ones((len(ratios), m_sigma + 1, n_total + 1))
    for j in range(1, m_sigma + 1):
        factors[:, j] = factors[:, j - 1] * ((c - j + 1) * ratios[:, None] / j)
    return factors


def _truncated_product(poly: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """poly * factor truncated at factor's degree; row k is the x^k coefficient.

    Past the first axis the coefficients run over a run's types.
    """
    product = np.zeros(np.broadcast(poly[0], factor).shape)
    for k, coef in enumerate(poly):
        product[k:] += coef * factor[: len(factor) - k]
    return product


def type_class_spectrum(
    sigma: ClassicalDistribution,
    rho: ClassicalDistribution,
    n_total: int,
    m_sigma: int = 1,
) -> TypeClassSpectrum:
    """Exact spectrum of m_sigma sigma factors spread over n_total systems.

    The mixture is uniform over the C(N, m) placements of the sigma factors
    among the N = n_total systems. A string of type t (symbol counts t_a)
    carries the eigenvalue

        q(t) = (prod_a rho_a^{t_a}) * L(t),   L = e_m(ratio multiset) / C(N, m)

    with ratios sigma_a / rho_a and multiplicity N!/prod t_a!; E[L] = 1 under
    Mult(N, rho). Every type of the symbols rho holds (see _supported_pair)
    comes run by run from _type_runs, with no d-symbol count matrix: one run
    of views into per-symbol tables of length N + 1 at d <= 2, one gathered
    run per first count c0 at d >= 3. A run's entries are left folds
    (_fold), symbol by symbol, so a type's entry takes the same operations
    in the same order whatever run holds it. They give each
    type's log weight ln N! + sum_a (c_a ln rho_a - ln c_a!), from one
    gammaln call, and, for m = 1, L - 1 = sum_a c_a (sigma_a - rho_a) /
    (rho_a N), so that ln L = log1p(L - 1) with no cancellation. For m >= 2
    the placement polynomial prod_a (1 + r_a x)^{c_a}, truncated at x^m, is
    multiplied up symbol by symbol, its ratios scaled by their maximum so
    that every coefficient stays at or below C(N, k). The budget
    (_num_types) is checked before anything is allocated, and the spectrum
    is validated before it is used.
    """
    if not 1 <= m_sigma < n_total:
        raise ValueError(
            f"need 1 <= m_sigma < n_total (at least one rho), "
            f"got m_sigma={m_sigma}, n_total={n_total}"
        )
    sigma_p, rho_p = _supported_pair(sigma, rho)
    delta = _ratio_excess(sigma_p, rho_p)
    overflow = (f"e_{m_sigma} or the placement mean L = e_{m_sigma} / C(N, {m_sigma}) "
                "overflows float range")
    # the type with every count on the largest ratio has scaled coefficients
    # C(N, k), k <= m: refuse before enumerating when the largest leaves the
    # double range by more than log-gamma's rounding
    if m_sigma > 1 and _log_choose(n_total, min(m_sigma, n_total // 2)) > LOG_FLOAT_MAX + 1.0:
        raise CapExceededError(overflow)
    num_types = _num_types(n_total, len(rho_p))
    c = np.arange(n_total + 1)
    lgamma = gammaln(np.arange(n_total + 2))    # ln k! = lgamma[k + 1]
    log_w_table = np.log(rho_p)[:, None] * c - lgamma[1:]
    log_w = np.empty(num_types)
    if m_sigma == 1:
        shift = delta[:, None] * c    # c (ratio - 1), unrounded
        excess = np.empty(num_types)
    else:
        ratios = sigma_p / rho_p
        scale = ratios.max()
        with np.errstate(over="ignore", invalid="ignore"):
            factors = _placement_factors(ratios / scale, n_total, m_sigma)
        e_m = np.empty(num_types)
    for rows, lookup in _type_runs(n_total, len(rho_p)):
        _fold(log_w, rows, lgamma[n_total + 1], lookup(log_w_table))
        if m_sigma == 1:
            _fold(excess, rows, 0.0, lookup(shift))
        else:
            poly = np.ones(1)
            with np.errstate(over="ignore", invalid="ignore"):
                for factor in lookup(factors):
                    poly = _truncated_product(poly, factor)
            e_m[rows] = poly[m_sigma]
    weight = np.exp(log_w, out=log_w)
    if m_sigma == 1:
        excess /= n_total      # L - 1
        with np.errstate(divide="ignore"):
            log_l = np.log1p(excess)
    else:
        with np.errstate(divide="ignore", over="ignore"):
            log_l = m_sigma * np.log(scale) + np.log(e_m) - _log_choose(n_total, m_sigma)
            excess = np.expm1(log_l)
        # an overflowing e_m, or an L past the double range, leaves excess inf
        if not np.isfinite(excess).all():
            raise CapExceededError(overflow)
    spec = TypeClassSpectrum(
        n_total=n_total,
        m_sigma=m_sigma,
        weight=weight,
        excess=excess,
        log_l=log_l,
        sigma_p=sigma_p,
        rho_p=rho_p,
    )
    spec.validate()
    return spec


def classical_mixing_entropy_exact(
    sigma: ClassicalDistribution,
    rho: ClassicalDistribution,
    n: int,
    m_sigma: int = 1,
) -> MixingRecord:
    """Exact S_mix for m_sigma sigma factors among n rho factors, commuting states.

    The gap comes first, for N = n + m_sigma systems: for m = 1 from
    gap_integrals, with no budget at any N, and for m >= 2 from the type
    classes (TypeClassSpectrum.gap); S_mix = m S[sigma|rho] - gap. The record's
    S_rel column holds m S[sigma|rho], the candidate n -> infinity limit,
    and its gap column the route's gap itself. For m = 1 the gap follows
    gap_series; for m >= 2 its leading term is m^2 a1/N.
    """
    return _classical_records(sigma, rho, relative_entropy(sigma.as_density(), rho.as_density()),
                              [n], m_sigma)[0]


def _classical_records(
    sigma: ClassicalDistribution,
    rho: ClassicalDistribution,
    s_rel: float,
    ns: Sequence[int],
    m_sigma: int = 1,
) -> list:
    """classical_mixing_entropy_exact's records for each n of ns, given s_rel =
    S[sigma|rho]; for m = 1 from one gap_integrals pass."""
    if min(ns) < 1:
        raise ValueError(f"need n >= 1, got {min(ns)}")
    if max(ns) + m_sigma > sys.float_info.max:
        raise CapExceededError(f"N = 10^{math.log10(max(ns) + m_sigma):.1f} passes the "
                               f"float range {sys.float_info.max!r}")
    if m_sigma == 1:
        gaps = gap_integrals(*_supported_pair(sigma, rho), [n + 1 for n in ns])
    else:
        gaps = [type_class_spectrum(sigma, rho, n + m_sigma, m_sigma).gap() for n in ns]
    s_rel = m_sigma * s_rel
    method = "classical-exact" if m_sigma == 1 else f"classical-multi(m_sigma={m_sigma})"
    return [MixingRecord(n=n, s_mix=s_rel - gap, s_rel=s_rel, gap=gap, method=method)
            for n, gap in zip(ns, gaps)]


def permutation_twirl_dense(
    x: np.ndarray, n_total: int, dense_cap: int = DENSE_DIM_CAP
) -> np.ndarray:
    """(1/N!) sum_pi P_pi X P_pi† over all N! subsystem permutations."""
    x = _as_square_complex(x)
    if n_total > TWIRL_FACTORIAL_CAP:
        raise CapExceededError(
            f"twirl over {n_total}! permutations exceeds cap {TWIRL_FACTORIAL_CAP}!"
        )
    dim = x.shape[0]
    d = round(dim ** (1 / n_total))
    if d**n_total != dim:
        raise ValueError(f"matrix dimension {dim} is not a perfect {n_total}-th power")
    check_dense_dim(d, n_total, dense_cap)
    # x as a tensor with one row and one column axis per subsystem
    t = x.reshape((d,) * (2 * n_total))
    perms = list(itertools.permutations(range(n_total)))
    acc = sum(t.transpose(perm + tuple(n_total + p for p in perm)) for perm in perms)
    return (acc / len(perms)).reshape(x.shape)


def graceful_checks(
    sigma: DensityOperator,
    rho: DensityOperator,
    n: int,
    h: HermitianOperator,
    dense_cap: int = DENSE_DIM_CAP,
) -> GracefulReport:
    """Check the mixing map conserves energy and commutes with free dynamics.

    energy_residual = |tr(H_R R) - tr(H_R sigma(x)rho^n)| and
    commutation_residual = max |M[H_R, X] - [H_R, M X]|; both vanish because
    H_R is permutation invariant and M is a permutation average.
    state_residual = max |R - M X| compares the kron-built R with the twirl
    of X = sigma(x)rho^n, which is R by definition.
    """
    if not (sigma.dim == rho.dim == h.dim):
        raise DimensionMismatchError(
            f"dims sigma {sigma.dim}, rho {rho.dim}, H {h.dim} differ"
        )
    n_total = n + 1
    # R and H_R first: their builder checks the cap before it allocates
    r_matrix = symmetrized_state_dense(sigma, rho, n, dense_cap=dense_cap).matrix
    h_r = reservoir_hamiltonian(h, n_total, dense_cap=dense_cap).entries
    product = kron_all([sigma.entries] + [rho.entries] * n)

    energy_residual = abs(
        np.trace(h_r @ r_matrix) - np.trace(h_r @ product)
    )

    twirled_x = permutation_twirl_dense(product, n_total, dense_cap=dense_cap)
    comm = h_r @ product - product @ h_r
    lhs = permutation_twirl_dense(comm, n_total, dense_cap=dense_cap)
    rhs = h_r @ twirled_x - twirled_x @ h_r
    commutation_residual = float(np.max(np.abs(lhs - rhs)))
    return GracefulReport(
        energy_residual=float(energy_residual),
        commutation_residual=commutation_residual,
        state_residual=float(np.max(np.abs(r_matrix - twirled_x))),
    )


def _commutator_max(sigma: DensityOperator, rho: DensityOperator) -> float:
    c = sigma.entries @ rho.entries - rho.entries @ sigma.entries
    return float(np.max(np.abs(c)))


def simultaneous_classical_pair(sigma: DensityOperator, rho: DensityOperator) -> tuple:
    """Diagonalize a commuting pair in a joint eigenbasis.

    Returns (sigma_dist, rho_dist) as classical distributions, entry i of
    each on one joint eigenvector. rho eigenvalues closer than
    DEGENERACY_GAP form one block, in which sigma is diagonalized, and each
    eigenvector v of that block carries sigma's eigenvalue and rho's value
    <v|rho|v> = r_0 + sum_k |v_k|^2 (r_k - r_0), r_0 the block's first rho
    eigenvalue. A nearly degenerate block so keeps each sigma value with its
    own rho value, and an exactly degenerate one keeps rho's bits. A block
    of one keeps both diagonal entries as they are.
    """
    _check_square_pair(sigma.entries, rho.entries)
    if _commutator_max(sigma, rho) > COMMUTE_TOL:
        raise InvalidStateError(
            f"[sigma, rho] exceeds {COMMUTE_TOL}: states do not commute"
        )
    rho_eigs, basis = np.linalg.eigh(rho.entries)
    sigma_in_basis = basis.conj().T @ sigma.entries @ basis

    sigma_probs = np.empty(sigma.dim)
    rho_probs = rho_eigs.copy()
    start = 0
    for stop in range(1, sigma.dim + 1):
        if stop < sigma.dim and rho_eigs[stop] - rho_eigs[stop - 1] < DEGENERACY_GAP:
            continue
        block = sigma_in_basis[start:stop, start:stop]
        if stop - start == 1:
            sigma_probs[start] = block[0, 0].real
        else:
            sigma_probs[start:stop], vecs = np.linalg.eigh(block)
            spread = rho_eigs[start:stop] - rho_eigs[start]
            rho_probs[start:stop] = rho_eigs[start] + (np.abs(vecs) ** 2).T @ spread
        start = stop

    return (
        ClassicalDistribution(clamp_spectrum(sigma_probs)),
        ClassicalDistribution(clamp_spectrum(rho_probs)),
    )


def _in_rho_eigenbasis(sigma: DensityOperator, rho: DensityOperator) -> tuple:
    """(D† V† sigma V D, diag(w)) for rho = V diag(w) V† and a diagonal phase D.

    Conjugating sigma and rho by one unitary conjugates R by its (n+1)-fold
    tensor power, so S[R] does not change. D makes row 0 of sigma real and
    nonnegative, which leaves a qubit pair real; a real pair keeps a real
    basis from a real eigh. A pair with d >= 3 that no phase makes real stays
    complex. Row and column 0 are set to the moduli they equal exactly, and
    the diagonal to its real part, so rounding leaves no imaginary residue
    for kron_sum to see.
    """
    r = rho.entries
    w, v = np.linalg.eigh(r if np.imag(r).any() else r.real)
    s = v.conj().T @ sigma.entries @ v
    row = np.abs(s[0])
    phase = np.divide(s[0].conj(), row, out=np.ones_like(s[0]), where=row > 0.0)
    s = phase.conj()[:, None] * s * phase
    s[0] = s[:, 0] = row
    np.fill_diagonal(s, s.diagonal().real)
    return DensityOperator(s), DensityOperator(np.diag(w))


def _prepare(sigma: StateLike, rho: StateLike, method: str):
    """The per-pair work of mixing_entropy's route, done once: returns (records, one_pass).

    records(ns, dense_cap) is the MixingRecord list for the n of ns. The
    commutator check, the joint diagonalization and S[sigma|rho] are the
    pair's, and for the dense routes also rho's eigenbasis, S[rho] and
    S[sigma]; only R's spectrum, or the gap integral, depends on n.
    classical-exact takes all of ns in one gap_integrals pass (one_pass), the
    dense routes one n at a time. A stack of states is refused.
    """
    sigma_op = sigma.as_density() if isinstance(sigma, ClassicalDistribution) else sigma
    rho_op = rho.as_density() if isinstance(rho, ClassicalDistribution) else rho
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    _check_square_pair(sigma_op.entries, rho_op.entries)
    commute = _commutator_max(sigma_op, rho_op) <= COMMUTE_TOL
    if method == "auto":
        method = "classical-exact" if commute else "dense"
    if method == "classical-exact" or commute:
        sigma_dist, rho_dist = simultaneous_classical_pair(sigma_op, rho_op)
    if method == "classical-exact":
        s_rel = relative_entropy(sigma_dist.as_density(), rho_dist.as_density())
        return lambda ns, dense_cap: _classical_records(sigma_dist, rho_dist, s_rel, ns), True

    # refuses sigma off rho's support before R is built
    s_rel = relative_entropy(sigma_op, rho_op)
    s_rho, s_sigma = von_neumann_entropy(rho_op), von_neumann_entropy(sigma_op)
    if commute:
        def r_entropy(n, dense_cap):
            # in a joint eigenbasis R is diagonal and its diagonal is its spectrum
            r_diagonal = kron_sum(rho_dist.p, sigma_dist.p, n + 1, dense_cap)
            return entropy_of_spectrum(clamp_spectrum(r_diagonal / (n + 1)))
    else:
        pair = _in_rho_eigenbasis(sigma_op, rho_op)

        def r_entropy(n, dense_cap):
            blocks = pair_swap_blocks(*pair, n, dense_cap)
            return math.fsum(weight * dense_state_entropy(block) for weight, block in blocks)

    def record(n, dense_cap):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        s_mix = r_entropy(n, dense_cap) - n * s_rho - s_sigma
        return MixingRecord(n=n, s_mix=s_mix, s_rel=s_rel, gap=s_rel - s_mix, method="dense")

    return lambda ns, dense_cap: [record(n, dense_cap) for n in ns], False


def mixing_entropy(
    sigma: StateLike,
    rho: StateLike,
    n: int,
    method: str = "auto",
    dense_cap: int = DENSE_DIM_CAP,
) -> MixingRecord:
    """S_mix[sigma|rho; n] = S[R] - n S[rho] - S[sigma], in nats.

    method 'dense' takes the exact spectrum of the d^(n+1)-dimensional R,
    in rho's eigenbasis with sigma's row 0 made real (same spectrum; a qubit
    pair's R is real there, so its eigensolves are real symmetric), from the
    k + 1 pair-swap blocks of pair_swap_blocks, each through
    dense_state_entropy; R itself is never formed. When the states commute
    to COMMUTE_TOL, R is diagonal in their joint eigenbasis and only its
    d^(n+1) diagonal entries are built, by kron_sum on the two spectra
    simultaneous_classical_pair gives;
    'classical-exact' requires commuting states and takes the gap first
    (classical_mixing_entropy_exact);
    'auto' picks classical-exact when the states commute, else dense.
    The pair's share of the work is _prepare's, which convergence_sweep
    does once for all its n: a record is a one-n sweep's.
    """
    return _prepare(sigma, rho, method)[0]([n], dense_cap)[0]


def convergence_sweep(
    sigma: StateLike,
    rho: StateLike,
    n_list: Sequence[int],
    method: str = "auto",
    dense_cap: int = DENSE_DIM_CAP,
) -> list:
    """One MixingRecord per n, in increasing n, each mixing_entropy's.

    n_list names at least one n, and each n once: records.csv is keyed by n.
    The pair is prepared once (_prepare). A dense record's wall_time_ms
    covers its own n alone; classical-exact makes every record in one pass,
    and each of its records holds an equal share of that pass.
    """
    if len(n_list) == 0:
        raise ValueError("sweep lists no n")
    if len(set(n_list)) != len(n_list):
        raise ValueError(f"sweep lists some n more than once: {list(n_list)}")
    records_of, one_pass = _prepare(sigma, rho, method)
    ns, records = sorted(n_list), []
    for chunk in [ns] if one_pass else [[n] for n in ns]:
        t0 = time.perf_counter()
        done = records_of(chunk, dense_cap)
        share_ms = (time.perf_counter() - t0) * 1e3 / len(chunk)
        records += [replace(rec, wall_time_ms=share_ms) for rec in done]
    return records


def records_to_csv(records: Sequence[MixingRecord]) -> str:
    lines = [SWEEP_CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"
