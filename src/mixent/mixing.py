"""The graceful mixing map: symmetrized states and the entropy of mixing.

One sigma-molecule loses its identity among n rho-molecules:

    R = (1/(n+1)) * sum_k  rho^k (x) sigma (x) rho^(n-k)

and the entropy of mixing S_mix = S[R] - n S[rho] - S[sigma] is computed by
two independent routes (the spectrum of a dense R, built in rho's eigenbasis,
where only the diagonal is built for commuting states, R being diagonal in
their joint eigenbasis; exact type-class enumeration for commuting states) so
each can serve as the other's oracle.
The conjectured n -> infinity limit is the relative entropy S[sigma|rho].
The type-class route also spreads m sigma factors over N = n + m systems,
the mixture after m collisions, whose candidate limit m S[sigma|rho] is
reported, not asserted.
scipy is imported on the first call to gammaln, so only the type-class routes
pay for it.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InvalidStateError,
)
from .collisions import DENSE_DIM_CAP, kron_sum, reservoir_hamiltonian
from .states import (
    ClassicalDistribution,
    DensityOperator,
    HermitianOperator,
    SUPPORT_TOL,
    clamp_spectrum,
    entropy_of_spectrum,
    exact_sum,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)

TWIRL_FACTORIAL_CAP = 8      # N! permutations enumerated explicitly
TYPE_CLASS_BUDGET = 5_000_000
COMMUTE_TOL = 1e-10
NORMALIZATION_TOL = 1e-9
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

    counts[t] is the symbol-count vector of type t (rows sum to n_total);
    log_q[t] the log-eigenvalue shared by every string of that type (-inf for
    eigenvalue 0); log_mult[t] the log of the multinomial multiplicity. Its
    sums (total weight, entropy) go through exact_sum: the bits of math.fsum
    at a fraction of its time on terms spanning hundreds of binary exponents.
    """

    n_total: int
    counts: np.ndarray
    log_q: np.ndarray
    log_mult: np.ndarray

    def exact_multiplicities(self) -> list:
        """Exact integer multiplicities (big ints; intended for small N)."""
        mults = []
        for row in self.counts:
            m = math.factorial(self.n_total)
            for c in row:
                m //= math.factorial(int(c))
            mults.append(m)
        return mults

    @cached_property
    def _weights(self) -> tuple:
        """(mult * q, ln q) over the types with a nonzero eigenvalue."""
        finite = np.isfinite(self.log_q)
        if finite.all():    # no copies: the cache then holds only the weights
            return np.exp(self.log_mult + self.log_q), self.log_q
        lq = self.log_q[finite]
        return np.exp(self.log_mult[finite] + lq), lq

    def total_weight(self) -> float:
        """sum over types of multiplicity * eigenvalue; must be 1."""
        return exact_sum(self._weights[0])

    def entropy(self) -> float:
        """S[R] = -sum_m mult(m) q(m) ln q(m), in nats."""
        weights, lq = self._weights
        return exact_sum(-weights * lq)

    def validate(self):
        if np.any(self.counts.sum(axis=1) != self.n_total):
            raise InvalidStateError("type vector does not sum to the system count")
        total = self.total_weight()
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise InvalidStateError(
                f"type-class spectrum sums to {total!r}, not 1 to {NORMALIZATION_TOL}"
            )


@dataclass(frozen=True)
class SymmetrizedMixture:
    """Dense d^N x d^N symmetrized mixture of sigma among rho factors.

    Commuting states need no dense matrix: their spectrum is a
    TypeClassSpectrum (see type_class_spectrum).
    """

    matrix: np.ndarray

    def entropy(self) -> float:
        return dense_state_entropy(self.matrix)


@dataclass(frozen=True)
class ExtrapolationSummary:
    """Best-fit decay model S_mix(n) = limit - a * f(n) over the sweep tail."""

    model: str
    a: float
    limit: float
    residual: float

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "a": self.a,
            "limit": self.limit,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class GracefulReport:
    """Residuals certifying the mixing map conserves energy and free dynamics."""

    energy_residual: float
    commutation_residual: float


def dense_state_entropy(matrix: np.ndarray) -> float:
    """Entropy of a dense state from its full spectrum, in nats.

    The eigensolve is real symmetric for float64 and Hermitian for
    complex128. LAPACK returns finite eigenvalues for a matrix holding NaN,
    so a non-finite entry is refused first, by its sum: that needs no
    D x D temporary, and no state's entries (all within [-1, 1]) sum to an
    overflow. mixing_entropy does not come here with a commuting pair's
    diagonal R: it builds only that diagonal.
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
    if sigma.dim != rho.dim:
        raise DimensionMismatchError(f"dims {sigma.dim} vs {rho.dim}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    n_total = n + 1
    acc = kron_sum(rho.entries, sigma.entries, n_total, dense_cap)
    acc /= n_total
    return SymmetrizedMixture(matrix=acc)


def gammaln(x):
    """scipy.special.gammaln, imported on the first call, not with mixent."""
    from scipy.special import gammaln as scipy_gammaln

    return scipy_gammaln(x)


def _type_count_matrix(n_total: int, d: int) -> np.ndarray:
    """All count vectors (m_1..m_d) with sum n_total, as an int array.

    Rows are in lexicographic order, the order of the stars-and-bars bar
    positions itertools.combinations(range(n_total + d - 1), d - 1) lists.
    Each pass splits every row's last entry r into r + 1 rows (c, r - c) with
    c = 0..r, so d - 1 passes of np.repeat build the matrix. The budget is
    checked before anything is allocated.
    """
    num_types = math.comb(n_total + d - 1, d - 1)
    if num_types > TYPE_CLASS_BUDGET:
        raise CapExceededError(
            f"{num_types} type classes exceed the enumeration budget {TYPE_CLASS_BUDGET}"
        )
    counts = np.array([[n_total]], dtype=np.int64)
    for _ in range(d - 1):
        rest = counts[:, -1]
        width = rest + 1
        parent = np.repeat(np.arange(len(counts)), width)
        split = np.arange(len(parent)) - np.repeat(np.cumsum(width) - width, width)
        counts = np.column_stack([counts[parent, :-1], split, rest[parent] - split])
    return counts


def _log_placement_mean(
    counts: np.ndarray, ratios: np.ndarray, n_total: int, m_sigma: int
) -> np.ndarray:
    """ln L per type (row of counts), L = e_m(ratio multiset) / C(N, m).

    The multiset holds ratios[a] = sigma_a / rho_a repeated counts[t, a]
    times, and L is the mean over the C(N, m) placements of the m sigma
    factors of the product of their ratios. e_m is the coefficient of x^m
    in prod_a (1 + r_a x)^{counts[t, a]}: one product per symbol, truncated
    at x^m, over all types at once. The ratios are scaled by their maximum,
    so every coefficient stays at or below C(N, k).
    """
    scale = ratios.max()
    poly = np.ones((1, len(counts)))     # poly[k] is the x^k coefficient, per type
    with np.errstate(over="ignore", invalid="ignore"):
        for c, r in zip(counts.T, ratios / scale):
            factor = np.ones((m_sigma + 1, len(counts)))    # C(c, j) r^j
            for j in range(1, m_sigma + 1):
                factor[j] = factor[j - 1] * ((c - j + 1) * r / j)
            product = np.zeros_like(factor)
            for k, coef in enumerate(poly):
                product[k:] += coef * factor[: m_sigma + 1 - k]
            poly = product
    e_m = poly[m_sigma]
    if not np.isfinite(e_m).all():
        # coefficients are bounded by C(N, k), so this only trips when the
        # placement count itself leaves the double range
        raise CapExceededError(
            f"elementary symmetric polynomial e_{m_sigma} overflows float range"
        )
    log_choose = gammaln(n_total + 1) - gammaln(m_sigma + 1) - gammaln(n_total - m_sigma + 1)
    with np.errstate(divide="ignore"):
        return m_sigma * np.log(scale) + np.log(e_m) - log_choose


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

    with ratios sigma_a / rho_a and multiplicity N!/prod t_a!. For m = 1, L is
    the mean ratio (1/N) sum_a t_a sigma_a / rho_a, computed as
    counts @ ratios / N; for m >= 2 it comes from _log_placement_mean.
    Symbols outside rho's support appear in no string, so counts has one
    column per symbol rho holds; sigma may hold no other beyond SUPPORT_TOL,
    the rounding a joint eigenbasis leaves. Everything
    is kept in the log domain and the normalization sum mult*q = 1 is
    verified before the spectrum is used. Its entropy() is S[R] without a
    dense R.
    """
    if not 1 <= m_sigma < n_total:
        raise ValueError(
            f"need 1 <= m_sigma < n_total (at least one rho), "
            f"got m_sigma={m_sigma}, n_total={n_total}"
        )
    if sigma.dim != rho.dim:
        raise DimensionMismatchError(f"dims {sigma.dim} vs {rho.dim}")
    support = rho.p > 0.0
    if np.any(sigma.p[~support] > SUPPORT_TOL):
        raise InvalidStateError("sigma has weight outside rho's support")
    sigma_p, rho_p = sigma.p[support], rho.p[support]
    counts = _type_count_matrix(n_total, len(rho_p))
    lgamma = gammaln(np.arange(n_total + 2))    # ln k! = lgamma[k + 1]
    log_mult = lgamma[n_total + 1] - lgamma[counts + 1].sum(axis=1)
    log_rho, ratios = np.log(rho_p), sigma_p / rho_p
    if m_sigma == 1:
        # ratio_mean first and freed before validate: on 2.1M types this
        # order of temporaries peaks 2 MB lower in RSS than the others tried
        ratio_mean = counts @ ratios / n_total
        with np.errstate(divide="ignore"):
            log_q = counts @ log_rho + np.log(ratio_mean)
        del ratio_mean
    else:
        log_q = counts @ log_rho + _log_placement_mean(counts, ratios, n_total, m_sigma)
    spec = TypeClassSpectrum(
        n_total=n_total,
        counts=counts,
        log_q=log_q,
        log_mult=log_mult,
    )
    spec.validate()
    return spec


def _record(n, s_mix, s_rel, method) -> MixingRecord:
    return MixingRecord(n=n, s_mix=s_mix, s_rel=s_rel, gap=s_rel - s_mix, method=method)


def classical_mixing_entropy_exact(
    sigma: ClassicalDistribution,
    rho: ClassicalDistribution,
    n: int,
    m_sigma: int = 1,
) -> MixingRecord:
    """Exact S_mix for m_sigma sigma factors among n rho factors, commuting states.

    S_mix = S[R] - n S[rho] - m S[sigma], with S[R] from type_class_spectrum;
    the record's S_rel column holds m S[sigma|rho], the candidate
    n -> infinity limit (reported, not asserted).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    spec = type_class_spectrum(sigma, rho, n + m_sigma, m_sigma)
    s_mix = spec.entropy() - n * shannon_entropy(rho) - m_sigma * shannon_entropy(sigma)
    s_rel = m_sigma * relative_entropy(sigma.as_density(), rho.as_density())
    method = "classical-exact" if m_sigma == 1 else f"classical-multi(m_sigma={m_sigma})"
    return _record(n, s_mix, s_rel, method)


def _as_tensor(x: np.ndarray, d: int, n_total: int) -> np.ndarray:
    return np.asarray(x).reshape((d,) * (2 * n_total))


def _permutation_conjugate(t: np.ndarray, perm, n_total: int) -> np.ndarray:
    """Conjugate the matrix-as-tensor t by the subsystem permutation perm."""
    axes = tuple(perm) + tuple(n_total + p for p in perm)
    return t.transpose(axes)


def _infer_local_dim(dim: int, n_total: int) -> int:
    d = round(dim ** (1.0 / n_total))
    for cand in (d - 1, d, d + 1):
        if cand >= 1 and cand**n_total == dim:
            return cand
    raise ValueError(f"matrix dimension {dim} is not a perfect {n_total}-th power")


def permutation_twirl_dense(
    x: np.ndarray, n_total: int, dense_cap: int = DENSE_DIM_CAP
) -> np.ndarray:
    """(1/N!) sum_pi P_pi X P_pi† over all N! subsystem permutations."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    if n_total > TWIRL_FACTORIAL_CAP:
        raise CapExceededError(
            f"twirl over {n_total}! permutations exceeds cap {TWIRL_FACTORIAL_CAP}!"
        )
    if x.shape[0] > dense_cap:
        raise CapExceededError(
            f"dense dimension {x.shape[0]} exceeds cap {dense_cap}"
        )
    d = _infer_local_dim(x.shape[0], n_total)
    t = _as_tensor(x, d, n_total)
    acc = np.zeros_like(t)
    count = 0
    for perm in itertools.permutations(range(n_total)):
        acc += _permutation_conjugate(t, perm, n_total)
        count += 1
    return (acc / count).reshape(x.shape)


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
    )


def _commutator_max(sigma: DensityOperator, rho: DensityOperator) -> float:
    c = sigma.entries @ rho.entries - rho.entries @ sigma.entries
    return float(np.max(np.abs(c)))


def simultaneous_classical_pair(sigma: DensityOperator, rho: DensityOperator) -> tuple:
    """Diagonalize a commuting pair in a joint eigenbasis.

    Returns (sigma_dist, rho_dist) as classical distributions. Degenerate
    rho-eigenvalue blocks are resolved by diagonalizing sigma within each
    block, so degeneracy in rho is handled exactly.
    """
    if sigma.dim != rho.dim:
        raise DimensionMismatchError(f"dims {sigma.dim} vs {rho.dim}")
    if _commutator_max(sigma, rho) > COMMUTE_TOL:
        raise InvalidStateError(
            f"[sigma, rho] exceeds {COMMUTE_TOL}: states do not commute"
        )
    rho_eigs, basis = np.linalg.eigh(rho.entries)
    sigma_in_basis = basis.conj().T @ sigma.entries @ basis

    sigma_probs = np.empty(sigma.dim)
    start = 0
    for stop in range(1, sigma.dim + 1):
        if stop < sigma.dim and rho_eigs[stop] - rho_eigs[stop - 1] < DEGENERACY_GAP:
            continue
        block = sigma_in_basis[start:stop, start:stop]
        if stop - start == 1:
            sigma_probs[start] = block[0, 0].real
        else:
            sigma_probs[start:stop] = np.linalg.eigvalsh(block)
        start = stop

    return (
        ClassicalDistribution(clamp_spectrum(sigma_probs)),
        ClassicalDistribution(clamp_spectrum(rho_eigs)),
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


def _coerce_states(sigma: StateLike, rho: StateLike) -> tuple:
    s = sigma.as_density() if isinstance(sigma, ClassicalDistribution) else sigma
    r = rho.as_density() if isinstance(rho, ClassicalDistribution) else rho
    return s, r


def mixing_entropy(
    sigma: StateLike,
    rho: StateLike,
    n: int,
    method: str = "auto",
    dense_cap: int = DENSE_DIM_CAP,
) -> MixingRecord:
    """S_mix[sigma|rho; n] = S[R] - n S[rho] - S[sigma], in nats.

    method 'dense' takes the spectrum of the d^(n+1)-dimensional R, built in
    rho's eigenbasis with sigma's row 0 made real (same spectrum; a qubit
    pair's R is real there, so its eigensolve is real symmetric). When the
    states commute to COMMUTE_TOL, R is diagonal in their joint eigenbasis
    and only its d^(n+1) diagonal entries are built, by kron_sum on the two
    spectra simultaneous_classical_pair gives;
    'classical-exact' requires commuting states and enumerates type classes;
    'auto' picks classical-exact when the states commute, else dense.
    """
    sigma_op, rho_op = _coerce_states(sigma, rho)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if sigma_op.dim != rho_op.dim:
        raise DimensionMismatchError(f"dims {sigma_op.dim} vs {rho_op.dim}")
    commute = _commutator_max(sigma_op, rho_op) <= COMMUTE_TOL
    if method == "auto":
        method = "classical-exact" if commute else "dense"
    if method == "classical-exact":
        sigma_dist, rho_dist = simultaneous_classical_pair(sigma_op, rho_op)
        return classical_mixing_entropy_exact(sigma_dist, rho_dist, n)

    # n < 1 takes the full build, which refuses it
    if n >= 1 and commute:
        # in a joint eigenbasis R is diagonal and its diagonal is its spectrum
        sigma_dist, rho_dist = simultaneous_classical_pair(sigma_op, rho_op)
        n_total = n + 1
        r_diagonal = kron_sum(rho_dist.p, sigma_dist.p, n_total, dense_cap)
        s_r = entropy_of_spectrum(clamp_spectrum(r_diagonal / n_total))
    else:
        sigma_t, rho_t = _in_rho_eigenbasis(sigma_op, rho_op)
        s_r = symmetrized_state_dense(sigma_t, rho_t, n, dense_cap=dense_cap).entropy()
    s_mix = (
        s_r
        - n * von_neumann_entropy(rho_op)
        - von_neumann_entropy(sigma_op)
    )
    s_rel = relative_entropy(sigma_op, rho_op)
    return _record(n, s_mix, s_rel, "dense")


DECAY_MODELS = {
    "1/n": lambda n: 1.0 / n,
    "log(n)/n": lambda n: math.log(n) / n if n > 1 else 0.0,
}


def _fit_tail(records: Sequence[MixingRecord]) -> ExtrapolationSummary:
    """Least-squares fit of S_mix(n) = limit - a f(n) on the largest-n half."""
    ordered = sorted(records, key=lambda r: r.n)
    tail = ordered[-max(3, (len(ordered) + 1) // 2):]
    ns = np.array([r.n for r in tail], dtype=float)
    values = np.array([r.s_mix for r in tail])

    best = None
    for name, f in DECAY_MODELS.items():
        design = np.stack([np.ones_like(ns), -np.array([f(n) for n in ns])], axis=1)
        coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
        limit, a = float(coeffs[0]), float(coeffs[1])
        resid = float(np.sqrt(np.mean((design @ coeffs - values) ** 2)))
        if best is None or resid < best.residual:
            best = ExtrapolationSummary(model=name, a=a, limit=limit, residual=resid)
    return best


def convergence_sweep(
    sigma: StateLike,
    rho: StateLike,
    n_list: Sequence[int],
    method: str = "auto",
    dense_cap: int = DENSE_DIM_CAP,
) -> tuple:
    """One MixingRecord per n plus a fitted extrapolation to n -> infinity.

    The decay model f(n) is chosen from {1/n, log(n)/n} by least squares on
    the largest half of the sweep; the choice is reported, never assumed.
    The sweep needs at least 3 distinct n and lists each n once.
    """
    if len(set(n_list)) != len(n_list):
        raise ValueError(f"sweep lists some n more than once: {list(n_list)}")
    if len(n_list) < 3:
        raise ValueError("extrapolation needs at least 3 distinct sweep points")
    records = []
    for n in sorted(n_list):
        t0 = time.perf_counter()
        rec = mixing_entropy(sigma, rho, n, method=method, dense_cap=dense_cap)
        wall_ms = (time.perf_counter() - t0) * 1e3
        records.append(replace(rec, wall_time_ms=wall_ms))
    return records, _fit_tail(records)


def records_to_csv(records: Sequence[MixingRecord]) -> str:
    lines = [SWEEP_CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"
