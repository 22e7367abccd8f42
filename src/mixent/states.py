"""Finite-dimensional operator algebra, state construction, and entropy functionals.

All entropies are in nats (natural log). Convert to bits by dividing by ln 2.
The operator types and functions also take (..., d, d) stacks of matrices,
each matrix getting its own 2-D call's bits, and one number per matrix back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfiniteRelativeEntropyError,
    InvalidStateError,
)

# Elementwise tolerance for algebraic invariants (hermiticity, unitarity, trace).
# Every tolerance test below reads "not within", so that NaN fails it.
ALGEBRA_TOL = 1e-12
# tr(rho H) is real for Hermitian rho and H; a larger imaginary part is an error.
ENERGY_IMAG_TOL = 1e-10
# Eigenvalues of a density operator in [-EIG_FLOOR, 0) are rounding noise and
# clamp to 0; anything below -EIG_FLOOR is a genuinely invalid state.
EIG_FLOOR = 1e-10
# sigma-weight on a zero eigenvalue of rho below this is treated as no support.
SUPPORT_TOL = 1e-12

LN2 = math.log(2.0)


def _as_square_complex(entries, stack: bool = False) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise InvalidStateError(f"expected a square matrix, got shape {m.shape}")
    return m


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _refuse(values, ok, message: str):
    """Raise message % v, v the value of the first matrix (row-major) failing ok."""
    if ok.ndim == 0 and ok:
        return
    failing = np.asarray(values)[~np.asarray(ok)]
    if failing.size:
        raise InvalidStateError(message % failing[0].item())


def _per_matrix(values):
    """A float for one matrix, else the array of one value per matrix of a stack."""
    return float(values) if np.ndim(values) == 0 else values


@dataclass(frozen=True)
class HermitianOperator:
    """d x d complex Hermitian matrix (a Hamiltonian or observable)."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.entries, stack=True)
        if not np.max(np.abs(m - _dagger(m))) <= ALGEBRA_TOL:
            raise InvalidStateError(f"matrix is not Hermitian to {ALGEBRA_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]


@dataclass(frozen=True)
class DensityOperator:
    """d x d positive-semidefinite unit-trace matrix.

    Eigenvalues in [-EIG_FLOOR, 0) are treated as rounding noise and clamp to
    zero for entropy purposes; anything below -EIG_FLOOR is rejected.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.entries, stack=True)
        if not np.max(np.abs(m - _dagger(m))) <= ALGEBRA_TOL:
            raise InvalidStateError(f"density matrix is not Hermitian to {ALGEBRA_TOL}")
        tr = m.trace(axis1=-2, axis2=-1)
        _refuse(tr, abs(tr - 1.0) <= ALGEBRA_TOL, f"density matrix trace %s != 1 to {ALGEBRA_TOL}")
        lo = np.linalg.eigvalsh(m).min(axis=-1)
        _refuse(lo, lo >= -EIG_FLOOR, f"density matrix has eigenvalue %s below -{EIG_FLOOR}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues with the [-EIG_FLOOR, 0) band clamped to 0."""
        return clamp_spectrum(np.linalg.eigvalsh(self.entries))


@dataclass(frozen=True)
class UnitaryOperator:
    """d x d unitary matrix (one collision with the external field)."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.entries, stack=True)
        if not np.max(np.abs(_dagger(m) @ m - np.eye(m.shape[-1]))) <= ALGEBRA_TOL:
            raise InvalidStateError(f"matrix is not unitary to {ALGEBRA_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]


def beta_value(beta) -> float:
    """Inverse temperature in 1/energy units as a float; it must be finite.

    beta = 0 gives the maximally mixed Gibbs state; beta < 0 is legal at
    finite dimension, but the dissipation-positivity claim needs beta > 0.
    """
    b = float(beta)
    if not math.isfinite(b):
        raise ValueError(f"inverse temperature must be finite, got {b}")
    return b


@dataclass(frozen=True)
class ClassicalDistribution:
    """Probability vector p_1..p_d (a diagonal density matrix)."""

    p: np.ndarray

    def __post_init__(self):
        v = np.array(self.p, dtype=float)
        if v.ndim != 1:
            raise InvalidStateError(f"a distribution is a 1-D vector, got shape {v.shape}")
        if v.size == 0:
            raise InvalidStateError("empty distribution")
        if not np.all(v >= 0.0):
            raise InvalidStateError("probabilities must be nonnegative")
        if not abs(v.sum() - 1.0) <= ALGEBRA_TOL:
            raise InvalidStateError(
                f"probabilities sum to {v.sum()}, not 1 to {ALGEBRA_TOL}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "p", v)

    @property
    def dim(self) -> int:
        return self.p.size

    def as_density(self) -> DensityOperator:
        return DensityOperator(np.diag(self.p.astype(complex)))


def clamp_spectrum(eigs: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues in [-EIG_FLOOR, 0) to 0; reject anything below or NaN."""
    lo = eigs.min(axis=-1)
    _refuse(lo, lo >= -EIG_FLOOR, f"eigenvalue %s below -{EIG_FLOOR}: not a valid state")
    return np.where(eigs < 0.0, 0.0, eigs)


def _check_same_dim(a, b):
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")


def _check_square_pair(a, b):
    """a and b are single square matrices, a stack refused, of one dimension."""
    _as_square_complex(a), _as_square_complex(b)
    _check_same_dim(a, b)


def _check_support(outside: np.ndarray):
    """sigma's weights where rho has none may be rounding (SUPPORT_TOL) only."""
    if np.any(outside > SUPPORT_TOL):
        raise InfiniteRelativeEntropyError(
            "support of sigma is not contained in support of rho"
        )


def _supported_pair(sigma: ClassicalDistribution, rho: ClassicalDistribution) -> tuple:
    """(sigma, rho) probabilities on rho's support.

    sigma may hold weight off it up to SUPPORT_TOL, the rounding a joint
    eigenbasis leaves; that weight is dropped and the rest renormalized, so
    that both terms of S[sigma|rho] see one sigma. With none to drop, the
    probabilities keep their bits.
    """
    _check_same_dim(sigma.p, rho.p)
    support = rho.p > 0.0
    outside = sigma.p[~support]
    _check_support(outside)
    sigma_p = sigma.p[support]
    if outside.any():
        sigma_p = sigma_p / sigma_p.sum()
    return sigma_p, rho.p[support]


def gibbs_state(h: HermitianOperator, beta) -> DensityOperator:
    """Gibbs equilibrium state e^{-beta H} / tr e^{-beta H}.

    Computed in the eigenbasis of H with the minimum of beta*E_i subtracted
    before exponentiating, so the result is shift-invariant and overflow-safe.
    A stack of H takes one beta, or one per matrix.
    """
    b = beta_value(beta) if np.ndim(beta) == 0 else np.reshape(
        [beta_value(x) for x in np.ravel(beta)], np.shape(beta) + (1,))
    energies, basis = np.linalg.eigh(h.entries)
    exponent = -b * energies
    weights = np.exp(exponent - exponent.max(axis=-1, keepdims=True))
    probs = weights / weights.sum(axis=-1, keepdims=True)
    rho = (basis * probs[..., None, :]) @ _dagger(basis)
    return DensityOperator((rho + _dagger(rho)) / 2.0)


def apply_unitary(rho: DensityOperator, u: UnitaryOperator) -> DensityOperator:
    """One collision: rho -> U rho U† (trace and spectrum preserved)."""
    _check_same_dim(rho.entries, u.entries)
    out = u.entries @ rho.entries @ _dagger(u.entries)
    return DensityOperator((out + _dagger(out)) / 2.0)


def _fsum(terms: np.ndarray, keep: np.ndarray):
    """math.fsum of each row's kept terms; fsum is exact, so zeros for the rest cost no bits."""
    if terms.ndim == 1:
        return math.fsum(terms[keep])
    rows = np.where(keep, terms, 0.0)
    return np.reshape([math.fsum(r) for r in rows.reshape(-1, rows.shape[-1])], rows.shape[:-1])


def entropy_of_spectrum(eigs: np.ndarray):
    """-sum p ln p over a nonnegative spectrum, with 0 ln 0 = 0; one per row of a stack."""
    pos = eigs > 0.0
    return -_fsum(eigs * np.log(np.where(pos, eigs, 1.0)), pos)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Shannon-von Neumann entropy -tr(rho ln rho) in nats; lies in [0, ln d]."""
    return entropy_of_spectrum(rho.eigenvalues())


def shannon_entropy(dist: ClassicalDistribution) -> float:
    """Classical specialization of the von Neumann entropy, in nats."""
    return entropy_of_spectrum(clamp_spectrum(dist.p))


def relative_entropy(sigma: DensityOperator, rho: DensityOperator) -> float:
    """Relative entropy S[sigma|rho] = -tr(sigma ln rho) - S[sigma], in nats.

    Nonnegative; zero iff sigma equals rho. If sigma has support where rho
    has none the value is +infinity, reported as an explicit error rather
    than a large float. Weight off rho's support up to SUPPORT_TOL is
    rounding: it is dropped from both terms, sigma projected onto the
    support and renormalized, as _supported_pair does for distributions.
    """
    _check_same_dim(sigma.entries, rho.entries)
    rho_eigs, rho_basis = np.linalg.eigh(rho.entries)
    rho_eigs = clamp_spectrum(rho_eigs)
    # sigma's weight on each eigenvector of rho
    weights = np.real(np.einsum(
        "...ij,...jk,...ki->...i", _dagger(rho_basis), sigma.entries, rho_basis
    ))
    weights = np.where((weights < 0.0) & (weights > -EIG_FLOOR), 0.0, weights)
    zero = rho_eigs <= 0.0
    _check_support(weights[zero])
    s_sigma = von_neumann_entropy(sigma)
    if weights[zero].any():
        s_sigma = np.array(s_sigma)
        for i in map(tuple, np.argwhere(np.any(zero & (weights != 0.0), axis=-1))):
            basis = rho_basis[i][:, ~zero[i]]
            block = _dagger(basis) @ sigma.entries[i] @ basis
            block /= block.trace().real
            s_sigma[i] = entropy_of_spectrum(clamp_spectrum(np.linalg.eigvalsh(block)))
            weights[i][~zero[i]] = block.diagonal().real
    supported = (rho_eigs > 0.0) & (weights > 0.0)
    cross = -_fsum(weights * np.log(np.where(supported, rho_eigs, 1.0)), supported)
    return _per_matrix(cross - s_sigma)


def energy_mean(rho: DensityOperator, h: HermitianOperator) -> float:
    """tr(rho H); the imaginary residue must be below ENERGY_IMAG_TOL."""
    _check_same_dim(rho.entries, h.entries)
    val = (rho.entries @ h.entries).trace(axis1=-2, axis2=-1)
    _refuse(val.imag, ~(abs(val.imag) >= ENERGY_IMAG_TOL), "tr(rho H) has imaginary residue %s")
    return _per_matrix(val.real)


def _complex_gaussians(seed, d: int) -> np.ndarray:
    """d x d standard complex Gaussians from default_rng(seed); a stack for a seed sequence."""
    if d < 2:
        raise ValueError(f"need dimension d >= 2, got {d}")
    # one draw per generator, real part then imaginary part, as two draws of (d, d) give them
    g = np.array([np.random.default_rng(s).standard_normal((2, d, d)) for s in np.ravel(seed)])
    a = g[:, 0] + 1j * g[:, 1]
    return (a / math.sqrt(2)).reshape(np.shape(seed) + (d, d))


def random_hermitian(seed, d: int) -> HermitianOperator:
    """Seeded (A + A†)/2 with A of independent standard complex Gaussians, one per seed."""
    a = _complex_gaussians(seed, d)
    return HermitianOperator((a + _dagger(a)) / 2.0)


def random_haar_unitary(seed, d: int) -> UnitaryOperator:
    """Seeded Haar-random unitary via QR with phase-normalized R diagonal, one per seed."""
    q, r = np.linalg.qr(_complex_gaussians(seed, d))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return UnitaryOperator(q * (diag / np.abs(diag))[..., None, :])


def nats_to_bits(x: float) -> float:
    return x / LN2
