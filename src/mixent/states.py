"""Finite-dimensional operator algebra, state construction, and entropy functionals.

All entropies are in nats (natural log). Convert to bits by dividing by ln 2.
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


def _as_square_complex(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidStateError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class HermitianOperator:
    """d x d complex Hermitian matrix (a Hamiltonian or observable)."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.entries)
        if not np.max(np.abs(m - m.conj().T)) <= ALGEBRA_TOL:
            raise InvalidStateError(f"matrix is not Hermitian to {ALGEBRA_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DensityOperator:
    """d x d positive-semidefinite unit-trace matrix.

    Eigenvalues in [-EIG_FLOOR, 0) are treated as rounding noise and clamp to
    zero for entropy purposes; anything below -EIG_FLOOR is rejected.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.entries)
        if not np.max(np.abs(m - m.conj().T)) <= ALGEBRA_TOL:
            raise InvalidStateError(f"density matrix is not Hermitian to {ALGEBRA_TOL}")
        tr = m.trace()
        if not abs(tr - 1.0) <= ALGEBRA_TOL:
            raise InvalidStateError(f"density matrix trace {tr} != 1 to {ALGEBRA_TOL}")
        lo = float(np.linalg.eigvalsh(m).min())
        if not lo >= -EIG_FLOOR:
            raise InvalidStateError(
                f"density matrix has eigenvalue {lo} below -{EIG_FLOOR}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues with the [-EIG_FLOOR, 0) band clamped to 0."""
        return clamp_spectrum(np.linalg.eigvalsh(self.entries))


@dataclass(frozen=True)
class UnitaryOperator:
    """d x d unitary matrix (one collision with the external field)."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.entries)
        if not np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= ALGEBRA_TOL:
            raise InvalidStateError(f"matrix is not unitary to {ALGEBRA_TOL}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


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
    lo = float(np.min(eigs))
    if not lo >= -EIG_FLOOR:
        raise InvalidStateError(f"eigenvalue {lo} below -{EIG_FLOOR}: not a valid state")
    return np.where(eigs < 0.0, 0.0, eigs)


def _check_same_dim(a, b):
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


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
    """
    b = beta_value(beta)
    energies, basis = np.linalg.eigh(h.entries)
    exponent = -b * energies
    weights = np.exp(exponent - exponent.max())
    probs = weights / weights.sum()
    rho = (basis * probs) @ basis.conj().T
    return DensityOperator((rho + rho.conj().T) / 2.0)


def apply_unitary(rho: DensityOperator, u: UnitaryOperator) -> DensityOperator:
    """One collision: rho -> U rho U† (trace and spectrum preserved)."""
    _check_same_dim(rho.entries, u.entries)
    out = u.entries @ rho.entries @ u.entries.conj().T
    return DensityOperator((out + out.conj().T) / 2.0)


def entropy_of_spectrum(eigs: np.ndarray) -> float:
    """-sum p ln p over a nonnegative spectrum, with 0 ln 0 = 0."""
    pos = eigs[eigs > 0.0]
    return float(-math.fsum(pos * np.log(pos)))


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
        "ij,jk,ki->i", rho_basis.conj().T, sigma.entries, rho_basis
    ))
    weights = np.where((weights < 0.0) & (weights > -EIG_FLOOR), 0.0, weights)
    zero = rho_eigs <= 0.0
    _check_support(weights[zero])
    if weights[zero].any():
        basis = rho_basis[:, ~zero]
        block = basis.conj().T @ sigma.entries @ basis
        block /= block.trace().real
        s_sigma = entropy_of_spectrum(clamp_spectrum(np.linalg.eigvalsh(block)))
        weights, rho_eigs = block.diagonal().real, rho_eigs[~zero]
    else:
        s_sigma = von_neumann_entropy(sigma)
    supported = (rho_eigs > 0.0) & (weights > 0.0)
    cross = -math.fsum(weights[supported] * np.log(rho_eigs[supported]))
    return cross - s_sigma


def energy_mean(rho: DensityOperator, h: HermitianOperator) -> float:
    """tr(rho H); the imaginary residue must be below ENERGY_IMAG_TOL."""
    _check_same_dim(rho.entries, h.entries)
    val = complex(np.trace(rho.entries @ h.entries))
    if abs(val.imag) >= ENERGY_IMAG_TOL:
        raise InvalidStateError(f"tr(rho H) has imaginary residue {val.imag}")
    return val.real


def random_hermitian(seed: int, d: int) -> HermitianOperator:
    """Seeded (A + A†)/2 with A of independent standard complex Gaussians."""
    if d < 2:
        raise ValueError(f"need dimension d >= 2, got {d}")
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    return HermitianOperator((a + a.conj().T) / 2.0)


def random_haar_unitary(seed: int, d: int) -> UnitaryOperator:
    """Seeded Haar-random unitary via QR with phase-normalized R diagonal."""
    if d < 2:
        raise ValueError(f"need dimension d >= 2, got {d}")
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(a)
    phases = np.diag(r) / np.abs(np.diag(r))
    return UnitaryOperator(q * phases)


def nats_to_bits(x: float) -> float:
    return x / LN2
