"""Sequential unitary collisions of reservoir molecules with an external field.

Each collision conjugates one fresh molecule's Gibbs state rho by U. The mean
energy transfer Delta E = tr(sigma H) - tr(rho H) obeys the exact identity
beta * Delta E = S[sigma|rho], and the reservoir's informatic entropy is
untouched by the unitary collisions themselves.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, DimensionMismatchError, InvalidStateError
from .states import (
    DensityOperator,
    HermitianOperator,
    UnitaryOperator,
    _as_square_complex,
    apply_unitary,
    beta_value,
    energy_mean,
    gibbs_state,
    relative_entropy,
    von_neumann_entropy,
)

DENSE_DIM_CAP = 4096
# A unitary collision keeps the single-molecule entropy; a larger change is an error.
COLLISION_ENTROPY_TOL = 1e-10

LEDGER_CSV_HEADER = "collision_index,delta_E,cum_delta_E,dirr_S,cum_dirr_S,reservoir_S_info"


@dataclass(frozen=True)
class CollisionSpec:
    """A reservoir run: n molecules at (H, beta), k of them collide via U (no stacks)."""

    h: HermitianOperator
    beta: float
    u: UnitaryOperator
    collisions: int
    reservoir_size: int

    def __post_init__(self):
        object.__setattr__(self, "beta", beta_value(self.beta))
        _as_square_complex(self.h.entries), _as_square_complex(self.u.entries)
        if self.h.dim != self.u.dim:
            raise DimensionMismatchError(
                f"H is {self.h.dim}-dimensional but U is {self.u.dim}-dimensional"
            )
        if self.collisions < 0:
            raise ValueError(f"need collisions >= 0, got {self.collisions}")
        if self.reservoir_size < 1:
            raise ValueError(f"need reservoir_size >= 1, got {self.reservoir_size}")
        if self.collisions > self.reservoir_size:
            raise ValueError(
                f"collisions {self.collisions} exceed reservoir size {self.reservoir_size}"
            )


@dataclass(frozen=True)
class LedgerRow:
    index: int
    delta_e: float
    cum_delta_e: float
    dirr_s: float
    cum_dirr_s: float
    reservoir_s_info: float


@dataclass(frozen=True)
class CollisionLedger:
    """Per-collision energy/entropy bookkeeping for one collision sequence.

    Collisions are i.i.d. in this model, so cumulative columns are exact
    integer multiples of the per-collision values, and the informatic entropy
    column is the constant n*S[rho] (each collision swaps one S[rho] for one
    S[sigma] = S[rho]).
    """

    reservoir_size: int
    collisions: int
    beta: float
    delta_e: float
    dirr_s: float
    s_rho: float
    s_sigma: float
    s_rel: float
    identity_residual: float
    commutator_fro: float
    rows: tuple = field(default_factory=tuple)

    @property
    def reservoir_s_info(self) -> float:
        return self.reservoir_size * self.s_rho

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(LEDGER_CSV_HEADER + "\n")
        for r in self.rows:
            buf.write(
                f"{r.index},{r.delta_e!r},{r.cum_delta_e!r},"
                f"{r.dirr_s!r},{r.cum_dirr_s!r},{r.reservoir_s_info!r}\n"
            )
        return buf.getvalue()


def commutator_norm(u: UnitaryOperator, h: HermitianOperator) -> float:
    """Frobenius norm of [U, H], one per matrix; zero means energy-conserving collisions."""
    c = u.entries @ h.entries - h.entries @ u.entries
    norms = [float(np.linalg.norm(m)) for m in c.reshape(-1, *c.shape[-2:])]
    return norms[0] if c.ndim == 2 else np.reshape(norms, c.shape[:-2])


def collision_energy_transfer(
    rho: DensityOperator, u: UnitaryOperator, h: HermitianOperator
) -> float:
    """Mean energy transfer tr(sigma H) - tr(rho H) with sigma = U rho U†.

    Strictly positive for a Gibbs state at beta > 0 whenever sigma != rho,
    where it equals S[sigma|rho] / beta. Stacks give one transfer per matrix.
    """
    sigma = apply_unitary(rho, u)
    return energy_mean(sigma, h) - energy_mean(rho, h)


def run_collision_sequence(spec: CollisionSpec) -> CollisionLedger:
    """Evaluate k i.i.d. collisions and assemble the bookkeeping ledger.

    The reservoir is tracked as molecule counts (k sigma, n-k rho), never as a
    d^n matrix. Cumulative columns are built by multiplication, so additivity
    holds to 0 ulp, and the informatic entropy column is the constant n*S[rho].
    """
    rho = gibbs_state(spec.h, spec.beta)
    sigma = apply_unitary(rho, spec.u)

    delta_e = energy_mean(sigma, spec.h) - energy_mean(rho, spec.h)
    dirr_s = spec.beta * delta_e
    s_rho = von_neumann_entropy(rho)
    s_sigma = von_neumann_entropy(sigma)
    if abs(s_sigma - s_rho) > COLLISION_ENTROPY_TOL:
        raise InvalidStateError(
            f"unitary collision changed the single-molecule entropy by {s_sigma - s_rho}"
        )
    s_rel = relative_entropy(sigma, rho)
    # scaled residual: relative at O(1) magnitudes, absolute when the
    # entropy production vanishes (beta = 0 or commuting U)
    residual = abs(dirr_s - s_rel) / (1.0 + abs(s_rel))

    s_info = spec.reservoir_size * s_rho
    rows = tuple(
        LedgerRow(
            index=i,
            delta_e=delta_e,
            cum_delta_e=i * delta_e,
            dirr_s=dirr_s,
            cum_dirr_s=i * dirr_s,
            reservoir_s_info=s_info,
        )
        for i in range(1, spec.collisions + 1)
    )
    return CollisionLedger(
        reservoir_size=spec.reservoir_size,
        collisions=spec.collisions,
        beta=spec.beta,
        delta_e=delta_e,
        dirr_s=dirr_s,
        s_rho=s_rho,
        s_sigma=s_sigma,
        s_rel=s_rel,
        identity_residual=residual,
        commutator_fro=commutator_norm(spec.u, spec.h),
        rows=rows,
    )


def check_dense_dim(d: int, n: int, dense_cap: int = DENSE_DIM_CAP) -> None:
    """Refuse d^n > dense_cap, before anything of that size is built.

    With d >= 2 and n past dense_cap's bit length, d^n >= 2^n > dense_cap:
    that is refused without forming the power, which can run to thousands
    of digits.
    """
    if d >= 2 and n > dense_cap.bit_length():
        raise CapExceededError(f"dense dimension {d}^{n} exceeds cap {dense_cap}")
    dim = d**n
    if dim > dense_cap:
        raise CapExceededError(
            f"dense dimension {d}^{n} = {dim} exceeds cap {dense_cap}"
        )


def kron_sum(
    a: np.ndarray, b: np.ndarray, n: int, dense_cap: int = DENSE_DIM_CAP
) -> np.ndarray:
    """sum_k a^{(x)k} (x) b (x) a^{(x)(n-1-k)} for d x d matrices a and b.

    site_kron_sum with the pair (a, b) at each of the n sites. Given length-d
    vectors, a and b are read as diagonals and the same recursion builds the
    length-d^n diagonal of the sum: the same products and sums in the same
    order, so it equals the 2-D result's diagonal bit for bit.
    """
    check_dense_dim(a.shape[0], n, dense_cap)
    return site_kron_sum([(a, b)] * n)


def site_kron_sum(sites) -> np.ndarray:
    """sum_i a_1 (x) ... (x) b_i (x) ... (x) a_m, one (a_i, b_i) pair per site.

    Built by the recursion A_1 = b_1,
    A_j = A_{j-1} (x) a_j + (a_1 (x) ... (x) a_{j-1}) (x) b_j, which sums the
    terms left to right and allocates one full-size matrix per step. Each
    site's a_i and b_i share one shape, square or a vector of diagonal
    entries, which may differ from site to site. The result is float64 when
    no factor has an imaginary part and complex128 otherwise.
    """
    real = not any(np.imag(x).any() for pair in sites for x in pair)
    dtype = np.float64 if real else np.complex128
    sites = [
        tuple(np.array(np.real(x) if real else x, dtype=dtype) for x in pair)
        for pair in sites
    ]
    acc = sites[0][1]
    power = np.ones((1,) * acc.ndim, dtype=dtype)
    for (prev, _), (a, b) in zip(sites, sites[1:]):
        power = np.kron(power, prev)
        if a.ndim == 1:
            acc = (acc[:, None] * a + power[:, None] * b).ravel()
            continue
        m, d = power.shape[0], a.shape[0]
        nxt = np.empty((m * d, m * d), dtype=dtype)
        blocks = nxt.reshape(m, d, m, d)
        np.multiply(acc[:, None, :, None], a[None, :, None, :], out=blocks)
        for i, j in np.ndindex(d, d):
            blocks[:, i, :, j] += power * b[i, j]
        acc = nxt
    return acc


def reservoir_hamiltonian(
    h: HermitianOperator, n: int, dense_cap: int = DENSE_DIM_CAP
) -> HermitianOperator:
    """Sum of single-molecule Hamiltonians on (C^d)^{tensor n}.

    Dimension d^n must stay within dense_cap; the result is permutation
    invariant by construction.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _as_square_complex(h.entries)
    # + 0.0 turns the -0.0 that products by 0.0 leave into +0.0: H_R is bit-exact
    return HermitianOperator(kron_sum(np.eye(h.dim), h.entries, n, dense_cap) + 0.0)
