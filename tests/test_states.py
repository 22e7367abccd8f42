import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixent import (
    ClassicalDistribution,
    DensityOperator,
    HermitianOperator,
    InfiniteRelativeEntropyError,
    InvalidStateError,
    DimensionMismatchError,
    UnitaryOperator,
    apply_unitary,
    energy_mean,
    gibbs_state,
    random_haar_unitary,
    random_hermitian,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from mixent.collisions import collision_energy_transfer, commutator_norm
from mixent.combinatorics import classical_mixing_increase_formula
from mixent.mixing import (
    dense_state_entropy,
    mixing_entropy,
    permutation_twirl_dense,
    type_class_spectrum,
)
from mixent.states import beta_value, clamp_spectrum, entropy_of_spectrum
from conftest import seeded_density


def probability_vectors(max_dim=6):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=max_dim)
        .map(lambda w: np.array(w) / np.sum(w))
    )


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

def test_hermitian_rejects_non_hermitian():
    with pytest.raises(InvalidStateError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_density_rejects_bad_trace():
    with pytest.raises(InvalidStateError):
        DensityOperator(np.diag([0.6, 0.6]).astype(complex))


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(InvalidStateError):
        DensityOperator(np.diag([1.1, -0.1]).astype(complex))


def test_density_clamps_rounding_noise():
    rho = DensityOperator(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
    eigs = rho.eigenvalues()
    assert eigs.min() == 0.0


def test_unitary_rejects_non_unitary():
    with pytest.raises(InvalidStateError):
        UnitaryOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_inverse_temperature_must_be_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="inverse temperature must be finite"):
            beta_value(bad)
    assert beta_value(-2) == -2.0 and type(beta_value(-2)) is float


def test_distribution_invariants():
    with pytest.raises(InvalidStateError):
        ClassicalDistribution([0.5, 0.6])
    with pytest.raises(InvalidStateError):
        ClassicalDistribution([1.2, -0.2])


def test_distribution_is_a_vector():
    # a 2 x 2 table of probabilities is not a 4-symbol distribution
    with pytest.raises(InvalidStateError, match=r"1-D vector, got shape \(2, 2\)"):
        ClassicalDistribution([[0.2, 0.3], [0.1, 0.4]])
    with pytest.raises(InvalidStateError, match=r"got shape \(\)"):
        ClassicalDistribution(1.0)


@pytest.mark.parametrize("build,message", [
    (lambda: HermitianOperator([[0.0, 1.0], [0.0, 0.0]]),
     "matrix is not Hermitian to 1e-12"),
    (lambda: DensityOperator([[0.5, 1.0], [0.0, 0.5]]),
     "density matrix is not Hermitian to 1e-12"),
    (lambda: DensityOperator([[0.5, 0.0], [0.0, 0.6]]),
     "density matrix trace (1.1+0j) != 1 to 1e-12"),
    (lambda: UnitaryOperator([[1.0, 0.0], [0.0, 2.0]]),
     "matrix is not unitary to 1e-12"),
    (lambda: ClassicalDistribution([0.5, 0.25]),
     "probabilities sum to 0.75, not 1 to 1e-12"),
])
def test_invariant_messages_name_the_algebra_tolerance(build, message):
    # the messages are formatted from ALGEBRA_TOL; at 1e-12 their bytes are these
    with pytest.raises(InvalidStateError) as info:
        build()
    assert str(info.value) == message


NAN_QUBIT = np.array([[np.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "build",
    [
        lambda: HermitianOperator(NAN_QUBIT),
        lambda: DensityOperator(NAN_QUBIT),
        lambda: UnitaryOperator(NAN_QUBIT),
        lambda: ClassicalDistribution([np.nan, 1.0]),
        lambda: clamp_spectrum(np.array([np.nan, 0.5])),
        lambda: dense_state_entropy(np.diag([np.nan, 1.0])),
        # not diagonal, and LAPACK's spectrum of it is [0, -0]
        lambda: dense_state_entropy(np.array([[np.nan, 1e-300], [1e-300, 1.0]])),
    ],
    ids=["hermitian", "density", "unitary", "distribution", "clamp", "dense-entropy",
         "dense-entropy-off-diagonal"],
)
def test_nan_is_rejected(build):
    with pytest.raises(InvalidStateError):
        build()


# ---------------------------------------------------------------------------
# gibbs_state
# ---------------------------------------------------------------------------

def test_gibbs_zero_hamiltonian_is_maximally_mixed():
    h = HermitianOperator(np.zeros((2, 2)))
    for beta in (-3.0, 0.0, 1.0, 17.0):
        rho = gibbs_state(h, beta)
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-15)


def test_gibbs_beta_zero_is_maximally_mixed():
    rho = gibbs_state(random_hermitian(3, 3), 0.0)
    assert np.allclose(rho.entries, np.eye(3) / 3, atol=1e-15)


def test_gibbs_qubit_example(qubit_h):
    # oracle: direct evaluation e^{-beta E}/Z with Z = 1 + e^{-1}
    z = 1.0 + math.exp(-1.0)
    expected = np.diag([1.0 / z, math.exp(-1.0) / z])
    rho = gibbs_state(qubit_h, 1.0)
    assert np.allclose(rho.entries, expected, atol=1e-15)
    assert round(rho.entries[0, 0].real, 4) == 0.7311
    assert round(rho.entries[1, 1].real, 4) == 0.2689


def test_gibbs_rejects_nonfinite_beta(qubit_h):
    with pytest.raises(ValueError):
        gibbs_state(qubit_h, math.inf)


def test_gibbs_positive_spectrum_at_extreme_beta():
    # |beta| * spectral range = 500 must still give strictly positive eigenvalues
    h = HermitianOperator(np.diag([0.0, 0.4, 1.0]))
    for beta in (500.0, -500.0):
        eigs = gibbs_state(h, beta).eigenvalues()
        assert np.all(eigs > 0.0)


# ---------------------------------------------------------------------------
# apply_unitary
# ---------------------------------------------------------------------------

def test_apply_unitary_identity(qubit_h):
    rho = gibbs_state(qubit_h, 1.0)
    out = apply_unitary(rho, UnitaryOperator(np.eye(2)))
    assert np.array_equal(out.entries, rho.entries)


def test_apply_unitary_maximally_mixed_invariant():
    rho = DensityOperator(np.eye(3).astype(complex) / 3)
    u = random_haar_unitary(11, 3)
    out = apply_unitary(rho, u)
    assert np.allclose(out.entries, rho.entries, atol=1e-15)


def test_apply_unitary_exchange(qubit_h, exchange_u):
    rho = gibbs_state(qubit_h, 1.0)
    # oracle: direct matrix product
    expected = exchange_u.entries @ rho.entries @ exchange_u.entries.conj().T
    out = apply_unitary(rho, exchange_u)
    assert np.allclose(out.entries, expected, atol=1e-15)
    assert np.allclose(np.diag(out.entries), np.diag(rho.entries)[::-1], atol=1e-15)


def test_apply_unitary_dim_mismatch(exchange_u):
    rho = DensityOperator(np.eye(3).astype(complex) / 3)
    with pytest.raises(DimensionMismatchError):
        apply_unitary(rho, exchange_u)


def test_unitary_invariance_of_entropy():
    # 200 seeded (rho, U) pairs with d <= 8
    for i in range(200):
        d = 2 + i % 7
        rho = seeded_density(i, d)
        u = random_haar_unitary(1000 + i, d)
        assert abs(von_neumann_entropy(apply_unitary(rho, u)) - von_neumann_entropy(rho)) < 1e-10


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def test_von_neumann_pure_state():
    assert von_neumann_entropy(DensityOperator(np.diag([1.0, 0.0]).astype(complex))) == 0.0


def test_von_neumann_maximally_mixed():
    for d in (2, 3, 5):
        rho = DensityOperator(np.eye(d).astype(complex) / d)
        assert von_neumann_entropy(rho) == pytest.approx(math.log(d), abs=1e-12)


def test_von_neumann_derived_value():
    # oracle: -sum p ln p directly
    expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    rho = DensityOperator(np.diag([0.75, 0.25]).astype(complex))
    assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-14)
    assert round(von_neumann_entropy(rho), 4) == 0.5623


def test_shannon_examples():
    assert shannon_entropy(ClassicalDistribution([1.0, 0.0])) == 0.0
    assert shannon_entropy(ClassicalDistribution([0.5, 0.5])) == pytest.approx(
        math.log(2), abs=1e-14
    )
    assert shannon_entropy(ClassicalDistribution([0.75, 0.25])) == pytest.approx(
        0.5623351446188083, abs=1e-14
    )


def test_shannon_equals_von_neumann_on_spectrum():
    for seed in range(20):
        d = 2 + seed % 5
        rho = seeded_density(seed, d)
        spectrum = ClassicalDistribution(rho.eigenvalues() / rho.eigenvalues().sum())
        assert shannon_entropy(spectrum) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-12
        )


@given(probability_vectors())
def test_shannon_entropy_bounds(p):
    s = shannon_entropy(ClassicalDistribution(p))
    assert -1e-12 <= s <= math.log(len(p)) + 1e-12


# ---------------------------------------------------------------------------
# exact summation of the type-class S[R]
# ---------------------------------------------------------------------------

def _oracle_spectra():
    # (sigma_p, rho_p, n_total, m_sigma): rho spread over e^-12..1, so the
    # per-type terms span hundreds of binary exponents; every third sigma
    # holds a zero, which gives eigenvalue-0 types (log_q = -inf)
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(51):
        d = 2 + i % 4
        rho_p = np.exp(-rng.uniform(0.0, 12.0, size=d))
        sig_p = rng.uniform(0.05, 1.0, size=d)
        if i % 3 == 0:
            sig_p[0] = 0.0
        n_total = int(rng.integers(2, (120, 40, 18, 12)[d - 2]))
        m_sigma = 2 if i % 5 == 4 else 1
        cases.append((sig_p / sig_p.sum(), rho_p / rho_p.sum(), n_total, m_sigma))
    return cases


@pytest.mark.parametrize("x", _oracle_spectra())
def test_exact_sum_is_fsum_bit_for_bit(x):
    # entropy() is the exact sum of its per-type terms, rounded once:
    # the bits of the rational sum of the float terms, not of a float sum
    sig_p, rho_p, n_total, m_sigma = x
    spec = type_class_spectrum(ClassicalDistribution(sig_p),
                               ClassicalDistribution(rho_p), n_total, m_sigma)
    finite = np.isfinite(spec.log_q)
    lq = spec.log_q[finite]
    terms = -np.exp(spec.log_mult[finite] + lq) * lq
    exact = float(sum(map(Fraction, terms.tolist()), Fraction(0)))
    assert spec.entropy().hex() == exact.hex()


# ---------------------------------------------------------------------------
# relative entropy
# ---------------------------------------------------------------------------

def test_relative_entropy_identical_states():
    for seed in range(5):
        rho = seeded_density(seed, 3)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_pure_vs_mixed():
    sigma = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
    rho = DensityOperator(np.eye(2).astype(complex) / 2)
    assert relative_entropy(sigma, rho) == pytest.approx(math.log(2), abs=1e-14)


def test_relative_entropy_classical_example():
    # oracle: direct sum sigma_a ln(sigma_a/rho_a) = 0.5 ln 3
    sigma = DensityOperator(np.diag([0.25, 0.75]).astype(complex))
    rho = DensityOperator(np.diag([0.75, 0.25]).astype(complex))
    assert relative_entropy(sigma, rho) == pytest.approx(0.5 * math.log(3), abs=1e-14)


def test_relative_entropy_singular_rho_raises():
    sigma = DensityOperator(np.eye(2).astype(complex) / 2)
    rho = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(InfiniteRelativeEntropyError):
        relative_entropy(sigma, rho)


def test_relative_entropy_singular_rho_ok_when_supported():
    pure = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
    assert relative_entropy(pure, pure) == pytest.approx(0.0, abs=1e-12)


def test_rounding_off_rho_support_is_dropped_from_both_terms():
    # sigma's 1e-13 off rho's support is rounding: dropped, not a negative entropy
    sigma = ClassicalDistribution([1.0 - 1e-13, 1e-13])
    rho = ClassicalDistribution([1.0, 0.0])
    assert relative_entropy(sigma.as_density(), rho.as_density()) == 0.0
    assert classical_mixing_increase_formula(sigma, rho) == 0.0
    assert mixing_entropy(sigma, rho, 3).s_mix >= 0.0


def test_off_support_rounding_leaves_sigma_renormalized_on_the_support():
    sigma = ClassicalDistribution([0.5 - 5e-14, 0.5 - 5e-14, 1e-13])
    rho = ClassicalDistribution([0.25, 0.75, 0.0])
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)   # D((1/2, 1/2) || (1/4, 3/4))
    u = random_haar_unitary(4, 3)
    for s, r in [(sigma.as_density(), rho.as_density()),
                 (apply_unitary(sigma.as_density(), u), apply_unitary(rho.as_density(), u))]:
        assert relative_entropy(s, r) == pytest.approx(expected, abs=1e-15)
    assert classical_mixing_increase_formula(sigma, rho) == pytest.approx(expected, abs=1e-15)


def test_klein_inequality_seeded_pairs():
    # >= 0 always; == 0 (to 1e-10) iff the states coincide elementwise to 1e-8
    for seed in range(50):
        d = 2 + seed % 4
        sigma = seeded_density(seed, d, beta=0.8)
        rho = seeded_density(seed + 999, d, beta=1.3)
        val = relative_entropy(sigma, rho)
        maxdiff = float(np.max(np.abs(sigma.entries - rho.entries)))
        assert val >= 0.0
        assert (val < 1e-10) == (maxdiff < 1e-8)
    rho = seeded_density(7, 4)
    assert relative_entropy(rho, rho) < 1e-10


# ---------------------------------------------------------------------------
# energy mean
# ---------------------------------------------------------------------------

def test_energy_mean_uniform(qubit_h):
    rho = DensityOperator(np.eye(2).astype(complex) / 2)
    assert energy_mean(rho, qubit_h) == pytest.approx(0.5, abs=1e-15)


def test_energy_mean_zero_hamiltonian():
    rho = seeded_density(3, 4)
    h = HermitianOperator(np.zeros((4, 4)))
    assert energy_mean(rho, h) == 0.0


def test_energy_mean_gibbs_qubit(qubit_h):
    rho = gibbs_state(qubit_h, 1.0)
    z = 1.0 + math.exp(-1.0)
    assert energy_mean(rho, qubit_h) == pytest.approx(math.exp(-1.0) / z, abs=1e-14)


def test_energy_mean_dim_mismatch(qubit_h):
    rho = DensityOperator(np.eye(3).astype(complex) / 3)
    with pytest.raises(DimensionMismatchError):
        energy_mean(rho, qubit_h)


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

def test_random_hermitian_deterministic():
    a = random_hermitian(12, 4)
    b = random_hermitian(12, 4)
    assert np.array_equal(a.entries, b.entries)


def test_random_hermitian_real_eigenvalues():
    h = random_hermitian(7, 4)
    eigs = np.linalg.eigvals(h.entries)  # general solver, no hermiticity assumed
    assert np.max(np.abs(eigs.imag)) < 1e-12


def test_random_haar_unitary_is_unitary():
    for seed in (0, 5, 9):
        u = random_haar_unitary(seed, 5)
        assert np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(5))) < 1e-12


def test_random_haar_unitary_deterministic():
    assert np.array_equal(random_haar_unitary(4, 3).entries, random_haar_unitary(4, 3).entries)


def test_random_generators_reject_small_dims():
    with pytest.raises(ValueError):
        random_hermitian(0, 1)
    with pytest.raises(ValueError):
        random_haar_unitary(0, 1)


# ---------------------------------------------------------------------------
# stacks: a (k, d, d) stack gives each matrix the bits of its own 2-D call
# ---------------------------------------------------------------------------

def _value(x):
    return x.entries if hasattr(x, "entries") else x


def _row(x, j):
    """Row j of a stacked argument, an operator rebuilt from its 2-D entries."""
    return type(x)(x.entries[j]) if hasattr(x, "entries") else x[j]


def _assert_rows(fn, *args):
    """Row j of fn on stacks holds the bits of fn on each argument's row j."""
    stacked = _value(fn(*args))
    for j in range(len(stacked)):
        one = _value(fn(*(_row(a, j) for a in args)))
        # a 2-D call still returns a float, not a 0-d array
        assert np.ndim(one) > 0 or type(one) is float
        assert np.asarray(stacked[j]).tobytes() == np.asarray(one, stacked.dtype).tobytes(), j


def _stacked_pair(d, k, seed=0):
    h = random_hermitian(np.arange(100 + seed, 100 + seed + k), d)
    beta = np.linspace(0.1, 4.0, k)
    return h, beta, gibbs_state(h, beta)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("d", range(2, 7))
def test_stacked_calls_give_each_row_its_own_bits(d, k):
    h, beta, rho = _stacked_pair(d, k)
    u = random_haar_unitary(np.arange(200, 200 + k), d)
    sigma = apply_unitary(rho, u)
    for fn, *args in [
        (lambda s: random_hermitian(s, d), np.arange(100, 100 + k)),
        (lambda s: random_haar_unitary(s, d), np.arange(200, 200 + k)),
        (HermitianOperator, h.entries),
        (UnitaryOperator, u.entries),
        (DensityOperator, sigma.entries),
        (gibbs_state, h, beta),
        (apply_unitary, rho, u),
        (DensityOperator.eigenvalues, sigma),
        (clamp_spectrum, np.linalg.eigvalsh(sigma.entries)),
        (entropy_of_spectrum, sigma.eigenvalues()),
        (von_neumann_entropy, sigma),
        (energy_mean, sigma, h),
        (relative_entropy, sigma, rho),
        (collision_energy_transfer, rho, u, h),
        (commutator_norm, u, h),
    ]:
        _assert_rows(fn, *args)


@pytest.mark.parametrize("d", range(2, 7))
def test_a_stacked_row_off_rho_support_takes_the_projection_on_its_own(d):
    # row 1: sigma holds 1e-13 off rho's support, which is rounding, dropped
    # from both terms; the other rows are full rank and keep von_neumann_entropy
    rho = _stacked_pair(d, 3, seed=d)[2].entries.copy()
    sigma = _stacked_pair(d, 3, seed=10 + d)[2].entries.copy()
    rho[1] = np.diag(np.append(np.full(d - 1, 1.0 / (d - 1)), 0.0))
    sigma[1] = np.diag(np.append(np.full(d - 1, (1.0 - 1e-13) / (d - 1)), 1e-13))
    rho, sigma = DensityOperator(rho), DensityOperator(sigma)
    assert rho.eigenvalues()[1, 0] == 0.0 and rho.eigenvalues()[[0, 2], 0].min() > 0.0
    _assert_rows(relative_entropy, sigma, rho)
    assert relative_entropy(sigma, rho)[1] == pytest.approx(0.0, abs=1e-12)


def _stack_with(rows, j, bad):
    stack = np.array(rows, dtype=complex)
    stack[j] = bad
    return stack


QUBIT_STATES = [np.diag([0.3, 0.7]), np.diag([0.5, 0.5]), np.diag([0.9, 0.1])]


@pytest.mark.parametrize("build,bad", [
    (HermitianOperator, [[0.0, 1.0], [0.0, 0.0]]),
    (DensityOperator, [[0.5, 1.0], [0.0, 0.5]]),
    (DensityOperator, [[0.5, 0.0], [0.0, 0.6]]),
    (DensityOperator, [[1.1, 0.0], [0.0, -0.1]]),
    (DensityOperator, [[np.nan, 0.0], [0.0, 1.0]]),
    (UnitaryOperator, [[1.0, 0.0], [0.0, 2.0]]),
], ids=["hermitian", "density-hermitian", "density-trace", "density-eigenvalue",
        "density-nan", "unitary"])
@pytest.mark.parametrize("j", range(3))
def test_a_stack_with_one_invalid_row_raises_that_rows_message(build, bad, j):
    with pytest.raises(InvalidStateError) as single:
        build(np.array(bad, dtype=complex))
    with pytest.raises(InvalidStateError) as stacked:
        build(_stack_with(QUBIT_STATES, j, bad))
    assert str(stacked.value) == str(single.value)


@pytest.mark.parametrize("j", range(3))
def test_a_stack_of_spectra_names_the_failing_rows_minimum(j):
    spectra = np.array([[0.3, 0.7], [0.5, 0.5], [0.9, 0.1]])
    spectra[j] = [-2e-10, 1.0]
    with pytest.raises(InvalidStateError) as single:
        clamp_spectrum(spectra[j])
    with pytest.raises(InvalidStateError) as stacked:
        clamp_spectrum(spectra)
    assert str(stacked.value) == str(single.value)
    assert str(single.value) == "eigenvalue -2e-10 below -1e-10: not a valid state"


def test_a_stack_of_betas_names_the_nonfinite_one():
    with pytest.raises(ValueError, match=r"^inverse temperature must be finite, got nan$"):
        gibbs_state(random_hermitian([1, 2, 3], 2), [1.0, math.nan, 2.0])


@pytest.mark.parametrize("build", [HermitianOperator, DensityOperator, UnitaryOperator])
@pytest.mark.parametrize("entries,shape", [
    (np.ones(3), "(3,)"),
    (np.ones((2, 3)), "(2, 3)"),
    (np.ones((2, 3, 4)), "(2, 3, 4)"),
    (np.float64(1.0), "()"),
])
def test_operator_types_refuse_what_is_no_square_matrix_or_stack(build, entries, shape):
    message = f"expected a square matrix, got shape {shape}"
    with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
        build(entries)


def test_the_twirl_still_refuses_a_stack():
    message = r"^expected a square matrix, got shape \(2, 4, 4\)$"
    with pytest.raises(InvalidStateError, match=message):
        permutation_twirl_dense(np.ones((2, 4, 4)), 2)


def test_dim_and_the_dimension_check_read_the_last_axis(qubit_h):
    # shape[0] would read each stack's length: 3 for h, and for a (2, 3, 3)
    # stack of states 2, which would let a qubit H through the check
    h = random_hermitian([1, 2, 3], 4)
    assert h.dim == 4 and random_haar_unitary([5, 6, 7], 2).dim == 2
    rho = gibbs_state(h, 1.0)
    assert rho.dim == 4
    two = gibbs_state(random_hermitian([1, 2], 3), 1.0)
    with pytest.raises(DimensionMismatchError, match=r"^dimension mismatch: 3 vs 2$"):
        energy_mean(two, qubit_h)
    qubits = gibbs_state(random_hermitian([1, 2, 3], 2), 1.0)
    assert energy_mean(qubits, qubit_h).shape == (3,)
