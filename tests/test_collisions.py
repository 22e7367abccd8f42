import math

import numpy as np
import pytest

from mixent import (
    CollisionSpec,
    HermitianOperator,
    UnitaryOperator,
    apply_unitary,
    collision_energy_transfer,
    commutator_norm,
    gibbs_state,
    random_haar_unitary,
    random_hermitian,
    relative_entropy,
    reservoir_hamiltonian,
    run_collision_sequence,
    von_neumann_entropy,
)
from mixent.collisions import (
    DENSE_DIM_CAP,
    LEDGER_CSV_HEADER,
    check_dense_dim,
    kron_sum,
    site_kron_sum,
)
from mixent.errors import CapExceededError
from mixent.mixing import kron_all

QUBIT_DELTA_E = (1.0 - math.exp(-1.0)) / (1.0 + math.exp(-1.0))  # p0 - p1 at beta=1


def test_energy_transfer_identity_unitary(qubit_h):
    rho = gibbs_state(qubit_h, 1.0)
    assert collision_energy_transfer(rho, UnitaryOperator(np.eye(2)), qubit_h) == 0.0


def test_energy_transfer_commuting_unitary(qubit_h):
    # U diagonal in H's eigenbasis conserves energy exactly
    rho = gibbs_state(qubit_h, 1.0)
    u = UnitaryOperator(np.diag([1.0, np.exp(1j * 0.7)]))
    assert abs(collision_energy_transfer(rho, u, qubit_h)) < 1e-15
    assert commutator_norm(u, qubit_h) < 1e-15


def test_energy_transfer_qubit_exchange(qubit_h, exchange_u):
    # oracle: Delta E = p0 - p1, and beta*Delta E = S[sigma|rho] since
    # ln(rho_0/rho_1) = beta * (E_1 - E_0) = 1
    rho = gibbs_state(qubit_h, 1.0)
    de = collision_energy_transfer(rho, exchange_u, qubit_h)
    assert de == pytest.approx(QUBIT_DELTA_E, abs=1e-14)
    assert round(de, 4) == 0.4621
    s_rel = relative_entropy(apply_unitary(rho, exchange_u), rho)
    assert 1.0 * de == pytest.approx(s_rel, rel=1e-12)


def _ledger(h, u, beta):
    return run_collision_sequence(
        CollisionSpec(h=h, beta=beta, u=u, collisions=1, reservoir_size=1)
    )


def test_thermo_entropy_production_identity_unitary(qubit_h):
    assert _ledger(qubit_h, UnitaryOperator(np.eye(2)), 1.0).dirr_s == 0.0


def test_thermo_entropy_production_qubit(qubit_h, exchange_u):
    ledger = _ledger(qubit_h, exchange_u, 1.0)
    assert ledger.dirr_s == pytest.approx(QUBIT_DELTA_E, abs=1e-14)
    assert ledger.s_rel == pytest.approx(QUBIT_DELTA_E, rel=1e-12)


def test_thermo_entropy_production_random_instance():
    # d = 4, beta = 0.5, Haar U: the ledger's beta*DeltaE must equal an
    # independently computed S[sigma|rho] to 1e-9
    h = random_hermitian(11, 4)
    u = random_haar_unitary(11, 4)
    ledger = _ledger(h, u, 0.5)
    rho = gibbs_state(h, 0.5)
    s_rel = relative_entropy(apply_unitary(rho, u), rho)
    assert ledger.dirr_s == pytest.approx(s_rel, rel=1e-9)
    assert ledger.identity_residual < 1e-9


def test_dissipation_positivity_and_identity_seeded():
    # Gibbs + Haar with a genuinely non-commuting U: Delta E > 0 and
    # beta * Delta E = S[sigma|rho] to 1e-9 relative
    for seed in range(100):
        d = 2 + seed % 5
        beta = 0.2 + 0.1 * (seed % 9)
        h = random_hermitian(seed, d)
        u = random_haar_unitary(5000 + seed, d)
        rho = gibbs_state(h, beta)
        sigma = apply_unitary(rho, u)
        if commutator_norm(u, h) <= 1e-6:
            continue
        if np.max(np.abs(sigma.entries - rho.entries)) <= 1e-8:
            continue
        de = collision_energy_transfer(rho, u, h)
        assert de > 0.0
        assert beta * de == pytest.approx(relative_entropy(sigma, rho), rel=1e-9)


# ---------------------------------------------------------------------------
# collision sequences
# ---------------------------------------------------------------------------

def test_spec_validation(qubit_h, exchange_u):
    with pytest.raises(ValueError):
        CollisionSpec(h=qubit_h, beta=1.0, u=exchange_u, collisions=5, reservoir_size=3)
    with pytest.raises(ValueError):
        CollisionSpec(h=qubit_h, beta=1.0, u=exchange_u, collisions=-1, reservoir_size=3)


def test_sequence_zero_collisions(qubit_h, exchange_u):
    spec = CollisionSpec(h=qubit_h, beta=1.0, u=exchange_u, collisions=0, reservoir_size=8)
    ledger = run_collision_sequence(spec)
    assert ledger.rows == ()
    assert ledger.reservoir_s_info == 8 * von_neumann_entropy(gibbs_state(qubit_h, 1.0))


def test_sequence_identity_unitary(qubit_h):
    spec = CollisionSpec(
        h=qubit_h, beta=1.0, u=UnitaryOperator(np.eye(2)), collisions=4, reservoir_size=6
    )
    ledger = run_collision_sequence(spec)
    assert all(r.delta_e == 0.0 for r in ledger.rows)
    assert all(r.cum_dirr_s == 0.0 for r in ledger.rows)


def test_sequence_qubit_cumulative(qubit_h, exchange_u):
    spec = CollisionSpec(h=qubit_h, beta=1.0, u=exchange_u, collisions=3, reservoir_size=5)
    ledger = run_collision_sequence(spec)
    assert len(ledger.rows) == 3
    assert ledger.rows[-1].cum_dirr_s == pytest.approx(3 * QUBIT_DELTA_E, abs=1e-14)
    assert round(ledger.rows[-1].cum_dirr_s, 4) == 1.3864
    # cumulative columns are built by multiplication: exact to 0 ulp
    for r in ledger.rows:
        assert r.cum_delta_e == r.index * ledger.delta_e
        assert r.cum_dirr_s == r.index * ledger.dirr_s


def test_sequence_entropy_column_constant_zero_ulp():
    for seed in (0, 1, 2):
        d = 2 + seed
        h = random_hermitian(seed, d)
        u = random_haar_unitary(100 + seed, d)
        spec = CollisionSpec(h=h, beta=0.7, u=u, collisions=6, reservoir_size=9)
        ledger = run_collision_sequence(spec)
        column = {r.reservoir_s_info for r in ledger.rows}
        assert column == {ledger.reservoir_s_info}
        assert ledger.reservoir_s_info == 9 * ledger.s_rho


def test_sequence_identity_residual_small(qubit_h, exchange_u):
    spec = CollisionSpec(h=qubit_h, beta=1.0, u=exchange_u, collisions=2, reservoir_size=4)
    ledger = run_collision_sequence(spec)
    assert ledger.identity_residual < 1e-9
    assert ledger.commutator_fro > 1e-6


def test_sequence_degenerate_betas(qubit_h):
    # beta <= 0 is legal: the identity beta*DeltaE = S[sigma|rho] holds for
    # any finite beta, only the positivity of DeltaE needs beta > 0
    u = random_haar_unitary(3, 2)
    for beta in (-1.5, 0.0):
        spec = CollisionSpec(h=qubit_h, beta=beta, u=u, collisions=2, reservoir_size=4)
        ledger = run_collision_sequence(spec)
        assert ledger.identity_residual < 1e-9
        assert ledger.dirr_s >= 0.0
    assert run_collision_sequence(
        CollisionSpec(h=qubit_h, beta=-1.5, u=u, collisions=1, reservoir_size=2)
    ).delta_e < 0.0


def test_ledger_csv_format(qubit_h, exchange_u):
    spec = CollisionSpec(h=qubit_h, beta=1.0, u=exchange_u, collisions=2, reservoir_size=4)
    csv_text = run_collision_sequence(spec).to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == LEDGER_CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(QUBIT_DELTA_E, abs=1e-14)


# ---------------------------------------------------------------------------
# reservoir Hamiltonian
# ---------------------------------------------------------------------------

def test_reservoir_hamiltonian_single_copy(qubit_h):
    h_r = reservoir_hamiltonian(qubit_h, 1)
    assert np.array_equal(h_r.entries, qubit_h.entries)


def test_reservoir_hamiltonian_two_qubits(qubit_h):
    h_r = reservoir_hamiltonian(qubit_h, 2)
    assert np.allclose(h_r.entries, np.diag([0.0, 1.0, 1.0, 2.0]), atol=1e-15)


def test_reservoir_hamiltonian_trace_identity():
    # oracle: tr(H_R) = N * d^(N-1) * tr(H)
    for d, seed in ((2, 0), (3, 1)):
        h = random_hermitian(seed, d)
        h_r = reservoir_hamiltonian(h, 3)
        expected = 3 * d**2 * np.trace(h.entries)
        assert np.trace(h_r.entries) == pytest.approx(expected, abs=1e-10)


def test_reservoir_hamiltonian_permutation_invariant(qubit_h):
    h_r = reservoir_hamiltonian(qubit_h, 3).entries
    t = h_r.reshape((2,) * 6)
    swapped = t.transpose((1, 0, 2, 4, 3, 5)).reshape(8, 8)
    assert np.array_equal(swapped, h_r)


@pytest.mark.parametrize("d", [2, 3])
def test_reservoir_hamiltonian_is_exact_explicit_sum(d):
    eye = np.eye(d)
    for h in (random_hermitian(d, d), HermitianOperator(np.diag(np.arange(d) - 0.5))):
        for n in range(1, 5):
            explicit = sum(
                kron_all([eye] * k + [h.entries] + [eye] * (n - 1 - k)) for k in range(n)
            )
            h_r = reservoir_hamiltonian(h, n).entries
            assert np.array_equal(h_r, explicit)
            assert h_r.tobytes() == explicit.tobytes()  # signed zeros too


def test_reservoir_hamiltonian_cap(qubit_h):
    with pytest.raises(CapExceededError):
        reservoir_hamiltonian(qubit_h, 13)  # 2^13 > 4096


def _assert_diagonal_build_is_bitwise(a, b, n):
    vec = kron_sum(a, b, n)
    diagonal = kron_sum(np.diag(a), np.diag(b), n).diagonal()
    assert vec.shape == (len(a) ** n,)
    assert np.array_equal(vec, diagonal) and vec.tobytes() == diagonal.tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_kron_sum_of_diagonals_is_the_matrix_builds_diagonal(d):
    a, b = np.random.default_rng(d).uniform(0.05, 1.0, size=(2, d))
    n_max = max(n for n in range(1, 13) if d**n <= DENSE_DIM_CAP)
    for n in range(1, n_max + 1):
        _assert_diagonal_build_is_bitwise(a, b, n)


def test_kron_sum_of_diagonals_with_an_exact_zero():
    a, b = np.array([0.5, 0.0, 0.5]), np.array([0.0, 0.25, 0.75])
    for n in range(1, 6):
        _assert_diagonal_build_is_bitwise(a, b, n)
        assert np.count_nonzero(kron_sum(a, b, n)) < 3**n


def test_dense_cap_refuses_a_huge_power_without_forming_it():
    # 2^(10^6) has 301030 digits, past what Python formats as a string
    with pytest.raises(CapExceededError, match=r"^dense dimension 2\^1000000 exceeds cap 4096$"):
        check_dense_dim(2, 10**6)
    check_dense_dim(1, 10**6)     # one level is dimension 1 at any n


def test_kron_sum_of_diagonals_refuses_the_cap_before_it_builds(monkeypatch):
    monkeypatch.setattr(np, "kron", lambda *args: pytest.fail("built past the cap"))
    with pytest.raises(CapExceededError):
        kron_sum(np.full(2, 0.5), np.full(2, 0.5), 13)  # 2^13 > 4096
    with pytest.raises(CapExceededError):
        kron_sum(np.full(3, 1 / 3), np.full(3, 1 / 3), 3, dense_cap=26)


def _site_factor(rng, size, is_complex, diagonal):
    shape = (size,) if diagonal else (size, size)
    x = rng.uniform(-0.5, 0.5, size=shape)
    return x + 1j * rng.uniform(-0.5, 0.5, size=shape) if is_complex else x


@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_site_kron_sum_is_the_explicit_sum_of_site_terms(d, is_complex, diagonal):
    # the per-site sizes pair_swap_blocks passes: symmetric and antisymmetric
    # pair blocks, then the leftover site
    rng = np.random.default_rng(40 + d)
    sym, anti, leftover = d * (d + 1) // 2, d * (d - 1) // 2, d
    for k in range(4 if d == 2 else 3):
        for a in range(k + 1):
            for odd in (0, 1) if k else (1,):
                sizes = [anti] * a + [sym] * (k - a) + [leftover] * odd
                sites = [
                    tuple(_site_factor(rng, size, is_complex, diagonal) for _ in range(2))
                    for size in sizes
                ]
                explicit = sum(
                    kron_all([x for x, _ in sites[:i]] + [sites[i][1]]
                             + [x for x, _ in sites[i + 1:]])
                    for i in range(len(sites))
                )
                built = site_kron_sum(sites)
                assert built.dtype == (np.complex128 if is_complex else np.float64)
                assert built.shape == explicit.shape
                assert np.abs(built - explicit).max() <= 1e-15
