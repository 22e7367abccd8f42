import itertools
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from mixent import (
    CapExceededError,
    ClassicalDistribution,
    DensityOperator,
    DimensionMismatchError,
    HermitianOperator,
    InfiniteRelativeEntropyError,
    InvalidStateError,
    classical_mixing_entropy_exact,
    convergence_sweep,
    gibbs_state,
    graceful_checks,
    mixing_entropy,
    permutation_twirl_dense,
    random_haar_unitary,
    random_hermitian,
    shannon_entropy,
    symmetrized_state_dense,
    type_class_spectrum,
    apply_unitary,
    classical_mixing_increase_formula,
)
from mixent import mixing
from mixent.mixing import (
    TYPE_CLASS_BUDGET,
    _type_count_matrix,
    dense_state_entropy,
    gap_integral,
    kron_all,
    records_to_csv,
    simultaneous_classical_pair,
)
from mixent.states import (
    EIG_FLOOR,
    _supported_pair,
    clamp_spectrum,
    entropy_of_spectrum,
    von_neumann_entropy,
)
from mixent.verify import C4_FAMILIES, DEFAULT_TOLERANCES, _brute_multi_mixing, _string_probs
from conftest import seeded_density, series_remainder_ratios


# ---------------------------------------------------------------------------
# oracles: direct string enumeration, independent of the type-class route
# ---------------------------------------------------------------------------

def string_probs(sigma_p, rho_p, n_total):
    """Diagonal of R over all d^N strings, by direct enumeration."""
    d = len(rho_p)
    probs = []
    for s in itertools.product(range(d), repeat=n_total):
        q = 0.0
        for k in range(n_total):
            term = sigma_p[s[k]]
            for m in range(n_total):
                if m != k:
                    term *= rho_p[s[m]]
            q += term
        probs.append(q / n_total)
    return np.array(probs)


def placement_probs(sigma_p, rho_p, n_total, m_sigma):
    """Diagonal of R with m_sigma sigmas: every placement, factors in site order."""
    placements = list(itertools.combinations(range(n_total), m_sigma))
    probs = []
    for s in itertools.product(range(len(rho_p)), repeat=n_total):
        q = 0.0
        for pl in placements:
            term = 1.0
            for k in range(n_total):
                term *= sigma_p[s[k]] if k in pl else rho_p[s[k]]
            q += term
        probs.append(q / len(placements))
    return np.array(probs)


def brute_mixing_entropy(sigma, rho, n):
    probs = string_probs(sigma.p, rho.p, n + 1)
    assert abs(probs.sum() - 1.0) < 1e-12
    pos = probs[probs > 0]
    s_r = -np.sum(pos * np.log(pos))
    return s_r - n * shannon_entropy(rho) - shannon_entropy(sigma)


def permutation_matrix(perm, d, n_total):
    dim = d**n_total
    p = np.zeros((dim, dim))
    for s in itertools.product(range(d), repeat=n_total):
        out = tuple(s[perm[k]] for k in range(n_total))
        p[np.ravel_multi_index(out, (d,) * n_total), np.ravel_multi_index(s, (d,) * n_total)] = 1.0
    return p


RHO_CLASSICAL = ClassicalDistribution([0.75, 0.25])
SIGMA_CLASSICAL = ClassicalDistribution([0.25, 0.75])


# ---------------------------------------------------------------------------
# symmetrized dense state
# ---------------------------------------------------------------------------

def test_symmetrized_identical_factors_is_product():
    rho = seeded_density(0, 2)
    r = symmetrized_state_dense(rho, rho, 2)
    expected = kron_all([rho.entries] * 3)
    assert np.max(np.abs(r.matrix - expected)) < 1e-14


def test_symmetrized_two_slot_diagonal():
    r = symmetrized_state_dense(SIGMA_CLASSICAL.as_density(), RHO_CLASSICAL.as_density(), 1)
    # oracle: enumerate all 4 strings
    expected = string_probs(SIGMA_CLASSICAL.p, RHO_CLASSICAL.p, 2)
    assert np.allclose(np.diag(r.matrix).real, expected, atol=1e-15)
    assert np.allclose(np.diag(r.matrix).real, [0.1875, 0.3125, 0.3125, 0.1875], atol=1e-15)


def test_symmetrized_dense_matches_string_enumeration_diagonal():
    sig = ClassicalDistribution([0.1, 0.6, 0.3])
    rho = ClassicalDistribution([0.5, 0.25, 0.25])
    r = symmetrized_state_dense(sig.as_density(), rho.as_density(), 3)
    expected = string_probs(sig.p, rho.p, 4)
    assert np.allclose(np.diag(r.matrix).real, expected, atol=1e-14)
    off = r.matrix - np.diag(np.diag(r.matrix))
    assert np.max(np.abs(off)) < 1e-15


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
def test_symmetrized_permutation_invariance_noncommuting(d, n):
    rho = gibbs_state(HermitianOperator(np.diag(np.arange(d, dtype=float))), 1.0)
    sigma = apply_unitary(rho, random_haar_unitary(3, d))
    r = symmetrized_state_dense(sigma, rho, n).matrix
    DensityOperator(r)  # Hermitian, unit trace, PSD
    assert np.max(np.abs(permutation_twirl_dense(r, n + 1) - r)) < 1e-14


def _noncommuting_pair(d, real):
    """Seeded (sigma, rho): a Gibbs rho turned by a real rotation or a Haar unitary."""
    if not real:
        rho = seeded_density(21, d)
        return apply_unitary(rho, random_haar_unitary(22, d)), rho
    rho = gibbs_state(HermitianOperator(np.diag(np.arange(d, dtype=float))), 1.0)
    rotation = np.linalg.qr(np.random.default_rng(d).normal(size=(d, d)))[0]
    return DensityOperator(rotation @ rho.entries @ rotation.T), rho


def test_symmetrized_dtype_follows_inputs():
    pairs = [(SIGMA_CLASSICAL.as_density(), RHO_CLASSICAL.as_density())]
    pairs += [_noncommuting_pair(d, real=True) for d in (2, 3)]
    for sigma, rho in pairs:
        assert symmetrized_state_dense(sigma, rho, 3).matrix.dtype == np.float64
    sigma, rho = _noncommuting_pair(2, real=False)
    assert np.any(sigma.entries.imag != 0.0)
    assert symmetrized_state_dense(sigma, rho, 3).matrix.dtype == np.complex128


@pytest.mark.parametrize("d,real,n_max", [(2, True, 6), (3, True, 4), (2, False, 5)])
def test_symmetrized_matches_explicit_kron_sum(d, real, n_max):
    sigma, rho = _noncommuting_pair(d, real)
    for n in range(1, n_max + 1):
        explicit = sum(
            kron_all([rho.entries] * k + [sigma.entries] + [rho.entries] * (n - k))
            for k in range(n + 1)
        ) / (n + 1)
        r = symmetrized_state_dense(sigma, rho, n).matrix
        assert np.max(np.abs(r - explicit)) <= 1e-15


@pytest.mark.parametrize(
    "pair",
    [
        (SIGMA_CLASSICAL.as_density(), RHO_CLASSICAL.as_density()),
        _noncommuting_pair(2, real=True),
    ],
    ids=["classical", "real-noncommuting"],
)
def test_dense_entropy_same_on_real_and_complex_dtype(pair):
    r = symmetrized_state_dense(*pair, 8)
    assert r.matrix.dtype == np.float64
    real = dense_state_entropy(r.matrix)
    assert abs(real - dense_state_entropy(r.matrix.astype(complex))) <= 1e-12


def _full_eigensolve_entropy(matrix):
    return entropy_of_spectrum(clamp_spectrum(np.linalg.eigvalsh(matrix)))


@pytest.mark.parametrize(
    "d,n", [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 5)]
)
def test_dense_entropy_of_diagonal_r_equals_full_eigensolve(d, n, monkeypatch):
    rho_p, sig_p = {d: pair for d, _, pair in C4_FAMILIES}[d]
    sigma = ClassicalDistribution(sig_p).as_density()
    rho = ClassicalDistribution(rho_p).as_density()
    expected = _full_eigensolve_entropy(symmetrized_state_dense(sigma, rho, n).matrix)
    s_r = []
    reduce = mixing.entropy_of_spectrum
    monkeypatch.setattr(mixing, "entropy_of_spectrum", lambda e: s_r.append(reduce(e)) or s_r[-1])
    mixing_entropy(sigma, rho, n, method="dense")
    assert s_r == [expected]


@pytest.mark.parametrize("d,n_max,pair", C4_FAMILIES, ids=["d=2", "d=3"])
def test_dense_s_mix_of_a_commuting_pair_equals_reading_a_full_r(d, n_max, pair):
    """Building only R's diagonal gives the bits of reading it off the full R."""
    rho_p, sig_p = pair
    sigma = ClassicalDistribution(sig_p).as_density()
    rho = ClassicalDistribution(rho_p).as_density()
    for n in range(1, n_max + 1):
        r = symmetrized_state_dense(*mixing._in_rho_eigenbasis(sigma, rho), n).matrix
        assert np.count_nonzero(r) == np.count_nonzero(r.diagonal())
        s_r = entropy_of_spectrum(clamp_spectrum(r.diagonal().real))
        expected = s_r - n * von_neumann_entropy(rho) - von_neumann_entropy(sigma)
        assert mixing_entropy(sigma, rho, n, method="dense").s_mix == expected


def test_dense_route_of_a_commuting_pair_builds_no_full_r():
    n_max, (rho_p, sig_p) = next((n, pair) for d, n, pair in C4_FAMILIES if d == 2)
    sigma = ClassicalDistribution(sig_p).as_density()
    rho = ClassicalDistribution(rho_p).as_density()
    u = random_haar_unitary(8, 2)
    # given diagonal, and turned to a basis where rounding leaves sigma a
    # residue off the diagonal of rho's eigenbasis
    for s, r in [(sigma, rho), (apply_unitary(sigma, u), apply_unitary(rho, u))]:
        tracemalloc.start()
        try:
            mixing_entropy(s, r, n_max, method="dense")  # R is 4096-dimensional
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # a full float64 R alone is 128 MiB


def _entropy_and_eigvalsh_calls(monkeypatch, matrix):
    """dense_state_entropy(matrix) and the shapes np.linalg.eigvalsh saw."""
    calls = []
    solver = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or solver(m)
    )
    return dense_state_entropy(matrix), calls


@pytest.mark.parametrize("real", [True, False])
def test_dense_entropy_eigensolves_nondiagonal_r(real, monkeypatch):
    sigma, rho = _noncommuting_pair(2, real)
    r = symmetrized_state_dense(sigma, rho, 4).matrix
    _, calls = _entropy_and_eigvalsh_calls(monkeypatch, r)
    assert calls == [(32, 32)]


def test_dense_entropy_reads_diagonal_r_without_eigensolve(monkeypatch):
    """A commuting pair's R is diagonal: only its diagonal is built, no R is solved."""
    shapes, built = [], []
    solver = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or solver(m))
    monkeypatch.setattr(mixing, "pair_swap_blocks", lambda *a, **k: built.append(a))
    rec = mixing_entropy(SIGMA_CLASSICAL, RHO_CLASSICAL, 4, method="dense")
    assert built == [] and set(shapes) <= {(2, 2)}
    assert rec.s_mix == pytest.approx(
        mixing_entropy(SIGMA_CLASSICAL, RHO_CLASSICAL, 4, method="classical-exact").s_mix,
        abs=1e-12,
    )


def test_dense_entropy_eigensolves_when_row_0_is_diagonal(monkeypatch):
    m = np.zeros((3, 3))
    m[0, 0] = 0.5
    m[1:, 1:] = [[0.25, 0.125], [0.125, 0.25]]
    entropy, calls = _entropy_and_eigvalsh_calls(monkeypatch, m)
    expected = entropy_of_spectrum(np.array([0.5, 0.125, 0.375]))
    assert entropy == pytest.approx(expected, abs=1e-15)
    assert calls == [(3, 3)]


def test_dense_entropy_diagonal_below_floor_rejected():
    with pytest.raises(InvalidStateError):
        dense_state_entropy(np.diag([0.5, 0.5 + 2 * EIG_FLOOR, -2 * EIG_FLOOR]))
    clamped = dense_state_entropy(np.diag([0.5, 0.5 + EIG_FLOOR / 2, -EIG_FLOOR / 2]))
    assert clamped == entropy_of_spectrum(np.array([0.5, 0.5 + EIG_FLOOR / 2]))


def test_mixture_spectrum_representation_validates():
    spec = type_class_spectrum(SIGMA_CLASSICAL, RHO_CLASSICAL, 4)
    spec.validate()
    with pytest.raises(InvalidStateError, match="4 type weights for 5 type classes"):
        replace(spec, weight=spec.weight[1:], excess=spec.excess[1:]).validate()
    probs = string_probs(SIGMA_CLASSICAL.p, RHO_CLASSICAL.p, 4)
    expected = -np.sum(probs * np.log(probs))
    assert spec.entropy() == pytest.approx(expected, abs=1e-12)


def test_symmetrized_dim_mismatch_and_cap():
    rho2 = seeded_density(0, 2)
    rho3 = seeded_density(0, 3)
    with pytest.raises(DimensionMismatchError):
        symmetrized_state_dense(rho2, rho3, 1)
    with pytest.raises(CapExceededError):
        symmetrized_state_dense(rho2, rho2, 12)  # 2^13 > 4096


# ---------------------------------------------------------------------------
# type-class spectrum vs brute force
# ---------------------------------------------------------------------------

def _check_spectrum_against_strings(sig_p, rho_p, n_total, m_sigma=1):
    d = len(rho_p)
    spec = type_class_spectrum(ClassicalDistribution(sig_p), ClassicalDistribution(rho_p),
                               n_total, m_sigma)
    types = list(map(tuple, spec.counts.tolist()))
    eigen_by_type = {
        t: math.exp(lq) if math.isfinite(lq) else 0.0 for t, lq in zip(types, spec.log_q)
    }
    mult_by_type = {
        t: math.factorial(n_total) // math.prod(math.factorial(c) for c in t) for t in types
    }
    # the arrays gap() sums: weight = mult rho^t and 1 + excess = L, per type
    route_by_type = dict(zip(types, spec.weight * (1.0 + spec.excess)))

    # brute force: group strings by type, check the count exactly and the
    # eigenvalue, the mean over sigma placements, to floating-point accuracy
    placements = list(itertools.combinations(range(n_total), m_sigma))
    seen = {t: 0 for t in eigen_by_type}
    for s in itertools.product(range(d), repeat=n_total):
        t = tuple(s.count(a) for a in range(d))
        q = 0.0
        for pl in placements:
            term = 1.0
            for k in range(n_total):
                term *= sig_p[s[k]] if k in pl else rho_p[s[k]]
            q += term
        q /= len(placements)
        assert q == pytest.approx(eigen_by_type[t], rel=1e-12, abs=1e-300)
        assert route_by_type[t] == pytest.approx(mult_by_type[t] * q, rel=1e-12, abs=1e-300)
        seen[t] += 1
    assert seen == mult_by_type


@pytest.mark.parametrize("d,n_total", [(2, 6), (2, 12), (3, 5), (3, 7)])
def test_type_class_spectrum_matches_string_enumeration(d, n_total):
    rng = np.random.default_rng(d * 100 + n_total)
    rho_p = rng.uniform(0.2, 1.0, size=d)
    rho_p /= rho_p.sum()
    sig_p = rng.uniform(0.0, 1.0, size=d)
    sig_p /= sig_p.sum()
    _check_spectrum_against_strings(sig_p, rho_p, n_total)


@pytest.mark.parametrize("n_total", [6, 7])
def test_two_sigma_spectrum_matches_placement_enumeration(n_total):
    # criterion 8's pair
    _check_spectrum_against_strings(np.array([0.2, 0.8]), np.array([0.6, 0.4]), n_total, 2)


def test_type_class_spectrum_requires_full_support():
    with pytest.raises(InfiniteRelativeEntropyError):
        type_class_spectrum(SIGMA_CLASSICAL, ClassicalDistribution([1.0, 0.0]), 3)


@pytest.mark.parametrize("method", ["auto", "classical-exact", "dense"])
def test_every_method_refuses_sigma_off_rho_support_alike(method):
    with pytest.raises(InfiniteRelativeEntropyError, match="not contained in support of rho"):
        mixing_entropy(ClassicalDistribution([0.5, 0.5]), ClassicalDistribution([1.0, 0.0]),
                       3, method=method)


# the spectrum enumerates every type, and indexes tables of N + 1 entries
# per symbol: at d=2 the tables pass the budget (N = TYPE_CLASS_BUDGET and
# 10^8), and at d=3, N = 10^5 the C(10^5 + 2, 2) = 5.0e9 types do
PAST_BUDGET = [(2, TYPE_CLASS_BUDGET), (2, 10**8), (3, 10**5)]


def test_type_class_budget():
    # the budget bounds the kept types and the tables, and raises before enumerating
    for d, n_total in PAST_BUDGET:
        with pytest.raises(CapExceededError):
            type_class_spectrum(*_budget_pair(d), n_total)


def _budget_pair(d):
    return (SIGMA_CLASSICAL, RHO_CLASSICAL) if d == 2 else _c4_pair(d)


def _forbid_allocating(monkeypatch):
    """Make numpy's allocators and the log-gamma table fail from here on."""
    def enumerated(*args, **kwargs):
        raise AssertionError("enumerated past the budget")

    for name in ("arange", "column_stack", "empty", "full", "repeat", "zeros"):
        monkeypatch.setattr(np, name, enumerated)
    monkeypatch.setattr(mixing, "gammaln", enumerated)


def test_type_class_budget_checked_before_allocating(monkeypatch):
    _forbid_allocating(monkeypatch)
    # every type: n_total + 1 at d=2, and C(3165, 2) = 5006630 at d=3
    for n_total, d in [(TYPE_CLASS_BUDGET, 2), (3163, 3)]:
        with pytest.raises(CapExceededError):
            _type_count_matrix(n_total, d)
    for d, n_total in PAST_BUDGET:
        with pytest.raises(CapExceededError):
            type_class_spectrum(*_budget_pair(d), n_total)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_type_count_matrix_is_stars_and_bars_at_every_block_size(data):
    d = data.draw(st.integers(1, 5), label="d")
    n_total = data.draw(st.integers(1, 24 if d <= 3 else 10), label="n_total")
    # a d = 3 enumeration in blocks of any size, down to one c0 per block
    cells = data.draw(st.sampled_from([1, 7, 64, mixing.TYPE_BLOCK_CELLS]), label="cells")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mixing, "TYPE_BLOCK_CELLS", cells)
        counts = _type_count_matrix(n_total, d)
    assert len(counts) == mixing._num_types(n_total, d) == math.comb(n_total + d - 1, d - 1)
    assert np.array_equal(counts, _stars_and_bars(n_total, d))


def count_matrix_arrays(sigma_p, rho_p, n_total, m_sigma):
    """(weight, excess, log_l) by gathers through the full count matrix.

    The construction type_class_spectrum used before it enumerated by runs:
    every symbol's table is looked up by that symbol's column of counts.
    """
    counts = _type_count_matrix(n_total, len(rho_p))
    c = np.arange(n_total + 1)
    lgamma = gammaln(np.arange(n_total + 2))
    log_w_table = np.log(rho_p)[:, None] * c - lgamma[1:]
    log_w = np.full(len(counts), lgamma[n_total + 1])
    for a, col in enumerate(counts.T):
        log_w += log_w_table[a][col]
    if m_sigma == 1:
        shift = ((sigma_p - rho_p) / rho_p)[:, None] * c
        excess = np.zeros(len(counts))
        for a, col in enumerate(counts.T):
            excess += shift[a][col]
        excess /= n_total
        with np.errstate(divide="ignore"):
            return np.exp(log_w), excess, np.log1p(excess)
    ratios = sigma_p / rho_p
    poly = np.ones((1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        factors = mixing._placement_factors(ratios / ratios.max(), n_total, m_sigma)
        for a, col in enumerate(counts.T):
            poly = mixing._truncated_product(poly, factors[a][:, col])
    with np.errstate(divide="ignore"):
        log_l = (m_sigma * np.log(ratios.max()) + np.log(poly[m_sigma])
                 - mixing._log_choose(n_total, m_sigma))
    return np.exp(log_w), np.expm1(log_l), log_l


def _assert_runs_bit_for_bit(sig_p, rho_p, n_total, m_sigma):
    """The spectrum's arrays are the count-matrix rows, every type."""
    sig_p, rho_p = np.asarray(sig_p), np.asarray(rho_p)
    spec = type_class_spectrum(ClassicalDistribution(sig_p), ClassicalDistribution(rho_p),
                               n_total, m_sigma)
    oracle = count_matrix_arrays(sig_p, rho_p, n_total, m_sigma)
    for got, want in zip((spec.weight, spec.excess, spec.log_l), oracle):
        assert got.tobytes() == want.tobytes()
    # one set of types: counts holds exactly the rows the arrays cover
    assert spec.counts.tobytes() == _type_count_matrix(n_total, len(rho_p)).tobytes()


@pytest.mark.parametrize("d,n_total,m_sigma", [
    (d, n_total, m_sigma) for d in range(1, 6) for m_sigma in (1, 2, 3)
    for n_total in (m_sigma + 1, m_sigma + 2, 9, 24)
])
def test_type_runs_give_the_count_matrix_arrays_bit_for_bit(d, n_total, m_sigma):
    rng = np.random.default_rng(7 * d + n_total)
    rho_p = rng.uniform(0.05, 1.0, size=d)
    sig_p = rng.uniform(0.05, 1.0, size=d)
    if d > 1 and n_total % 2:
        sig_p[-1] = 0.0     # types with L = 0, whose log_l is -inf
    _assert_runs_bit_for_bit(sig_p / sig_p.sum(), rho_p / rho_p.sum(), n_total, m_sigma)


LARGE_RUN_CASES = [     # (sigma, rho, N, m)
    *[([0.5, 0.3, 0.2], [0.2, 0.35, 0.45], 401, m) for m in (1, 2, 3)],      # 81003 types
    *[([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], 81, m) for m in (1, 2, 3)],  # 95284
    *[([0.0, 0.2, 0.3, 0.2, 0.3], [0.3, 0.2, 0.1, 0.2, 0.2], 36, m)            # 91390
      for m in (1, 2, 3)],
    ([0.5, 0.3, 0.2], [0.2, 0.35, 0.45], 2049, 1),      # 2102275 types in 68 blocks
    ([0.3, 0.7], [0.7, 0.3], 2**20 + 1, 1),             # 1048578 types in one run
]


@pytest.mark.parametrize("sig_p,rho_p,n_total,m_sigma", LARGE_RUN_CASES,
                         ids=[f"d{len(c[1])}-{c[2]}-m{c[3]}" for c in LARGE_RUN_CASES])
def test_type_runs_give_the_count_matrix_arrays_bit_for_bit_at_large_n(
    sig_p, rho_p, n_total, m_sigma
):
    _assert_runs_bit_for_bit(sig_p, rho_p, n_total, m_sigma)


def _d3_blocks(n_total):
    """(keep, c0 + c1) over the cells of each d = 3 run."""
    c = [np.arange(n_total + 1)] * 3
    return [(keep, sum(lookup(c)[:2])) for _, keep, lookup in mixing._type_runs(n_total, 3)]


D3_PAIR = ([0.5, 0.3, 0.2], [0.2, 0.35, 0.45])
BLOCK_EDGE_CASES = [    # (sigma, rho, N, m, TYPE_BLOCK_CELLS)
    ([0.2, 0.3, 0.5], [0.05, 0.15, 0.8], 32, 1, 2**6),   # CI's vertex pair
    *[(*D3_PAIR, 24, m, 2**5) for m in (1, 2, 3)],
    *[(*D3_PAIR, 90, m, 2**9) for m in (2, 3)],
]


@pytest.mark.parametrize("sig_p,rho_p,n_total,m_sigma,cells", BLOCK_EDGE_CASES,
                         ids=[f"{c[2]}-m{c[3]}-cells{c[4]}" for c in BLOCK_EDGE_CASES])
def test_d3_blocks_give_the_count_matrix_arrays_bit_for_bit(
    monkeypatch, sig_p, rho_p, n_total, m_sigma, cells
):
    # some block has c0 + c1 > N, where c2's view reads padding
    monkeypatch.setattr(mixing, "TYPE_BLOCK_CELLS", cells)
    blocks = _d3_blocks(n_total)
    assert len(blocks) >= 2
    assert all(keep.size <= cells for keep, _ in blocks if keep.shape[0] > 1)
    assert any(c01.max() > n_total for _, c01 in blocks)
    _assert_runs_bit_for_bit(sig_p, rho_p, n_total, m_sigma)


def test_large_d3_boxes_span_several_blocks():
    # LARGE_RUN_CASES' d = 3 enumerations at the module's own block size
    for n_total in (2049, 401):
        blocks = _d3_blocks(n_total)
        assert len(blocks) >= 2
        assert all(keep.size <= mixing.TYPE_BLOCK_CELLS for keep, _ in blocks)


def test_counts_and_entropy_cover_the_box_past_the_full_enumeration():
    # every type at d=3, N = 2049: 2102275 of them, within the budget
    sig, rho = _c4_pair(3)
    n = 2048
    spec = type_class_spectrum(sig, rho, n + 1)
    assert len(spec.counts) == len(spec.weight) == math.comb(n + 3, 2)
    s_r = spec.entropy()
    s_mix = s_r - n * shannon_entropy(rho) - shannon_entropy(sig)
    # every term of S[R] carries the rounding of ln N!, which the gap route cancels
    tol = s_r * np.finfo(float).eps * math.lgamma(n + 2)
    assert s_mix == pytest.approx(classical_mixing_entropy_exact(sig, rho, n).s_mix, abs=tol)


def test_window_of_identical_states_has_a_gap_of_exactly_zero():
    rho = _c4_pair(3)[1]
    spec = type_class_spectrum(rho, rho, 2049)
    assert len(spec.weight) == math.comb(2051, 2)
    assert spec.gap() == 0.0


@pytest.mark.parametrize("n", [10**4, 3 * 10**4])
def test_window_reaches_d3_past_the_full_enumeration(monkeypatch, n):
    # the m = 1 record is the gap integral, with no budget; the C(n + 3, 2)
    # type classes, ten times the budget or more, are refused before anything
    # is allocated
    assert math.comb(n + 3, 2) > 10 * TYPE_CLASS_BUDGET
    sig, rho = _c4_pair(3)
    rec = classical_mixing_entropy_exact(sig, rho, n)
    ratios = series_remainder_ratios(sig.p, rho.p, [(n, rec.gap)])
    assert ratios[0] <= DEFAULT_TOLERANCES["series_remainder"]
    _forbid_allocating(monkeypatch)
    with pytest.raises(CapExceededError, match="type classes exceed the enumeration budget"):
        type_class_spectrum(sig, rho, n + 1)


def test_gap_route_never_builds_the_d_symbol_count_matrix(monkeypatch):
    real_count_matrix = mixing._type_count_matrix
    calls = []
    monkeypatch.setattr(
        mixing, "_type_count_matrix", lambda *a: calls.append(a) or real_count_matrix(*a)
    )
    type_class_spectrum(*_c4_pair(3), 2049)
    assert calls == []
    # d >= 4 gathers from the (d-1)-symbol matrix alone
    sig, rho = (ClassicalDistribution(p) for p in MULTI_PAIRS[2])
    type_class_spectrum(sig, rho, 81)
    assert calls == [(81, 3)]


def _stars_and_bars(n_total, d):
    """The counts between d - 1 bars among n_total + d - 1 slots, in the bars' order."""
    return np.array([
        np.diff((-1,) + bars + (n_total + d - 1,)) - 1
        for bars in itertools.combinations(range(n_total + d - 1), d - 1)
    ], dtype=np.int64)


@pytest.mark.parametrize("d", range(1, 6))
def test_type_count_matrix_is_stars_and_bars_in_order(d):
    for n_total in range(1, 13):
        counts = _type_count_matrix(n_total, d)
        assert counts.dtype == np.int64
        assert counts.flags.c_contiguous
        assert np.array_equal(counts, _stars_and_bars(n_total, d))


def _spectrum_s_mix(sig, rho, n):
    """S_mix by the S[R] oracle: S[R] - n S[rho] - S[sigma] over the type classes."""
    spec = type_class_spectrum(sig, rho, n + 1)
    return spec.entropy() - n * shannon_entropy(rho) - shannon_entropy(sig)


# s_mix of the criterion-4 pairs as exact reprs, so that any change in how a
# classical route rounds (enumeration order, log-gamma, sums, the integral's
# nodes) fails here: the S[R] oracle's and the gap-first route's
PINNED_S_MIX = {
    (2, 1): "0.17237007772836943",
    (2, 64): "0.3634919645504153",
    (2, 2048): "0.3690892309575444",
    (3, 1): "0.11110346672429738",
    (3, 64): "0.23175707920986532",
    (3, 2048): "0.2354909694950269",
}
PINNED_GAP_FIRST_S_MIX = {
    (2, 1): "0.17237007772836954",
    (2, 64): "0.36349196455078886",
    (2, 2048): "0.3690892316122944",
    (3, 1): "0.11110346672429744",
    (3, 64): "0.23175707921075173",
    (3, 2048): "0.2354909711151833",
}


def _c4_pair(d):
    rho_p, sig_p = next(pair for dim, _, pair in C4_FAMILIES if dim == d)
    return ClassicalDistribution(sig_p), ClassicalDistribution(rho_p)


@pytest.mark.parametrize("d,n", sorted(PINNED_S_MIX))
def test_classical_s_mix_bits_are_pinned(d, n):
    assert repr(_spectrum_s_mix(*_c4_pair(d), n)) == PINNED_S_MIX[d, n]


@pytest.mark.parametrize("d,n", sorted(PINNED_GAP_FIRST_S_MIX))
def test_gap_first_s_mix_bits_are_pinned(d, n):
    rec = classical_mixing_entropy_exact(*_c4_pair(d), n)
    assert repr(rec.s_mix) == PINNED_GAP_FIRST_S_MIX[d, n]
    assert rec.s_mix == rec.s_rel - rec.gap


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("zero_in_sigma", [False, True])
def test_spectrum_sums_keep_the_per_call_formula_bits(d, zero_in_sigma):
    # entropy() gives the bits of fsum over the per-type formula, with the
    # -inf log-eigenvalues (eigenvalue 0) left out
    rng = np.random.default_rng(500 + d)
    for n_total in (3, 17, 40):
        sig_p = rng.uniform(0.05, 1.0, size=d)
        if zero_in_sigma:
            sig_p[0] = 0.0
        rho_p = rng.uniform(0.05, 1.0, size=d)
        spec = type_class_spectrum(ClassicalDistribution(sig_p / sig_p.sum()),
                                   ClassicalDistribution(rho_p / rho_p.sum()), n_total)
        finite = np.isfinite(spec.log_q)
        # the one L = 0 type has every count on symbol 0
        assert finite.all() != zero_in_sigma
        lq = spec.log_q[finite]
        entropy = math.fsum(-np.exp(spec.log_mult[finite] + lq) * lq)
        assert spec.entropy().hex() == entropy.hex()


# ---------------------------------------------------------------------------
# mixing entropy, three routes
# ---------------------------------------------------------------------------

def test_mixing_entropy_identical_states_vanishes():
    rho = seeded_density(1, 2)
    for n, method in ((1, "dense"), (3, "dense"), (5, "auto")):
        rec = mixing_entropy(rho, rho, n, method=method)
        assert abs(rec.s_mix) < 1e-10
    rec = classical_mixing_entropy_exact(RHO_CLASSICAL, RHO_CLASSICAL, 64)
    assert abs(rec.s_mix) < 1e-10


def test_mixing_entropy_two_slot_example():
    rec = mixing_entropy(SIGMA_CLASSICAL, RHO_CLASSICAL, 1, method="classical-exact")
    oracle = brute_mixing_entropy(SIGMA_CLASSICAL, RHO_CLASSICAL, 1)
    assert rec.s_mix == pytest.approx(oracle, abs=1e-13)
    assert rec.s_rel == pytest.approx(0.5 * math.log(3), abs=1e-13)
    assert rec.gap == rec.s_rel - rec.s_mix


def test_classical_exact_matches_brute_force():
    for n in (1, 2, 3, 5):
        rec = classical_mixing_entropy_exact(SIGMA_CLASSICAL, RHO_CLASSICAL, n)
        assert rec.s_mix == pytest.approx(
            brute_mixing_entropy(SIGMA_CLASSICAL, RHO_CLASSICAL, n), abs=1e-12
        )


def test_dense_agrees_with_classical_exact_commuting():
    # d = 2 commuting pair, n = 8: the two routes are mutual oracles
    sig_op = SIGMA_CLASSICAL.as_density()
    rho_op = RHO_CLASSICAL.as_density()
    dense = mixing_entropy(sig_op, rho_op, 8, method="dense")
    classical = mixing_entropy(sig_op, rho_op, 8, method="classical-exact")
    assert dense.s_mix == pytest.approx(classical.s_mix, abs=1e-9)


def test_dense_agrees_with_classical_rotated_basis():
    # commuting but not diagonal: common Haar eigenbasis
    u = random_haar_unitary(8, 2).entries
    rho_op = DensityOperator(u @ np.diag([0.7, 0.3]).astype(complex) @ u.conj().T)
    sig_op = DensityOperator(u @ np.diag([0.2, 0.8]).astype(complex) @ u.conj().T)
    dense = mixing_entropy(sig_op, rho_op, 5, method="dense")
    classical = mixing_entropy(sig_op, rho_op, 5, method="classical-exact")
    assert dense.s_mix == pytest.approx(classical.s_mix, abs=1e-9)


def _original_basis_s_mix(sigma, rho, n):
    """S_mix from R built in the caller's basis, with nothing turned."""
    s_r = dense_state_entropy(symmetrized_state_dense(sigma, rho, n).matrix)
    return s_r - n * von_neumann_entropy(rho) - von_neumann_entropy(sigma)


def _dense_route(monkeypatch, sigma, rho, n):
    """The dense record, the pair handed to R's block build, the dtypes R's
    blocks were eigensolved in, and the width of every eigvalsh input."""
    built, dtypes, widths, in_block = [], [], [], []
    build, solver = mixing.pair_swap_blocks, np.linalg.eigvalsh
    block_entropy = mixing.dense_state_entropy

    def spy_build(s, r, n, *args, **kwargs):
        built.append((s.entries, r.entries))
        return build(s, r, n, *args, **kwargs)

    def spy_entropy(m):
        in_block.append(m)
        try:
            return block_entropy(m)
        finally:
            in_block.pop()

    def spy_solver(m):
        widths.append(m.shape[0])
        if in_block:      # a block of R, not a d x d state check
            dtypes.append(m.dtype)
        return solver(m)

    with monkeypatch.context() as patch:
        patch.setattr(mixing, "pair_swap_blocks", spy_build)
        patch.setattr(mixing, "dense_state_entropy", spy_entropy)
        patch.setattr(np.linalg, "eigvalsh", spy_solver)
        rec = mixing_entropy(sigma, rho, n, method="dense")
    assert len(built) == 1
    return rec, built[0], dtypes, widths


def _assert_in_rho_eigenbasis(pair):
    """rho diagonal, sigma's row 0 real and nonnegative."""
    s, r = pair
    assert np.count_nonzero(r - np.diag(r.diagonal())) == 0
    assert np.all(s[0].imag == 0.0) and np.all(s[0].real >= 0.0)


def _haar_qubit_pair(seed):
    rho = seeded_density(seed, 2)
    return apply_unitary(rho, random_haar_unitary(seed + 100, 2)), rho


def _degenerate_rho_qutrit_pair():
    """A real non-commuting qutrit pair whose rho, turned, repeats an eigenvalue."""
    sigma, _ = _noncommuting_pair(3, real=True)
    rho = gibbs_state(HermitianOperator(np.diag([0.0, 0.0, 1.0])), 1.0)
    rotation = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
    return sigma, DensityOperator(rotation @ rho.entries @ rotation.T)


@pytest.mark.parametrize(
    "pair,n_max,dtype",
    [(_haar_qubit_pair(seed), 8, np.float64) for seed in (1, 2, 3)]
    + [
        (_degenerate_rho_qutrit_pair(), 4, np.float64),
        (_noncommuting_pair(3, real=True), 4, np.float64),
        (_noncommuting_pair(3, real=False), 4, np.complex128),
    ],
    ids=["haar-1", "haar-2", "haar-3", "degenerate-rho", "qutrit-real", "qutrit-haar"],
)
def test_dense_route_builds_r_in_rho_eigenbasis(pair, n_max, dtype, monkeypatch):
    # every qubit pair and every real pair is real there; a Haar qutrit pair,
    # which no phase makes real, stays complex. Each of R's k + 1 pair-swap
    # blocks is eigensolved, and none is wider than (d(d+1)/2)^k d^(N mod 2)
    sigma, rho = pair
    d = rho.dim
    for n in range(1, n_max + 1):
        k, odd = divmod(n + 1, 2)
        expected = _original_basis_s_mix(sigma, rho, n)
        rec, built, dtypes, widths = _dense_route(monkeypatch, sigma, rho, n)
        _assert_in_rho_eigenbasis(built)
        assert dtypes == [dtype] * (k + 1)
        assert max(widths) <= (d * (d + 1) // 2) ** k * d**odd
        assert abs(rec.s_mix - expected) <= 1e-13


def test_dense_s_mix_of_a_maximally_mixed_rho_matches_the_original_basis():
    # I/2 commutes with every sigma, so this pair takes the diagonal route
    sigma, rho = _haar_qubit_pair(4)[0], DensityOperator(np.eye(2) / 2)
    for n in range(1, 9):
        expected = _original_basis_s_mix(sigma, rho, n)
        assert abs(mixing_entropy(sigma, rho, n, method="dense").s_mix - expected) <= 1e-13


def _rank_deficient_rho_qutrit_pair():
    """A qutrit pair whose rho has rank 2 and whose sigma, a turn of rho within
    that support, does not commute with it; both given in a Haar basis."""
    rho = np.diag([0.6, 0.4, 0.0])
    c, s = math.cos(0.7), math.sin(0.7)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    u = random_haar_unitary(31, 3)
    return (apply_unitary(DensityOperator(turn @ rho @ turn.T), u),
            apply_unitary(DensityOperator(rho), u))


BLOCK_ORACLE_PAIRS = {
    "qubit-real": (_noncommuting_pair(2, real=True), 9),
    "qubit-haar": (_noncommuting_pair(2, real=False), 9),
    "qutrit-real": (_noncommuting_pair(3, real=True), 5),
    "qutrit-haar": (_noncommuting_pair(3, real=False), 5),
    "qutrit-degenerate-rho": (_degenerate_rho_qutrit_pair(), 5),
    "qutrit-rank-deficient-rho": (_rank_deficient_rho_qutrit_pair(), 5),
}


@pytest.mark.parametrize("name", sorted(BLOCK_ORACLE_PAIRS))
def test_pair_swap_blocks_give_the_full_eigensolve(name):
    (sigma, rho), n_max = BLOCK_ORACLE_PAIRS[name]
    assert mixing._commutator_max(sigma, rho) > mixing.COMMUTE_TOL
    for n in range(1, n_max + 1):
        full = _full_eigensolve_entropy(symmetrized_state_dense(sigma, rho, n).matrix)
        expected = full - n * von_neumann_entropy(rho) - von_neumann_entropy(sigma)
        rec = mixing_entropy(sigma, rho, n, method="dense")
        assert rec.method == "dense"
        assert abs(rec.s_mix - expected) <= 1e-12


@pytest.mark.parametrize("name", sorted(BLOCK_ORACLE_PAIRS))
def test_pair_factors_have_no_sym_anti_coupling(name):
    # the route drops the sym x anti corners of each pair's local factors
    (sigma, rho), _ = BLOCK_ORACLE_PAIRS[name]
    s, r = (x.entries for x in mixing._in_rho_eigenbasis(sigma, rho))
    d = rho.dim
    q = mixing._pair_swap_basis(d)
    assert np.max(np.abs(q @ q.T - np.eye(d * d))) <= 1e-15
    sym = d * (d + 1) // 2
    for factor in (np.kron(r, r), np.kron(s, r) + np.kron(r, s)):
        turned = q @ factor @ q.T
        assert np.max(np.abs(turned[:sym, sym:])) <= 1e-15
        assert np.max(np.abs(turned[sym:, :sym])) <= 1e-15


def test_dense_route_refuses_the_cap_and_n_below_1_before_building(monkeypatch):
    sigma, rho = _haar_qubit_pair(1)
    monkeypatch.setattr(mixing, "site_kron_sum", lambda sites: pytest.fail("built"))
    with pytest.raises(CapExceededError, match=r"^dense dimension 2\^13 = 8192 exceeds cap 4096$"):
        mixing_entropy(sigma, rho, 12, method="dense")
    with pytest.raises(CapExceededError, match=r"^dense dimension 3\^3 = 27 exceeds cap 26$"):
        mixing_entropy(*_noncommuting_pair(3, real=False), 2, method="dense", dense_cap=26)
    for pair in [(sigma, rho), (SIGMA_CLASSICAL, RHO_CLASSICAL)]:
        with pytest.raises(ValueError, match="need n >= 1, got 0"):
            mixing_entropy(*pair, 0, method="dense")


def _chi2_p(sigma, rho):
    """tr(sigma^2 rho^-1) - 1, the Petz chi-square."""
    return float(np.trace(sigma.entries @ sigma.entries @ np.linalg.inv(rho.entries)).real) - 1.0


def _turned_gibbs_qubit_pair(h, seed):
    """rho, the beta=1 Gibbs state of h, and sigma = U rho U† for a Haar U."""
    rho = gibbs_state(h, 1.0)
    return apply_unitary(rho, random_haar_unitary(seed, 2)), rho


THEOREM_BOUND_PAIRS = {
    "seed-16-haar": _turned_gibbs_qubit_pair(HermitianOperator(np.diag([0.0, 1.0])), 16),
    "gibbs-41": _turned_gibbs_qubit_pair(random_hermitian(41, 2), 42),
    "gibbs-42": _turned_gibbs_qubit_pair(random_hermitian(42, 2), 43),
}


@pytest.mark.parametrize("name", sorted(THEOREM_BOUND_PAIRS))
def test_dense_gap_lies_within_the_theorem_bound(name):
    # 0 <= gap = D(R || rho^(x)N) <= ln tr R^2 P^-1 = ln(1 + chi2_P / N)
    sigma, rho = THEOREM_BOUND_PAIRS[name]
    chi2 = _chi2_p(sigma, rho)
    assert chi2 > 0.0
    for n in range(1, 12):
        gap = mixing_entropy(sigma, rho, n, method="dense").gap
        assert 0.0 <= gap <= math.log1p(chi2 / (n + 1))


def test_gammaln_has_the_bits_of_scipy():
    k = np.arange(0, 5000)
    assert np.array_equal(mixing.gammaln(k), gammaln(k))
    # _log_choose, the m >= 2 overflow check and ln C(N, m), calls it on Python ints
    scalars = [mixing.gammaln(int(i)) for i in k]
    assert np.array_equal(scalars, [gammaln(int(i)) for i in k])


@pytest.mark.parametrize("method", mixing.METHODS)
def test_mixing_entropy_rejects_a_dimension_mismatch(method):
    with pytest.raises(DimensionMismatchError):
        mixing_entropy(seeded_density(0, 2), seeded_density(0, 3), 2, method=method)


@pytest.mark.parametrize("method", mixing.METHODS)
def test_mixing_entropy_refuses_stacked_states(method):
    # two valid (2, 2, 2) stacks of states, refused by shape, not as
    # "not Hermitian" or "do not commute"
    sigma = gibbs_state(random_hermitian([1, 2], 2), 1.0)
    rho = gibbs_state(random_hermitian([3, 4], 2), 0.5)
    with pytest.raises(InvalidStateError, match=r"expected a square matrix, got shape \(2, 2, 2\)"):
        mixing_entropy(sigma, rho, 2, method=method)


def test_auto_dispatch():
    rho = gibbs_state(HermitianOperator(np.diag([0.0, 1.0])), 1.0)
    commuting = mixing_entropy(SIGMA_CLASSICAL.as_density(), rho, 2, method="auto")
    assert commuting.method == "classical-exact"
    noncomm = mixing_entropy(apply_unitary(rho, random_haar_unitary(2, 2)), rho, 2, method="auto")
    assert noncomm.method == "dense"


def test_auto_takes_a_rank_deficient_commuting_pair():
    # a symbol neither state holds appears in no string of the type classes;
    # turned by seed 9's unitary, sigma keeps a rounding residue there
    sigma = ClassicalDistribution([0.3, 0.7, 0.0])
    rho = ClassicalDistribution([0.5, 0.5, 0.0])
    u = random_haar_unitary(9, 3)
    turned = (apply_unitary(sigma.as_density(), u), apply_unitary(rho.as_density(), u))
    for s, r in [(sigma, rho), turned]:
        for n in range(1, 7):
            auto = mixing_entropy(s, r, n)
            assert auto.method == "classical-exact"
            dense = mixing_entropy(s, r, n, method="dense")
            assert abs(auto.s_mix - dense.s_mix) <= DEFAULT_TOLERANCES["oracle_equivalence"]


def test_classical_exact_rejects_noncommuting():
    rho = gibbs_state(HermitianOperator(np.diag([0.0, 1.0])), 1.0)
    sigma = apply_unitary(rho, random_haar_unitary(2, 2))
    with pytest.raises(InvalidStateError):
        mixing_entropy(sigma, rho, 2, method="classical-exact")


def test_simultaneous_diagonalization_degenerate_rho():
    # rho maximally mixed (fully degenerate): sigma picks the basis
    rho = DensityOperator(np.eye(2).astype(complex) / 2)
    u = random_haar_unitary(4, 2).entries
    sig = DensityOperator(u @ np.diag([0.9, 0.1]).astype(complex) @ u.conj().T)
    sig_p, rho_p = simultaneous_classical_pair(sig, rho)
    assert np.allclose(np.sort(sig_p.p), [0.1, 0.9], atol=1e-12)
    assert np.allclose(rho_p.p, [0.5, 0.5], atol=1e-12)
    rec = mixing_entropy(sig, rho, 4, method="auto")
    assert rec.method == "classical-exact"
    dense = mixing_entropy(sig, rho, 4, method="dense")
    assert rec.s_mix == pytest.approx(dense.s_mix, abs=1e-9)


def test_near_degenerate_rho_keeps_each_sigma_value_with_its_own():
    # rho's first two eigenvalues are 5e-9 apart, within DEGENERACY_GAP: one
    # block, whose sigma eigenvalues must stay paired with their rho values
    sig = ClassicalDistribution([0.5, 0.1, 0.4])
    rho = ClassicalDistribution([0.3, 0.3 + 5e-9, 0.4 - 5e-9])
    sig_p, rho_p = simultaneous_classical_pair(sig.as_density(), rho.as_density())
    assert sorted(zip(rho_p.p, sig_p.p)) == sorted(zip(rho.p, sig.p))
    oracle = _brute_multi_mixing(sig, rho, 7, 1)
    for method in ("classical-exact", "dense"):
        assert abs(mixing_entropy(sig, rho, 6, method=method).s_mix - oracle) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("zero_in_sigma", [False, True])
def test_gap_first_s_mix_matches_the_spectrum_oracle(d, zero_in_sigma):
    # a zero in sigma gives types with L = 0, whose gap term is 1
    rng = np.random.default_rng(900 + d)
    for n_total in (2, 3, 17, 40):
        sig_p = rng.uniform(0.05, 1.0, size=d)
        if zero_in_sigma:
            sig_p[0] = 0.0
        rho_p = rng.uniform(0.05, 1.0, size=d)
        sig = ClassicalDistribution(sig_p / sig_p.sum())
        rho = ClassicalDistribution(rho_p / rho_p.sum())
        rec = classical_mixing_entropy_exact(sig, rho, n_total - 1)
        assert abs(rec.s_mix - _spectrum_s_mix(sig, rho, n_total - 1)) <= 1e-12


def _cumulant_series(sig_p, rho_p):
    """(a1, a2, a3) of gap = a1/N + a2/N^2 + a3/N^3 + O(N^-4) for m = 1.

    From the cumulants k_j of Y = sigma_a/rho_a - 1 under rho; written out
    here, apart from mixing.gap_series, as its oracle.
    """
    y = sig_p / rho_p - 1.0
    k2, k3 = rho_p @ y**2, rho_p @ y**3
    k4 = rho_p @ y**4 - 3.0 * k2**2
    return k2 / 2, k2**2 / 4 - k3 / 6, k4 / 12 - k2 * k3 / 2 + k2**3 / 2


def _seeded_d3_pair():
    rng = np.random.default_rng(31)
    sig_p, rho_p = rng.uniform(0.05, 1.0, size=(2, 3))
    return sig_p / sig_p.sum(), rho_p / rho_p.sum()


@pytest.mark.parametrize("sig_p, rho_p", [
    ([0.3, 0.7], [0.7, 0.3]),      # criterion 5's pair
    ([0.2, 0.8], [0.6, 0.4]),      # criterion 8's pair
    _seeded_d3_pair(),
], ids=["c5", "c8", "d3"])
def test_gap_series_matches_the_cumulant_formula(sig_p, rho_p):
    sig_p, rho_p = np.asarray(sig_p), np.asarray(rho_p)
    series = mixing.gap_series(ClassicalDistribution(sig_p), ClassicalDistribution(rho_p))
    np.testing.assert_allclose(series, _cumulant_series(sig_p, rho_p), rtol=1e-13, atol=0.0)


def test_gap_series_lives_on_rho_support():
    # a symbol rho lacks drops out; sigma may put no weight there
    pair = mixing.gap_series(ClassicalDistribution([0.3, 0.7, 0.0]),
                             ClassicalDistribution([0.7, 0.3, 0.0]))
    assert pair == mixing.gap_series(ClassicalDistribution([0.3, 0.7]),
                                     ClassicalDistribution([0.7, 0.3]))
    with pytest.raises(InfiniteRelativeEntropyError, match="not contained in support of rho"):
        mixing.gap_series(ClassicalDistribution([0.3, 0.6, 0.1]),
                          ClassicalDistribution([0.7, 0.3, 0.0]))


LARGE_N_PAIRS = {"c5": ([0.3, 0.7], [0.7, 0.3]), "c8": ([0.2, 0.8], [0.6, 0.4])}


@pytest.mark.parametrize("pair,n", [
    ("c5", 2**15), ("c5", 2**17), ("c5", 2**20), ("c8", 2**15), ("c8", 2**17),
    # the type-class route was 2.49e-10 off here: its log weights carry eps ln N!
    ("c8", 2**20),
])
def test_large_n_gap_matches_the_cumulant_series(pair, n):
    # the remainder O(N^-4) is below 1e-15 of the gap from N = 2^15 on,
    # so what is left is the route's rounding
    sig_p, rho_p = map(np.array, LARGE_N_PAIRS[pair])
    a1, a2, a3 = _cumulant_series(sig_p, rho_p)
    big_n = n + 1
    series = a1 / big_n + a2 / big_n**2 + a3 / big_n**3
    rec = classical_mixing_entropy_exact(
        ClassicalDistribution(sig_p), ClassicalDistribution(rho_p), n
    )
    assert abs(rec.gap - series) <= 1e-10 * series


def test_identical_states_have_a_gap_of_exactly_zero():
    # every term L ln L - L + 1 is 0 at L = 1; the S[R] route misses by
    # 2.26e-9 at n = 4096 and 1.03e-6 at n = 2^15
    rho = ClassicalDistribution([0.7, 0.3])
    for n in (4096, 2**15):
        assert classical_mixing_entropy_exact(rho, rho, n).gap == 0.0


# ---------------------------------------------------------------------------
# the m = 1 gap integral, against the type classes, the series and mpmath
# ---------------------------------------------------------------------------

def _integral_gap(sig_p, rho_p, n_total):
    return gap_integral(*_supported_pair(ClassicalDistribution(sig_p),
                                         ClassicalDistribution(rho_p)), n_total)


def _random_pair(rng, d, zero_in_sigma=False):
    sig_p, rho_p = rng.uniform(0.05, 1.0, size=d), rng.uniform(0.05, 1.0, size=d)
    if zero_in_sigma:
        sig_p[0] = 0.0
    return sig_p / sig_p.sum(), rho_p / rho_p.sum()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("zero_in_sigma", [False, True])
def test_gap_integral_is_the_type_class_gap(d, zero_in_sigma):
    rng = np.random.default_rng(700 + d)
    for n_total in (2, 3, 17, 64, 200 if d <= 3 else 90):
        sig_p, rho_p = _random_pair(rng, d, zero_in_sigma)
        oracle = type_class_spectrum(ClassicalDistribution(sig_p),
                                     ClassicalDistribution(rho_p), n_total).gap()
        assert abs(_integral_gap(sig_p, rho_p, n_total) - oracle) <= 1e-13 * oracle


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_gap_integral_is_the_series_at_large_n(d):
    # the series misses the gap by O(N^-4), below 1e-18 of it from N = 2^20
    rng = np.random.default_rng(800 + d)
    for _ in range(3):
        sig_p, rho_p = _random_pair(rng, d)
        a1, a2, a3 = mixing.gap_series(ClassicalDistribution(sig_p), ClassicalDistribution(rho_p))
        for n_total in (2**20, 10**9, 10**12, 10**15, 10**18):
            series = a1 / n_total + a2 / n_total**2 + a3 / n_total**3
            assert abs(_integral_gap(sig_p, rho_p, n_total) - series) <= 1e-14 * series


@pytest.mark.parametrize("n_total", [10**30, 10**100, 10**200])
def test_gap_integral_keeps_its_precision_far_past_1e18(n_total):
    # ln E[L e^-tL] as (N - 1) ln phi would round by (N - 1) eps: at N = 1e100
    # the chi2 = 4e-14 pair's gap came out as -60
    n = float(n_total)
    for sig_p, rho_p in ([[0.3, 0.7], [0.7, 0.3]], [[0.5 + 1e-7, 0.5 - 1e-7], [0.5, 0.5]],
                         [[0.0, 0.25, 0.75], [0.4, 0.35, 0.25]]):
        a1, a2, _ = mixing.gap_series(ClassicalDistribution(sig_p), ClassicalDistribution(rho_p))
        series = a1 / n + a2 / n / n
        assert abs(_integral_gap(sig_p, rho_p, n_total) - series) <= 1e-14 * series


def test_gap_integral_of_identical_states_is_exactly_zero():
    for p in ([0.7, 0.3], [0.2, 0.3, 0.5], [0.0, 0.25, 0.75]):
        for n_total in (2, 65, 10**6, 10**18):
            assert _integral_gap(p, p, n_total) == 0.0


@pytest.mark.parametrize("tiny", [3.84e-84, 5e-324])
def test_gap_integral_keeps_a_tiny_sigma_entry_finite(tiny):
    # n = 1: L is 2, about 1 or about 0 with weights 1/4, 1/2, 1/4, so the
    # gap is ln(2)/2. At 3.84e-84 an integrand formed as exp(w - t) once
    # cancelled to 0 on about 600 nodes and gave -153.65; at 5e-324 the
    # upper limit ln N - ln(r_min) + ln 60 is only finite taken in logs
    sig = ClassicalDistribution(np.array([1.0, tiny]) / (1.0 + tiny))
    rec = classical_mixing_entropy_exact(sig, ClassicalDistribution([0.5, 0.5]), 1)
    assert rec.gap == pytest.approx(math.log(2.0) / 2, rel=1e-15)
    assert -1e-10 <= rec.s_mix <= math.log(2.0) + 1e-10


def test_gap_integral_reaches_ratios_near_the_float_limit():
    # r up to 1e300: chi2 and the series' y^2 are formed so as not to overflow
    for sig_p, rho_p in ([[0.5, 0.5], [1e-300, 1.0]], [[1e-200, 1.0], [1.0, 1e-200]]):
        sig, rho = ClassicalDistribution(sig_p), ClassicalDistribution(rho_p)
        for n_total in (2, 6, 51):
            oracle = type_class_spectrum(sig, rho, n_total).gap()
            assert abs(_integral_gap(sig_p, rho_p, n_total) - oracle) <= 1e-13 * oracle


# sigma_0/rho_0 = 0.5/5e-324 passes the float range
RATIO_OVERFLOW_PAIR = (ClassicalDistribution([0.5, 0.5]), ClassicalDistribution([5e-324, 1.0]))


@pytest.mark.parametrize("route", ["gap-integral", "type-classes", "multi", "gap-series"])
def test_a_ratio_past_the_float_range_is_refused_by_its_entries(route):
    # warnings are errors here, so the refusal must come before any overflow
    sig, rho = RATIO_OVERFLOW_PAIR
    call = {
        "gap-integral": lambda: classical_mixing_entropy_exact(sig, rho, 3),
        "type-classes": lambda: type_class_spectrum(sig, rho, 4),
        "multi": lambda: classical_mixing_entropy_exact(sig, rho, 2, 2),
        "gap-series": lambda: mixing.gap_series(sig, rho),
    }[route]
    with pytest.raises(CapExceededError,
                       match=r"^ratio sigma/rho = 0\.5/5e-324 overflows float range$"):
        call()


def test_a_ratio_past_the_float_range_leaves_the_dense_route_and_formula_finite():
    sig, rho = RATIO_OVERFLOW_PAIR
    dense = mixing_entropy(sig.as_density(), rho.as_density(), 3, method="dense")
    assert (dense.s_rel, dense.s_mix) == (371.52688878013066, 0.6931471805599453)
    assert classical_mixing_increase_formula(sig, rho) == 371.52688878013066


MPMATH_PAIRS = [
    ([0.3, 0.7], [0.7, 0.3]),
    ([0.0, 1.0], [0.5, 0.5]),               # sigma with a zero
    ([0.999, 0.001], [0.001, 0.999]),       # r_max = 999
    ([0.5, 0.5], [1e-4, 1.0 - 1e-4]),       # rho_min = 1e-4
    ([0.5 + 1e-7, 0.5 - 1e-7], [0.5, 0.5]),  # chi2 = 4e-14
    ([0.2, 0.3, 0.5], [0.4, 0.35, 0.25]),
    # sigma's only ratio, 8.2, is above N = 2: the upper limit is at least ln 60
    ([1.0, 0.0], [0.12235068071227148, 0.8776493192877285]),
    # r_max = 5e11: below x = -40 the integrand is still t chi2/N, not negligible
    ([0.5, 0.5], [1e-12, 1.0 - 1e-12]),
    # chi2 = 4.7e-10 from rho's tiny entry: past s max|delta| = 1, sigma . delta
    # rounded off chi2 gave 3e-9 at N = 2
    ([0.0, 1.0], [4.708733344648631e-10, 0.9999999995291267]),
]


def _mpmath_gap(mp, sig_p, rho_p, n_total):
    """E[L ln L] under Mult(N, rho) by type enumeration at 40 digits, both states
    normalized in mpmath."""
    sig = [mp.mpf(x) for x in sig_p]
    rho = [mp.mpf(x) for x in rho_p]
    sig = [x / mp.fsum(sig) for x in sig]
    rho = [x / mp.fsum(rho) for x in rho]
    ratios = [a / b for a, b in zip(sig, rho)]
    gap = mp.mpf(0)
    for counts in _type_count_matrix(n_total, len(rho)).tolist():
        ell = mp.fsum(c * r for c, r in zip(counts, ratios)) / n_total
        if ell > 0:
            log_w = mp.loggamma(n_total + 1) + mp.fsum(
                c * mp.log(p) - mp.loggamma(c + 1) for c, p in zip(counts, rho))
            gap += mp.exp(log_w) * ell * mp.log(ell)
    return gap


@pytest.mark.parametrize("pair", MPMATH_PAIRS, ids=lambda p: str(p[0]))
def test_gap_integral_against_mpmath(pair):
    mp = pytest.importorskip("mpmath")
    sig_p, rho_p = pair
    for n_total in (2, 3, 10, 64, 400 if len(rho_p) == 2 else 40):
        with mp.workdps(40):
            oracle = _mpmath_gap(mp, sig_p, rho_p, n_total)
        got = _integral_gap(np.array(sig_p), np.array(rho_p), n_total)
        assert abs(got - oracle) <= 1e-14 * oracle, n_total


def test_a_record_at_n_1e18_takes_under_10_ms():
    sig, rho = ClassicalDistribution([0.2, 0.3, 0.5]), ClassicalDistribution([0.4, 0.35, 0.25])
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        rec = classical_mixing_entropy_exact(sig, rho, 10**18)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.010
    assert rec.gap > 0.0


def test_mixing_gap_monotone_classical_pow2():
    rho = ClassicalDistribution([0.7, 0.3])
    sig = ClassicalDistribution([0.3, 0.7])
    gaps = [
        classical_mixing_entropy_exact(sig, rho, n).gap
        for n in (1, 2, 4, 8, 16, 64, 256, 1024, 4096)
    ]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# multi-sigma variant
# ---------------------------------------------------------------------------

def test_multi_reduces_to_single_insertion():
    # the m >= 2 recursion run at m = 1 gives L, the mean ratio the m = 1 route uses
    for d, n_total in [(2, 7), (3, 9), (4, 6)]:
        ratios = np.random.default_rng(d).uniform(0.0, 3.0, size=d)
        factors = mixing._placement_factors(ratios, n_total, 1)
        counts = _type_count_matrix(n_total, d)
        poly = np.ones((1, 1))
        for a, col in enumerate(counts.T):
            poly = mixing._truncated_product(poly, factors[a][:, col])
        np.testing.assert_allclose(poly[1], counts @ ratios, rtol=1e-14, atol=0.0)


def test_multi_identical_states_vanishes():
    rec = classical_mixing_entropy_exact(RHO_CLASSICAL, RHO_CLASSICAL, 4, 2)
    assert abs(rec.s_mix) < 1e-10


MULTI_PAIRS = [    # (sigma, rho): d = 2, 3, 4, and a sigma with a zero entry
    ([0.2, 0.8], [0.6, 0.4]),
    ([0.2, 0.35, 0.45], [0.5, 0.3, 0.2]),
    ([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]),
    ([0.0, 0.3, 0.7], [0.25, 0.25, 0.5]),
]


MULTI_SIZES = [(3, 2), (4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4)]    # (N, m)


@pytest.mark.parametrize("d,n_total", [(2, 6), (2, 12), (3, 5), (3, 7)])
def test_string_probs_is_the_string_enumeration_bit_for_bit(d, n_total):
    rho_p, sig_p = next(pair for dim, _, pair in C4_FAMILIES if dim == d)
    strings, q = _string_probs(sig_p, rho_p, n_total)
    assert strings.tolist() == [list(s) for s in itertools.product(range(d), repeat=n_total)]
    np.testing.assert_array_equal(q, string_probs(sig_p, rho_p, n_total))


@pytest.mark.parametrize("n_total,m_sigma", MULTI_SIZES)
def test_string_probs_matches_the_placement_loop(n_total, m_sigma):
    # sigma factors first, not in site order: the bits may differ, the zeros may not
    for sig_p, rho_p in MULTI_PAIRS:
        q = _string_probs(sig_p, rho_p, n_total, m_sigma)[1]
        loop = placement_probs(sig_p, rho_p, n_total, m_sigma)
        np.testing.assert_array_equal(q == 0.0, loop == 0.0)
        np.testing.assert_allclose(q, loop, rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("n_total,m_sigma", MULTI_SIZES)
def test_multi_matches_brute_force_placements(n_total, m_sigma):
    for sig_p, rho_p in MULTI_PAIRS:
        sig, rho = ClassicalDistribution(sig_p), ClassicalDistribution(rho_p)
        # oracle: enumerate all C(N, m) placements and all strings
        oracle = _brute_multi_mixing(sig, rho, n_total, m_sigma)
        rec = classical_mixing_entropy_exact(sig, rho, n_total - m_sigma, m_sigma)
        assert rec.s_mix == pytest.approx(oracle, abs=1e-10)
        # the same spectrum's S[R], the oracle at m >= 2 too
        s_r = type_class_spectrum(sig, rho, n_total, m_sigma).entropy()
        n = n_total - m_sigma
        s_mix = s_r - n * shannon_entropy(rho) - m_sigma * shannon_entropy(sig)
        assert s_mix == pytest.approx(oracle, abs=1e-10)
        assert rec.method == f"classical-multi(m_sigma={m_sigma})"


def test_multi_validates_arguments():
    with pytest.raises(ValueError):
        classical_mixing_entropy_exact(SIGMA_CLASSICAL, RHO_CLASSICAL, 4, 0)
    with pytest.raises(ValueError):     # m_sigma = n_total leaves no rho
        classical_mixing_entropy_exact(SIGMA_CLASSICAL, RHO_CLASSICAL, 0, 4)
    with pytest.raises(InfiniteRelativeEntropyError):
        classical_mixing_entropy_exact(
            SIGMA_CLASSICAL, ClassicalDistribution([1.0, 0.0]), 2, 2
        )


def test_gap_route_refuses_weights_or_mean_ratio_off_one(monkeypatch):
    sig, rho = ClassicalDistribution([0.2, 0.8]), ClassicalDistribution([0.6, 0.4])
    real_gammaln, real_factors = mixing.gammaln, mixing._placement_factors
    with monkeypatch.context() as patch:
        patch.setattr(mixing, "gammaln", lambda x: real_gammaln(x) * (1.0 + 1e-6))
        with pytest.raises(InvalidStateError, match="type weights sum to"):
            type_class_spectrum(sig, rho, 7)
        with pytest.raises(InvalidStateError, match="type weights sum to"):
            classical_mixing_entropy_exact(sig, rho, 6, 2)
    # an e_m 2% off leaves the weights alone but not E[L] = 1
    monkeypatch.setattr(mixing, "_placement_factors", lambda *a: 1.01 * real_factors(*a))
    with pytest.raises(InvalidStateError, match=r"E\[L\] is 1\.02"):
        classical_mixing_entropy_exact(sig, rho, 6, 2)


OVERFLOW_PAIR = (ClassicalDistribution([0.2, 0.8]), ClassicalDistribution([0.6, 0.4]))


def _enumerations(monkeypatch) -> list:
    """[n_total, d, types yielded] for every _type_runs call from here on."""
    real_runs = mixing._type_runs
    calls = []

    def runs(n_total, d):
        calls.append([n_total, d, 0])
        for rows, keep, lookup in real_runs(n_total, d):
            calls[-1][2] += rows.stop - rows.start
            yield rows, keep, lookup

    monkeypatch.setattr(mixing, "_type_runs", runs)
    return calls


def test_multi_overflow_raises_cap_exceeded(monkeypatch):
    # C(1100, 550) leaves the double range by 52 nats: refused before any
    # type is enumerated
    enumerated = _enumerations(monkeypatch)
    with pytest.raises(CapExceededError):
        classical_mixing_entropy_exact(*OVERFLOW_PAIR, 550, 550)
    assert enumerated == []


# one sigma symbol has ratio 999 and the other 1/999: the all-argmax type's L
# passes the double range at m = 103, and its L ln L at m = 102
ARGMAX_PAIR = (ClassicalDistribution([0.001, 0.999]), ClassicalDistribution([0.999, 0.001]))


def test_multi_overflowing_placement_mean_is_refused():
    assert classical_mixing_entropy_exact(*ARGMAX_PAIR, 103, 101).gap == 558.6723701149836
    # neither a NaN gap (m = 102) nor a state called invalid (m = 103)
    for m_sigma in (102, 103):
        with pytest.raises(CapExceededError, match="overflows float range"):
            classical_mixing_entropy_exact(*ARGMAX_PAIR, 204 - m_sigma, m_sigma)


def test_multi_overflow_within_the_rounding_margin_is_refused_after_enumerating(monkeypatch):
    # ln C(1030, 515) = 710.2 lies within the 1 nat allowed for log-gamma's
    # rounding: all 1031 types are enumerated, and the finite check on L refuses
    assert mixing.LOG_FLOAT_MAX < mixing._log_choose(1030, 515) <= mixing.LOG_FLOAT_MAX + 1.0
    enumerated = _enumerations(monkeypatch)
    with pytest.raises(CapExceededError, match="overflows float range"):
        classical_mixing_entropy_exact(*OVERFLOW_PAIR, 515, 515)
    assert enumerated == [[1030, 2, 1031]]


# ---------------------------------------------------------------------------
# permutation twirl
# ---------------------------------------------------------------------------

def test_twirl_fixed_point():
    rho = seeded_density(2, 2)
    r = symmetrized_state_dense(rho, rho, 2).matrix
    assert np.max(np.abs(permutation_twirl_dense(r, 3) - r)) < 1e-15


def test_twirl_two_factors():
    sig = seeded_density(5, 2).entries
    rho = seeded_density(6, 2).entries
    x = np.kron(sig, rho)
    expected = (np.kron(sig, rho) + np.kron(rho, sig)) / 2
    assert np.max(np.abs(permutation_twirl_dense(x, 2) - expected)) < 1e-15


def test_twirl_preserves_trace():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    tw = permutation_twirl_dense(x, 3)
    assert np.trace(tw) == pytest.approx(np.trace(x), abs=1e-13)


def test_twirl_equals_explicit_group_average():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    acc = np.zeros_like(x)
    for perm in itertools.permutations(range(3)):
        p = permutation_matrix(perm, 2, 3)
        acc += p @ x @ p.T
    assert np.max(np.abs(permutation_twirl_dense(x, 3) - acc / 6)) < 1e-14


def test_twirl_reproduces_symmetrized_state():
    rho = gibbs_state(HermitianOperator(np.diag([0.0, 1.0])), 1.0)
    sigma = apply_unitary(rho, random_haar_unitary(1, 2))
    x = kron_all([sigma.entries, rho.entries, rho.entries, rho.entries])
    tw = permutation_twirl_dense(x, 4)
    r = symmetrized_state_dense(sigma, rho, 3).matrix
    assert np.max(np.abs(tw - r)) < 1e-12


def test_twirl_caps():
    with pytest.raises(CapExceededError):
        permutation_twirl_dense(np.eye(2**9), 9)
    with pytest.raises(CapExceededError, match=r"^dense dimension 2\^8 = 256 exceeds cap 255$"):
        permutation_twirl_dense(np.eye(2**8), 8, dense_cap=255)


def test_twirl_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(4, 2\)$"):
        permutation_twirl_dense(np.ones((4, 2)), 2)


def test_twirl_refuses_a_dimension_that_is_no_power_of_n_total():
    with pytest.raises(ValueError, match=r"^matrix dimension 8 is not a perfect 2-th power$"):
        permutation_twirl_dense(np.eye(8), 2)


# ---------------------------------------------------------------------------
# graceful checks
# ---------------------------------------------------------------------------

def test_graceful_identical_states(qubit_h):
    rho = gibbs_state(qubit_h, 1.0)
    rep = graceful_checks(rho, rho, 2, qubit_h)
    assert rep.energy_residual < 1e-12
    assert rep.commutation_residual < 1e-12
    assert rep.state_residual < 1e-12


def test_graceful_commuting_sigma(qubit_h, exchange_u):
    rho = gibbs_state(qubit_h, 1.0)
    sigma = apply_unitary(rho, exchange_u)
    rep = graceful_checks(sigma, rho, 2, qubit_h)
    assert rep.energy_residual < 1e-12
    assert rep.commutation_residual < 1e-12
    assert rep.state_residual < 1e-12


def test_graceful_noncommuting_sigma(qubit_h):
    rho = gibbs_state(qubit_h, 1.0)
    sigma = apply_unitary(rho, random_haar_unitary(21, 2))
    for n in (1, 2, 3):
        rep = graceful_checks(sigma, rho, n, qubit_h)
        assert rep.energy_residual < 1e-10
        assert rep.commutation_residual < 1e-10
        assert rep.state_residual < 1e-10


def test_graceful_checks_refuses_the_cap_before_building_the_product(qubit_h,
                                                                     monkeypatch):
    built = []
    monkeypatch.setattr(mixing, "kron_all", lambda mats: built.append(len(mats)))
    rho = gibbs_state(qubit_h, 1.0)
    with pytest.raises(CapExceededError):
        graceful_checks(rho, rho, 5, qubit_h, dense_cap=16)
    assert built == []


# ---------------------------------------------------------------------------
# convergence sweeps
# ---------------------------------------------------------------------------

def test_sweep_identical_states_all_zero():
    records = convergence_sweep(RHO_CLASSICAL, RHO_CLASSICAL, [1, 2, 4, 8])
    assert all(abs(r.s_mix) < 1e-10 for r in records)
    # the series is (0, 0, 0) and the route's gap is exactly its value
    assert mixing.gap_series(RHO_CLASSICAL, RHO_CLASSICAL) == (0.0, 0.0, 0.0)
    assert [r.gap for r in records] == [0.0] * 4


def test_sweep_classical_converges_to_relative_entropy():
    rho = ClassicalDistribution([0.7, 0.3])
    sig = ClassicalDistribution([0.3, 0.7])
    records = convergence_sweep(
        sig, rho, [2**k for k in range(10)], method="classical-exact"
    )
    s_rel = 0.4 * math.log(7.0 / 3.0)
    assert all(r.s_rel == pytest.approx(s_rel, abs=1e-12) for r in records)
    gaps = [r.gap for r in records]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    ratios = series_remainder_ratios(sig.p, rho.p, [(r.n, r.gap) for r in records])
    assert len(ratios) == 4 and max(ratios) <= DEFAULT_TOLERANCES["series_remainder"]


def test_sweep_dense_quantum_gap_positive_decreasing(qubit_h):
    # non-commuting qubit pair, n = 1..10, dense eigensolves
    rho = gibbs_state(qubit_h, 1.0)
    sigma = apply_unitary(rho, random_haar_unitary(42, 2))
    records = convergence_sweep(sigma, rho, list(range(1, 11)), method="dense")
    gaps = [r.gap for r in records]
    assert all(g > 0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def weight_pairs(max_dim=3):
    return st.integers(2, max_dim).flatmap(
        lambda d: st.tuples(
            st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d),
            st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d).filter(
                lambda w: sum(w) > 0
            ),
        )
    )


@given(weight_pairs(), st.integers(1, 24))
@settings(deadline=None, max_examples=60)
def test_mixing_bounds_property(pair, n):
    rho_w, sig_w = pair
    rho = ClassicalDistribution(np.array(rho_w) / np.sum(rho_w))
    sig = ClassicalDistribution(np.array(sig_w) / np.sum(sig_w))
    rec = classical_mixing_entropy_exact(sig, rho, n)
    assert -1e-10 <= rec.s_mix <= math.log(n + 1) + 1e-10
    assert rec.s_rel >= -1e-12


def test_sweep_bounds_hold():
    rho = ClassicalDistribution([0.6, 0.4])
    sig = ClassicalDistribution([0.15, 0.85])
    records = convergence_sweep(sig, rho, [1, 2, 4, 8, 16, 32])
    for r in records:
        assert 0.0 <= r.s_mix <= math.log(r.n + 1)


def test_one_point_sweep_returns_one_record():
    records = convergence_sweep(SIGMA_CLASSICAL, RHO_CLASSICAL, [4096])
    assert len(records) == 1
    assert records[0] == replace(
        mixing_entropy(SIGMA_CLASSICAL, RHO_CLASSICAL, 4096),
        wall_time_ms=records[0].wall_time_ms,
    )


HOIST_CASES = {     # (sigma, rho, method, n_list)
    "classical-d2": (SIGMA_CLASSICAL, RHO_CLASSICAL, "auto", [1, 3, 64, 4096]),
    "classical-d3": (ClassicalDistribution([0.5, 0.3, 0.2]),
                     ClassicalDistribution([0.2, 0.35, 0.45]), "classical-exact",
                     [1, 5, 64, 2048]),
    "dense-commuting": (SIGMA_CLASSICAL, RHO_CLASSICAL, "dense", [1, 2, 5, 9]),
    "dense-qubit": (*_haar_qubit_pair(1), "dense", [1, 2, 5, 8]),
    # rho's first two eigenvalues 5e-9 apart, within DEGENERACY_GAP
    **{f"near-degenerate-{method}": (
        ClassicalDistribution([0.5, 0.1, 0.4]),
        ClassicalDistribution([0.3, 0.3 + 5e-9, 0.4 - 5e-9]), method, [1, 2, 6])
       for method in ("classical-exact", "dense")},
}


@pytest.mark.parametrize("name", sorted(HOIST_CASES))
def test_sweep_records_are_mixing_entropy_bit_for_bit(name):
    sigma, rho, method, n_list = HOIST_CASES[name]
    records = convergence_sweep(sigma, rho, n_list, method=method)
    assert [r.n for r in records] == n_list
    for rec in records:
        one = mixing_entropy(sigma, rho, rec.n, method=method)
        assert rec.method == one.method
        assert [rec.s_mix.hex(), rec.s_rel.hex(), rec.gap.hex()] == [
            one.s_mix.hex(), one.s_rel.hex(), one.gap.hex()]


def test_a_sweep_prepares_its_pair_once(monkeypatch):
    calls = []
    for name in ("simultaneous_classical_pair", "_in_rho_eigenbasis"):
        def counted(*args, real=getattr(mixing, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(mixing, name, counted)
    n_list = [1, 2, 4, 8]
    convergence_sweep(SIGMA_CLASSICAL, RHO_CLASSICAL, n_list)
    assert calls == ["simultaneous_classical_pair"]
    convergence_sweep(SIGMA_CLASSICAL, RHO_CLASSICAL, n_list, method="dense")
    assert calls == ["simultaneous_classical_pair"] * 2
    convergence_sweep(*_haar_qubit_pair(1), n_list, method="dense")
    assert calls == ["simultaneous_classical_pair"] * 2 + ["_in_rho_eigenbasis"]


@pytest.mark.parametrize("method", ["classical-exact", "dense"])
def test_sweep_rejects_an_n_below_1(method):
    with pytest.raises(ValueError, match="need n >= 1"):
        convergence_sweep(SIGMA_CLASSICAL, RHO_CLASSICAL, [4, 0, 1], method=method)


@pytest.mark.parametrize("n_list", [[4, 4, 4], [1, 2, 2, 4]])
def test_sweep_rejects_repeated_n(n_list):
    # records.csv is keyed by n: a repeated n would write two rows for one key
    with pytest.raises(ValueError, match="more than once"):
        convergence_sweep(SIGMA_CLASSICAL, RHO_CLASSICAL, n_list)


def test_records_csv_format():
    records = convergence_sweep(SIGMA_CLASSICAL, RHO_CLASSICAL, [1, 2, 4])
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == "n,method,S_mix_nats,S_rel_nats,gap_nats,wall_time_ms"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "1"
    assert lines[1].split(",")[1] == "classical-exact"
