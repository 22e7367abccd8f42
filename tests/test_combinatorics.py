import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixent import (
    ClassicalDistribution,
    DimensionMismatchError,
    InfiniteRelativeEntropyError,
    classical_mixing_increase_formula,
    insertion_factor,
    log_multinomial,
    relative_entropy,
    round_counts,
    typicality_entropy_check,
)
from mixent import verify
from mixent.cli import main
from mixent.combinatorics import (
    FORMULA_PAIRS,
    INSERTION_N,
    INSERTION_RHO,
    TYPICALITY_RHO,
    appendix_checks,
    max_increase_formula_error,
    random_distribution_pairs,
)
from conftest import series_remainder_ratios


def test_log_multinomial_single_symbol():
    assert log_multinomial((7, 0, 0)) == pytest.approx(0.0, abs=1e-12)


def test_log_multinomial_pair():
    assert log_multinomial((1, 1)) == pytest.approx(math.log(2), abs=1e-12)


def test_log_multinomial_central_binomial():
    # oracle: exact big-integer binomial, then log
    val = log_multinomial((50, 50))
    exact = math.log(math.comb(100, 50))
    assert val == pytest.approx(exact, rel=1e-12)
    assert round(val, 3) == 66.784
    assert round(val / math.log(2), 2) == 96.35


@given(
    st.lists(st.integers(0, 8), min_size=2, max_size=5).filter(
        lambda c: 0 < sum(c) <= 20
    )
)
def test_log_multinomial_matches_exact_integers(counts):
    n = sum(counts)
    exact = math.factorial(n)
    for c in counts:
        exact //= math.factorial(c)
    assert log_multinomial(tuple(counts)) == pytest.approx(
        math.log(exact), rel=1e-10, abs=1e-10
    )


# ---------------------------------------------------------------------------
# largest-remainder rounding
# ---------------------------------------------------------------------------

@given(
    st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
    st.integers(1, 500),
)
def test_round_counts_sum(weights, n):
    p = ClassicalDistribution(np.array(weights) / np.sum(weights))
    counts = round_counts(p, n)
    assert sum(counts) == n
    assert all(type(c) is int and c >= 0 for c in counts)


def test_round_counts_deterministic_ties():
    p = ClassicalDistribution([0.5, 0.5])
    assert round_counts(p, 3) == (2, 1)  # tie goes to the lower index


# ---------------------------------------------------------------------------
# typicality
# ---------------------------------------------------------------------------

def test_typicality_point_mass():
    check = typicality_entropy_check(ClassicalDistribution([1.0, 0.0]), 50)
    assert check["lhs_per_symbol"] == 0.0
    assert check["S_rho"] == 0.0
    assert check["deficit"] == 0.0


def test_typicality_fair_coin_n100():
    # oracle: exact binomial C(100, 50)
    check = typicality_entropy_check(ClassicalDistribution([0.5, 0.5]), 100)
    assert check["lhs_per_symbol"] == pytest.approx(math.log(math.comb(100, 50)) / 100, rel=1e-12)
    assert round(check["lhs_per_symbol"], 4) == 0.6678
    assert check["deficit"] == pytest.approx(0.025, abs=2e-3)


def test_typicality_deficit_small_at_1e4():
    check = typicality_entropy_check(ClassicalDistribution([0.5, 0.5]), 10_000)
    assert 0.0 < check["deficit"] < 5e-4


@pytest.mark.parametrize(
    "p", [[0.5, 0.5], [0.3, 0.7], [0.05, 0.05, 0.9], [0.25, 0.25, 0.5]]
)
def test_typicality_deficit_strictly_decreasing(p):
    dist = ClassicalDistribution(p)
    deficits = [typicality_entropy_check(dist, n)["deficit"] for n in (100, 1000, 10_000)]
    assert all(b < a for a, b in zip(deficits, deficits[1:]))
    assert all(d > 0 for d in deficits)


# ---------------------------------------------------------------------------
# insertion factor
# ---------------------------------------------------------------------------

def test_insertion_factor_certain_symbol():
    for n in (1, 10, 1000):
        fac = insertion_factor(n, 1.0)
        assert fac["exact"] == 1.0
        assert fac["limit"] == 1.0
        assert fac["rel_err"] == 0.0


def test_insertion_factor_half():
    fac = insertion_factor(1000, 0.5)
    assert fac["exact"] == pytest.approx(1001 / 501, rel=1e-15)
    assert fac["limit"] == 2.0
    assert fac["rel_err"] == pytest.approx(abs(1001 / 501 - 2.0) * 0.5, rel=1e-12)
    assert fac["rel_err"] < 1.1e-3


def test_insertion_factor_small_mass():
    fac = insertion_factor(10, 0.1)
    assert fac["exact"] == 5.5
    assert fac["limit"] == 10.0


def test_insertion_factor_zero_mass_diverges():
    with pytest.raises(InfiniteRelativeEntropyError):
        insertion_factor(10, 0.0)


@given(st.integers(1, 10**6), st.floats(0.001, 1.0))
def test_insertion_factor_error_bound(n, rho_a):
    fac = insertion_factor(n, rho_a)
    assert fac["rel_err"] < 2.0 / (n * rho_a)


# ---------------------------------------------------------------------------
# averaged entropy increase
# ---------------------------------------------------------------------------

def test_increase_formula_identical():
    p = ClassicalDistribution([0.4, 0.6])
    assert classical_mixing_increase_formula(p, p) == pytest.approx(0.0, abs=1e-14)


def test_increase_formula_point_mass():
    val = classical_mixing_increase_formula(
        ClassicalDistribution([0.0, 1.0]), ClassicalDistribution([0.5, 0.5])
    )
    assert val == pytest.approx(math.log(2), abs=1e-14)


def test_increase_formula_derived_value():
    val = classical_mixing_increase_formula(
        ClassicalDistribution([0.25, 0.75]), ClassicalDistribution([0.75, 0.25])
    )
    assert val == pytest.approx(0.5 * math.log(3), abs=1e-14)


def test_increase_formula_equals_relative_entropy():
    rng = np.random.default_rng(17)
    for _ in range(50):
        d = rng.integers(2, 6)
        sig = rng.uniform(0.05, 1.0, size=d)
        rho = rng.uniform(0.05, 1.0, size=d)
        sig_dist = ClassicalDistribution(sig / sig.sum())
        rho_dist = ClassicalDistribution(rho / rho.sum())
        direct = classical_mixing_increase_formula(sig_dist, rho_dist)
        operator = relative_entropy(sig_dist.as_density(), rho_dist.as_density())
        assert abs(direct - operator) < 1e-12


def test_insertion_factor_rows_cover_the_grid_within_bound():
    rows = appendix_checks(ClassicalDistribution(TYPICALITY_RHO), [])["insertion_rows"]
    assert [(r["n"], r["rho_a"]) for r in rows] == [
        (n, rho_a) for n in INSERTION_N for rho_a in INSERTION_RHO
    ]
    for r in rows:
        assert r["bound"] == 2.0 / (r["n"] * r["rho_a"])
        assert r["rel_err"] == insertion_factor(r["n"], r["rho_a"])["rel_err"] < r["bound"]


def test_random_distribution_pairs_are_seeded_full_support_pairs():
    pairs = random_distribution_pairs(9, FORMULA_PAIRS)
    assert len(pairs) == FORMULA_PAIRS
    for (sig, rho), (sig2, rho2) in zip(pairs, random_distribution_pairs(9, FORMULA_PAIRS)):
        assert np.array_equal(sig, sig2) and np.array_equal(rho, rho2)
        assert 2 <= sig.size == rho.size <= 5
        assert np.all(rho > 0.0)
        assert abs(sig.sum() - 1.0) < 1e-12 and abs(rho.sum() - 1.0) < 1e-12
    assert not np.array_equal(random_distribution_pairs(10, 1)[0][0], pairs[0][0])
    assert max_increase_formula_error(pairs) < 1e-12


def test_increase_formula_support_violation():
    with pytest.raises(InfiniteRelativeEntropyError):
        classical_mixing_increase_formula(
            ClassicalDistribution([0.5, 0.5]), ClassicalDistribution([1.0, 0.0])
        )


def test_increase_formula_dimension_mismatch():
    with pytest.raises(DimensionMismatchError, match="dimension mismatch: 2 vs 3"):
        classical_mixing_increase_formula(
            ClassicalDistribution([0.5, 0.5]), ClassicalDistribution([0.2, 0.3, 0.5])
        )


def test_consistency_triangle():
    # counting formula == operator relative entropy == sweep limit: the chain
    # from combinatorics to the exact computation closes on itself
    from mixent import convergence_sweep

    sig = ClassicalDistribution([0.25, 0.75])
    rho = ClassicalDistribution([0.75, 0.25])
    formula = classical_mixing_increase_formula(sig, rho)
    operator = relative_entropy(sig.as_density(), rho.as_density())
    assert abs(formula - operator) < 1e-12
    records = convergence_sweep(
        sig, rho, [2**k for k in range(13)], method="classical-exact"
    )
    assert all(abs(r.s_rel - formula) < 1e-12 for r in records)
    # and S_mix(n) = formula - gap, the gap following its series to a3/N^3
    ratios = series_remainder_ratios(sig.p, rho.p, [(r.n, r.gap) for r in records])
    assert len(ratios) == 7
    assert max(ratios) <= verify.DEFAULT_TOLERANCES["series_remainder"]


def test_appendix_checks_feed_both_callers(tmp_path):
    # criterion 7 and the `appendix` command report what appendix_checks computes
    seed = 9
    checks = appendix_checks(ClassicalDistribution(TYPICALITY_RHO),
                             random_distribution_pairs(seed, FORMULA_PAIRS))
    rows = checks["insertion_rows"]
    status, details = verify._c7_appendix(verify.VerifyConfig(seed=seed))
    assert status == "pass"
    assert details["deficits"] == checks["deficits"]
    assert details["insertion_bound_ok"] is checks["insertion_ok"] is True
    assert details["insertion_worst_margin"] == min(r["bound"] - r["rel_err"] for r in rows)
    assert details["max_formula_err"] == checks["max_formula_err"]

    assert main(["appendix", "--seed", str(seed), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["typicality"] == checks["typicality"]
    assert report["insertion"] == rows
    assert report["max_formula_err"] == checks["max_formula_err"]
    assert report["typicality_ok"] is checks["deficits_decreasing"] is True
