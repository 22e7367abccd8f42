"""Acceptance gate: every headline criterion at its pinned tolerance.

Criteria 1-8 run once through the shared engine (same code path as the
`mixent verify` subcommand); criterion 9 drives the CLI end to end twice and
compares report bytes. Each test prints one pass/fail line.
"""

import hashlib
import itertools
import json
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mixent import (
    HermitianOperator,
    apply_unitary,
    gibbs_state,
    random_haar_unitary,
    random_hermitian,
    relative_entropy,
    verify,
)
from mixent.collisions import collision_energy_transfer, commutator_norm
from mixent.cli import main
from mixent.errors import CapExceededError
from mixent.verify import (
    PROBE_CRITERIA,
    VerifyConfig,
    run_acceptance,
)

SEED = 9
RUNTIME_BUDGETS_S = {1: 10.0, 3: 30.0, 4: 120.0, 5: 60.0, 7: 10.0, 8: 30.0}


@pytest.fixture(scope="module")
def outcome():
    return run_acceptance(VerifyConfig(seed=SEED))


def _check(outcome, cid):
    result = next(r for r in outcome.results if r.cid == cid)
    verdict = "PASS" if result.status == "pass" else result.status.upper()
    print(f"ACCEPTANCE {cid} {result.name}: {verdict} ({result.elapsed_s:.2f} s)")
    assert result.status == "pass", result.details
    budget = RUNTIME_BUDGETS_S.get(cid)
    if budget is not None:
        assert result.elapsed_s < budget, (
            f"criterion {cid} took {result.elapsed_s:.1f} s, budget {budget} s"
        )
    return result


def test_criterion_1_dissipation_identity(outcome):
    result = _check(outcome, 1)
    assert result.details["instances"] == 100
    assert result.details["max_rel_err"] < 1e-9
    assert result.details["positivity_ok"]


def _c1_one_instance_at_a_time(seed):
    """Criterion 1's details from 2-D calls, instance by instance: the oracle."""
    rng = np.random.default_rng(seed)
    max_rel, checked, positivity_ok = 0.0, 0, True
    for i in range(100):
        d = 2 + i % 5
        beta = float(rng.uniform(0.05, 5.0))
        h_raw = random_hermitian(seed + i, d)
        energies = np.linalg.eigvalsh(h_raw.entries)
        h = HermitianOperator(h_raw.entries * (2.0 / (energies[-1] - energies[0])))
        u = random_haar_unitary(seed + 10_000 + i, d)
        rho = gibbs_state(h, beta)
        sigma = apply_unitary(rho, u)
        de = collision_energy_transfer(rho, u, h)
        s_rel = relative_entropy(sigma, rho)
        max_rel = max(max_rel, abs(beta * de - s_rel) / max(s_rel, 1e-300))
        gap = float(np.max(np.abs(sigma.entries - rho.entries)))
        if commutator_norm(u, h) > 1e-6 and gap > 1e-8:
            checked += 1
            positivity_ok = positivity_ok and de > 0.0
    return {"instances": 100, "max_rel_err": max_rel, "rel_tol": 1e-9,
            "positivity_checked": checked, "positivity_ok": positivity_ok}


@pytest.mark.parametrize("seed", [0, 1, 9, 17, 59])
def test_criterion_1_stacks_match_one_instance_at_a_time(seed):
    status, details = verify._c1_dissipation(VerifyConfig(seed=seed))
    assert status == "pass"
    assert details == _c1_one_instance_at_a_time(seed)


def test_criterion_2_reversibility_baseline(outcome):
    result = _check(outcome, 2)
    assert result.details["column_exact"]


def test_criterion_3_gracefulness(outcome):
    result = _check(outcome, 3)
    assert result.details["max_energy_residual"] < 1e-10
    assert result.details["max_commutation_residual"] < 1e-10
    assert result.details["max_state_residual"] < 1e-10


def test_criterion_4_oracle_equivalence(outcome):
    result = _check(outcome, 4)
    assert result.details["max_dense_vs_classical"] < 1e-9
    assert result.details["types_exact"]
    assert result.details["max_type_mass_rel_err"] < 1e-12


def test_criterion_5_conjecture_convergence(outcome):
    result = _check(outcome, 5)
    assert result.details["strictly_decreasing"]
    assert result.details["tenfold_drop"]
    assert result.details["max_remainder_ratio"] <= 2.0


def test_criterion_6_mixing_bounds(outcome):
    result = _check(outcome, 6)
    assert result.details["records"] > 0
    assert result.details["violations"] == []


def test_criterion_7_appendix_combinatorics(outcome):
    result = _check(outcome, 7)
    deficits = result.details["deficits"]
    assert deficits[-1] < 5e-4
    assert result.details["insertion_bound_ok"]
    assert result.details["max_formula_err"] < 1e-12


def test_criterion_8_multi_collision_variant(outcome):
    result = _check(outcome, 8)
    assert result.details["max_brute_diff"] < 1e-10
    assert result.details["max_type_mass_rel_err"] < 1e-12
    trend = result.details["trend_m_sigma_2"]
    assert [t["n_total"] for t in trend] == [8, 16, 32, 64, 128]
    assert all(t["n_total"] * abs(t["ratio"] - 1.0) <= 0.25 for t in trend)
    assert result.details["max_rate"] <= 0.25


def test_criterion_8_numbers_are_pinned(outcome):
    # exact reprs: criterion 8's 1e-10 tolerance would let a rounding change through
    details = next(r for r in outcome.results if r.cid == 8).details
    assert repr(details["max_brute_diff"]) == "6.661338147750939e-16"
    assert [(t["n_total"], repr(t["s_mix"]), repr(t["gap_to_2_s_rel"]))
            for t in details["trend_m_sigma_2"]] == [
        (8, "0.5016773645815367", "0.16791320884713204"),
        (16, "0.585802415745939", "0.08378815768272964"),
        (32, "0.6277937790062548", "0.041796794422413915"),
        (64, "0.6487228280087519", "0.02086774541991681"),
        (128, "0.6591650802748301", "0.010425493153838604"),
    ]


def test_criterion_9_determinism(outcome, tmp_path):
    # the engine's own spot check
    result = _check(outcome, 9)
    assert result.details["byte_identical"]
    # full end-to-end check: cmd_verify twice, byte-identical reports
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert main(["verify", "--seed", str(SEED), "--out-dir", str(out1)]) == 0
    assert main(["verify", "--seed", str(SEED), "--out-dir", str(out2)]) == 0
    b1 = (out1 / "verify_report.json").read_bytes()
    b2 = (out2 / "verify_report.json").read_bytes()
    print(f"ACCEPTANCE 9 cmd_verify byte-identical reports: {b1 == b2}")
    assert b1 == b2
    report = json.loads(b1)
    assert report["all_pass"] is True


# sha256 of the report bytes as RunWriter.write_json writes them (numpy 2.4.6,
# scipy 1.17.1, the versions CI pins)
VERIFY_REPORT_SHA256 = "2933892fb2da5fd1704c4dfd61e5da2319f8f477a7097a7e543b755f870c2b1e"
APPENDIX_REPORT_SHA256 = {
    None: "73f1ee56947fbbc8e7db2a32806e4f3fb3945b7b657990c24447f5bf5d522f51",
    9: "88adaa0a5f9e0442454cf8b2ecadeb2eeeeeb7d741e4f907452563ff58124dbe",
}
MOVED_BY_DESIGN = (
    "; a change that moves these bytes by design updates the pin and names "
    "each report field that moved"
)


def test_verify_report_bytes_are_pinned(outcome):
    data = (json.dumps(outcome.report, indent=2, sort_keys=True) + "\n").encode("utf-8")
    digest = hashlib.sha256(data).hexdigest()
    assert digest == VERIFY_REPORT_SHA256, (
        f"seed-{SEED} verify_report.json sha256 is {digest}" + MOVED_BY_DESIGN
    )


@pytest.mark.parametrize("seed", [None, 9])
def test_appendix_report_bytes_are_pinned(tmp_path, seed):
    argv = ["appendix", "--out-dir", str(tmp_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == APPENDIX_REPORT_SHA256[seed], (
        f"appendix report.json (seed {seed}) sha256 is {digest}" + MOVED_BY_DESIGN
    )


def _patched_table(monkeypatch, replace):
    """Swap criterion functions: replace maps (cid, fn) to the function to run."""
    table = tuple((cid, name, replace(cid, fn)) for cid, name, fn in verify._CRITERIA)
    monkeypatch.setattr(verify, "_CRITERIA", table)


@pytest.mark.parametrize("only", [None, (9,), (1, 5, 9)])
def test_criterion_9_evaluates_each_probe_twice(monkeypatch, only):
    calls = Counter()

    def counted(cid, fn):
        def wrapper(*args):
            calls[cid] += 1
            return fn(*args)
        return wrapper

    _patched_table(monkeypatch, counted)
    outcome = run_acceptance(VerifyConfig(seed=SEED), only=only)
    assert outcome.report["all_pass"]
    # this run's own pass plus one re-evaluation; a left-out probe is run twice by 9
    assert {cid: calls[cid] for cid in PROBE_CRITERIA} == dict.fromkeys(PROBE_CRITERIA, 2)
    assert all(calls[cid] == 1 for cid in set(calls) - set(PROBE_CRITERIA))


@pytest.mark.parametrize("only", [(2, 9), (9,)])
def test_criterion_9_catches_a_nondeterministic_probe(monkeypatch, only):
    draws = itertools.count()

    def drifting(cfg):
        return "pass", {"draw": next(draws)}

    _patched_table(monkeypatch, lambda cid, fn: drifting if cid == 2 else fn)
    result = run_acceptance(VerifyConfig(seed=SEED), only=only).results[-1]
    assert result.cid == 9
    assert result.status == "fail"
    assert result.details["byte_identical"] is False


@pytest.mark.parametrize("fault", ["dropped-type", "one-weight"])
def test_criterion_4_fails_on_a_wrong_type_class_spectrum(monkeypatch, fault):
    real = verify.type_class_spectrum

    def wrong(*args):
        spec = real(*args)
        if fault == "dropped-type":
            return SimpleNamespace(counts=spec.counts[1:], weight=spec.weight[1:],
                                   excess=spec.excess[1:])
        # a fault the gap, the dense oracle and criterion 8 let through
        weight = spec.weight.copy()
        weight[len(weight) // 2] *= 1.0 + 1e-10
        return replace(spec, weight=weight)

    monkeypatch.setattr(verify, "type_class_spectrum", wrong)
    (result,) = run_acceptance(VerifyConfig(seed=SEED), only=(4,)).results
    assert result.status == "fail"
    assert result.details["types_exact"] == (fault != "dropped-type")
    if fault == "one-weight":
        assert result.details["max_type_mass_rel_err"] > 1e-11
    assert result.details["max_dense_vs_classical"] < 1e-9


@pytest.mark.parametrize("fault", ["dropped-type", "one-weight"])
def test_criterion_8_fails_on_a_wrong_m2_type_class_spectrum(monkeypatch, fault):
    real = verify.type_class_spectrum

    def wrong(*args):
        spec = real(*args)
        if fault == "dropped-type":
            return SimpleNamespace(counts=spec.counts[1:], weight=spec.weight[1:],
                                   excess=spec.excess[1:])
        # a fault the brute-force S_mix lets through
        weight = spec.weight.copy()
        weight[len(weight) // 2] *= 1.0 + 1e-10
        return replace(spec, weight=weight)

    monkeypatch.setattr(verify, "type_class_spectrum", wrong)
    (result,) = run_acceptance(VerifyConfig(seed=SEED), only=(8,)).results
    assert result.status == "fail"
    assert result.details["max_type_mass_rel_err"] > 1e-11
    assert result.details["max_brute_diff"] < 1e-10


def test_criterion_4_fails_on_a_gap_integral_off_its_type_class_oracle(monkeypatch):
    real = verify.gap_integral
    monkeypatch.setattr(verify, "gap_integral", lambda *a: real(*a) * (1.0 + 1e-11))
    (result,) = run_acceptance(VerifyConfig(seed=SEED), only=(4,)).results
    assert result.status == "fail"
    assert 5e-12 < result.details["max_integral_vs_type_gap_rel"] < 2e-11


def test_criterion_6_bounds_the_records_of_the_criteria_that_ran():
    bounds = run_acceptance(VerifyConfig(seed=SEED), only=(5, 6)).results[-1]
    assert bounds.status == "pass"
    assert bounds.details == {"records": 13, "violations": []}


@pytest.mark.parametrize("only", [(), (10,), (0, 1)])
def test_empty_or_unknown_selection_raises(only):
    with pytest.raises(ValueError, match="criteri"):
        run_acceptance(VerifyConfig(seed=SEED), only=only)


def test_a_criterion_over_the_cap_is_skipped_with_the_reason(monkeypatch):
    def over_cap(cfg):
        raise CapExceededError("dense dimension 2^13 = 8192 exceeds cap 4096")

    _patched_table(monkeypatch, lambda cid, fn: over_cap if cid == 3 else fn)
    (result,) = run_acceptance(VerifyConfig(seed=SEED), only=(3,)).results
    assert result.status == "skipped: cap"
    assert result.details == {"reason": "dense dimension 2^13 = 8192 exceeds cap 4096"}
