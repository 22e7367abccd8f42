import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mixent import (
    CapExceededError,
    ClassicalDistribution,
    DensityOperator,
    HermitianOperator,
    InvalidStateError,
    UnitaryOperator,
    classical_mixing_entropy_exact,
    random_haar_unitary,
    random_hermitian,
    type_class_spectrum,
    verify,
)
from mixent import cli, mixing
from mixent.cli import _operator_param, main
from mixent.mixing import TYPE_CLASS_BUDGET
from conftest import series_remainder_ratios, verify_manifest


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


QUBIT_H = {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}


def qubit_h_file(tmp_path):
    return write_json(tmp_path / "H.json", QUBIT_H)


def exchange_file(tmp_path):
    return write_json(
        tmp_path / "X.json",
        {"dim": 2, "re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    )


def load(out_dir, name):
    return json.loads((out_dir / name).read_text())


# ---------------------------------------------------------------------------
# state and matrix objects
# ---------------------------------------------------------------------------

def _read(obj, kind):
    """obj through JSON text and the CLI's reader, as parameter 'x' of type kind."""
    return _operator_param({"x": json.loads(json.dumps(obj))}, "x", kind)


def _matrix_json(m):
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def test_matrix_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert np.array_equal(_read(_matrix_json(m), np.asarray), m)


def test_matrix_json_schema_keys(tmp_path):
    h = write_json(tmp_path / "H0.json", _matrix_json(np.zeros((2, 2))))
    out = tmp_path / "out"
    assert main(["gibbs", "--hamiltonian", h, "--beta", "1.0", "--out-dir", str(out)]) == 0
    obj = load(out, "state.json")["state"]
    assert set(obj) == {"dim", "re", "im"}
    assert obj["dim"] == 2
    assert obj["re"] == [[0.5, 0.0], [0.0, 0.5]]
    assert obj["im"] == [[0.0, 0.0], [0.0, 0.0]]


def test_operators_round_trip_and_validate_on_parse():
    h = random_hermitian(3, 4)
    assert np.array_equal(_read(_matrix_json(h.entries), HermitianOperator).entries, h.entries)
    u = random_haar_unitary(3, 4)
    assert np.array_equal(_read(_matrix_json(u.entries), UnitaryOperator).entries, u.entries)
    skew = h.entries.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(InvalidStateError):
        _read(_matrix_json(skew), HermitianOperator)
    with pytest.raises(InvalidStateError):
        _read(_matrix_json(2 * u.entries), UnitaryOperator)


def test_distribution_round_trip():
    dist = ClassicalDistribution([0.7, 0.2, 0.1])
    assert np.array_equal(_read({"p": dist.p.tolist()}, DensityOperator).p, dist.p)


def test_malformed_matrix_json_rejected():
    with pytest.raises(ValueError):
        _read({"dim": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]}, np.asarray)
    with pytest.raises(ValueError):
        _read({"re": [[1]]}, np.asarray)
    with pytest.raises(ValueError):
        _read({"q": [1.0]}, DensityOperator)


def test_non_list_distribution_json_rejected():
    with pytest.raises(ValueError, match="'p' must be of type list"):
        _read({"p": {"a": 1}}, DensityOperator)


# ---------------------------------------------------------------------------
# gibbs
# ---------------------------------------------------------------------------

def test_gibbs_zero_hamiltonian(tmp_path):
    h = write_json(
        tmp_path / "H0.json",
        {"dim": 2, "re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    )
    out = tmp_path / "out"
    assert main(["gibbs", "--hamiltonian", h, "--beta", "3.0", "--out-dir", str(out)]) == 0
    state = load(out, "state.json")
    assert np.allclose(state["state"]["re"], np.eye(2) / 2, atol=1e-15)
    assert verify_manifest(out)


def test_gibbs_beta_zero(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["gibbs", "--hamiltonian", qubit_h_file(tmp_path), "--beta", "0.0",
         "--out-dir", str(out)]
    )
    assert rc == 0
    state = load(out, "state.json")
    assert np.allclose(state["state"]["re"], np.eye(2) / 2, atol=1e-15)


def test_gibbs_qubit(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["gibbs", "--hamiltonian", qubit_h_file(tmp_path), "--beta", "1.0",
         "--out-dir", str(out)]
    )
    assert rc == 0
    state = load(out, "state.json")
    z = 1.0 + math.exp(-1.0)
    assert state["state"]["re"][0][0] == pytest.approx(1.0 / z, abs=1e-15)
    assert state["state"]["re"][1][1] == pytest.approx(math.exp(-1.0) / z, abs=1e-15)
    assert "entropy_nats" in state and "entropy_bits" not in state


def test_gibbs_bits_units(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["gibbs", "--hamiltonian", qubit_h_file(tmp_path), "--beta", "1.0",
         "--units", "bits", "--out-dir", str(out)]
    )
    assert rc == 0
    state = load(out, "state.json")
    assert state["units"] == "bits"
    assert state["entropy_bits"] == pytest.approx(
        state["entropy_nats"] / math.log(2), abs=1e-12
    )


def test_gibbs_missing_param(tmp_path):
    assert main(["gibbs", "--beta", "1.0", "--out-dir", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# collide
# ---------------------------------------------------------------------------

def test_collide_identity_unitary(tmp_path):
    ident = write_json(
        tmp_path / "I.json",
        {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
    )
    out = tmp_path / "out"
    rc = main(
        ["collide", "--hamiltonian", qubit_h_file(tmp_path), "--unitary", ident,
         "--beta", "1.0", "--collisions", "4", "--reservoir-size", "6",
         "--out-dir", str(out)]
    )
    assert rc == 0
    rows = (out / "ledger.csv").read_text().strip().split("\n")[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_collide_qubit_exchange(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["collide", "--hamiltonian", qubit_h_file(tmp_path),
         "--unitary", exchange_file(tmp_path), "--beta", "1.0",
         "--collisions", "3", "--reservoir-size", "5", "--out-dir", str(out)]
    )
    assert rc == 0
    summary = load(out, "summary.json")
    assert summary["identity_residual"] < 1e-9
    assert summary["dirr_s_nats"] == pytest.approx(summary["s_rel_nats"], rel=1e-9)
    assert verify_manifest(out)


def test_collide_random_instance_reproducible(tmp_path):
    args = ["collide", "--dim", "4", "--beta", "0.7", "--collisions", "5",
            "--reservoir-size", "8", "--seed", "21"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    assert (out1 / "ledger.csv").read_bytes() == (out2 / "ledger.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    rows = (out1 / "ledger.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 5


def test_collide_random_instance_needs_seed(tmp_path):
    rc = main(
        ["collide", "--dim", "4", "--beta", "0.7", "--collisions", "2",
         "--reservoir-size", "4", "--out-dir", str(tmp_path / "o")]
    )
    assert rc == 2


@pytest.mark.parametrize("beta,flagged", [("-1", True), ("0", True), ("0.5", False)])
def test_gibbs_and_collide_flag_nonpositive_beta(tmp_path, capsys, beta, flagged):
    h = qubit_h_file(tmp_path)
    assert main(["gibbs", "--hamiltonian", h, "--beta", beta,
                 "--out-dir", str(tmp_path / "g")]) == 0
    assert load(tmp_path / "g", "state.json")["beta_flagged_nonpositive"] is flagged
    note = "note: beta <= 0, dissipation-positivity claims do not apply"
    assert (note in capsys.readouterr().out) is flagged
    assert main(["collide", "--hamiltonian", h, "--unitary", exchange_file(tmp_path),
                 "--beta", beta, "--collisions", "1", "--reservoir-size", "2",
                 "--out-dir", str(tmp_path / "c")]) == 0
    assert load(tmp_path / "c", "summary.json")["beta_flagged_nonpositive"] is flagged


# ---------------------------------------------------------------------------
# mix-sweep
# ---------------------------------------------------------------------------

def test_mix_sweep_identical_states_zero_gap(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"command": {"name": "mix-sweep", "params": {
            "sigma": {"p": [0.6, 0.4]}, "rho": {"p": [0.6, 0.4]},
            "n_list": [1, 2, 4, 8]}}},
    )
    out = tmp_path / "out"
    assert main(["mix-sweep", "--config", cfg, "--out-dir", str(out)]) == 0
    gaps = [float(r.split(",")[1])
            for r in (out / "gap_plot.csv").read_text().strip().split("\n")[1:]]
    assert all(abs(g) < 1e-10 for g in gaps)


def test_mix_sweep_classical_convergence(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"seed": 1, "command": {"name": "mix-sweep", "params": {
            "sigma": {"p": [0.3, 0.7]}, "rho": {"p": [0.7, 0.3]},
            "n_grid": {"start": 1, "factor": 2, "count": 13},
            "method": "classical-exact", "svg": True}}},
    )
    out = tmp_path / "out"
    assert main(["mix-sweep", "--config", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "records.csv").read_text().strip().split("\n")
    assert lines[0] == "n,method,S_mix_nats,S_rel_nats,gap_nats,wall_time_ms"
    rows = [line.split(",") for line in lines[1:]]
    gaps = [float(row[4]) for row in rows]
    assert gaps[-1] < gaps[0] / 10
    assert all(abs(float(row[3]) - 0.4 * math.log(7 / 3)) < 1e-12 for row in rows)
    ratios = series_remainder_ratios(
        [0.3, 0.7], [0.7, 0.3], [(int(row[0]), float(row[4])) for row in rows]
    )
    assert len(ratios) == 7
    assert max(ratios) <= verify.DEFAULT_TOLERANCES["series_remainder"]
    assert not (out / "extrapolation.json").exists()
    assert (out / "plot.svg").read_text().startswith("<svg")
    assert verify_manifest(out)
    # the pair's preparation is timed apart from the records, within the sweep
    timings = load(out, "manifest.json")["timings_ms"]
    assert 0.0 <= timings["prepare"] <= timings["sweep"] <= timings["total"]


@pytest.mark.parametrize("grid,message", [
    ({"n_list": [4, 4, 4]}, "more than once"),
    (["--n-list", "4,4,4"], "more than once"),
    ({"n_grid": {"start": 4, "factor": 1, "count": 3}}, "more than once"),
    ({"n_list": []}, "lists no n"),
    ({"n_grid": {"count": 0}}, "lists no n"),
    ({"n_list": [4, 0, 1]}, "need n >= 1"),
    (["--n-list", "0,4", "--method", "dense"], "need n >= 1"),
], ids=["repeated-list", "repeated-flags", "repeated-grid", "empty-list", "empty-grid",
        "zero-in-list", "zero-in-flags-dense"])
def test_mix_sweep_rejects_repeated_or_no_n(tmp_path, capsys, grid, message):
    # a dict is config params, a list is flags
    params = grid if isinstance(grid, dict) else {}
    flags = [] if isinstance(grid, dict) else grid
    cfg = write_json(
        tmp_path / "cfg.json",
        {"command": {"name": "mix-sweep", "params": {
            "sigma": {"p": [0.3, 0.7]}, "rho": {"p": [0.7, 0.3]}, **params}}},
    )
    out = tmp_path / "o"
    assert main(["mix-sweep", "--config", cfg, "--out-dir", str(out)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _sweep_and_series_gap(tmp_path, n, method="classical-exact"):
    """mix-sweep's gap_nats for sigma = (0.3, 0.7), rho = (0.7, 0.3) at one n, and the series'."""
    out = tmp_path / "o"
    flags = ["--sigma", write_json(tmp_path / "s.json", {"p": [0.3, 0.7]}),
             "--rho", write_json(tmp_path / "r.json", {"p": [0.7, 0.3]}),
             "--n-list", str(n), "--method", method, "--out-dir", str(out)]
    assert main(["mix-sweep"] + flags) == 0
    (row,) = (out / "records.csv").read_text().strip().split("\n")[1:]
    a1, a2, a3 = mixing.gap_series(ClassicalDistribution([0.3, 0.7]),
                                   ClassicalDistribution([0.7, 0.3]))
    big_n = n + 1
    return float(row.split(",")[4]), a1 / big_n + a2 / big_n**2 + a3 / big_n**3


def test_mix_sweep_past_the_weights_precision_fails_loudly(tmp_path):
    # N = 2^21 + 1 is within TYPE_CLASS_BUDGET, but each weight's eps ln N!
    # rounding leaves their sum 2.5e-9 off 1, past NORMALIZATION_TOL: the
    # type-class spectrum refuses. mix-sweep's m = 1 records come from the
    # gap integral, which has no such limit
    sig, rho = ClassicalDistribution([0.3, 0.7]), ClassicalDistribution([0.7, 0.3])
    assert 2**21 + 2 <= TYPE_CLASS_BUDGET
    with pytest.raises(InvalidStateError, match="type weights sum to 1.00000000"):
        type_class_spectrum(sig, rho, 2**21 + 1)
    gap, series = _sweep_and_series_gap(tmp_path, 2**21)
    assert abs(gap - series) <= 1e-12 * series


def test_mix_sweep_dense_far_past_the_cap_exits_3(tmp_path, capsys):
    # 2^20001 has 6021 digits, past what Python formats as a string
    out = tmp_path / "o"
    flags = ["--sigma", write_json(tmp_path / "s.json", {"p": [0.3, 0.7]}),
             "--rho", write_json(tmp_path / "r.json", {"p": [0.7, 0.3]}),
             "--n-list", "20000", "--method", "dense", "--out-dir", str(out)]
    assert main(["mix-sweep"] + flags) == 3
    assert "dense dimension 2^20001 exceeds cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma, rho, n, message", [
    # n = 10^400 passes the float range: refused before the gap integral
    ([0.3, 0.7], [0.7, 0.3], "1" + "0" * 400, "N = 10^400.0 passes the float range"),
    # w - t rounds by about eps t: this gap came out as -3.8e110
    ([1e-20, 1.0], [1.0, 1e-20], "10000000000000000000", "N = 10000000000000000001 is"),
])
def test_mix_sweep_past_the_gap_integrals_reach_exits_3(tmp_path, capsys, sigma, rho, n, message):
    out = tmp_path / "o"
    flags = ["--sigma", write_json(tmp_path / "s.json", {"p": sigma}),
             "--rho", write_json(tmp_path / "r.json", {"p": rho}),
             "--n-list", n, "--method", "classical-exact", "--out-dir", str(out)]
    assert main(["mix-sweep"] + flags) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["auto", "classical-exact"])
def test_mix_sweep_tables_past_the_type_budget_exit_3(tmp_path, method):
    # at n = 10^8 each symbol's table would hold n + 2 entries, past
    # TYPE_CLASS_BUDGET: the type-class spectrum refuses before allocating.
    # mix-sweep's m = 1 records have no budget
    sig, rho = ClassicalDistribution([0.3, 0.7]), ClassicalDistribution([0.7, 0.3])
    with pytest.raises(CapExceededError, match="per-symbol tables of 100000002 entries exceed"):
        type_class_spectrum(sig, rho, 10**8 + 1)
    gap, series = _sweep_and_series_gap(tmp_path, 10**8, method)
    assert abs(gap - series) <= 1e-12 * series


def test_mix_sweep_non_list_distribution_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    flags = ["--sigma", write_json(tmp_path / "s.json", {"p": {"a": 1}}),
             "--rho", write_json(tmp_path / "r.json", {"p": [0.7, 0.3]}),
             "--n-list", "4", "--out-dir", str(out)]
    assert main(["mix-sweep"] + flags) == 2
    assert "parameter 'sigma': 'p' must be of type list" in capsys.readouterr().err
    assert not out.exists()


def test_mix_sweep_dense_quantum_within_cap(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"seed": 5, "command": {"name": "mix-sweep", "params": {
            "sigma": {
                "dim": 2,
                "re": [[0.6, 0.2], [0.2, 0.4]],
                "im": [[0.0, -0.1], [0.1, 0.0]],
            },
            "rho": {"p": [0.7310585786300049, 0.2689414213699951]},
            "n_list": list(range(1, 11)), "method": "dense"}}},
    )
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert main(["mix-sweep", "--config", cfg, "--out-dir", str(out)]) == 0
    assert time.perf_counter() - t0 < 60.0
    lines = (out / "records.csv").read_text().strip().split("\n")[1:]
    assert len(lines) == 10
    gaps = [float(line.split(",")[4]) for line in lines]
    assert all(g > 0 for g in gaps)


def test_mix_sweep_method_mismatch(tmp_path):
    # dense-only pair forced through the classical route must fail cleanly
    cfg = write_json(
        tmp_path / "cfg.json",
        {"command": {"name": "mix-sweep", "params": {
            "sigma": {
                "dim": 2,
                "re": [[0.6, 0.2], [0.2, 0.4]],
                "im": [[0.0, -0.1], [0.1, 0.0]],
            },
            "rho": {"p": [0.7310585786300049, 0.2689414213699951]},
            "n_list": [1, 2, 3], "method": "classical-exact"}}},
    )
    assert main(["mix-sweep", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2


def test_mix_sweep_cap_exceeded(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"dense_cap": 16, "command": {"name": "mix-sweep", "params": {
            "sigma": {
                "dim": 2,
                "re": [[0.6, 0.2], [0.2, 0.4]],
                "im": [[0.0, -0.1], [0.1, 0.0]],
            },
            "rho": {"p": [0.7310585786300049, 0.2689414213699951]},
            "n_list": [2, 4, 6], "method": "dense"}}},
    )
    assert main(["mix-sweep", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3


# ---------------------------------------------------------------------------
# appendix
# ---------------------------------------------------------------------------

def test_appendix_default_passes(tmp_path):
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert main(["appendix", "--out-dir", str(out)]) == 0
    assert time.perf_counter() - t0 < 5.0
    report = load(out, "report.json")
    assert report["all_pass"] is True
    for row in report["typicality"]:
        assert set(row) == {"n", "lhs_per_symbol", "S_rho", "deficit"}
    assert verify_manifest(out)


def test_bits_conversion_on_emitted_entropies(tmp_path):
    out = tmp_path / "c"
    rc = main(
        ["collide", "--hamiltonian", qubit_h_file(tmp_path),
         "--unitary", exchange_file(tmp_path), "--beta", "1.0",
         "--collisions", "2", "--reservoir-size", "4", "--units", "bits",
         "--out-dir", str(out)]
    )
    assert rc == 0
    summary = load(out, "summary.json")
    for key in ("dirr_s", "s_rel", "s_rho", "reservoir_s_info"):
        assert summary[f"{key}_bits"] == pytest.approx(
            summary[f"{key}_nats"] / math.log(2), abs=1e-12
        )
    out2 = tmp_path / "a"
    assert main(["appendix", "--units", "bits", "--out-dir", str(out2)]) == 0
    for row in load(out2, "report.json")["typicality"]:
        assert row["S_rho_bits"] == pytest.approx(
            row["S_rho"] / math.log(2), abs=1e-12
        )


def test_mix_sweep_refuses_bits_and_writes_nothing(tmp_path, capsys):
    # records.csv has nats columns only: bits would reach the manifest and no output
    flags = ["--sigma", write_json(tmp_path / "s.json", {"p": [0.3, 0.7]}),
             "--rho", write_json(tmp_path / "r.json", {"p": [0.7, 0.3]}),
             "--n-list", "1,4"]
    out = tmp_path / "o"
    assert main(["mix-sweep", *flags, "--units", "bits", "--out-dir", str(out)]) == 2
    assert "mix-sweep reports nats only" in capsys.readouterr().err
    assert not out.exists()
    assert main(["mix-sweep", *flags, "--units", "nats", "--out-dir", str(out)]) == 0


def test_verify_refuses_bits_and_writes_nothing(tmp_path, capsys):
    def config(units):
        return write_json(tmp_path / f"{units}.json", {
            "seed": 9, "units": units, "command": {"name": "verify", "params": {"criteria": [6]}}})

    out = tmp_path / "o"
    assert main(["verify", "--config", config("bits"), "--out-dir", str(out)]) == 2
    assert "verify reports nats only" in capsys.readouterr().err
    assert not out.exists()
    assert main(["verify", "--config", config("nats"), "--out-dir", str(out)]) == 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

FAST_CRITERIA = [1, 2, 5, 6, 7, 8]


def test_verify_subset_deterministic(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"seed": 9, "command": {"name": "verify", "params": {"criteria": FAST_CRITERIA}}},
    )
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert main(["verify", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out-dir", str(out2)]) == 0
    assert (out1 / "verify_report.json").read_bytes() == (
        out2 / "verify_report.json"
    ).read_bytes()


def test_verify_tampered_tolerance_reports_residuals(tmp_path, monkeypatch):
    monkeypatch.setitem(verify.DEFAULT_TOLERANCES, "dissipation_rel", 1e-30)
    cfg = write_json(
        tmp_path / "cfg.json",
        {"seed": 9, "command": {"name": "verify", "params": {"criteria": [1]}}},
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 1
    report = load(out, "verify_report.json")
    entry = report["criteria"][0]
    assert entry["status"] == "fail"
    assert entry["details"]["max_rel_err"] > 0.0


def test_verify_criterion_4_skips_the_cases_over_a_lowered_cap(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"seed": 9, "dense_cap": 64,
         "command": {"name": "verify", "params": {"criteria": [4, 6]}}},
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 0
    c4, c6 = load(out, "verify_report.json")["criteria"]
    assert c4["status"] == "skipped: cap"
    assert c4["details"]["skipped_cases"] == (
        [f"d=2,n={n}" for n in range(6, 12)] + [f"d=3,n={n}" for n in range(3, 7)]
    )
    assert c4["details"]["dense_vs_classical_cases"] == 5 + 2
    assert c6["status"] == "pass"
    assert c6["details"]["records"] == 2 * (5 + 2)


def test_verify_lowered_cap_skips(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"seed": 9, "dense_cap": 8,
         "command": {"name": "verify", "params": {"criteria": [3]}}},
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 0
    entry = load(out, "verify_report.json")["criteria"][0]
    assert entry["status"] == "skipped: cap"
    assert entry["details"] == {"reason": "dense dimension 2^4 = 16 exceeds cap 8"}


def test_verify_requires_seed(tmp_path):
    assert main(["verify", "--out-dir", str(tmp_path / "o")]) == 2


def test_verify_criterion_6_alone_is_skipped(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"seed": 9, "command": {"name": "verify", "params": {"criteria": [6]}}},
    )
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 0
    entry = load(out, "verify_report.json")["criteria"][0]
    assert entry["status"] == "skipped: needs criterion 4 or 5"
    assert entry["details"] == {}


@pytest.mark.parametrize("params, message", [
    ({"criteria": []}, "criteria []: name one or more of"),
    ({"criteria": [10]}, "criteria [10]: name one or more of"),
    ({"criteria": [1], "tolerances": {"dissipation_rel": 1e-30}}, "tolerances are pinned"),
])
def test_verify_rejects_empty_unknown_or_tolerance_params(tmp_path, capsys, params,
                                                          message):
    cfg = write_json(
        tmp_path / "cfg.json", {"seed": 9, "command": {"name": "verify", "params": params}}
    )
    assert main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_flag_overrides_config_seed(tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {"seed": 1, "command": {"name": "collide", "params": {
            "dim": 3, "beta": 0.5, "collisions": 2, "reservoir_size": 4}}},
    )
    out1, out2, out3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
    assert main(["collide", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert main(["collide", "--config", cfg, "--seed", "2", "--out-dir", str(out2)]) == 0
    assert main(["collide", "--config", cfg, "--seed", "1", "--out-dir", str(out3)]) == 0
    assert (out1 / "ledger.csv").read_bytes() != (out2 / "ledger.csv").read_bytes()
    assert (out1 / "ledger.csv").read_bytes() == (out3 / "ledger.csv").read_bytes()


def test_config_command_mismatch(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"command": {"name": "gibbs", "params": {}}})
    assert main(["appendix", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2


def test_malformed_config_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["appendix", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2


def test_nonpositive_dense_cap_rejected(tmp_path):
    rc = main(["appendix", "--dense-cap", "0", "--out-dir", str(tmp_path / "o")])
    assert rc == 2


SWEEP_STATES = {"sigma": {"p": [0.3, 0.7]}, "rho": {"p": [0.7, 0.3]}}


def _sweep(sigma, rho):
    return {"sigma": sigma, "rho": rho, "n_list": [1, 2, 4]}


# key "a.b" names parameter 'a' and its object's key 'b'
@pytest.mark.parametrize("command, top, params, key", [
    # rho.json holds a density matrix; appendix needs a distribution
    ("appendix", {}, {"rho": "rho.json"}, "rho"),
    ("appendix", {}, {"rho": [0.5, 0.5]}, "rho"),
    ("verify", {"seed": 9}, {"criteria": 5}, "criteria"),
    ("mix-sweep", {}, {**SWEEP_STATES, "n_grid": [1, 2, 3]}, "n_grid"),
    ("mix-sweep", {}, {**SWEEP_STATES, "n_list": 5}, "n_list"),
    ("appendix", {"dense_cap": "16"}, {}, "dense_cap"),
    ("mix-sweep", {}, {**SWEEP_STATES, "n_list": [1, 2, 4], "svg": "false"}, "svg"),
    ("mix-sweep", {}, {**SWEEP_STATES, "n_list": [1, 2, 4], "method": 1}, "method"),
    # state and matrix objects: each value is typed, and no key is ignored
    ("mix-sweep", {}, _sweep({"p": [[0.2, 0.3], [0.1, 0.4]]}, {"p": [0.25] * 4}), "sigma.p"),
    ("mix-sweep", {}, _sweep({"p": [True, False]}, {"p": [0.5, 0.5]}), "sigma.p"),
    ("mix-sweep", {}, _sweep({"p": [0.3, 0.7]}, {"p": ["0.7", "0.3"]}), "rho.p"),
    ("mix-sweep", {}, _sweep({"p": [0.3, 0.7], "comment": "x"}, {"p": [0.7, 0.3]}),
     "sigma.comment"),
    ("gibbs", {}, {"beta": 1.0, "hamiltonian": {**QUBIT_H, "dim": 2.5}}, "hamiltonian.dim"),
    ("gibbs", {}, {"beta": 1.0, "hamiltonian": {**QUBIT_H, "dim": "2"}}, "hamiltonian.dim"),
    ("gibbs", {}, {"beta": 1.0, "hamiltonian": {"dim": True, "re": [[0.0]], "im": [[0.0]]}},
     "hamiltonian.dim"),
    ("gibbs", {}, {"beta": 1.0, "hamiltonian": {**QUBIT_H, "re": [["0.5", "0"], ["0", "1"]]}},
     "hamiltonian.re"),
    ("gibbs", {}, {"beta": 1.0, "hamiltonian": {**QUBIT_H, "comment": "x"}},
     "hamiltonian.comment"),
    ("collide", {}, {"beta": 1.0, "collisions": 1, "reservoir_size": 1, "hamiltonian": QUBIT_H,
                     "unitary": {**QUBIT_H, "re": [[False, True], [True, False]]}}, "unitary.re"),
])
def test_malformed_input_exits_2_naming_the_parameter(tmp_path, monkeypatch, capsys,
                                                      command, top, params, key):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "rho.json",
               {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]})
    cfg = write_json(tmp_path / "cfg.json",
                     {**top, "command": {"name": command, "params": params}})
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert all(f"'{name}'" in err for name in key.split("."))
    assert not (tmp_path / "o").exists()


def run_config(name, **params):
    return {"seed": 9, "command": {"name": name, "params": params}}


SWEEP_N = {**SWEEP_STATES, "n_list": [1, 2, 4]}


@pytest.mark.parametrize("config, key", [
    pytest.param(run_config("gibbs", betta=1.0), "betta", id="gibbs"),
    pytest.param(run_config("collide", dim=2, reservoir=4), "reservoir", id="collide"),
    # the pair commutes, so an ignored 'metod' would run auto and exit 0
    pytest.param(run_config("mix-sweep", **SWEEP_N, metod="dense"), "metod", id="mix-sweep"),
    pytest.param(run_config("mix-sweep", **SWEEP_STATES, n_grid={"cout": 4}), "cout",
                 id="mix-sweep-n_grid"),
    pytest.param(run_config("verify", criterion=[1]), "criterion", id="verify"),
    # appendix runs criterion 7's pinned grids; rho is its only parameter
    *[pytest.param(run_config("appendix", **{key: value}), key, id=f"appendix-{key}")
      for key, value in [("pairs", 5), ("typicality_n", [10]), ("insertion_n", [10]),
                         ("insertion_rho", [0.0])]],
    pytest.param({"command": {"name": "appendix", "parms": {}}}, "parms", id="command-key"),
    pytest.param({**run_config("verify"), "dense-cap": 16}, "dense-cap", id="top-level-key"),
])
def test_unknown_key_exits_2_naming_it(tmp_path, capsys, config, key):
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "o"
    assert main([config["command"]["name"], "--config", cfg, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown" in err and f"'{key}'" in err
    assert not out.exists()


def test_unknown_key_message_names_it_and_the_accepted_keys(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", run_config("mix-sweep", **SWEEP_N, metod="dense"))
    assert main(["mix-sweep", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "unknown mix-sweep parameter 'metod'" in err
    assert "'method'" in err and "'n_grid'" in err


def test_a_key_error_in_a_handler_propagates(tmp_path, monkeypatch):
    # every key is read through a checked reader, so a KeyError is a fault
    # of the program, not invalid input
    def faulty(cfg):
        raise KeyError("missing internal key")

    _, help_text, params = cli.PARAMS["appendix"]
    monkeypatch.setitem(cli.PARAMS, "appendix", (faulty, help_text, params))
    with pytest.raises(KeyError, match="missing internal key"):
        main(["appendix", "--out-dir", str(tmp_path / "o")])


@pytest.mark.parametrize("command", ["verify", "appendix"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main([command, "--seed", "-1", "--out-dir", str(out)]) == 2
    assert "'seed' must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_n_list_flag_is_parsed_by_argparse(tmp_path, capsys):
    states = [write_json(tmp_path / f"{k}.json", v) for k, v in SWEEP_STATES.items()]
    argv = ["mix-sweep", "--sigma", states[0], "--rho", states[1],
            "--out-dir", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--n-list", "1,x"])
    assert exc.value.code == 2
    assert "--n-list" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert main(argv + ["--n-list", "1,2,4"]) == 0
    manifest = load(tmp_path / "o", "manifest.json")
    assert manifest["config"]["command"]["params"]["n_list"] == [1, 2, 4]


def test_readme_sweep_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    sweeps = [b for b in map(json.loads, blocks) if b["command"]["name"] == "mix-sweep"]
    assert len(sweeps) == 1
    cfg = write_json(tmp_path / "cfg.json", sweeps[0])
    out = tmp_path / "out"
    assert main(["mix-sweep", "--config", cfg, "--out-dir", str(out)]) == 0
    assert (out / "plot.svg").read_text().startswith("<svg")
    assert verify_manifest(out)


def test_appendix_rho_from_a_path_matches_inline(tmp_path):
    rho = {"p": [0.3, 0.7]}
    inline = write_json(tmp_path / "a.json",
                        {"command": {"name": "appendix", "params": {"rho": rho}}})
    by_path = write_json(
        tmp_path / "b.json",
        {"command": {"name": "appendix",
                     "params": {"rho": write_json(tmp_path / "rho.json", rho)}}},
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["appendix", "--config", inline, "--out-dir", str(out1)]) == 0
    assert main(["appendix", "--config", by_path, "--out-dir", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


# ---------------------------------------------------------------------------
# import cost: scipy is imported only by the type-class spectrum (m >= 2)
# ---------------------------------------------------------------------------

SCIPY_PROBE = """
import sys
from mixent import cli
if sys.argv[1:] and cli.main(sys.argv[1:]) != 0:
    sys.exit("command failed")
print("scipy" in sys.modules)
"""


def _imports_scipy(tmp_path, argv=(), probe=SCIPY_PROBE):
    """Whether a fresh process running probe (by default: import mixent.cli, run argv)
    imports scipy."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return out.splitlines()[-1] == "True"


def test_importing_the_cli_imports_no_scipy(tmp_path):
    assert not _imports_scipy(tmp_path)


PREPARE_PROBE = """
import sys
import numpy as np
from mixent import DensityOperator
from mixent.mixing import _prepare
method = sys.argv[1]
off = 0.0 if method == "classical-exact" else 0.2 + 0.1j
sigma = DensityOperator([[0.3, off], [np.conj(off), 0.7]])
_prepare(sigma, DensityOperator(np.diag([0.7, 0.3])), method)
print("scipy" in sys.modules)
"""


@pytest.mark.parametrize("method,expected", [("classical-exact", False), ("dense", False)])
def test_a_type_class_pair_imports_scipy_when_prepared(tmp_path, method, expected):
    # an m = 1 pair's records come from the gap integral, which needs no gammaln
    assert _imports_scipy(tmp_path, [method], PREPARE_PROBE) is expected


QUBIT_PAIR = {
    "sigma": {"dim": 2, "re": [[0.6, 0.2], [0.2, 0.4]], "im": [[0.0, 0.1], [-0.1, 0.0]]},
    "rho": {"p": [0.7, 0.3]},
}


@pytest.mark.parametrize("argv,params,expected", [
    (["appendix"], None, False),
    (["collide", "--dim", "3", "--beta", "0.7", "--collisions", "2",
      "--reservoir-size", "3", "--seed", "21"], None, False),
    (["mix-sweep"], {**QUBIT_PAIR, "n_list": [1, 2, 3], "method": "dense"}, False),
    (["mix-sweep"], {**QUBIT_PAIR, "sigma": {"p": [0.3, 0.7]}, "n_list": [1, 2, 3],
                     "method": "classical-exact"}, False),
    # the probe's positive control: criterion 8's m = 2 records need gammaln
    (["verify", "--seed", "9"], {"criteria": [8]}, True),
], ids=["appendix", "collide", "dense-sweep", "classical-sweep", "verify-criterion-8"])
def test_only_type_class_routes_import_scipy(tmp_path, argv, params, expected):
    argv = list(argv) + ["--out-dir", str(tmp_path / "out")]
    if params is not None:
        cfg = {"command": {"name": argv[0], "params": params}}
        argv += ["--config", write_json(tmp_path / "cfg.json", cfg)]
    assert _imports_scipy(tmp_path, argv) is expected


def test_two_main_calls_in_one_process_parse_independently(tmp_path, monkeypatch):
    # build_parser is built once per process; no flag of one call reaches the next
    seen = []
    _, help_text, params = cli.PARAMS["gibbs"]
    monkeypatch.setitem(cli.PARAMS, "gibbs", (lambda cfg: seen.append(cfg) or 0, help_text, params))
    assert cli.build_parser() is cli.build_parser()
    first_argv = ["gibbs", "--beta", "0.5", "--seed", "4", "--units", "bits",
                  "--dense-cap", "100", "--out-dir", str(tmp_path / "a")]
    second_argv = ["gibbs", "--out-dir", str(tmp_path / "b")]
    assert main(first_argv) == 0
    assert main(second_argv) == 0
    fresh = cli.build_parser.__wrapped__    # an uncached parser per call
    assert seen == [cli.resolve_config(fresh().parse_args(argv))
                    for argv in (first_argv, second_argv)]
    assert (seen[0].seed, seen[0].units, seen[0].params) == (4, "bits", {"beta": 0.5})
    assert (seen[1].seed, seen[1].units, seen[1].params) == (None, "nats", {})
