"""Tests of the benchmark's own references, tracer and checks.

Run from the repository root: python3 -m pytest -q perfbench
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mixent import mixing  # noqa: E402
from mixent.cli import main  # noqa: E402
from mixent.states import ClassicalDistribution, DensityOperator  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

D2_SIGMA, D2_RHO = workloads.CLASSICAL_BASE_PAIRS[2]
D3_SIGMA, D3_RHO = workloads.CLASSICAL_BASE_PAIRS[3]


# ---------------------------------------------------------------------------
# classical gap reference
# ---------------------------------------------------------------------------

def test_classical_gap_matches_program_at_small_n():
    sigma, rho = ClassicalDistribution(D2_SIGMA), ClassicalDistribution(D2_RHO)
    for n in range(1, 17):
        program = mixing.classical_mixing_entropy_exact(sigma, rho, n).gap
        ref = reference.classical_gap(D2_SIGMA, D2_RHO, n)
        assert abs(ref - program) <= 1e-12 * ref, n


def _mp_gap(sigma, rho, n):
    """gap(n) by direct 40-digit summation over every type."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    sigma = [mpmath.mpf(x) for x in sigma]
    rho = [mpmath.mpf(x) for x in rho]
    n_total = n + 1
    total = mpmath.mpf(0)
    for counts in reference._type_blocks(n_total, len(rho)):
        for m in counts.tolist():
            pmf = mpmath.factorial(n_total)
            for m_a, r_a in zip(m, rho):
                pmf *= r_a**m_a / mpmath.factorial(m_a)
            rbar = sum(m_a * s_a / r_a for m_a, s_a, r_a in zip(m, sigma, rho)) / n_total
            total += pmf * (rbar * mpmath.log(rbar) - rbar + 1)
    return total


@pytest.mark.parametrize("sigma,rho", [(D2_SIGMA, D2_RHO), (D3_SIGMA, D3_RHO)])
def test_classical_gap_matches_high_precision_sum(sigma, rho):
    for n in (1, 2, 5, 16):
        exact = _mp_gap(sigma, rho, n)
        assert abs(reference.classical_gap(sigma, rho, n) - float(exact)) <= 1e-14 * float(exact)


def test_classical_gap_reaches_the_chi2_asymptote():
    n = 2**20
    asymptote = reference.chi2(D2_SIGMA, D2_RHO) / (2 * (n + 1))
    assert abs(reference.classical_gap(D2_SIGMA, D2_RHO, n) / asymptote - 1) <= 1e-6


def test_type_blocks_enumerate_every_type_once():
    n_total = 40
    reference._BLOCK_ROWS, saved = 100, reference._BLOCK_ROWS   # force several blocks
    try:
        rows = np.concatenate(list(reference._type_blocks(n_total, 3)))
    finally:
        reference._BLOCK_ROWS = saved
    assert len(rows) == math.comb(n_total + 2, 2)
    assert len({tuple(r) for r in rows.tolist()}) == len(rows)
    assert np.all(rows >= 0) and np.all(rows.sum(axis=1) == n_total)


def test_log_excess_is_accurate_on_both_branches():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    xs = [-0.9, -0.5, -0.4999, -0.1, -1e-3, -1e-9, 1e-9, 1e-3, 0.1, 0.4999, 0.5, 0.7, 3.0]
    got = np.exp(reference.log_excess(np.array(xs)))
    for x, g in zip(xs, got):
        r = 1 + mpmath.mpf(x)
        want = r * mpmath.log(r) - r + 1
        assert abs(g - float(want)) <= 1e-14 * float(want), x


# ---------------------------------------------------------------------------
# quantum reference
# ---------------------------------------------------------------------------

def test_quantum_reference_agrees_with_classical_on_commuting_states():
    sigma, rho = np.diag(D3_SIGMA).astype(complex), np.diag(D3_RHO).astype(complex)
    for n in (1, 2, 3):
        _, gap = reference.quantum_mixing(sigma, rho, n)
        assert abs(gap - reference.classical_gap(D3_SIGMA, D3_RHO, n)) <= 1e-13


def test_quantum_reference_matches_dense_route():
    sigma, rho = workloads.draw_qubit_pair(np.random.default_rng(4))
    for n in (1, 2, 3, 4):
        rec = mixing.mixing_entropy(DensityOperator(sigma), DensityOperator(rho), n, method="dense")
        s_mix, gap = reference.quantum_mixing(sigma, rho, n)
        assert abs(rec.s_mix - s_mix) <= 1e-10 and abs(rec.gap - gap) <= 1e-10


def test_symmetrized_state_is_a_permutation_invariant_state():
    sigma, rho = workloads.draw_qubit_pair(np.random.default_rng(5))
    r = reference.symmetrized_state(sigma, rho, 2)
    assert abs(np.trace(r) - 1) < 1e-14
    t = r.reshape((2,) * 6)
    swapped = t.transpose(1, 0, 2, 4, 3, 5)        # exchange systems 0 and 1
    assert np.max(np.abs(swapped - t)) < 1e-15


# ---------------------------------------------------------------------------
# workload inputs and checks
# ---------------------------------------------------------------------------

def test_inputs_depend_only_on_the_seed():
    a = [workloads.draw_near(np.random.default_rng(3), D3_RHO) for _ in range(2)]
    assert a[0] == a[1]
    p = np.array(a[0])
    assert abs(p.sum() - 1) < 1e-15
    assert np.all(np.abs(p - D3_RHO) <= 2 * workloads.PAIR_SPREAD)
    sigma, rho = workloads.draw_qubit_pair(np.random.default_rng(3))
    DensityOperator(sigma), DensityOperator(rho)           # valid states
    assert np.max(np.abs(sigma @ rho - rho @ sigma)) > 1e-3


def _sweep_call(tmp_path, label, config):
    out = tmp_path / label
    rc = main(["mix-sweep", "--config", str(config), "--out-dir", str(out)])
    return workloads.CallResult(rc, "", out)


def test_classical_check_counts_bad_records(tmp_path):
    wl = workloads.ClassicalSweepWorkload.__new__(workloads.ClassicalSweepWorkload)
    n_list = [1, 2, 4]
    config = tmp_path / "c.json"
    config.write_text(json.dumps(workloads._sweep_config(
        {"p": D2_SIGMA}, {"p": D2_RHO}, n_list, "classical-exact"
    )))
    refs = {n: reference.classical_gap(D2_SIGMA, D2_RHO, n) for n in n_list}
    refs[4] *= 1.5                                          # a reference the record misses
    wl.sweeps = [("d2", config, refs)]
    tally = workloads.Tally()
    wl.check({"d2": _sweep_call(tmp_path, "d2", config)}, tally)
    assert tally.attempted == 3
    assert len(tally.failures) == 1 and tally.failures[0].startswith("d2 n=4:")


def test_call_problem_catches_a_tampered_output(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(workloads._sweep_config(
        {"p": D2_SIGMA}, {"p": D2_RHO}, [1, 2, 4], "classical-exact"
    )))
    res = _sweep_call(tmp_path, "d2", config)
    assert workloads._call_problem(res) is None
    (res.out_dir / "records.csv").write_text("n,method\n")
    assert "records.csv" in workloads._call_problem(res)


def test_verify_check_flags_changed_report_bytes(tmp_path):
    tally = workloads.Tally()
    wl = workloads.VerifyWorkload(9, tmp_path)
    for k in range(2):
        out = tmp_path / f"it{k}"
        out.mkdir()
        report = {"criteria": [{"id": c, "status": "pass"} for c in range(1, 10)], "k": k}
        (out / "verify_report.json").write_text(json.dumps(report))
        timings = {f"criterion_{c}": 1.0 for c in range(1, 10)}
        digest = hashlib.sha256((out / "verify_report.json").read_bytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(
            {"timings_ms": timings, "outputs": {"verify_report.json": digest}}
        ))
        wl.check({"verify": workloads.CallResult(0, "", out)}, tally)
    assert tally.attempted == 18
    assert len(tally.failures) == 9                          # every op of iteration 1
    assert all("differ" in f for f in tally.failures)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_restores_every_patched_attribute():
    import numpy
    originals = (numpy.kron, numpy.linalg.eigvalsh, mixing.gammaln,
                 mixing.entropy_of_spectrum, mixing.TypeClassSpectrum.__dict__["entropy"])
    tracer = spans.Tracer()
    tracer.install()
    assert numpy.kron is not originals[0]
    assert mixing.entropy_of_spectrum is not originals[3]
    tracer.uninstall()
    assert (numpy.kron, numpy.linalg.eigvalsh, mixing.gammaln,
            mixing.entropy_of_spectrum, mixing.TypeClassSpectrum.__dict__["entropy"]) == originals


def _traced_sweep(tmp_path, sigma, rho, n_list, method):
    config = tmp_path / f"{method}.json"
    config.write_text(json.dumps(workloads._sweep_config(sigma, rho, n_list, method)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.iteration = 0
        out = tmp_path / method
        assert main(["mix-sweep", "--config", str(config), "--out-dir", str(out)]) == 0
    finally:
        tracer.uninstall()
    return tracer, spans.layer_metrics(tracer.spans, [{}])


def test_traced_dense_sweep_counts_its_eigensolves_and_build(tmp_path):
    sigma, rho = workloads.draw_qubit_pair(np.random.default_rng(1))
    n_list = [1, 2, 3]
    tracer, m = _traced_sweep(
        tmp_path, workloads._matrix_json(sigma), workloads._matrix_json(rho), n_list, "dense"
    )
    assert m["mixing.eigvalsh_calls"] == len(n_list)
    assert m["mixing.eigvalsh_complex_share"] == 1.0
    assert m["mixing.dense_matrix_bytes_max"] == 16 * 16 * 16        # complex 2^4 x 2^4
    # prefix rho^k for k = 1..n, then two krons per slot
    assert m["mixing.kron_bytes"] == sum(
        16 * sum(4**k for k in range(1, n + 1))
        + 16 * sum(2 ** (2 * (k + 1)) + 4 ** (n + 1) for k in range(n + 1))
        for n in n_list
    )
    assert m["mixing.type_classes"] == 0
    assert len(json.loads(json.dumps(tracer.dump()))) == len(tracer.spans)
    by_id = {s.sid: s for s in tracer.spans}
    for s in tracer.spans:
        assert s.iteration == 0 and s.end >= s.start
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end


def test_traced_classical_sweep_runs_no_dense_code(tmp_path):
    n_list = [1, 2, 4, 8]
    _, m = _traced_sweep(tmp_path, {"p": D3_SIGMA}, {"p": D3_RHO}, n_list, "classical-exact")
    assert m["mixing.eigvalsh_calls"] == 0 and m["mixing.dense_build_s"] == 0
    assert m["mixing.type_classes"] == sum(math.comb(n + 3, 2) for n in n_list)
    assert 0 < m["mixing.type_spectrum_self_s"] < m["mixing.type_spectrum_s"]


def test_self_time_subtracts_only_direct_children():
    s = [
        spans.Span(0, "mixing.convergence_sweep", None, 0, 0.0, 10.0),
        spans.Span(1, "mixing.mixing_entropy", 0, 0, 1.0, 4.0),
        spans.Span(2, "mixing.mixing_entropy", 0, 0, 5.0, 9.0),
        spans.Span(3, "mixing.type_class_spectrum", 1, 0, 1.5, 3.5, {"types": 10}),
    ]
    m = spans.layer_metrics(s, [{}])
    assert m["mixing.sweep_self_s"] == pytest.approx(3.0)
    assert m["mixing.type_spectrum_s"] == pytest.approx(2.0)
    assert m["mixing.types_per_s"] == pytest.approx(5.0)
