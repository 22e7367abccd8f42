#!/usr/bin/env python3
"""Benchmark harness for mixent, driving the public CLI entry point in-process.

One workload, the form the BENCHMARK.json command is invoked in:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Every workload for one seed, each run untraced and then traced in a fresh
process, with a summary and the tracing overhead; this also runs
classical-large-n, which BENCHMARK.json does not score because the program
fails some of its records:

    python3 perfbench/run.py --seed 9

A run builds its inputs from the seed, times fresh-process imports of
mixent.cli (setup_s), runs timed iterations until --seconds have passed,
checks every operation of every iteration, and prints as its last line one
JSON object: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Metric names and units come from BENCHMARK.json. Result
details go to .perfbench_out/ in the checkout.

The harness is one process that starts no threads; BLAS threading is left at
the user default. Exit code 0 means the run completed, failures or not; 2
means it could not run (no mixent source tree next to it, bad arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import machine_facts
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, CallResult, Tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 600


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def require_source():
    if not (SRC / "mixent" / "cli.py").is_file():
        fail(f"no mixent source tree at {SRC}; run from a checkout of the repository")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_seconds() -> list:
    """Time from starting a fresh interpreter until mixent.cli is imported."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout) - t0)
    return samples


def import_cli():
    sys.path.insert(0, str(SRC))
    import mixent.cli

    if not Path(mixent.cli.__file__).resolve().is_relative_to(SRC):
        fail(f"mixent imported from {mixent.cli.__file__}, not from {SRC}")
    return mixent.cli


def invoke(cli, argv: list, out_dir: Path) -> CallResult:
    """One `mixent` invocation, its stdout and stderr captured, not printed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv + ["--out-dir", str(out_dir)])
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a raise is a counted failure, not a harness crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return CallResult(rc, stderr.getvalue(), out_dir, error)


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def summarize(samples: list) -> dict:
    """Median, quartiles, count, and the highest percentile with ten samples beyond it."""
    n = len(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if n >= 2 else [samples[0]] * 3
    out = {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": n}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(samples, n=100)[pct - 1]
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> int:
    require_source()
    facts = machine_facts(ROOT)
    setup = setup_seconds()
    cli = import_cli()

    TMP.mkdir(exist_ok=True)
    workdir = TMP / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    walls, extras = [], []          # per iteration
    tracer = Tracer() if trace else None

    def run_iteration():
        it_dir = workdir / f"iter{len(walls)}"
        if tracer is not None:
            tracer.iteration = len(walls)
            span = tracer.begin("iteration")
        t0 = time.perf_counter()
        results = {
            label: invoke(cli, argv, it_dir / label)
            for label, argv in workload.calls()
        }
        walls.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end(span)
            tracer.iteration = None
        criteria_s = workload.check(results, tally)
        extras.append({
            **{f"verify.criterion_{c}_s": criteria_s.get(c, 0.0) for c in range(1, 10)},
            "cli.output_bytes": tree_bytes(it_dir),
        })
        shutil.rmtree(it_dir)

    try:
        workload = WORKLOADS[name](seed, workdir)
        if tracer is not None:
            tracer.install()
        try:
            # Every iteration is timed, the first too: a user's `mixent` call
            # is a fresh process, so first-call costs are part of their wait.
            started = time.perf_counter()
            while not walls or time.perf_counter() - started < seconds:
                run_iteration()
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wall = summarize(walls)
    setup_stats = summarize(setup)
    failed = len(tally.failures)
    if trace:
        metrics = layer_metrics(tracer.spans, extras)
        metrics["trace.wall_s"] = wall["median"]
        names = [m["name"] for m in bench["per_layer"]]
    else:
        metrics = {
            "setup_s": setup_stats["median"],
            "wall_s": wall["median"],
            "peak_rss_mb": peak_rss_mb,
        }
        names = [m["name"] for m in bench["end_to_end"]]
    if sorted(metrics) != sorted(names):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    gap_max = max(tally.gap_rel_errs) if tally.gap_rel_errs else None

    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": facts,
        "setup_s": {**setup_stats, "samples": setup},
        "wall_s": {**wall, "samples": walls},
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted, "failed": failed,
        "error_rate": failed / tally.attempted,
        "gap_max_rel_err": gap_max,
        "gap_records": len(tally.gap_rel_errs),
        "verify_report_sha256": tally.report_sha256,
        "failures": tally.failures,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    print_details(details, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names},
    }))
    return 0


def print_details(d: dict, units: dict):
    m = d["machine"]
    env = ", ".join(f"{k}={v}" for k, v in m["blas_thread_env"].items() if v) or "none set"
    print(f"machine: nproc={m['nproc']} (affinity {m['affinity_cpus']}), cpu {m['cpu_model']!r}, "
          f"BLAS {m['blas']} with {m['blas_threads']} threads (thread env: {env}), "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, commit {m['git_commit']}")
    print("harness: the workload runs in this one process (set-up probes ran before it, one "
          "at a time); no threads started; BLAS threading left at the user default")
    print(f"workload: {d['workload']} seed={d['seed']} seconds={d['seconds']} "
          f"trace={int(d['trace'])}")
    s, w = d["setup_s"], d["wall_s"]
    print(f"setup_s: median {s['median']:.4f} s (q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, "
          f"n={s['n']} fresh processes)")
    tail = next((f", {k} {v:.4f} s" for k, v in w.items() if k.startswith("p")), "")
    print(f"wall_s: median {w['median']:.4f} s (q1 {w['q1']:.4f}, q3 {w['q3']:.4f}, n={w['n']} "
          f"iterations{tail}; first iteration {w['samples'][0]:.4f} s)")
    print(f"peak_rss_mb: {d['peak_rss_mb']:.1f} MB (process high-water mark)")
    print(f"error_rate: {d['error_rate']:.4f} "
          f"({d['failed']} of {d['attempted']} operations failed)")
    if d["gap_max_rel_err"] is not None:
        print(f"gap_max_rel_err: {d['gap_max_rel_err']:.4g} (max over {d['gap_records']} "
              "records checked against the harness reference)")
    for i, sha in enumerate(d["verify_report_sha256"]):
        print(f"verify_report.json sha256 iteration {i}: {sha}")
    for line in d["failures"][:12]:
        print(f"failed: {line}")
    if len(d["failures"]) > 12:
        print(f"failed: ... {len(d['failures']) - 12} more in .perfbench_out/")
    if d["trace"]:
        for k, v in d["metrics"].items():
            print(f"layer {k}: {v:.6g} {units[k]}")


# ---------------------------------------------------------------------------
# every workload, each in its own processes
# ---------------------------------------------------------------------------

def run_all(seed: int, seconds: float, bench: dict) -> int:
    require_source()
    rows = []
    status = 0
    scored = [w["name"] for w in bench["workloads"]]
    for name in scored + [n for n in WORKLOADS if n not in scored]:
        per_trace = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                status = proc.returncode
                continue
            per_trace[trace] = json.loads(
                (OUT / f"{name}-seed{seed}-trace{trace}.json").read_text()
            )
        rows.append((name, per_trace))

    print(f"\nsummary, seed {seed}, {seconds} s per run:")
    for name, runs in rows:
        if 0 not in runs:
            print(f"  {name}: no untraced result")
            continue
        d = runs[0]
        w = d["wall_s"]
        line = (f"  {name}: setup_s {d['setup_s']['median']:.3f} s (n={d['setup_s']['n']}); "
                f"wall_s {w['median']:.3f} s [q1 {w['q1']:.3f}, q3 {w['q3']:.3f}, n={w['n']}]; "
                f"peak_rss_mb {d['peak_rss_mb']:.0f} MB (n=1 process); "
                f"error_rate {d['error_rate']:.4f} ({d['failed']}/{d['attempted']})")
        if d["gap_max_rel_err"] is not None:
            line += f"; gap_max_rel_err {d['gap_max_rel_err']:.3g} (n={d['gap_records']})"
        if 1 in runs:
            traced = runs[1]["wall_s"]["median"]
            line += (f"; tracing overhead {traced - w['median']:+.3f} s "
                     f"({(traced / w['median'] - 1) * 100:+.1f}%)")
        print(line)
    return status


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload; omit to run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bench)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), bench)


if __name__ == "__main__":
    sys.exit(main())
