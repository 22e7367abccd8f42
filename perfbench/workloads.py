"""The benchmark's workloads: inputs drawn from the seed, CLI calls, checks.

Each workload turns a seed into the CLI invocations of one iteration and
checks every operation of an iteration against an independent reference.
An operation is one verify criterion or one sweep record; it fails when its
call raises or exits badly, when the output manifest does not hash to the
files written, or when the workload's own check below rejects it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import classical_gap, quantum_mixing

# gap = D(R || rho^{(x)(n+1)}) >= 0; below this it is not rounding noise
GAP_FLOOR = -1e-12
CLASSICAL_GAP_REL_TOL = 1e-2
QUANTUM_REF_MAX_N = 5
QUANTUM_ABS_TOL = 1e-10
# Classical pairs are drawn near these (sigma, rho) pairs, d=2 and d=3. The
# fsum work of the program's S[R] route depends on the pair: free draws with
# entries >= 0.05 moved the d=3 sweep's time by a factor up to 1.8 across
# seeds, which would swamp any bound on wall_s. Near a fixed pair every seed
# does the same work, and the d=2 pair still loses its gap at large n.
CLASSICAL_BASE_PAIRS = {
    2: ([0.3, 0.7], [0.7, 0.3]),
    3: ([0.5, 0.3, 0.2], [0.2, 0.35, 0.45]),
}
PAIR_SPREAD = 0.03


@dataclass
class CallResult:
    """One in-process `mixent` invocation: exit code and captured stderr."""

    rc: int | None
    stderr: str
    out_dir: Path
    error: str | None = None


@dataclass
class Tally:
    """Operations attempted and failed over a run, with what the checks saw."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    gap_rel_errs: list = field(default_factory=list)
    report_sha256: list = field(default_factory=list)

    def record(self, op: str, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{op}: {problem}")


def _call_problem(res: CallResult, ok_codes=(0,)) -> str | None:
    """Why a whole call's operations fail, or None when its outputs can be read."""
    if res.error is not None:
        return f"raised {res.error}"
    if res.rc not in ok_codes:
        tail = res.stderr.strip().splitlines()[-1:] or ["no message"]
        return f"exit code {res.rc} ({tail[0]})"
    manifest_path = res.out_dir / "manifest.json"
    if not manifest_path.is_file():
        return "no manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for name, digest in manifest["outputs"].items():
        path = res.out_dir / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            return f"manifest digest of {name} does not match the file"
    return None


def _record_problem(n: int, s_mix: float, gap: float) -> str | None:
    # written as "not within" so that NaN fails too
    if not 0.0 <= s_mix <= math.log(n + 1):
        return f"S_mix {s_mix!r} outside [0, ln(n+1)]"
    if not gap >= GAP_FLOOR:
        return f"gap {gap!r} below {GAP_FLOOR} contradicts D(R||rho^(n+1)) >= 0"
    return None


def _check_records(label: str, res: CallResult, n_list: list, tally: Tally, compare):
    """One operation per sweep record; compare(n, s_mix, gap) returns a problem or None."""
    problem = _call_problem(res)
    rows = _read_records(res.out_dir) if problem is None else {}
    for n in n_list:
        if problem is not None or n not in rows:
            tally.record(f"{label} n={n}", problem or "no record")
            continue
        s_mix, gap = rows[n]
        against_reference = compare(n, s_mix, gap)
        tally.record(f"{label} n={n}", _record_problem(n, s_mix, gap) or against_reference)


def _read_records(out_dir: Path) -> dict:
    """records.csv rows by n: (S_mix, gap)."""
    lines = (out_dir / "records.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    col = {name: header.index(name) for name in ("n", "S_mix_nats", "gap_nats")}
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[int(cells[col["n"]])] = (
            float(cells[col["S_mix_nats"]]), float(cells[col["gap_nats"]])
        )
    return rows


def _sweep_config(sigma: dict, rho: dict, n_list: list, method: str) -> dict:
    return {
        "units": "nats",
        "command": {
            "name": "mix-sweep",
            "params": {"sigma": sigma, "rho": rho, "n_list": n_list, "method": method},
        },
    }


def draw_near(rng: np.random.Generator, base: list) -> list:
    """A probability vector within PAIR_SPREAD of base in every entry."""
    u = rng.uniform(-1.0, 1.0, size=len(base))
    p = np.asarray(base) + PAIR_SPREAD * (u - u.mean())
    return (p / p.sum()).tolist()


def _matrix_json(m: np.ndarray) -> dict:
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def draw_qubit_pair(rng: np.random.Generator) -> tuple:
    """(sigma, rho): rho the beta=1 Gibbs state of a random Hermitian, sigma = U rho U†."""
    a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    energies, basis = np.linalg.eigh((a + a.conj().T) / 2)
    weights = np.exp(-(energies - energies.min()))
    rho = (basis * (weights / weights.sum())) @ basis.conj().T
    rho = (rho + rho.conj().T) / 2
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))        # Haar: fix the phases of R
    sigma = u @ rho @ u.conj().T
    return (sigma + sigma.conj().T) / 2, rho


class VerifyWorkload:
    """`mixent verify --seed <seed>`: the acceptance matrix, nine operations."""

    name = "verify"
    CRITERIA = range(1, 10)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def calls(self) -> list:
        return [("verify", ["verify", "--seed", str(self.seed)])]

    def check(self, results: dict, tally: Tally) -> dict:
        """Check one iteration; return its criterion times in seconds."""
        res = results["verify"]
        # exit code 1 is a failed criterion, which the statuses below count
        problem = _call_problem(res, ok_codes=(0, 1))
        statuses, criteria_s = {}, {}
        if problem is None:
            data = (res.out_dir / "verify_report.json").read_bytes()
            sha = hashlib.sha256(data).hexdigest()
            tally.report_sha256.append(sha)
            if sha != tally.report_sha256[0]:
                problem = "verify_report.json bytes differ from the first iteration"
            statuses = {c["id"]: c["status"] for c in json.loads(data)["criteria"]}
            timings = json.loads((res.out_dir / "manifest.json").read_text())["timings_ms"]
            criteria_s = {c: timings[f"criterion_{c}"] / 1e3 for c in self.CRITERIA}
        for cid in self.CRITERIA:
            status = statuses.get(cid)
            tally.record(
                f"criterion {cid}",
                problem or (
                    "missing from the report" if status is None
                    else "status fail" if status == "fail" else None
                ),
            )
        return criteria_s


class ClassicalSweepWorkload:
    """Two `mix-sweep --method classical-exact` configs on seeded pairs.

    The d=2 grid stops at n = 2^13, where the program's S[R] route is within
    about 5e-4 of the reference gap. From 2^14 the route loses the gap to
    cancellation (4e-3 off at 2^14, 0.1 at 2^15, negative from about 2^17;
    ROADMAP item 1); ClassicalLargeNWorkload runs that region.
    """

    name = "classical-sweep"
    GRIDS = ((2, 13), (3, 11))        # (d, k_max): n = 2^0 .. 2^k_max

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.sweeps = []
        for d, k_max in self.GRIDS:
            sigma_base, rho_base = CLASSICAL_BASE_PAIRS[d]
            sigma = draw_near(rng, sigma_base)
            rho = draw_near(rng, rho_base)
            n_list = [2**k for k in range(k_max + 1)]
            label = f"d{d}"
            config = workdir / f"{label}.json"
            config.write_text(json.dumps(_sweep_config(
                {"p": sigma}, {"p": rho}, n_list, "classical-exact"
            )))
            refs = {n: classical_gap(sigma, rho, n) for n in n_list}
            self.sweeps.append((label, config, refs))

    def calls(self) -> list:
        return [(label, ["mix-sweep", "--config", str(config)])
                for label, config, _ in self.sweeps]

    def check(self, results: dict, tally: Tally) -> dict:
        for label, _, refs in self.sweeps:
            def compare(n, s_mix, gap, refs=refs):
                rel = abs(gap - refs[n]) / refs[n]
                tally.gap_rel_errs.append(rel)
                if not rel <= CLASSICAL_GAP_REL_TOL:
                    return f"gap {gap!r} off the reference {refs[n]!r} by {rel:.3g} relative"
                return None

            _check_records(label, results[label], list(refs), tally, compare)
        return {}


class QuantumSweepWorkload:
    """One `mix-sweep --method dense` run on a seeded non-commuting qubit pair."""

    name = "quantum-sweep"
    N_LIST = list(range(1, 11))

    def __init__(self, seed: int, workdir: Path):
        sigma, rho = draw_qubit_pair(np.random.default_rng(seed))
        self.config = workdir / "quantum.json"
        self.config.write_text(json.dumps(_sweep_config(
            _matrix_json(sigma), _matrix_json(rho), self.N_LIST, "dense"
        )))
        self.refs = {n: quantum_mixing(sigma, rho, n) for n in self.N_LIST
                     if n <= QUANTUM_REF_MAX_N}

    def calls(self) -> list:
        return [("dense", ["mix-sweep", "--config", str(self.config)])]

    def check(self, results: dict, tally: Tally) -> dict:
        def compare(n, s_mix, gap):
            if n not in self.refs:
                return None
            ref_s_mix, ref_gap = self.refs[n]
            tally.gap_rel_errs.append(abs(gap - ref_gap) / ref_gap)
            off = max(abs(s_mix - ref_s_mix), abs(gap - ref_gap))
            if not off <= QUANTUM_ABS_TOL:
                return f"off the harness-built R by {off:.3g}"
            return None

        _check_records("dense", results["dense"], self.N_LIST, tally, compare)
        return {}


class ClassicalLargeNWorkload(ClassicalSweepWorkload):
    """The d=2 classical sweep over n = 2^0 .. 2^20, with the same pair.

    Not a BENCHMARK.json workload: the program fails its records from
    n = 2^15 (ROADMAP item 1), and a scored workload must have none that
    fail. It is run with the others when no workload is named, so the
    failures stay counted until that route is fixed.
    """

    name = "classical-large-n"
    GRIDS = ((2, 20),)


WORKLOADS = {
    w.name: w for w in (VerifyWorkload, ClassicalSweepWorkload, QuantumSweepWorkload,
                        ClassicalLargeNWorkload)
}
