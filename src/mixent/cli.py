"""Command-line front end: config ingestion, seeded runs, result persistence.

One tool, five subcommands (gibbs | collide | mix-sweep | appendix | verify).
A run is one JSON config file plus flag overrides; PARAMS lists each
subcommand's parameters and flags, and any other config key exits 2. A valid
run writes its outputs plus a manifest with the resolved config, version, wall
times, and sha256 digests of each output file; an invalid one writes nothing.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .collisions import (
    DENSE_DIM_CAP,
    CollisionSpec,
    run_collision_sequence,
)
from .combinatorics import (
    FORMULA_PAIRS,
    TYPICALITY_RHO,
    appendix_checks,
    random_distribution_pairs,
)
from .errors import CapExceededError, MixentError
from .mixing import METHODS, convergence_sweep, records_to_csv
from .states import (
    ClassicalDistribution,
    DensityOperator,
    HermitianOperator,
    UnitaryOperator,
    gibbs_state,
    nats_to_bits,
    random_haar_unitary,
    random_hermitian,
    von_neumann_entropy,
)
from .verify import DEFAULT_TOLERANCES, VerifyConfig, run_acceptance

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_CAP = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved run description: defaults < config file < command-line flags."""

    command: str
    seed: int | None
    units: str
    dense_cap: int
    out_dir: Path
    params: dict

    def __post_init__(self):
        if self.units not in ("nats", "bits"):
            raise ConfigError(f"units must be 'nats' or 'bits', got {self.units!r}")
        # these commands' outputs carry no *_bits companions
        if self.units == "bits" and self.command in ("mix-sweep", "verify"):
            raise ConfigError(f"{self.command} reports nats only; units 'bits' is refused")
        if _checked("dense_cap", self.dense_cap, int) < 1:
            raise ConfigError(f"dense_cap must be positive, got {self.dense_cap}")
        if self.seed is not None and _checked("seed", self.seed, int) < 0:
            raise ConfigError(f"'seed' must be >= 0, got {self.seed}")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError(
                "this run draws random instances: provide a seed "
                "(--seed or config 'seed')"
            )
        return self.seed

    def snapshot(self) -> dict:
        return {
            "seed": self.seed,
            "units": self.units,
            "dense_cap": self.dense_cap,
            "command": {"name": self.command, "params": self.params},
        }


def resolve_config(args) -> ExperimentConfig:
    base = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            base = _checked("config file", json.load(fh), dict)
    _refuse_unknown(base, ("seed", "units", "dense_cap", "command"), "config key")
    command = _checked("command", base.get("command", {}), dict)
    _refuse_unknown(command, ("name", "params"), "'command' key")
    name = command.get("name")
    if name is not None and name != args.subcommand:
        raise ConfigError(
            f"config names command {name!r} but subcommand {args.subcommand!r} was invoked"
        )
    params = _checked("params", command.get("params", {}), dict)
    _, help_text, accepted = PARAMS[args.subcommand]
    _refuse_unknown(params, accepted, f"{args.subcommand} parameter", f" ({help_text})")
    for key, value in vars(args).items():
        if key.startswith("param_") and value is not None:
            params[key[len("param_"):]] = value

    seed = args.seed if args.seed is not None else base.get("seed")
    units = args.units if args.units is not None else base.get("units", "nats")
    dense_cap = (
        args.dense_cap
        if args.dense_cap is not None
        else base.get("dense_cap", DENSE_DIM_CAP)
    )
    return ExperimentConfig(
        command=args.subcommand,
        seed=seed,
        units=units,
        dense_cap=dense_cap,
        out_dir=Path(args.out_dir),
        params=params,
    )


def _refuse_unknown(given: dict, accepted, what: str, note: str = "") -> None:
    unknown = sorted(set(given) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown {what} {unknown[0]!r}; accepted: {sorted(accepted)}{note}")


def _checked(key: str, value, kind):
    """value as kind (a bool only as bool; an int passes as a float)."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key!r} must be of type {kind.__name__}, got {value!r}")
    return kind(value)


def _param(params: dict, key: str, kind, default=None):
    """params[key] read by _checked; default if absent, required if that is None."""
    if key not in params:
        if default is None:
            raise ConfigError(f"missing required parameter {key!r}")
        return default
    return _checked(key, params[key], kind)


def _list_param(params: dict, key: str, kind) -> list:
    return [_checked(key, x, kind) for x in _param(params, key, list)]


def _object_param(params: dict, key: str) -> dict:
    """A required JSON object, inline or as the path of a file holding one."""
    value = params.get(key)
    if value is None:
        raise ConfigError(f"missing required parameter {key!r}")
    if isinstance(value, str):
        with open(value, encoding="utf-8") as fh:
            value = json.load(fh)
    return _checked(key, value, dict)


def _operator_param(params: dict, key: str, kind):
    """params[key] as kind, from a matrix {"dim": d, "re": [...], "im": [...]}.

    A DensityOperator may instead be a distribution {"p": [...]}, returned as
    a ClassicalDistribution. Values are read like config values; any other
    key exits 2.
    """
    obj = _object_param(params, key)
    try:
        if kind is DensityOperator and "p" in obj:
            _refuse_unknown(obj, ("p",), "distribution key")
            return ClassicalDistribution(_list_param(obj, "p", float))
        _refuse_unknown(obj, ("dim", "re", "im"), "matrix key")
        dim = _param(obj, "dim", int)
        re, im = ([[_checked(part, x, float) for x in row] for row in _list_param(obj, part, list)]
                  for part in ("re", "im"))
        if dim < 1 or {len(re), len(im), *map(len, re + im)} != {dim}:
            raise ConfigError(f"'re' and 'im' must each be {dim} lists of {dim} numbers, "
                              "and 'dim' >= 1")
    except ConfigError as exc:
        raise ConfigError(f"parameter {key!r}: {exc}") from exc
    return kind(np.array(re, dtype=float) + 1j * np.array(im, dtype=float))


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _entropy_fields(prefix: str, nats: float, units: str) -> dict:
    fields = {f"{prefix}_nats": nats}
    if units == "bits":
        fields[f"{prefix}_bits"] = nats_to_bits(nats)
    return fields


def _display(nats: float, units: str) -> str:
    if units == "bits":
        return f"{nats_to_bits(nats):.6f} bits"
    return f"{nats:.6f} nats"


class RunWriter:
    """Collects output files and finishes with a digest manifest."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.t0 = time.perf_counter()
        self.outputs = {}

    def write_text(self, name: str, text: str):
        data = text.encode("utf-8")
        self.cfg.out_dir.mkdir(parents=True, exist_ok=True)
        (self.cfg.out_dir / name).write_bytes(data)
        self.outputs[name] = hashlib.sha256(data).hexdigest()

    def write_json(self, name: str, obj: dict):
        self.write_text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def finish(self, timings_ms: dict | None = None):
        manifest = {
            "tool_version": __version__,
            "config": self.cfg.snapshot(),
            "timings_ms": {
                "total": (time.perf_counter() - self.t0) * 1e3,
                **(timings_ms or {}),
            },
            "outputs": self.outputs,
        }
        self.cfg.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.cfg.out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gibbs(cfg: ExperimentConfig) -> int:
    writer = RunWriter(cfg)
    h = _operator_param(cfg.params, "hamiltonian", HermitianOperator)
    beta = _param(cfg.params, "beta", float)
    rho = gibbs_state(h, beta)
    entropy = von_neumann_entropy(rho)
    out = {
        "units": cfg.units,
        "beta": beta,
        "beta_flagged_nonpositive": beta <= 0.0,
        "state": {"dim": rho.dim, "re": rho.entries.real.tolist(),
                  "im": rho.entries.imag.tolist()},
        **_entropy_fields("entropy", entropy, cfg.units),
    }
    writer.write_json("state.json", out)
    writer.finish()
    print(f"gibbs: d={h.dim} beta={beta} S[rho] = {_display(entropy, cfg.units)}")
    if beta <= 0.0:
        print("note: beta <= 0, dissipation-positivity claims do not apply")
    return EXIT_OK


def _collide_instance(cfg: ExperimentConfig):
    if "hamiltonian" not in cfg.params:
        d = _param(cfg.params, "dim", int, 0)
        if d < 2:
            raise ConfigError("collide needs 'hamiltonian' or a random-instance 'dim'")
        h = random_hermitian(cfg.require_seed(), d)
    else:
        h = _operator_param(cfg.params, "hamiltonian", HermitianOperator)
    if "unitary" not in cfg.params or cfg.params["unitary"] == "haar":
        u = random_haar_unitary(cfg.require_seed() + 1, h.dim)
    else:
        u = _operator_param(cfg.params, "unitary", UnitaryOperator)
    return h, u


def cmd_collide(cfg: ExperimentConfig) -> int:
    writer = RunWriter(cfg)
    h, u = _collide_instance(cfg)
    beta = _param(cfg.params, "beta", float)
    collisions = _param(cfg.params, "collisions", int)
    reservoir = _param(cfg.params, "reservoir_size", int)
    spec = CollisionSpec(
        h=h, beta=beta, u=u, collisions=collisions, reservoir_size=reservoir
    )
    ledger = run_collision_sequence(spec)
    writer.write_text("ledger.csv", ledger.to_csv())
    summary = {
        "units": cfg.units,
        "beta": ledger.beta,
        "beta_flagged_nonpositive": ledger.beta <= 0.0,
        "collisions": ledger.collisions,
        "reservoir_size": ledger.reservoir_size,
        "delta_e": ledger.delta_e,
        "commutator_fro": ledger.commutator_fro,
        "identity_residual": ledger.identity_residual,
        **_entropy_fields("dirr_s", ledger.dirr_s, cfg.units),
        **_entropy_fields("s_rel", ledger.s_rel, cfg.units),
        **_entropy_fields("s_rho", ledger.s_rho, cfg.units),
        **_entropy_fields("reservoir_s_info", ledger.reservoir_s_info, cfg.units),
    }
    writer.write_json("summary.json", summary)
    writer.finish()
    print(
        f"collide: beta*DeltaE = {ledger.dirr_s!r} vs S[sigma|rho] = {ledger.s_rel!r} "
        f"(scaled residual {ledger.identity_residual:.3e})"
    )
    print(
        f"collide: {collisions} collisions, reservoir entropy constant at "
        f"{_display(ledger.reservoir_s_info, cfg.units)}"
    )
    return EXIT_OK


def _resolve_n_list(params: dict) -> list:
    if "n_list" in params:
        return _list_param(params, "n_list", int)
    if "n_grid" in params:
        grid = _param(params, "n_grid", dict)
        _refuse_unknown(grid, ("start", "factor", "count"), "'n_grid' key")
        start = _param(grid, "start", int, 1)
        factor = _param(grid, "factor", int, 2)
        count = _param(grid, "count", int, 10)
        return [start * factor**k for k in range(count)]
    raise ConfigError("mix-sweep needs 'n_list' or 'n_grid'")


def _gap_plot_svg(records) -> str:
    """Minimal self-contained log-log polyline of gap(n); deterministic bytes."""
    points = [(r.n, r.gap) for r in records if r.gap > 0]
    width, height, margin = 640, 440, 60
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<text x="{width // 2}" y="24" text-anchor="middle" font-size="15">'
        "entropy-of-mixing gap vs n (log-log)</text>\n"
    )
    if len(points) < 2:
        return head + '<text x="60" y="220" font-size="13">no positive gaps to plot</text>\n</svg>\n'
    xs = [math.log10(n) for n, _ in points]
    ys = [math.log10(g) for _, g in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = lambda x: margin + (x - x0) / max(x1 - x0, 1e-12) * (width - 2 * margin)
    sy = lambda y: height - margin - (y - y0) / max(y1 - y0, 1e-12) * (height - 2 * margin)
    path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    axes = (
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>\n'
        f'<text x="{width // 2}" y="{height - 18}" text-anchor="middle" '
        f'font-size="13">log10 n in [{x0:.2f}, {x1:.2f}]</text>\n'
        f'<text x="18" y="{height // 2}" font-size="13" transform="rotate(-90 18 '
        f'{height // 2})" text-anchor="middle">log10 gap in [{y0:.2f}, {y1:.2f}]</text>\n'
    )
    return (
        head + axes
        + f'<polyline points="{path}" fill="none" stroke="#1f5fa8" stroke-width="2"/>\n'
        + "</svg>\n"
    )


def cmd_mix_sweep(cfg: ExperimentConfig) -> int:
    writer = RunWriter(cfg)
    sigma = _operator_param(cfg.params, "sigma", DensityOperator)
    rho = _operator_param(cfg.params, "rho", DensityOperator)
    n_list = _resolve_n_list(cfg.params)
    method = _param(cfg.params, "method", str, "auto")
    svg = _param(cfg.params, "svg", bool, False)
    records = convergence_sweep(sigma, rho, n_list, method=method, dense_cap=cfg.dense_cap)
    writer.write_text("records.csv", records_to_csv(records))
    plot_lines = ["n,gap_nats"] + [f"{r.n},{r.gap!r}" for r in records]
    writer.write_text("gap_plot.csv", "\n".join(plot_lines) + "\n")
    if svg:
        writer.write_text("plot.svg", _gap_plot_svg(records))
    writer.finish()
    last = records[-1]
    print(
        f"mix-sweep: {len(records)} points, method {last.method}; "
        f"final gap {last.gap:.3e} at n={last.n}"
    )
    return EXIT_OK


APPENDIX_DEFAULT_PAIRS = [
    ([0.25, 0.75], [0.75, 0.25]),
    ([0.5, 0.5], [0.9, 0.1]),
    ([0.1, 0.2, 0.7], [0.3, 0.4, 0.3]),
    ([0.05, 0.95], [0.5, 0.5]),
]


def cmd_appendix(cfg: ExperimentConfig) -> int:
    writer = RunWriter(cfg)
    rho = ClassicalDistribution(TYPICALITY_RHO)
    if "rho" in cfg.params:
        rho = _operator_param(cfg.params, "rho", DensityOperator)
    if not isinstance(rho, ClassicalDistribution):
        raise ConfigError("appendix 'rho' must be a distribution {\"p\": [...]}")
    if cfg.seed is not None:
        pairs = random_distribution_pairs(cfg.seed, FORMULA_PAIRS)
    else:
        pairs = APPENDIX_DEFAULT_PAIRS
    checks = appendix_checks(rho, pairs)
    typicality_ok = checks["deficits_decreasing"] and all(d >= 0 for d in checks["deficits"])
    formula_ok = checks["max_formula_err"] < DEFAULT_TOLERANCES["increase_formula"]
    all_ok = typicality_ok and checks["insertion_ok"] and formula_ok

    if cfg.units == "bits":
        for row in checks["typicality"]:
            for key in ("lhs_per_symbol", "S_rho", "deficit"):
                row[f"{key}_bits"] = nats_to_bits(row[key])

    report = {
        "units": cfg.units,
        "typicality": checks["typicality"],
        "typicality_ok": typicality_ok,
        "insertion": checks["insertion_rows"],
        "insertion_ok": checks["insertion_ok"],
        "increase_formula_pairs": len(pairs),
        "max_formula_err": checks["max_formula_err"],
        "formula_ok": formula_ok,
        "all_pass": all_ok,
    }
    writer.write_json("report.json", report)
    writer.finish()
    for row in checks["typicality"]:
        print(
            f"appendix: n={row['n']} per-symbol {row['lhs_per_symbol']:.6f} vs "
            f"S[rho]={row['S_rho']:.6f} (deficit {row['deficit']:.3e})"
        )
    print(f"appendix: all checks {'pass' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def cmd_verify(cfg: ExperimentConfig) -> int:
    only = None
    if "criteria" in cfg.params:
        only = tuple(_list_param(cfg.params, "criteria", int))
    vcfg = VerifyConfig(seed=cfg.require_seed(), dense_cap=cfg.dense_cap)
    writer = RunWriter(cfg)
    outcome = run_acceptance(vcfg, only=only)
    writer.write_json("verify_report.json", outcome.report)
    timings = {f"criterion_{r.cid}": r.elapsed_s * 1e3 for r in outcome.results}
    writer.finish(timings_ms=timings)
    for r in outcome.results:
        print(f"criterion {r.cid} {r.name}: {r.status.upper()} ({r.elapsed_s:.2f} s)")
    rep = outcome.report
    print(
        f"verify: {rep['passed']} passed, {rep['failed']} failed, "
        f"{rep['skipped']} skipped"
    )
    return EXIT_OK if outcome.report["all_pass"] else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list:
    return [int(part) for part in text.split(",")]


# subcommand -> (handler, help, {parameter: argparse options of its flag, or
# None when only a config sets it}); a config key a row does not list exits 2
PARAMS = {
    "gibbs": (cmd_gibbs, "build a Gibbs state and report its entropy", {
        "hamiltonian": {"help": "matrix JSON file"}, "beta": {"type": float}}),
    "collide": (cmd_collide, "run a collision sequence, emit the ledger", {
        "hamiltonian": {"help": "matrix JSON file"},
        "unitary": {"help": "matrix JSON file or 'haar'"},
        "beta": {"type": float},
        "collisions": {"type": int},
        "reservoir_size": {"type": int},
        "dim": {"type": int, "help": "random-instance dimension"}}),
    "mix-sweep": (cmd_mix_sweep, "entropy-of-mixing convergence sweep", {
        "sigma": {"help": "state JSON file"},
        "rho": {"help": "state JSON file"},
        "n_list": {"type": _int_list, "help": "comma-separated n values"},
        "n_grid": None,
        "method": {"choices": METHODS},
        "svg": {"action": "store_const", "const": True, "help": "also write a line chart"}}),
    "appendix": (cmd_appendix, "typicality / insertion-factor checks, criterion 7's grids",
                 {"rho": None}),
    "verify": (cmd_verify, "run the acceptance matrix; its tolerances are pinned in "
                           "mixent.verify.DEFAULT_TOLERANCES", {"criteria": None}),
}


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out-dir", default="mixent_out", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--units", choices=["nats", "bits"], default=None)
    parser.add_argument("--dense-cap", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixent",
        description="collision-model friction lab: dissipation identities and "
        "entropy-of-mixing convergence",
    )
    parser.add_argument("--version", action="version", version=f"mixent {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, params) in PARAMS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        for key, flag in params.items():
            if flag is not None:
                p.add_argument("--" + key.replace("_", "-"), dest="param_" + key, **flag)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return PARAMS[args.subcommand][0](cfg)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (MixentError, ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
