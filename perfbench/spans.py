"""Span recording from outside the program.

A traced run patches module attributes so that the program's own calls pass
through recording wrappers; nothing under src/ knows it is being traced.
Each span holds its name, start, end, parent span, iteration id, and the
attributes its recorder adds (output bytes, caller module, type-class count).
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    iteration: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _result_bytes(result, args):
    return {"bytes": int(result.nbytes)}


def _input_dtype(result, args):
    return {"complex": bool(np.iscomplexobj(args[0]))}


def _dense_matrix_bytes(result, args):
    return {"bytes": int(result.matrix.nbytes)}


def _type_count(result, args):
    return {"types": int(result.counts.shape[0])}


# (module, attribute path, span name, attribute recorder). A function mixent
# defines is replaced in every mixent module that bound it by name, so calls
# through `from .states import entropy_of_spectrum` are traced too. A library
# function is replaced only where named: gammaln as mixing calls it, and
# numpy's kron and eigvalsh, whose spans record the calling module.
TARGETS = (
    ("mixent.cli", "main", "cli.main", None),
    ("mixent.cli", "RunWriter.write_text", "cli.write_text", None),
    ("mixent.cli", "RunWriter.finish", "cli.finish", None),
    ("mixent.verify", "run_acceptance", "verify.run_acceptance", None),
    ("mixent.states", "DensityOperator.__post_init__", "states.density_ctor", None),
    ("mixent.states", "entropy_of_spectrum", "states.entropy_of_spectrum", None),
    ("mixent.mixing", "convergence_sweep", "mixing.convergence_sweep", None),
    ("mixent.mixing", "mixing_entropy", "mixing.mixing_entropy", None),
    ("mixent.mixing", "symmetrized_state_dense", "mixing.symmetrized_state_dense",
     _dense_matrix_bytes),
    ("mixent.mixing", "dense_state_entropy", "mixing.dense_state_entropy", None),
    ("mixent.mixing", "type_class_spectrum", "mixing.type_class_spectrum", _type_count),
    ("mixent.mixing", "TypeClassSpectrum.entropy", "mixing.spectrum_entropy", None),
    ("mixent.mixing", "TypeClassSpectrum.validate", "mixing.spectrum_validate", None),
    ("mixent.mixing", "gammaln", "mixing.gammaln", None),
    ("numpy", "kron", "numpy.kron", _result_bytes),
    ("numpy.linalg", "eigvalsh", "numpy.eigvalsh", _input_dtype),
)


class Tracer:
    """Records spans for every call that passes through an installed wrapper."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, **attrs) -> Span:
        span = Span(
            sid=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            iteration=self.iteration,
            start=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, recorder):
        tracer = self

        def traced(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "?")
            span = tracer.begin(name, caller=caller)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if recorder is not None:
                span.attrs.update(recorder(result, args))
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self):
        """Patch every target; call uninstall() to restore the originals."""
        for module_name, path, span_name, recorder in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self.wrap(original, span_name, recorder)
            owners = [owner]
            defined_in_mixent = getattr(original, "__module__", "").startswith("mixent")
            if not owner_path and defined_in_mixent:
                owners += [
                    m for name, m in sys.modules.items()
                    if name.startswith("mixent") and m is not owner
                    and getattr(m, attr, None) is original
                ]
            for o in owners:
                self._undo.append((o, attr, original))
                setattr(o, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self) -> list:
        return [asdict(s) for s in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _layer_values(spans: list) -> dict:
    """Per-layer metrics of one iteration from its spans."""
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def minus_children(name, child_names=None):
        out = 0.0
        for s in by_name.get(name, ()):
            kids = children.get(s.sid, ())
            covered = sum(
                k.duration for k in kids if child_names is None or k.name in child_names
            )
            out += s.duration - covered
        return out

    build_ids = {s.sid for s in by_name.get("mixing.symmetrized_state_dense", ())}
    eig = [s for s in by_name.get("numpy.eigvalsh", ()) if s.attrs["caller"] == "mixent.mixing"]
    eig_s = sum(s.duration for s in eig)
    eig_complex_s = sum(s.duration for s in eig if s.attrs["complex"])
    spectrum_s = total("mixing.type_class_spectrum")
    type_classes = sum(s.attrs["types"] for s in by_name.get("mixing.type_class_spectrum", ()))
    return {
        "mixing.dense_build_s": total("mixing.symmetrized_state_dense"),
        "mixing.kron_bytes": sum(
            s.attrs["bytes"] for s in by_name.get("numpy.kron", ()) if s.parent in build_ids
        ),
        "mixing.dense_matrix_bytes_max": max(
            (s.attrs["bytes"] for s in by_name.get("mixing.symmetrized_state_dense", ())),
            default=0,
        ),
        "mixing.eigvalsh_s": eig_s,
        "mixing.eigvalsh_calls": len(eig),
        "mixing.eigvalsh_complex_share": eig_complex_s / eig_s if eig_s > 0 else 0.0,
        "mixing.dense_entropy_self_s": minus_children(
            "mixing.dense_state_entropy", {"numpy.eigvalsh"}
        ),
        "states.entropy_of_spectrum_s": total("states.entropy_of_spectrum"),
        "states.density_ctor_s": total("states.density_ctor"),
        "states.density_ctor_calls": len(by_name.get("states.density_ctor", ())),
        "mixing.type_spectrum_s": spectrum_s,
        "mixing.type_spectrum_self_s": minus_children("mixing.type_class_spectrum"),
        "mixing.gammaln_s": total("mixing.gammaln"),
        "mixing.type_classes": type_classes,
        "mixing.types_per_s": type_classes / spectrum_s if spectrum_s > 0 else 0.0,
        "mixing.spectrum_entropy_s": total("mixing.spectrum_entropy"),
        "mixing.spectrum_validate_s": total("mixing.spectrum_validate"),
        "mixing.sweep_self_s": minus_children(
            "mixing.convergence_sweep", {"mixing.mixing_entropy"}
        ),
        "cli.write_s": total("cli.write_text") + total("cli.finish"),
    }


def layer_metrics(spans: list, extras: list) -> dict:
    """Median over the iterations of each per-layer metric.

    extras[i] holds iteration i's metrics read from outside the spans, such
    as the criterion times verify writes to its manifest.
    """
    per_iteration = [[] for _ in extras]
    for s in spans:
        if s.iteration is not None:
            per_iteration[s.iteration].append(s)
    rows = [{**_layer_values(group), **extra} for group, extra in zip(per_iteration, extras)]
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}
