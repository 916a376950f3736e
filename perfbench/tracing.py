"""Spans around the library's public functions, recorded from outside.

``Tracer.patch()`` replaces each traced function by a wrapper in every module
namespace its callers look it up in (``nhfermi.figure.exact_expectations`` as
well as ``nhfermi.thermo.exact_expectations``), and puts the originals back on
exit.  A span holds name, start, end, parent span and op id, plus a count or
key taken from the call where a per-layer metric needs one.  Spans stay in
memory; ``layer_metrics`` reduces them when the run ends.
"""

import contextlib
import importlib
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at op level
    op: int
    count: int = 0
    key: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _n_modes(_args, result):
    return result.n_modes or 0


def _nnz(_args, result):
    return result.nnz


def _gamma(args, _result):
    return args[0].gamma


# span name -> (defining module, modules that call it by that name, count, key)
TRACED = {
    "thermo.exact_expectations": ("thermo", ("thermo", "figure"), _n_modes, None),
    "thermo.exact_log_z": ("thermo", ("thermo",), None, None),
    "thermo.em_expectations": ("thermo", ("thermo", "figure"), None, None),
    "figure.figure_records": ("figure", ("figure",), None, None),
    "figure.generate_curve": ("figure", ("figure",), None, None),
    "figure.records_to_csv": ("figure", ("figure",), None, None),
    "figure.containment_check": ("figure", ("figure",), None, None),
    "metric.build_metric": ("metric", ("metric",), None, None),
    "metric.conjugate_generator": ("metric", ("metric",), None, _gamma),
    "metric.hermitized_hamiltonian": ("metric", ("metric",), None, _gamma),
    "operators.dense_spectrum": ("operators", ("operators",), None, None),
    "operators.dense_biorthogonal": ("operators", ("operators",), None, None),
    "fock.anticommutator": ("fock", ("fock",), _nnz, None),
    "fock.physical_inner_fock": ("fock", ("fock",), None, None),
    "fock.build_pseudo_fermions": ("fock", ("fock",), None, None),
    "fock.diagonal_form_residual": ("fock", ("fock",), None, None),
    "fock.joint_spectrum": ("fock", ("fock",), None, None),
    "fock.one_particle_metric": ("fock", ("fock",), None, None),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def _wrap(self, name, fn, count, key):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(
                    name, start, end, parent, self.op,
                    count(args, result) if count and result is not None else 0,
                    key(args, result) if key else None)

        return traced

    @contextlib.contextmanager
    def patch(self):
        saved = []
        try:
            for name, (home, callers, count, key) in TRACED.items():
                attr = name.split(".", 1)[1]
                fn = getattr(importlib.import_module(f"nhfermi.{home}"), attr)
                wrapper = self._wrap(name, fn, count, key)
                for caller in callers:
                    mod = importlib.import_module(f"nhfermi.{caller}")
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(spans, op_seconds, main_layers):
    """Per-layer metrics of one traced pass (see BENCHMARK.json ``per_layer``)."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.duration for s in by_name.get(name, ()))

    out = {}
    for name in ("thermo.exact_expectations", "thermo.exact_log_z",
                 "operators.dense_spectrum", "fock.anticommutator",
                 "fock.physical_inner_fock"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("thermo.exact_expectations", "thermo.exact_log_z",
                 "thermo.em_expectations", "figure.figure_records",
                 "figure.records_to_csv", "figure.containment_check",
                 "metric.build_metric", "metric.hermitized_hamiltonian",
                 "operators.dense_spectrum", "operators.dense_biorthogonal",
                 "fock.anticommutator", "fock.physical_inner_fock",
                 "fock.build_pseudo_fermions", "fock.diagonal_form_residual",
                 "fock.joint_spectrum"):
        out[f"{name}.busy_s"] = (busy(name), "s")

    modes = sum(s.count for s in by_name.get("thermo.exact_expectations", ()))
    exact_busy = busy("thermo.exact_expectations")
    out["thermo.modes_summed"] = (modes, "count")
    out["thermo.modes_per_s"] = (modes / exact_busy if exact_busy else 0.0, "1/s")

    # figure's own time: figure_records minus the thermo spans beneath it
    thermo_below = 0.0
    for s in spans:
        if layer_of(s.name) == "thermo" and any(
                a.name == "figure.figure_records" for a in _ancestors(spans, s)):
            thermo_below += s.duration
    out["figure.self_s"] = (busy("figure.figure_records") - thermo_below, "s")
    out["figure.generate_curve.max_s"] = (
        max((s.duration for s in by_name.get("figure.generate_curve", ())), default=0.0), "s")

    # the first conjugation at a gamma builds the mpmath frames; later ones reuse them
    cold = warm = 0.0
    seen = set()
    for s in spans:
        if s.key is None:
            continue
        if s.name == "metric.conjugate_generator":
            if s.key in seen:
                warm += s.duration
            else:
                cold += s.duration
        seen.add(s.key)
    out["metric.conjugate_generator.cold_s"] = (cold, "s")
    out["metric.conjugate_generator.warm_s"] = (warm, "s")

    out["fock.anticommutator.nnz"] = (
        sum(s.count for s in by_name.get("fock.anticommutator", ())), "count")

    # share of op time spent inside the workload's main layers (outermost spans only)
    main = sum(s.duration for s in spans
               if layer_of(s.name) in main_layers
               and not any(layer_of(a.name) in main_layers for a in _ancestors(spans, s)))
    out["trace.main_layer_share"] = (main / op_seconds if op_seconds else 0.0, "share")
    return out


def _ancestors(spans, span):
    p = span.parent
    while p >= 0:
        yield spans[p]
        p = spans[p].parent
