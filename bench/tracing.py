"""Spans and counters around nonlocper's public functions, installed from
outside the library.

`Tracer.install` replaces each traced function everywhere it is bound: on
its own module, on every nonlocper module that imported it by name (for
example `wrap_kernel` in `operator` and `rearrange`, `apply_pv` in
`minimize`) and, for methods, on every class of the module that defines
one.  Calls
inside the library resolve these names at call time, so nested calls are
traced too.  `uninstall` puts the originals back.

A span is `[name, start, end, parent, (pass, task), tag]`; spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the durations of its direct traced children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.integrate import IntegrationWarning

SYMBOL_FAMILIES = ("fraclap_quad", "delaunay", "compact", "laplace", "sinetail")
_FAMILY_OF_CLASS = {"FractionalKernel": "fraclap", "DelaunayKernel": "delaunay",
                    "CompactKernel": "compact", "LaplaceKernel": "laplace",
                    "SineTailKernel": "sinetail", "CustomKernel": "custom"}


def is_kernel_integration_warning(w) -> bool:
    """A scipy IntegrationWarning raised from nonlocper's kernels module."""
    return (issubclass(w.category, IntegrationWarning)
            and Path(w.filename).parts[-2:] == ("nonlocper", "kernels.py"))


def _inside(tracer, name: str) -> bool:
    return any(tracer.spans[i][0] == name for i in tracer.stack)


def _enter_eval(tracer, span, args, kwargs):
    u, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    pts = int(np.size(x))
    c = tracer.counts[tracer.pass_no]
    c["grids.eval.points"] += pts
    c["grids.eval.bytes_computed"] += pts * u.grid.size * 16
    if _inside(tracer, "operator.apply_pv"):
        c["operator.apply_pv.eval_points"] += pts
    if _inside(tracer, "circle_dtn.poisson_extension"):
        c["circle_dtn.poisson_extension.points"] += pts


def _enter_profile(tracer, span, args, kwargs):
    t = args[1] if len(args) > 1 else kwargs["t"]
    tracer.counts[tracer.pass_no]["kernels.profile.points"] += int(np.size(t))


def _leave_symbol(tracer, span, args, kwargs, out):
    family = _FAMILY_OF_CLASS.get(type(args[0]).__name__, "other")
    if out.provenance == "quadrature":
        if family == "fraclap":
            family = "fraclap_quad"
        tracer.counts[tracer.pass_no]["operator.symbol.modes"] += out.values.size
    span[5] = family


def _leave_minimize(tracer, span, args, kwargs, out):
    c = tracer.counts[tracer.pass_no]
    c["minimize.iterations"] += out.iterations
    c["minimize.accepted_steps"] += out.energy_trace.size - 1


# span name -> (module, attribute, enter hook, leave hook).  An attribute
# "*.name" means the method `name` on every class of the module defining it.
TRACED = {
    "grids.eval": ("nonlocper.grids", "*.eval", _enter_eval, None),
    "grids.derivative": ("nonlocper.grids", "*.derivative", None, None),
    "operator.apply_pv": ("nonlocper.operator", "apply_pv", None, None),
    "operator.apply_spectral": ("nonlocper.operator", "apply_spectral", None, None),
    "operator.symbol_of_kernel": ("nonlocper.operator", "symbol_of_kernel", None, _leave_symbol),
    "operator.symbol_value": ("nonlocper.operator", "symbol_value", None, None),
    "kernels.wrap_kernel": ("nonlocper.kernels", "wrap_kernel", None, None),
    "kernels.classify_kernel": ("nonlocper.kernels", "classify_kernel", None, None),
    "kernels.tail_integral": ("nonlocper.kernels", "*.tail_integral", None, None),
    "kernels.profile": ("nonlocper.kernels", "*.profile", _enter_profile, None),
    "energy.energy": ("nonlocper.energy", "energy", None, None),
    "energy.seminorm_sq_realspace": ("nonlocper.energy", "seminorm_sq_realspace", None, None),
    "rearrange.polya_szego_check": ("nonlocper.rearrange", "polya_szego_check", None, None),
    "rearrange.detect_translate": ("nonlocper.rearrange", "detect_translate", None, None),
    "rearrange.riesz_circle_check": ("nonlocper.rearrange", "riesz_circle_check", None, None),
    "minimize.minimize": ("nonlocper.minimize", "minimize", None, _leave_minimize),
    "minimize.project_constraint": ("nonlocper.minimize", "project_constraint", None, None),
    "minimize.symmetry_diagnostics": ("nonlocper.minimize", "symmetry_diagnostics", None, None),
    "minimize.multiplier_and_residual": ("nonlocper.minimize", "multiplier_and_residual",
                                         None, None),
    "circle_dtn.dtn_poisson": ("nonlocper.circle_dtn", "dtn_poisson", None, None),
    "circle_dtn.poisson_extension": ("nonlocper.circle_dtn", "poisson_extension", None, None),
    "circle_dtn.energy_identity_check": ("nonlocper.circle_dtn", "energy_identity_check",
                                         None, None),
    "cli.validate_config": ("nonlocper.cli", "validate_config", None, None),
    "cli.run": ("nonlocper.cli", "run", None, None),
}

# the README's CLI invocations, in order; cli.<command>.s is reported for each
CLI_COMMANDS = ("symbol", "apply", "energy", "rearrange", "polya-szego", "riesz",
                "minimize", "maxprinciple", "kernel-class", "regularity",
                "dtn-check")

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order
LAYER_METRICS = [
    ("grids.eval.calls", "count", "lower"),
    ("grids.eval.points", "count", "lower"),
    ("grids.eval.self_s", "s", "lower"),
    ("grids.eval.bytes_computed", "B", "lower"),
    ("grids.derivative.calls", "count", "lower"),
    ("operator.apply_pv.calls", "count", "lower"),
    ("operator.apply_pv.self_s", "s", "lower"),
    ("operator.apply_pv.ms_per_point", "ms", "lower"),
    ("operator.apply_pv.eval_points_per_call", "count", "lower"),
    ("operator.apply_spectral.self_s", "s", "lower"),
    ("operator.symbol_value.calls", "count", "lower"),
    *[(f"operator.symbol.{f}.s", "s", "lower") for f in SYMBOL_FAMILIES],
    ("operator.symbol.ms_per_mode", "ms", "lower"),
    ("kernels.wrap_kernel.calls", "count", "lower"),
    ("kernels.wrap_kernel.self_s", "s", "lower"),
    ("kernels.tail_integral.calls", "count", "lower"),
    ("kernels.tail_integral.self_s", "s", "lower"),
    ("kernels.profile.points", "count", "lower"),
    ("kernels.profile.self_s", "s", "lower"),
    ("kernels.classify_kernel.self_s", "s", "lower"),
    ("kernels.integration_warnings", "count", "lower"),
    ("energy.energy.calls", "count", "lower"),
    ("energy.energy.self_s", "s", "lower"),
    ("energy.seminorm_sq_realspace.self_s", "s", "lower"),
    ("rearrange.polya_szego_check.self_s", "s", "lower"),
    ("rearrange.detect_translate.calls", "count", "lower"),
    ("rearrange.detect_translate.self_s", "s", "lower"),
    ("rearrange.riesz_circle_check.self_s", "s", "lower"),
    ("minimize.minimize.self_s", "s", "lower"),
    ("minimize.iterations", "count", "lower"),
    ("minimize.energy_evals_per_step", "ratio", "lower"),
    ("minimize.project_constraint.calls", "count", "lower"),
    ("minimize.symmetry_diagnostics.self_s", "s", "lower"),
    ("minimize.symmetry_diagnostics.share", "ratio", "lower"),
    ("circle_dtn.dtn_poisson.self_s", "s", "lower"),
    ("circle_dtn.poisson_extension.points", "count", "lower"),
    ("circle_dtn.energy_identity_check.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import.scipy_s", "s", "lower"),
    ("cli.validate_config.self_s", "s", "lower"),
    *[(f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS],
    ("bench.trace_overhead", "ratio", "lower"),
]


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts = defaultdict(Counter)  # pass number -> counters
        self.pass_no = 0
        self.task = (0, None)  # (pass number, task name) of the spans being recorded
        self._undo: list = []

    def _wrap(self, name, fn, enter, leave):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, None]
            if enter is not None:
                enter(self, span, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if leave is not None:
                leave(self, span, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function that is loaded."""
        mods = [m for n, m in list(sys.modules.items())
                if (n == "nonlocper" or n.startswith("nonlocper.")) and m is not None]
        for name, (modname, attr, enter, leave) in TRACED.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            if attr.startswith("*."):
                meth = attr[2:]
                for cls in vars(mod).values():
                    if (inspect.isclass(cls) and cls.__module__ == modname
                            and meth in vars(cls)):
                        self._replace(cls, meth, self._wrap(
                            name, vars(cls)[meth], enter, leave))
            else:
                fn = getattr(mod, attr)
                wrapped = self._wrap(name, fn, enter, leave)
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            self._replace(m, key, wrapped)

    def _replace(self, owner, key, wrapped) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def merge(self, spans: list, counts: dict) -> None:
        """Adopt spans and counters recorded by a traced child process."""
        base = len(self.spans)
        for name, start, end, parent, _task, tag in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               self.task, tag])
        self.counts[self.pass_no].update(counts)


def summarize(spans: list, pass_no: int) -> dict:
    """Per span name: calls, inclusive seconds, self seconds; plus inclusive
    seconds per (name, tag)."""
    child = defaultdict(float)
    for sp in spans:
        if sp[4][0] == pass_no and sp[3] >= 0:
            child[sp[3]] += sp[2] - sp[1]
    out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    tagged = defaultdict(float)
    for i, sp in enumerate(spans):
        if sp[4][0] != pass_no:
            continue
        dur = sp[2] - sp[1]
        row = out[sp[0]]
        row["calls"] += 1
        row["total"] += dur
        row["self"] += dur - child[i]
        if sp[5] is not None:
            tagged[(sp[0], sp[5])] += dur
    return {"by_name": out, "by_tag": tagged}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pass_metrics(summary: dict, counts: Counter) -> dict:
    """Per-layer metrics of one traced pass (the cli import, per-command and
    overhead entries are filled in by the runner)."""
    s, tag = summary["by_name"], summary["by_tag"]

    def calls(n):
        return s[n]["calls"] if n in s else 0

    def self_s(n):
        return s[n]["self"] if n in s else 0.0

    def total(n):
        return s[n]["total"] if n in s else 0.0

    quad_s = sum(v for (n, f), v in tag.items()
                 if n == "operator.symbol_of_kernel" and f in SYMBOL_FAMILIES)
    m = {
        "grids.eval.calls": calls("grids.eval"),
        "grids.eval.points": counts["grids.eval.points"],
        "grids.eval.self_s": self_s("grids.eval"),
        "grids.eval.bytes_computed": counts["grids.eval.bytes_computed"],
        "grids.derivative.calls": calls("grids.derivative"),
        "operator.apply_pv.calls": calls("operator.apply_pv"),
        "operator.apply_pv.self_s": self_s("operator.apply_pv"),
        "operator.apply_pv.ms_per_point": 1e3 * _ratio(
            total("operator.apply_pv"), calls("operator.apply_pv")),
        "operator.apply_pv.eval_points_per_call": _ratio(
            counts["operator.apply_pv.eval_points"], calls("operator.apply_pv")),
        "operator.apply_spectral.self_s": self_s("operator.apply_spectral"),
        "operator.symbol_value.calls": calls("operator.symbol_value"),
        **{f"operator.symbol.{f}.s": tag.get(("operator.symbol_of_kernel", f), 0.0)
           for f in SYMBOL_FAMILIES},
        "operator.symbol.ms_per_mode": 1e3 * _ratio(quad_s, counts["operator.symbol.modes"]),
        "kernels.wrap_kernel.calls": calls("kernels.wrap_kernel"),
        "kernels.wrap_kernel.self_s": self_s("kernels.wrap_kernel"),
        "kernels.tail_integral.calls": calls("kernels.tail_integral"),
        "kernels.tail_integral.self_s": self_s("kernels.tail_integral"),
        "kernels.profile.points": counts["kernels.profile.points"],
        "kernels.profile.self_s": self_s("kernels.profile"),
        "kernels.classify_kernel.self_s": self_s("kernels.classify_kernel"),
        "kernels.integration_warnings": counts["kernels.integration_warnings"],
        "energy.energy.calls": calls("energy.energy"),
        "energy.energy.self_s": self_s("energy.energy"),
        "energy.seminorm_sq_realspace.self_s": self_s("energy.seminorm_sq_realspace"),
        "rearrange.polya_szego_check.self_s": self_s("rearrange.polya_szego_check"),
        "rearrange.detect_translate.calls": calls("rearrange.detect_translate"),
        "rearrange.detect_translate.self_s": self_s("rearrange.detect_translate"),
        "rearrange.riesz_circle_check.self_s": self_s("rearrange.riesz_circle_check"),
        "minimize.minimize.self_s": self_s("minimize.minimize"),
        "minimize.iterations": counts["minimize.iterations"],
        # Armijo attempts: residual evaluations minus the first and last
        # evaluation of every minimize call
        "minimize.energy_evals_per_step": _ratio(
            calls("minimize.multiplier_and_residual") - 2 * calls("minimize.minimize"),
            counts["minimize.accepted_steps"]),
        "minimize.project_constraint.calls": calls("minimize.project_constraint"),
        "minimize.symmetry_diagnostics.self_s": self_s("minimize.symmetry_diagnostics"),
        "minimize.symmetry_diagnostics.share": _ratio(
            total("minimize.symmetry_diagnostics"), total("minimize.minimize")),
        "circle_dtn.dtn_poisson.self_s": self_s("circle_dtn.dtn_poisson"),
        "circle_dtn.poisson_extension.points": counts["circle_dtn.poisson_extension.points"],
        "circle_dtn.energy_identity_check.self_s": self_s("circle_dtn.energy_identity_check"),
        "cli.validate_config.self_s": self_s("cli.validate_config"),
    }
    return m


def check_fired(summary: dict, expected: dict) -> None:
    """Each expected span must have fired: exactly n times for an int, at
    least once for None.  A wrapper that is bypassed would otherwise make
    its layer read zero."""
    s = summary["by_name"]
    bad = []
    for name, n in expected.items():
        got = s[name]["calls"] if name in s else 0
        if (n is None and got == 0) or (n is not None and got != n):
            bad.append(f"{name}: fired {got}, expected {'>0' if n is None else n}")
    if bad:
        raise RuntimeError("tracer wrappers did not fire as expected: " + "; ".join(bad))
