"""Spans around calls into each quenchlab module, recorded from outside.

``Tracer.install`` wraps the public functions the per-layer metrics name.
A function imported by name into other modules (``solve_poisson`` in
``grid``, ``stationary`` and ``evolution``) is rebound in every module that
holds it, so calls through any of those names are seen.  Each call records
a span (name, start, end, parent); spans stay in memory and are written out
once, when the run ends.  ``layer_metrics`` derives per-pass self times and
counts from one pass's spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# span name -> (module, attribute or Class.method) of the wrapped callables
TARGETS = {
    "grid.solve": [("grid", "solve_poisson")],
    "grid.shift": [("grid", "DiscreteOperator.shifted")],
    "grid.eigenpair": [("grid", "principal_laplacian_eigenpair")],
    "model.eval": [("model", "Nonlinearity.value"), ("model", "Nonlinearity.deriv"),
                   ("model", "Nonlinearity.antideriv")],
    "stationary.verdict": [("stationary", "monotone_minimal_solution")],
    "stationary.curve": [("stationary", "trace_critical_curve")],
    "stationary.second": [("stationary", "second_solution_search")],
    "spectra.linearize": [("spectra", "assemble_linearization")],
    "spectra.eigen": [("spectra", "principal_eigenpair")],
    "evolution.simulate": [("evolution", "simulate")],
    "evolution.energy": [("evolution", "lyapunov_energy")],
    "certificates.classify": [("certificates", "classify_case")],
    "certificates.bound": [("certificates", "quench_time_bound"),
                           ("certificates", "verify_quench_bound")],
    "certificates.rate": [("certificates", "rate_certificate")],
    "cli.config": [("cli", "load_config")],
    "cli.write": [("cli", "write_json"), ("cli", "write_table")],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("d")  # per-span quantity read off the call (see _EXTRA)
        self.pass_start: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        nid = self._id(name)
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self.extra.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if extra is not None:
                self.extra[idx] = extra(result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target, rebinding each name that refers to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "quenchlab" or key.startswith("quenchlab."))]
        for span_name, targets in TARGETS.items():
            for module_name, attr in targets:
                owner = sys.modules[f"quenchlab.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._rebind(cls, method, self.span(span_name, vars(cls)[method]))
                    continue
                original = getattr(owner, attr)
                wrapped = self.span(span_name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapped)

    def _rebind(self, holder, key: str, value) -> None:
        self._undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def begin_pass(self) -> None:
        self.pass_start.append(len(self.start))

    def root(self, name: str, fn, *args):
        """Call ``fn`` under a root span (one CLI operation)."""
        return self.span(name, fn)(*args)

    def write(self, path: Path) -> None:
        """All spans of the run as arrays; ``parent`` is -1 for a root."""
        np.savez_compressed(
            path, names=np.array(self.names), name=_copy(self.name), parent=_copy(self.parent),
            start=_copy(self.start), end=_copy(self.end), extra=_copy(self.extra),
            pass_start=np.array(self.pass_start))

    def layer_metrics(self, k: int) -> tuple[dict, dict]:
        """(counts, self-time seconds) of the k-th traced pass, by span name."""
        lo = self.pass_start[k]
        hi = self.pass_start[k + 1] if k + 1 < len(self.pass_start) else len(self.start)
        name, parent, start, end, extra = (
            _copy(a, lo, hi) for a in (self.name, self.parent, self.start, self.end, self.extra))
        dur = end - start
        self_time = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(self_time, parent[has_parent] - lo, dur[has_parent])
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        seconds = np.bincount(name, weights=self_time, minlength=n)
        extras = np.bincount(name, weights=extra, minlength=n)
        counts = {f"{nm}.calls": int(calls[i]) for i, nm in enumerate(self.names)}
        counts.update({f"{nm}.extra": float(extras[i]) for i, nm in enumerate(self.names)})
        # Calls made directly under a span of another name, e.g. the solves
        # of the Picard iteration inside one membership verdict.
        pairs = np.zeros((n, n), dtype=np.int64)
        np.add.at(pairs, (name[has_parent], name[parent[has_parent] - lo]), 1)
        for i, child in enumerate(self.names):
            for j, par in enumerate(self.names):
                if pairs[i, j]:
                    counts[f"{child}@{par}"] = int(pairs[i, j])
        times = {f"{nm}.s": float(seconds[i]) for i, nm in enumerate(self.names)}
        return counts, times


def _copy(arr: array, lo: int = 0, hi: int | None = None) -> np.ndarray:
    # A copy, so no view keeps the array from growing in later passes.
    return np.frombuffer(arr, dtype=np.dtype(arr.typecode))[lo:hi].copy()


def _file_bytes(result, args, kwargs) -> float:
    return float(Path(args[0]).stat().st_size)


_EXTRA = {
    # undetermined membership verdicts
    "stationary.verdict": lambda r, a, k: float(r.status == "undetermined"),
    # bisections in one curve trace: one per lambda sample plus both intercepts
    "stationary.curve": lambda r, a, k: float(len(r.samples) + 2),
    "spectra.eigen": lambda r, a, k: float(r.iterations),
    "evolution.simulate": lambda r, a, k: float(r.n_steps),
    "cli.write": _file_bytes,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(counts: dict, times: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass: name -> (value, unit).

    ``.calls`` and the other counts are per pass; ``.s`` is self time, the
    time inside a function minus the time inside the traced calls it makes.
    """
    c = lambda key: counts.get(key, 0)  # noqa: E731
    t = lambda key: times.get(key, 0.0)  # noqa: E731
    picard = c("grid.solve@stationary.verdict") / 2  # two solves per iteration
    steps = c("evolution.simulate.extra")
    return {
        "grid.solve.calls": (c("grid.solve.calls"), "count"),
        "grid.solve.s": (t("grid.solve.s"), "s"),
        "grid.shift.calls": (c("grid.shift.calls"), "count"),
        "grid.shift.s": (t("grid.shift.s"), "s"),
        "grid.solves_per_shift": (_ratio(c("grid.solve@evolution.simulate"),
                                         c("grid.shift.calls")), "solves/shift"),
        "grid.eigenpair.calls": (c("grid.eigenpair.calls"), "count"),
        "grid.eigenpair.s": (t("grid.eigenpair.s"), "s"),
        "model.eval.calls": (c("model.eval.calls"), "count"),
        "model.eval.s": (t("model.eval.s"), "s"),
        "stationary.verdict.calls": (c("stationary.verdict.calls"), "count"),
        "stationary.verdict.s": (t("stationary.verdict.s"), "s"),
        "stationary.picard_iters": (picard, "count"),
        "stationary.iters_per_verdict": (_ratio(picard, c("stationary.verdict.calls")),
                                         "iters/verdict"),
        "stationary.undetermined": (c("stationary.verdict.extra"), "count"),
        "stationary.evals_per_sample": (_ratio(c("stationary.verdict@stationary.curve"),
                                               c("stationary.curve.extra")), "evals/sample"),
        "stationary.second.s": (t("stationary.second.s"), "s"),
        "stationary.second.newton_iters": (c("spectra.linearize@stationary.second"), "count"),
        "spectra.linearize.calls": (c("spectra.linearize.calls"), "count"),
        "spectra.linearize.s": (t("spectra.linearize.s"), "s"),
        "spectra.eigen.s": (t("spectra.eigen.s"), "s"),
        "spectra.eigen.iters": (c("spectra.eigen.extra"), "count"),
        "evolution.simulate.s": (t("evolution.simulate.s"), "s"),
        "evolution.accepted_steps": (steps, "count"),
        "evolution.solves_per_step": (_ratio(c("grid.solve@evolution.simulate"), steps),
                                      "solves/step"),
        "evolution.energy.s": (t("evolution.energy.s"), "s"),
        "certificates.classify.s": (t("certificates.classify.s"), "s"),
        "certificates.bound.s": (t("certificates.bound.s"), "s"),
        "certificates.rate.s": (t("certificates.rate.s"), "s"),
        "cli.config.s": (t("cli.config.s"), "s"),
        "cli.write.s": (t("cli.write.s"), "s"),
        "cli.write.mb": (c("cli.write.extra") / 1e6, "MB"),
    }
