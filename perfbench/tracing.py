"""Spans around the library's public functions, recorded from outside.

The tracer replaces each traced function with a wrapper in every homokin
module that binds it (``from .x import y`` makes a second binding), and
class attributes on the class itself. Each call records a span: name,
start, end, parent span and job id. Spans stay in memory until the run
ends. A hot leaf (``fold=True``) is folded per parent span into one record
carrying its call count and summed duration, so the millions of
``CellOperator.apply`` calls cost a counter, not a list entry each.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: int | None
    start: float
    end: float
    calls: int = 1
    units: float = 0  # work counted at the call: lags, steps or bytes


@dataclass(frozen=True)
class Target:
    """A traced attribute: ``attr`` may be ``Class.method``.

    ``label`` maps the call's arguments to the span name (default ``name``);
    ``units`` maps (args, kwargs, result) to a work count.
    """

    name: str
    module: str
    attr: str
    fold: bool = False
    label: Callable | None = None
    units: Callable | None = None


def _arg(args, kwargs, index, key):
    return kwargs[key] if key in kwargs else args[index]


def _file_size(args, kwargs, result):
    # write_csv(path, ...) or KernelTable.to_csv(self, path)
    path = args[0] if isinstance(args[0], (str, os.PathLike)) else args[1]
    return os.path.getsize(path)


TARGETS = (
    Target("cell.apply", "homokin.cell", "CellOperator.apply", fold=True),
    Target("cell.resolvent", "homokin.cell", "resolvent_apply"),
    Target("cell.resolvent", "homokin.cell", "harmonic_factor_B"),
    Target(
        "kernels.kernel_table",
        "homokin.kernels",
        "KernelTable.from_cell_coefficient",
        units=lambda a, k, r: _arg(a, k, 3, "count"),  # a[0] is the class
    ),
    Target(
        "kernels.source_table",
        "homokin.kernels",
        "build_source_table",
        units=lambda a, k, r: _arg(a, k, 4, "count"),
    ),
    Target("kernels.tartar_verify", "homokin.kernels", "verify_tartar_equivalence"),
    Target(
        "volterra.solve",
        "homokin.volterra",
        "solve_volterra",
        units=lambda a, k, r: _arg(a, k, 1, "grid").count,
    ),
    Target("multiscale.hom_volterra", "homokin.multiscale", "solve_homogenized_volterra"),
    Target(
        "multiscale.coupled",
        "homokin.multiscale",
        "solve_coupled_system",
        units=lambda a, k, r: _arg(a, k, 1, "grid").count,
    ),
    Target("multiscale.closed", "homokin.multiscale", "solve_two_scale_closed"),
    Target("multiscale.eps_exact", "homokin.multiscale", "solve_eps_exact"),
    Target("oscillator.kernel_table", "homokin.oscillator", "kernel_time_table"),
    Target("oscillator.limit", "homokin.oscillator", "solve_oscillator_limit"),
    Target("oscillator.reference", "homokin.oscillator", "cell_averaged_limit"),
    Target("boltzmann.toy_eps", "homokin.boltzmann", "solve_toy_eps"),
    Target("boltzmann.two_scale", "homokin.boltzmann", "solve_toy_two_scale"),
    Target("boltzmann.sweep_point", "homokin.boltzmann", "sweep_point"),
    Target("diagnostics.modes", "homokin.diagnostics", "legendre_modes"),
    Target("diagnostics.modes", "homokin.diagnostics", "mode_error"),
    Target("diagnostics.norm", "homokin.diagnostics", "norm_difference"),
    Target("diagnostics.fit", "homokin.diagnostics", "ConvergenceReport.from_sweep"),
    Target("transport.two_scale", "homokin.transport", "solve_two_scale_transport"),
    Target("transport.characteristics", "homokin.transport", "solve_characteristics_eps"),
    Target("transport.checks", "homokin.transport", "subcriticality_check"),
    Target("transport.checks", "homokin.transport", "coercivity_test"),
    Target("transport.weak_error", "homokin.transport", "windowed_weak_error"),
    Target(
        "harness.run",
        "homokin.harness",
        "run_experiment",
        label=lambda config: f"harness.{config.kind}",
    ),
    Target("harness.csv", "homokin.harness", "write_csv", units=_file_size),
    Target("harness.csv", "homokin.kernels", "KernelTable.to_csv", units=_file_size),
)


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[Span] = []
        self._folded: dict[tuple, Span] = {}

    def _new_id(self) -> int:
        return len(self.spans) + len(self._folded)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        if target.fold:
            return self._wrap_folded(target, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.label(*args, **kwargs) if target.label else target.name
            parent = self._stack[-1].id if self._stack else None
            span = Span(self._new_id(), name, parent, self.job, self.clock(), 0.0)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if target.units:
                span.units = target.units(args, kwargs, result)
            return result

        return traced

    def _wrap_folded(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                parent = self._stack[-1].id if self._stack else None
                key = (parent, target.name)
                span = self._folded.get(key)
                if span is None:
                    span = Span(
                        self._new_id(), target.name, parent, self.job, start, start, 0
                    )
                    self._folded[key] = span
                span.end += elapsed
                span.calls += 1

        return traced

    def finish(self) -> list[Span]:
        """All spans, folded leaves included; call once the run has ended."""
        spans = self.spans + list(self._folded.values())
        spans.sort(key=lambda s: s.id)
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its children."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] for s in spans}


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: self seconds, inclusive seconds, calls and units."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "units": 0}
    )
    for s in spans:
        row = out[s.name]
        row["self_s"] += own[s.id]
        row["incl_s"] += s.end - s.start
        row["calls"] += s.calls
        row["units"] += s.units
    return dict(out)


def _resolve(target: Target):
    """(owner, key, original) for a target's defining binding."""
    module = sys.modules[target.module]
    if "." in target.attr:
        cls_name, key = target.attr.split(".")
        owner = getattr(module, cls_name)
        return owner, key, owner.__dict__[key]
    return module, target.attr, module.__dict__[target.attr]


class Installed:
    """Wrappers in place; ``restore()`` puts every original binding back."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self._saved: list[tuple[object, str, object]] = []
        modules = [
            m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "homokin"
        ]
        for target in targets:
            owner, key, original = _resolve(target)
            if isinstance(owner, type):
                if isinstance(original, classmethod):
                    wrapped = classmethod(tracer.wrap(target, original.__func__))
                else:
                    wrapped = tracer.wrap(target, original)
                self._saved.append((owner, key, original))
                setattr(owner, key, wrapped)
                continue
            wrapped = tracer.wrap(target, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, value))
                        setattr(module, name, wrapped)

    def bindings(self) -> list[tuple[object, str]]:
        return [(owner, key) for owner, key, _ in self._saved]

    def restore(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
