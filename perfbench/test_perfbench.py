"""Tests of the benchmark's own code: wrappers, self times, seeded inputs."""

import sys

import numpy as np
import pytest

import homokin.cli  # noqa: F401  (binds run_experiment a second time)
import tracing
import workloads
from tracing import Installed, Span, Target, Tracer, self_times, summarize


def homokin_bindings(obj):
    return sorted(
        (name, attr)
        for name, module in sys.modules.items()
        if name.split(".")[0] == "homokin"
        for attr, value in vars(module).items()
        if value is obj
    )


def test_wrappers_cover_every_binding_and_restore():
    originals = {}
    for target in tracing.TARGETS:
        owner, key, original = tracing._resolve(target)
        originals[target.attr] = (owner, key, original, homokin_bindings(original))
    # names bound by `from .x import y` in several modules
    solve_volterra = originals["solve_volterra"][3]
    assert {m for m, _ in solve_volterra} >= {
        "homokin.volterra", "homokin.multiscale", "homokin.oscillator"
    }
    assert {m for m, _ in originals["verify_tartar_equivalence"][3]} >= {
        "homokin.kernels", "homokin.harness"
    }
    assert {m for m, _ in originals["run_experiment"][3]} >= {
        "homokin.harness", "homokin.cli"
    }

    with Installed(Tracer()) as inst:
        patched = set(inst.bindings())
        for attr, (owner, key, original, bindings) in originals.items():
            if "." in attr:
                assert owner.__dict__[key] is not original
                assert (owner, key) in patched
            else:
                assert homokin_bindings(original) == [], attr
                for module_name, name in bindings:
                    assert (sys.modules[module_name], name) in patched
    for attr, (owner, key, original, bindings) in originals.items():
        if "." in attr:
            assert owner.__dict__[key] is original
        else:
            assert homokin_bindings(original) == bindings


def test_wrapped_calls_record_spans_with_parent_and_job():
    from homokin import cell, kernels

    grid = cell.PeriodicGrid(64)
    sigma = cell.CellFunction.from_function(grid, cell.sine_profile(2.0, 0.5))
    tracer = Tracer()
    with Installed(tracer):
        tracer.job = 7
        kernels.KernelTable.from_cell_coefficient(sigma, 0.1, 5)
        kernels.tartar_kernel_laplace(sigma, 1.0)
    spans = tracer.finish()
    table = next(s for s in spans if s.name == "kernels.kernel_table")
    assert table.units == 5 and table.job == 7 and table.parent is None
    # harmonic_factor_B is reached through the kernels module's binding
    assert [s.name for s in spans if s.parent is None].count("cell.resolvent") == 1
    assert all(s.end >= s.start for s in spans)


def test_self_time_on_synthetic_span_tree():
    spans = [
        Span(0, "root", None, 0, 0.0, 10.0),
        Span(1, "a", 0, 0, 1.0, 4.0),
        Span(2, "leaf", 1, 0, 2.0, 3.0, calls=3),
        Span(3, "b", 0, 0, 5.0, 9.0),
        Span(4, "a", 3, 0, 6.0, 8.5),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 2.5}
    summary = summarize(spans)
    assert summary["a"]["self_s"] == 4.5 and summary["a"]["incl_s"] == 5.5
    assert summary["leaf"]["calls"] == 3
    assert sum(row["self_s"] for row in summary.values()) == 10.0


def test_folded_leaf_charges_its_parent():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap(Target("x.leaf", "m", "leaf", fold=True), lambda: None)

    def body():
        leaf()
        leaf()

    outer = tracer.wrap(Target("x.outer", "m", "outer"), body)
    outer()
    spans = tracer.finish()
    # clock: outer starts 0, leaf 1-2, leaf 3-4, outer ends 5
    folded = next(s for s in spans if s.name == "x.leaf")
    assert folded.calls == 2 and folded.end - folded.start == 2.0
    assert folded.parent == next(s.id for s in spans if s.name == "x.outer")
    assert self_times(spans)[folded.parent] == 3.0


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_seeds_change_inputs_not_sizes(name):
    a, b = workloads.build(name, 1, 2), workloads.build(name, 2, 2)
    assert [j.name for j in a.jobs] == [j.name for j in b.jobs]
    assert a.sweep_points == b.sweep_points
    if name == "toy-sweep":  # no seeded values: the seed only orders jobs
        assert workloads.job_order(1, 6, 4) != workloads.job_order(2, 6, 4)
    else:
        assert any(
            not np.array_equal(np.asarray(a.inputs[k]), np.asarray(b.inputs[k]))
            for k in a.inputs
        )
    assert workloads.computed_counts(a) == workloads.computed_counts(b)


def test_computed_counts_follow_job_sizes():
    vm = workloads.computed_counts(workloads.build("volterra-march", 0, 2))
    assert vm["volterra.history_madds"] == (
        10000 * 10001 // 2 + 4 * 10000 * 10001 // 2 + 20000 * 20001 // 2
        + 2 * 4 * 4000 * 4001 // 2
    )
    tr = workloads.computed_counts(workloads.build("transport", 0, 2))
    assert tr["transport.two_scale_active_frac"] == 0.25  # 2 of 8 r-slices
    assert tr["transport.two_scale_cell_steps"] == 8 * 16 * 48 * 64 * 150
