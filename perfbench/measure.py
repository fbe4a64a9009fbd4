"""Run one workload in this (fresh) process and print its raw results.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--setup-only]

The last stdout line is one JSON object for perfbench/run.py. Set-up time
runs from the top of this file to the built inputs, so it covers importing
numpy, scipy and homokin. Jobs run one at a time in a closed loop: a pass
is the workload's job list in a seeded order, and passes repeat until the
next one would end past ``--seconds``. Peak memory is read right after the
last job; the output checks run after that, outside time and memory.

With ``--trace 1`` untraced and traced passes alternate; the per-layer
numbers are means over traced passes, and the tracing overhead is the gap
between the median traced and untraced pass.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracing import Installed, Tracer, summarize  # noqa: E402
import homokin.cli  # noqa: E402,F401  (its run_experiment binding is traced too)

MAX_PASSES = 64
CLI_KINDS = ("tartar", "kernel-dump", "ode", "oscillator", "boltzmann", "transport")
LAYERS = (
    "cell", "kernels", "volterra", "multiscale", "oscillator",
    "boltzmann", "diagnostics", "transport", "harness",
)


def run_pass(wl, order, out_dir, outputs, tracer=None):
    """Run every job once in ``order``; returns the pass wall time."""
    start = time.perf_counter()
    for j in order:
        job = wl.jobs[j]
        if tracer is not None:
            tracer.job = j
        t0 = time.perf_counter()
        try:
            result, error = job.run(os.path.join(out_dir, job.name)), None
        except Exception:  # a job that raises is a failed job, not a crash
            result, error = None, traceback.format_exc(limit=3)
        outputs.append((j, result, error, time.perf_counter() - t0))
    return time.perf_counter() - start


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def check_outputs(wl, outputs):
    rows = []
    for n, (j, result, error, elapsed) in enumerate(outputs):
        job = wl.jobs[j]
        if error is None:
            try:
                ok, detail = job.check(result)
            except Exception:
                ok, detail = False, "check raised: " + traceback.format_exc(limit=3)
        else:
            ok, detail = False, "job raised: " + error
        rows.append(
            {"job": job.name, "seq": n, "ok": bool(ok), "detail": detail,
             "known_defect": job.known_defect, "job_s": elapsed}
        )
    return rows


def per_layer(summary, passes, computed, sweep_summary):
    """Per-pass layer metrics from span summaries (see perfbench/README.md)."""

    def get(name, key):
        total = summary.get(name, {}).get(key, 0) / passes
        return total + sweep_summary.get(name, {}).get(key, 0)

    m = {
        "cell.apply_calls": (get("cell.apply", "calls"), "count"),
        "cell.apply_s": (get("cell.apply", "self_s"), "s"),
        "cell.resolvent_s": (get("cell.resolvent", "self_s"), "s"),
        "kernels.kernel_table_s": (get("kernels.kernel_table", "self_s"), "s"),
        "kernels.kernel_table_lags": (get("kernels.kernel_table", "units"), "count"),
        "kernels.source_table_s": (get("kernels.source_table", "self_s"), "s"),
        "kernels.source_table_lags": (get("kernels.source_table", "units"), "count"),
        "kernels.tartar_verify_s": (get("kernels.tartar_verify", "self_s"), "s"),
        "volterra.solve_s": (get("volterra.solve", "self_s"), "s"),
        "volterra.steps": (get("volterra.solve", "units"), "count"),
        "multiscale.hom_volterra_s": (get("multiscale.hom_volterra", "self_s"), "s"),
        "multiscale.coupled_s": (get("multiscale.coupled", "self_s"), "s"),
        "multiscale.coupled_steps": (get("multiscale.coupled", "units"), "count"),
        "multiscale.closed_s": (get("multiscale.closed", "self_s"), "s"),
        "multiscale.eps_exact_s": (get("multiscale.eps_exact", "self_s"), "s"),
        "oscillator.kernel_table_s": (get("oscillator.kernel_table", "self_s"), "s"),
        "oscillator.limit_s": (get("oscillator.limit", "self_s"), "s"),
        "oscillator.reference_s": (get("oscillator.reference", "self_s"), "s"),
        "boltzmann.toy_eps_s": (get("boltzmann.toy_eps", "self_s"), "s"),
        "boltzmann.two_scale_s": (get("boltzmann.two_scale", "self_s"), "s"),
        "boltzmann.sweep_point_s": (get("boltzmann.sweep_point", "self_s"), "s"),
        "diagnostics.modes_s": (get("diagnostics.modes", "self_s"), "s"),
        "diagnostics.norm_s": (get("diagnostics.norm", "self_s"), "s"),
        "diagnostics.fit_s": (get("diagnostics.fit", "self_s"), "s"),
        "transport.two_scale_s": (get("transport.two_scale", "self_s"), "s"),
        "transport.characteristics_s": (get("transport.characteristics", "self_s"), "s"),
        "transport.checks_s": (get("transport.checks", "self_s"), "s"),
        "transport.weak_error_s": (get("transport.weak_error", "self_s"), "s"),
        "harness.csv_s": (get("harness.csv", "self_s"), "s"),
        "harness.csv_bytes": (get("harness.csv", "units"), "bytes"),
        # time the pooled boltzmann kind spends outside traced code: the pool
        "harness.pool_s": (get("harness.boltzmann", "self_s"), "s"),
    }
    for kind in CLI_KINDS:
        m[f"harness.{kind}_s"] = (get(f"harness.{kind}", "incl_s"), "s")
    for name, value in computed.items():
        m[name] = (value, "ratio" if name.endswith("_frac") else "count")
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for source, scale in ((summary, passes), (sweep_summary, 1)):
        for name, row in source.items():
            layer_s[name.split(".")[0]] += row["self_s"] / scale
    for layer in LAYERS:
        m[f"layer.{layer}_s"] = (layer_s[layer], "s")
    return m


def measure(wl, seconds, out_dir):
    outputs, walls = [], []
    orders = workloads.job_order(wl.seed, len(wl.jobs), MAX_PASSES)
    start = time.perf_counter()
    for i in range(MAX_PASSES):
        walls.append(run_pass(wl, orders[i], os.path.join(out_dir, f"pass{i}"), outputs))
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    return {"walls": walls, "peak_rss_mb": peak_rss_mb()}, outputs


def measure_traced(wl, seconds, out_dir, spans_path):
    outputs, plain, traced, cpu = [], [], [], []
    orders = workloads.job_order(wl.seed, len(wl.jobs), MAX_PASSES)
    tracer = Tracer()
    start = time.perf_counter()
    for i in range(0, MAX_PASSES, 2):
        c0 = cpu_seconds()
        plain.append(run_pass(wl, orders[i], os.path.join(out_dir, f"pass{i}"), outputs))
        cpu.append(cpu_seconds() - c0)
        with Installed(tracer):
            pass_dir = os.path.join(out_dir, f"pass{i + 1}")
            traced.append(run_pass(wl, orders[i + 1], pass_dir, outputs, tracer))
        if time.perf_counter() - start + plain[-1] + traced[-1] > seconds:
            break
    pass_spans = tracer.finish()
    sweep_spans = []
    if wl.sweep_points:
        # pool children keep their spans; replay their sweep points here
        replay = Tracer()
        with Installed(replay):
            for n, point in enumerate(wl.sweep_points):
                replay.job = n
                workloads.replay_sweep_point(point)
        sweep_spans = replay.finish()
    with open(spans_path, "w") as fh:
        for kind, spans in (("pass", pass_spans), ("replay", sweep_spans)):
            for s in spans:
                fh.write(json.dumps({"run": kind, **vars(s)}) + "\n")
    nproc = len(os.sched_getaffinity(0))
    metrics = per_layer(
        summarize(pass_spans), len(traced), workloads.computed_counts(wl),
        summarize(sweep_spans),
    )
    plain_wall, traced_wall = statistics.median(plain), statistics.median(traced)
    cpu_s = statistics.median(cpu)
    metrics["harness.cpu_s"] = (cpu_s, "s")
    metrics["harness.cpu_util"] = (cpu_s / plain_wall / nproc, "ratio")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    raw = {
        "walls": plain,
        "traced_walls": traced,
        "per_layer": metrics,
        "replayed_sweep_points": len(wl.sweep_points),
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return raw, outputs


def versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="scratch directory for job outputs")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.build(args.workload, args.seed, len(os.sched_getaffinity(0)))
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        spans_path = os.path.join(
            os.path.dirname(args.out), f"spans-{args.workload}-seed{args.seed}.jsonl"
        )
        raw, outputs = measure_traced(wl, args.seconds, args.out, spans_path)
    else:
        raw, outputs = measure(wl, args.seconds, args.out)
    raw.update(
        setup_s=setup_s,
        jobs=check_outputs(wl, outputs),
        versions=versions(),
        computed=workloads.computed_counts(wl),
    )
    print(json.dumps(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
