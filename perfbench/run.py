"""Benchmark entry point: one workload, fresh processes, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Workloads: kernel-tables,
volterra-march, toy-sweep, transport (see perfbench/README.md).

Set-up time is the median over several fresh processes that each import
homokin and build the workload's inputs. The measured run is one more fresh
process (perfbench/measure.py), so set-up time and peak memory belong to
this workload alone. The thread variables OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS are recorded, never set.

The last stdout line is {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
Exit status is 0 when a result was printed, 2 on bad usage or a missing
source tree, 1 when the measured process failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
# same as workloads.WORKLOAD_NAMES; the parent never imports numpy or homokin
WORKLOADS = ("kernel-tables", "volterra-march", "toy-sweep", "transport")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha():
    """HEAD from .git without running git (a checkout may have no .git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def worker(args, out_dir, extra, timeout):
    cmd = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", out_dir, *extra,
    ]
    # subprocess.run kills the child on timeout and waits for it
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:4])} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def report(args, raw, setup_samples, nproc):
    jobs = raw["jobs"]
    failed = [j for j in jobs if not j["ok"]]
    unexpected = [j for j in failed if not j["known_defect"]]
    print(
        f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}"
    )
    print(
        f"# env: nproc {nproc}, git {git_sha()}, numpy {raw['versions']['numpy']}, "
        f"scipy {raw['versions']['scipy']}, BLAS {raw['versions']['blas']}, "
        + ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    )
    pinned = [v for v in THREAD_VARS if v in os.environ]
    if pinned:
        print(
            f"# WARNING: {', '.join(pinned)} set by the caller; pinned BLAS threads "
            "hide the pool's oversubscription on toy-sweep"
        )
    by_job = {}
    for j in jobs:
        by_job.setdefault(j["job"], []).append(j)
    for name, runs in sorted(by_job.items()):
        bad = [j for j in runs if not j["ok"]]
        known = runs[0]["known_defect"]
        if not bad:
            status = "PASS (known defect fixed: drop it from the list)" if known else "PASS"
        else:
            status = "KNOWN-FAIL" if known else "FAIL"
        shown = (bad or runs)[-1]
        print(f"# job {name:<24} {status:<10} {len(runs) - len(bad)}/{len(runs)} passed; "
              f"{shown['detail'].strip()}")
        if bad and known:
            print(f"#     known defect: {known}")
    walls = raw["walls"]
    print(
        f"# passes {len(walls)}: wall median {statistics.median(walls):.4f} s, "
        f"min {min(walls):.4f}, max {max(walls):.4f}; set-up samples "
        + ", ".join(f"{s:.4f}" for s in setup_samples)
    )
    print(
        f"# failed_frac {len(failed)}/{len(jobs)} = {len(failed) / len(jobs):.4f} "
        f"({len(unexpected)} outside the known-defect list)"
    )
    if args.trace:
        computed = ", ".join(f"{k}={v}" for k, v in raw["computed"].items())
        print(f"# computed from job sizes, not measured: {computed}")
        if raw["replayed_sweep_points"]:
            print(
                f"# boltzmann.* and diagnostics.* come from an in-process replay of the "
                f"{raw['replayed_sweep_points']} pooled sweep points; the pooled run is "
                "one harness span (harness.pool_s)"
            )
        print(f"# spans written to {raw['spans_file']}")
        layers = {
            k: v[0] for k, v in raw["per_layer"].items() if k.startswith("layer.")
        }
        top = max(layers, key=layers.get)
        print(
            f"# traced passes {len(raw['traced_walls'])}, largest self time {top} "
            f"{layers[top]:.4f} s; tracing overhead "
            f"{raw['per_layer']['trace.overhead_s'][0]:.4f} s per pass"
        )
        metrics = raw["per_layer"]
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    result = {
        "correct": not unexpected,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description="homokin benchmark: one workload per run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "homokin", "__init__.py")):
        print(f"error: no homokin sources under {ROOT}/src", file=sys.stderr)
        return 2
    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    os.makedirs(OUT_ROOT, exist_ok=True)
    out_dir = os.path.join(OUT_ROOT, f"run-{os.getpid()}")
    try:
        setup = [
            worker(args, out_dir, ["--setup-only"], 60)["setup_s"]
            for _ in range(SETUP_SAMPLES)
        ]
        remaining = DEADLINE_S - (time.monotonic() - started)
        raw = worker(args, out_dir, [], remaining)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report(args, raw, setup + [raw["setup_s"]], nproc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
