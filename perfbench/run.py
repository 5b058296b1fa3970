"""Benchmark of the mfbslq solver: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pipeline-d2 --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``pipeline-d2``, ``certify-m1r`` and
``sweep-shallow``.  Each is one process solving one problem after another
(a closed loop with one client).  Every solve is checked: the pipeline's
mean-constraint residuals against ``mfbslq.cli.CHECK_RESIDUAL``, the direct
solver's gradient certificate, and the pipeline-minus-oracle cost gap against
``mfbslq.cli.CHECK_COST_GAP``.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of traced passes, and the
raw spans go to ``perfbench/runs/``.  The lines before it are a readable table
of every metric with its unit, plus the environment the numbers came from.

Measurement settings (all set for the measuring child process only):

* ``OPENBLAS_NUM_THREADS=1`` (and the OpenMP/MKL equivalents): on a small
  shared machine a second BLAS thread makes times noisier, not faster, and
  one thread keeps reductions in a fixed order.
* ``NUMPY_MADVISE_HUGEPAGE=0``: with transparent huge pages in ``madvise``
  mode, whether numpy's large arrays land on huge pages depends on the
  machine's free memory, and peak RSS of the same solve jumps between two
  levels (about 500 and 550 MiB on ``certify-m1r``).  Without the advice it
  repeats to within a few MiB.
* ``PYTHONHASHSEED=0``, so every run allocates in the same order.

The measuring process pins each pass to one CPU, taking the allowed CPUs in
turn (see ``worker.measure``).

``peak_rss_mb`` is ``ru_maxrss`` of the measuring process read after its
first timed pass (set-up, warm-up and one full pass).  Later passes add a
few MiB of allocator fragmentation, and how many passes fit in the run
depends on speed, so the run-long maximum would move with speed.

``setup_s`` is the median wall time of fresh processes that import the
package and generate and validate the workload's specs; one untimed process
runs first so that bytecode caches are written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
RUNS_DIR = os.path.join(HERE, "runs")
SETUP_PROBES = 3
RUN_TIMEOUT_S = 170.0
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "wall_s": "s", "pipeline_s": "s", "certify_s": "s", "peak_rss_mb": "MB",
    "setup_s": "s", "control_error": "1", "failed_frac": "1",
}
# End-to-end metrics in the result line: the ones defined and non-zero on
# every workload.  certify_s and control_error do not exist on pipeline-d2,
# and failed_frac is the result line's failed / attempted.
RESULT_METRICS = ("wall_s", "pipeline_s", "peak_rss_mb", "setup_s")

LAYER_UNITS = {
    "model.realize_s": "s", "model.validate_s": "s", "riccati.solve_s": "s",
    "riccati.newton_iters": "count", "multipliers.probe_s": "s",
    "multipliers.decoupled_calls": "count", "multipliers.decoupled_self_s": "s",
    "multipliers.outer_system_s": "s", "multipliers.final_solve_s": "s",
    "outer.quadratic_s": "s", "outer.quadratic_self_s": "s",
    "bsde.meanfield_calls": "count", "bsde.meanfield_s": "s",
    "bsde.forward_calls": "count", "bsde.forward_s": "s",
    "oracle.solve_s": "s", "oracle.solve_self_s": "s",
    "oracle.gradient_s": "s", "oracle.stationarity_s": "s",
    "oracle.dense_solves": "count", "oracle.sparse_solves": "count",
    "outer.quadratic_peak_mb": "MB", "multipliers.probe_peak_mb": "MB",
    "oracle.peak_mb": "MB", "tree.nodes": "count",
    "model.self_s": "s", "riccati.self_s": "s", "multipliers.self_s": "s",
    "outer.self_s": "s", "bsde.self_s": "s", "oracle.self_s": "s",
    "trace.wall_s": "s", "trace.self_coverage": "1", "trace.overhead_s": "s",
}
PEAK_METRICS = {
    "outer.quadratic_peak_mb": "outer.quadratic",
    "multipliers.probe_peak_mb": "multipliers.probe",
    "oracle.peak_mb": "oracle.solve",
}


def child_env() -> dict:
    # The package comes from this checkout's src/ only; bytecode caches are
    # written so that set-up is timed as an installed package would pay it.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    threads = str(BLAS_THREADS)
    env.update({
        "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads, "NUMPY_MADVISE_HUGEPAGE": "0",
        "PYTHONHASHSEED": "0",
    })
    return env


def git_commit(root: str) -> str:
    """Commit of the checkout, read from .git without running git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _worker_cmd(args, *extra) -> list:
    return [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def measure_setup(args, env: dict, deadline: float) -> list:
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        subprocess.run(_worker_cmd(args, "--setup-only"), env=env, check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        if i:  # the first probe writes bytecode caches and is not counted
            times.append(time.perf_counter() - start)
    return times


def run_worker(args, env: dict, deadline: float) -> dict:
    cmd = _worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
    if args.trace:
        os.makedirs(RUNS_DIR, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            RUNS_DIR, f"spans-{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(worker: dict, setup: list, workload) -> tuple:
    passes = worker["plain"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    certifies = any(case.certify for case in workload.cases)
    metrics = {
        "wall_s": _median([p["wall_s"] for p in passes]),
        "pipeline_s": _median([p["pipeline_s"] for p in passes]),
        "certify_s": _median([p["certify_s"] for p in passes]) if certifies else None,
        "peak_rss_mb": worker["first_pass_rss_mb"],
        "setup_s": _median(setup),
        "control_error": max(p["control_error"] for p in passes) if certifies else None,
        "failed_frac": failed / attempted,
    }
    return metrics, attempted, failed


def per_layer(worker: dict) -> dict:
    layers = worker["layers"]
    metrics = {}
    for name in LAYER_UNITS:
        if name in PEAK_METRICS:
            metrics[name] = worker["peaks_mb"][PEAK_METRICS[name]]
        elif name == "trace.overhead_s":
            metrics[name] = (_median([m["trace.wall_s"] for m in layers])
                             - _median([p["wall_s"] for p in worker["plain"]]))
        else:
            values = [m[name] for m in layers]
            # counts repeat exactly from pass to pass and stay whole numbers
            metrics[name] = values[0] if len(set(values)) == 1 else _median(values)
    return metrics


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"# {title}")
    for name in units:
        print(f"#   {name:32s} {_fmt(metrics.get(name)):>14s} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mfbslq benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    root = os.getcwd()
    workload = workloads.WORKLOADS[args.workload]
    missing = workloads.missing_inputs(root, workload)
    if missing:
        print("error: run from the root of an mfbslq checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2

    env = child_env()
    setup = measure_setup(args, env, deadline)
    worker = run_worker(args, env, deadline)

    e2e, attempted, failed = end_to_end(worker, setup, workload)
    info = dict(worker["env"], git_commit=git_commit(root), workload=workload.name,
                seed=args.seed, seconds=args.seconds, trace=args.trace,
                passes_plain=len(worker["plain"]), passes_traced=len(worker["traced"]),
                setup_probes=len(setup), run_rss_mb=worker["run_rss_mb"])
    print("# environment " + json.dumps(info, sort_keys=True))
    print_table(f"end-to-end, {workload.name}, median of {len(worker['plain'])} "
                f"untraced passes", e2e, END_TO_END_UNITS)
    problems = [msg for p in worker["plain"] + worker["traced"] for msg in p["problems"]]
    for msg in problems[:20]:
        print(f"# check failed: {msg}")

    if args.trace:
        metrics = per_layer(worker)
        print_table(f"per layer, median of {len(worker['traced'])} traced passes",
                    metrics, LAYER_UNITS)
        units = LAYER_UNITS
        attempted += sum(p["attempted"] for p in worker["traced"])
        failed += sum(p["failed"] for p in worker["traced"])
    else:
        metrics = {name: e2e[name] for name in RESULT_METRICS}
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
