"""Measurement process: runs one workload in a closed loop and prints JSON.

Started by ``run.py`` with the BLAS thread count, hash seed and huge-page
setting already in its environment.  With ``--setup-only`` it imports the
package, generates and validates the workload's specs, and exits: the parent
times that whole process as the set-up cost.

Otherwise it warms every code path on a 3-level tree, then runs passes (one
pass = every solve of the workload, one after another) until the next pass
would end after ``--seconds``.  With ``--trace 1`` untraced and traced passes
alternate, and one last pass under ``tracemalloc`` gives the layers' memory
peaks.  The last line of stdout is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

import spans
import workloads

MIB = float(1 << 20)
WARMUP_STEPS = 3


def _import_package(root: str):
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import mfbslq
    if not os.path.realpath(mfbslq.__file__).startswith(src + os.sep):
        raise ImportError(f"mfbslq was imported from {mfbslq.__file__}, not {src}")
    return mfbslq


class PassStats:
    """What one pass did: times, counts and correctness."""

    def __init__(self):
        self.wall_s = 0.0
        self.pipeline_s = 0.0
        self.certify_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.control_error = 0.0
        self.newton_iters = 0
        self.nodes = 0
        self.methods = {"dense": 0, "sparse": 0}
        self.problems = []


def _solve_case(mfbslq, checks, spec, case, stats: PassStats, span) -> None:
    """One solve (and certification) with its correctness checks.  Locals
    die on return, so two solves' arrays are never alive together."""
    check_residual, check_cost_gap = checks
    start = time.perf_counter()
    with span("outer.pipeline"):
        result = mfbslq.run_pipeline(spec, case.n_steps)
    stats.pipeline_s += time.perf_counter() - start
    with span("outer.report"):
        report = result.report()
    stats.newton_iters += result.riccati.newton_iterations
    stats.nodes += result.tree.total_nodes
    label = f"{case.spec}@{case.n_steps}"
    worst = max(report["constraint_residuals"].values())
    if not worst <= check_residual:
        stats.problems.append(f"{label}: constraint residual {worst:.3e}")
    if not case.certify:
        return
    start = time.perf_counter()
    with span("oracle.solve"):
        oracle = mfbslq.solve_oracle(result.tree, result.coeffs)
    stats.certify_s += time.perf_counter() - start
    stats.methods[oracle.method] += 1
    if not oracle.certified:
        stats.problems.append(f"{label}: oracle not certified")
    with span("oracle.control_error"):
        err = mfbslq.control_error(result.tree, result.constrained.u, oracle.u)
    stats.control_error = max(stats.control_error, err)
    gap = result.cost - oracle.cost
    if not gap >= check_cost_gap:
        stats.problems.append(f"{label}: cost gap {gap:.3e}")


def run_pass(mfbslq, checks, workload, specs, span) -> PassStats:
    stats = PassStats()
    gc.collect()
    start = time.perf_counter()
    for case in workload.cases:
        stats.attempted += 1
        before = len(stats.problems)
        try:
            _solve_case(mfbslq, checks, specs[case.spec], case, stats, span)
        except mfbslq.MfbslqError as exc:
            stats.problems.append(f"{case.spec}@{case.n_steps}: "
                                  f"{type(exc).__name__}: {exc}")
        if len(stats.problems) > before:
            stats.failed += 1
    stats.wall_s = time.perf_counter() - start
    return stats


def warm_up(mfbslq, specs) -> None:
    """Touch every code path once (both oracle routes) on a tiny tree."""
    for spec in specs.values():
        result = mfbslq.run_pipeline(spec, WARMUP_STEPS)
        result.report()
        for method in ("dense", "sparse"):
            oracle = mfbslq.solve_oracle(result.tree, result.coeffs, method)
            mfbslq.control_error(result.tree, result.constrained.u, oracle.u)


def _no_span(name):
    return contextlib.nullcontext()


def _layer_metrics(summary: dict, stats: PassStats) -> dict:
    """Per-layer numbers of one traced pass."""
    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    out = {
        "model.realize_s": total("model.realize"),
        "model.validate_s": total("model.validate"),
        "riccati.solve_s": total("riccati.solve"),
        "riccati.newton_iters": stats.newton_iters,
        "multipliers.probe_s": total("multipliers.probe"),
        "multipliers.decoupled_calls": calls("multipliers.decoupled"),
        "multipliers.decoupled_self_s": own("multipliers.decoupled"),
        "multipliers.outer_system_s": total("multipliers.outer_system"),
        "multipliers.final_solve_s": total("multipliers.final_solve"),
        "outer.quadratic_s": total("outer.quadratic"),
        "outer.quadratic_self_s": own("outer.quadratic"),
        "bsde.meanfield_calls": calls("bsde.meanfield"),
        "bsde.meanfield_s": total("bsde.meanfield"),
        "bsde.forward_calls": calls("bsde.forward"),
        "bsde.forward_s": total("bsde.forward"),
        "oracle.solve_s": total("oracle.solve"),
        "oracle.solve_self_s": own("oracle.solve"),
        "oracle.gradient_s": total("oracle.gradient"),
        "oracle.stationarity_s": total("oracle.stationarity"),
        "oracle.dense_solves": stats.methods["dense"],
        "oracle.sparse_solves": stats.methods["sparse"],
        "tree.nodes": stats.nodes,
    }
    layer_self = {layer: 0.0 for layer in spans.LAYERS}
    for name, entry in summary.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"]
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    out["trace.wall_s"] = stats.wall_s
    out["trace.self_coverage"] = sum(layer_self.values()) / stats.wall_s
    return out


def measure(mfbslq, workload, specs, seconds: float, traced: bool):
    """Run passes for ``seconds``; traced runs alternate untraced and traced
    passes so both see the same machine conditions.

    Passes of each kind also take turns on the CPUs the process may use.
    On a shared virtual machine one CPU can run slower than another for
    minutes (host contention the guest cannot see); taking turns puts such
    a spell under half the passes instead of, by chance, all of them.
    """
    from mfbslq.cli import CHECK_COST_GAP, CHECK_RESIDUAL
    checks = (CHECK_RESIDUAL, CHECK_COST_GAP)
    cpus = sorted(os.sched_getaffinity(0))
    plain, layered, span_log = [], [], []
    started = time.perf_counter()
    first_rss_mb = None
    while True:
        is_traced = traced and len(plain) > len(layered)
        done_of_kind = len(layered) if is_traced else len(plain)
        os.sched_setaffinity(0, {cpus[done_of_kind % len(cpus)]})
        if is_traced:
            recorder = spans.Recorder()
            inst = spans.Instrumentation(mfbslq, recorder)
            try:
                stats = run_pass(mfbslq, checks, workload, specs, recorder.span)
            finally:
                inst.remove()
            summary = spans.summarize(recorder)
            layered.append((stats, _layer_metrics(summary, stats)))
            span_log.append(recorder.spans)
        else:
            stats = run_pass(mfbslq, checks, workload, specs, _no_span)
            plain.append(stats)
        if first_rss_mb is None:
            first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - started
        typical = statistics.median(s.wall_s for s in plain + [p[0] for p in layered])
        # stop before a pass that would end after the budget; a traced run
        # needs at least one pass of each kind
        if (not traced or layered) and elapsed + typical > seconds:
            break
    os.sched_setaffinity(0, cpus)
    peaks = memory_pass(mfbslq, checks, workload, specs) if traced else {}
    return plain, layered, span_log, peaks, first_rss_mb


def memory_pass(mfbslq, checks, workload, specs) -> dict:
    """One traced pass under tracemalloc; returns peak MiB per peak span."""
    recorder = spans.Recorder()
    recorder.measure_peaks = True
    inst = spans.Instrumentation(mfbslq, recorder)
    tracemalloc.start()
    try:
        run_pass(mfbslq, checks, workload, specs, recorder.span)
    finally:
        tracemalloc.stop()
        inst.remove()
    return {name: recorder.peaks.get(name, 0) / MIB for name in spans.PEAK_SPANS}


def environment(mfbslq) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "mfbslq": mfbslq.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None,
                        help="file for the raw spans of a traced run")
    args = parser.parse_args(argv)

    root = os.getcwd()
    mfbslq = _import_package(root)
    workload = workloads.WORKLOADS[args.workload]
    specs = workloads.load_specs(mfbslq, root, workload, args.seed)
    if args.setup_only:
        return 0

    warm_up(mfbslq, specs)
    plain, layered, span_log, peaks, first_rss_mb = measure(
        mfbslq, workload, specs, args.seconds, bool(args.trace))
    if args.spans_out and span_log:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "fields": ["name", "start", "end", "parent"],
                       "passes": span_log}, fh)

    out = {
        "plain": [vars(s) for s in plain],
        "traced": [vars(s) for s, _ in layered],
        "layers": [m for _, m in layered],
        "peaks_mb": peaks,
        "first_pass_rss_mb": first_rss_mb,
        "run_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(mfbslq),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
