"""Acceptance gate: the twelve shipped quality criteria, one test each.

Every test prints exactly one line of the form

    criterion NN [PASS|FAIL] <details>

so the verbose test log doubles as the acceptance report.  Expensive solves
are shared through a module-scoped cache.  Tolerances are stated inline and
are not tuned: reference values come from the independent direct solver and
from hand-derived exact solutions.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from mfbslq import build_tree, realize, solve_riccati
from mfbslq.cli import main as cli_main
from mfbslq.multipliers import picard_cross_check
from mfbslq.oracle import (control_dimension, cost_gradient,
                           evaluate_cost, gradient_dual_norm,
                           smp_stationarity_residual, solve_oracle,
                           unstack_controls, weighted_hessian_eigenvalues,
                           weighted_inner, zero_controls)
from mfbslq.outer import run_pipeline
from conftest import barred_zero_spec, corpus_path, scalar_spec
from referees import (decoupling_residual, directional_derivative,
                      directional_derivative_fd, riccati_control)

DELTA = 0.5
GRID = (4, 8, 16)
CONVERGING = ("s1", "m1", "m1_random")


def _emit(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


@pytest.fixture(scope="module")
def runs(corpus):
    cache = {}

    def get(name: str, nt: int):
        key = (name, nt)
        if key not in cache:
            start = time.perf_counter()
            result = run_pipeline(corpus[name], nt, with_oracle=True)
            cache[key] = (result, time.perf_counter() - start)
        return cache[key]

    return get


def test_criterion_01_exact_discrete_optimality(capsys, corpus):
    worst_ratio, worst_time = 0.0, 0.0
    for name, spec in corpus.items():
        tree = build_tree(spec.horizon, 8)
        coeffs = realize(spec, tree)
        start = time.perf_counter()
        sol = solve_oracle(tree, coeffs)
        elapsed = time.perf_counter() - start
        norm = gradient_dual_norm(tree, cost_gradient(tree, coeffs, sol.u))
        base = gradient_dual_norm(
            tree, cost_gradient(tree, coeffs, zero_controls(tree, coeffs.m)))
        worst_ratio = max(worst_ratio, norm / (1e-9 * (1.0 + base)))
        worst_time = max(worst_time, elapsed)
    ok = worst_ratio <= 1.0 and worst_time <= 10.0
    _emit(capsys, 1, ok, f"direct-solver gradient within 1e-9 bound "
                 f"(worst fraction {worst_ratio:.2e}, slowest {worst_time:.2f}s)")


def test_criterion_02_pipeline_convergence(capsys, runs):
    details = []
    ok = True
    for name in CONVERGING:
        errors = [runs(name, nt)[0].oracle_control_error for nt in GRID]
        fine_time = runs(name, 16)[1]
        decreasing = errors[0] > errors[1] > errors[2]
        ratio = errors[1] / errors[2]
        ok = ok and decreasing and 1.5 <= ratio <= 2.6 and errors[2] <= 0.10 \
            and fine_time <= 60.0
        details.append(f"{name}: e={errors[0]:.3f}/{errors[1]:.3f}/"
                       f"{errors[2]:.3f} r={ratio:.2f} t={fine_time:.1f}s")
    _emit(capsys, 2, ok, "pipeline-vs-direct control error converges — "
          + "; ".join(details))


def test_criterion_03_closed_form_two_step(capsys, corpus):
    tree = build_tree(1.0, 2)
    coeffs = realize(corpus["s1"], tree)
    sol = solve_oracle(tree, coeffs)
    target = (2.0 / 3.0) * math.sqrt(0.5)
    err = max(abs(sol.cost - 5.0 / 6.0),
              abs(sol.u[1][0, 0] + target),
              abs(sol.u[1][1, 0] - target))
    _emit(capsys, 3, err <= 1e-12,
          f"two-step exact optimum (cost 5/6, controls ±(2/3)sqrt(0.5)); "
          f"max defect {err:.2e}")


def test_criterion_04_one_sided_cost_gap(capsys, runs):
    gaps = {}
    worst = np.inf
    for name in CONVERGING:
        for nt in GRID:
            gap = runs(name, nt)[0].oracle_cost_gap
            gaps[name, nt] = gap
            worst = min(worst, gap)
    ratios = {name: gaps[name, 8] / gaps[name, 16] for name in ("s1", "m1")}
    ok = worst >= -1e-9 and all(2.0 <= r <= 6.0 for r in ratios.values())
    _emit(capsys, 4, ok, f"cost gap one-sided (min {worst:.2e}) with 8-to-16 ratios "
                 f"s1={ratios['s1']:.2f}, m1={ratios['m1']:.2f}")


def test_criterion_05_stationarity_consistency(capsys, runs):
    residuals = []
    for nt in GRID:
        result = runs("m1", nt)[0]
        residuals.append(smp_stationarity_residual(
            result.tree, result.coeffs, result.oracle.u))
    r1 = residuals[0] / residuals[1]
    r2 = residuals[1] / residuals[2]
    ok = 1.5 <= r1 <= 2.6 and 1.5 <= r2 <= 2.6
    _emit(capsys, 5, ok, f"continuous-form stationarity residual at the direct "
                 f"optimum halves: {residuals[0]:.3f}/{residuals[1]:.3f}/"
                 f"{residuals[2]:.3f} (ratios {r1:.2f}, {r2:.2f})")


def test_criterion_06_reduction_without_coupling(capsys):
    result = run_pipeline(barred_zero_spec("m1"), 8)
    lam_norm = float(np.linalg.norm(result.constrained.lam))
    feedback = riccati_control(result.tree, result.coeffs, result.riccati)
    control_defect = max(np.abs(a - b).max()
                         for a, b in zip(result.constrained.u, feedback))
    ok = lam_norm <= 1e-7 and control_defect <= 1e-7
    _emit(capsys, 6, ok, f"zero mean-coupling collapses to plain feedback "
                 f"(|lambda|={lam_norm:.2e}, control defect {control_defect:.2e})")


def test_criterion_07_riccati_benchmarks(capsys, corpus):
    spec = scalar_spec(B=1.0, N=1.0, R=1.0)
    tree = build_tree(1.0, 16)
    ric = solve_riccati(tree, realize(spec, tree))
    linear_defect = max(
        float(np.abs(ric.sigma[k] - (16 - k) * tree.dt).max())
        for k in range(17))

    coeffs = realize(corpus["d2"], tree)
    A, Q, C, R = coeffs.A[0][0], coeffs.Q[0][0], coeffs.C[0][0], coeffs.R[0][0]
    BNB = coeffs.B[0][0] @ np.linalg.solve(coeffs.N[0][0], coeffs.B[0][0].T)
    eye = np.eye(2)

    def rhs(s):
        return (A @ s + s @ A.T - s @ Q @ s + BNB
                + C @ np.linalg.solve(eye + s @ R, s) @ C.T)

    ref = np.zeros((2, 2))
    h = 1.0 / 2048
    for _ in range(2048):
        k1 = rhs(ref)
        k2 = rhs(ref + 0.5 * h * k1)
        k3 = rhs(ref + 0.5 * h * k2)
        k4 = rhs(ref + h * k3)
        ref = ref + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    ode_defect = float(np.abs(
        solve_riccati(tree, coeffs).sigma[0][0] - ref).max())

    ok = linear_defect <= 1e-12 and ode_defect <= 2 * tree.dt
    _emit(capsys, 7, ok, f"linear-growth recursion exact ({linear_defect:.2e}) and "
                 f"planar initial value within 2dt of the RK4 flow "
                 f"({ode_defect:.3f} vs {2 * tree.dt:.3f})")


def test_criterion_08_decoupling_consistency(capsys, runs, corpus):
    combined = []
    for nt in GRID:
        result = runs("m1", nt)[0]
        res = decoupling_residual(result.tree, result.coeffs, result.riccati,
                                  result.constrained)
        combined.append(res["combined"])
    r1, r2 = combined[0] / combined[1], combined[1] / combined[2]
    bounded = all(value <= 1.0 / nt for value, nt in zip(combined, GRID))

    picard_ok = True
    short = dataclasses.replace(corpus["m1"], horizon=0.25)
    for nt in (4, 8):
        result = run_pipeline(short, nt)
        report = picard_cross_check(result.tree, result.coeffs,
                                    result.riccati, result.constrained)
        picard_ok = picard_ok and report["converged"] \
            and report["y_diff"] <= 10 * result.tree.dt

    ok = bounded and 1.5 <= r1 <= 2.6 and 1.5 <= r2 <= 2.6 and picard_ok
    _emit(capsys, 8, ok, f"one-step residual of the reconstructed fields is O(dt): "
                 f"{combined[0]:.3f}/{combined[1]:.3f}/{combined[2]:.3f} "
                 f"(ratios {r1:.2f}, {r2:.2f}); short-horizon alternation "
                 f"agrees within 10dt: {picard_ok}")


def test_criterion_09_constraint_certification(capsys, runs, corpus):
    worst = 0.0
    for name in corpus:
        for nt in GRID:
            result = runs(name, nt)[0]
            worst = max(worst,
                        float(np.abs(result.constrained.constraint_residual).max()))
    _emit(capsys, 9, worst <= 1e-8,
          f"certified mean-constraint residual across the corpus: {worst:.2e}")


def test_criterion_10_convexity(capsys, corpus):
    rng = np.random.default_rng(20260815)
    min_eig = np.inf
    margin = np.inf
    for spec in corpus.values():
        tree = build_tree(spec.horizon, 8)
        coeffs = realize(spec, tree)
        eigs = weighted_hessian_eigenvalues(tree, coeffs)
        min_eig = min(min_eig, float(eigs.min()))
        d = control_dimension(tree, coeffs.m)
        for _ in range(20):
            ua = unstack_controls(rng.standard_normal(d), tree, coeffs.m)
            ub = unstack_controls(rng.standard_normal(d), tree, coeffs.m)
            mid = [0.5 * (a + b) for a, b in zip(ua, ub)]
            diff = [a - b for a, b in zip(ua, ub)]
            gap = (0.5 * evaluate_cost(tree, coeffs, ua)
                   + 0.5 * evaluate_cost(tree, coeffs, ub)
                   - evaluate_cost(tree, coeffs, mid))
            margin = min(margin,
                         gap - 0.4 * DELTA * weighted_inner(tree, diff, diff))
    ok = min_eig >= 1.9 * DELTA and margin > 0.0
    _emit(capsys, 10, ok, f"weighted Hessian min eigenvalue {min_eig:.3f} >= "
                  f"{1.9 * DELTA}; midpoint strict-convexity margin over "
                  f"20 pairs/problem: {margin:.3e}")


def test_criterion_11_gradient_check(capsys, corpus):
    rng = np.random.default_rng(42)
    worst = 0.0
    for spec in corpus.values():
        tree = build_tree(spec.horizon, 8)
        coeffs = realize(spec, tree)
        d = control_dimension(tree, coeffs.m)
        for _ in range(10):
            u = unstack_controls(rng.standard_normal(d), tree, coeffs.m)
            v = unstack_controls(rng.standard_normal(d), tree, coeffs.m)
            da = directional_derivative(tree, coeffs, u, v)
            df = directional_derivative_fd(tree, coeffs, u, v)
            worst = max(worst, abs(da - df) / (1.0 + abs(da)))
    _emit(capsys, 11, worst <= 1e-6,
          f"analytic vs central-difference directional derivative over "
          f"10 pairs/problem: worst relative error {worst:.2e}")


def test_criterion_12_deterministic_reports(capsys, tmp_path):
    payloads = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        code = cli_main(["run", "--spec", str(corpus_path("m1")), "--nt", "5",
                         "--with-oracle", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        report.pop("timings")
        payloads.append(json.dumps(report, sort_keys=True))
    ok = payloads[0] == payloads[1]
    _emit(capsys, 12, ok, "repeated runs produce byte-identical checked payloads")
