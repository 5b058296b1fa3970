"""Outer stage: the on-demand mean-target quadratic and the pipeline."""

import dataclasses

import numpy as np
import pytest

from mfbslq import NumericsError, build_tree, realize, solve_riccati
from mfbslq import multipliers
from mfbslq.multipliers import (eta_dimension, solve_constrained_problem,
                                solve_decoupled)
from mfbslq.oracle import evaluate_cost
from mfbslq import outer
from mfbslq.outer import assemble_outer_quadratic, run_pipeline
from conftest import (barred_zero_spec, count_calls, perturb_coupling_response,
                      scalar_spec, tile_realize, workspace)


def _setup(spec, nt):
    tree = build_tree(spec.horizon, nt)
    coeffs = realize(spec, tree)
    ric = solve_riccati(tree, coeffs)
    return tree, coeffs, ric


def _quad_value(quad, eta):
    return quad.constant + 2.0 * quad.linear @ eta + eta @ quad.hessian @ eta


# ---------------------------------------------------------------------------
# the quadratic is the exact cost of the reachable family


def test_quadratic_equals_true_cost(m1):
    tree, coeffs, ric = _setup(m1, 4)
    quad = assemble_outer_quadratic(tree, coeffs, ric)
    ws = workspace(tree, coeffs, ric)
    ops = multipliers.probe_operators(tree, coeffs, ws)
    rng = np.random.default_rng(29)
    for _ in range(3):
        eta = rng.standard_normal(eta_dimension(tree, coeffs))
        sol = solve_constrained_problem(tree, coeffs, ws, ops, eta)
        true_cost = evaluate_cost(tree, coeffs, sol.u)
        assert abs(_quad_value(quad, eta) - true_cost) <= 1e-9 * (1 + abs(true_cost))


def test_quadratic_probes_once(m1_random, monkeypatch):
    # every column block of the eta family reuses one probe of the maps
    probes = (count_calls(monkeypatch, outer, "probe_operators"),
              count_calls(monkeypatch, multipliers, "probe_operators"))
    tree, coeffs, ric = _setup(m1_random, 6)
    assemble_outer_quadratic(tree, coeffs, ric)
    assert eta_dimension(tree, coeffs) > 16   # more than one column block
    assert sum(map(len, probes)) == 1


def test_quadratic_is_positive_semidefinite(corpus):
    for name, spec in corpus.items():
        tree, coeffs, ric = _setup(spec, 3)
        quad = assemble_outer_quadratic(tree, coeffs, ric)
        assert quad.min_eigenvalue >= -1e-9, name
        assert np.allclose(quad.hessian, quad.hessian.T, atol=1e-12)


# ---------------------------------------------------------------------------
# pipeline behavior


def test_pipeline_report_contract(m1):
    res = run_pipeline(m1, 4, with_oracle=True)
    report = res.report()
    assert set(report) == {"cost", "eta_star", "multiplier_residual",
                           "constraint_residuals", "stationarity_residual",
                           "riccati", "diagnostics", "timings", "oracle"}
    assert set(report["constraint_residuals"]) == {"y_means", "z_means",
                                                   "u_means"}
    assert set(report["riccati"]) == {"symmetry", "min_sigma_eig",
                                      "min_I_plus_SigmaR_sv"}
    assert set(report["oracle"]) == {"cost", "control_error", "gradient_norm",
                                     "certified", "method", "min_kkt_tail_sv"}
    assert report["oracle"]["min_kkt_tail_sv"] == res.oracle.min_kkt_tail_sv > 0.0
    assert report["oracle"]["certified"] is True
    assert report["oracle"]["method"] == "sparse"
    assert report["oracle"]["gradient_norm"] == res.oracle.gradient_norm
    diag = report["diagnostics"]
    assert set(diag) == {"newton_iterations", "newton_iterations_per_level", "riccati_nodes",
                         "min_I_plus_SR_sv",
                         "min_I_plus_dt_SigmaQ_minus_A_sv", "min_I_minus_dt_A_sv",
                         "min_mean_closing_sv", "outer_columns",
                         "outer_relative_residual", "min_outer_preconditioner_sv"}
    assert diag["min_outer_preconditioner_sv"] == res.outer.min_preconditioner_sv > 0.0
    assert diag["newton_iterations"] == res.riccati.newton_iterations
    assert len(diag["newton_iterations_per_level"]) == res.tree.n_steps
    assert max(diag["newton_iterations_per_level"]) == diag["newton_iterations"]
    assert diag["riccati_nodes"] == res.riccati.newton_nodes == 4   # one per level
    assert diag["outer_columns"] == 2   # node-constant: the base and one product
    assert 0.0 <= diag["outer_relative_residual"] <= 1e-12
    assert report["multiplier_residual"] == res.multiplier_residual
    assert 0.0 <= res.multiplier_residual <= 1e-12
    for key in ("min_I_plus_SR_sv", "min_I_plus_dt_SigmaQ_minus_A_sv",
                "min_I_minus_dt_A_sv", "min_mean_closing_sv"):
        assert 0.5 < diag[key] < 2.0   # all four are I + O(dt) at nt=4
    assert report["cost"] > 0
    assert max(report["constraint_residuals"].values()) <= 1e-8
    assert len(report["eta_star"]) == eta_dimension(res.tree, res.coeffs)

    plain = run_pipeline(m1, 4).report()
    assert "oracle" not in plain


def test_pipeline_without_coupling_is_plain_feedback():
    from mfbslq.multipliers import riccati_control
    res = run_pipeline(barred_zero_spec("m1"), 8)
    assert np.linalg.norm(res.constrained.lam) <= 1e-7
    feedback = riccati_control(res.tree, res.coeffs, res.riccati)
    worst = max(np.abs(a - b).max()
                for a, b in zip(res.constrained.u, feedback))
    assert worst <= 1e-7


def test_pipeline_zero_terminal_costs_nothing():
    res = run_pipeline(scalar_spec(), 4, with_oracle=True)
    assert abs(res.cost) <= 1e-18
    assert res.oracle_control_error <= 1e-12
    for k in range(4):
        assert np.abs(res.constrained.u[k]).max() <= 1e-10


def test_pipeline_close_to_oracle_on_fine_tree(s1):
    res = run_pipeline(s1, 16, with_oracle=True)
    assert res.oracle_control_error <= 0.1
    assert res.oracle_cost_gap >= -1e-9
    assert abs(res.cost - res.oracle.cost) <= 0.05 * abs(res.oracle.cost)


def test_pipeline_validates_assumptions():
    from mfbslq import SpecValidationError
    bad = scalar_spec(N=0.1)  # below the convexity floor
    with pytest.raises(SpecValidationError):
        run_pipeline(bad, 4)


def test_pipeline_timings_cover_stages(m1):
    res = run_pipeline(m1, 3)
    stages = dict(res.timings)
    for stage in ("realize", "validate", "riccati", "solve_outer_system",
                  "final_solve", "cost", "stationarity"):
        assert stage in stages and stages[stage] >= 0.0
    assert "outer_quadratic" not in stages and "probe_operators" not in stages
    assert stages["peak_rss_mb"] > 0.0


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(what)
    return refuse


def test_pipeline_probes_once(corpus, monkeypatch):
    # the node-mean system is probed once, by 2d columns in one call, and
    # the base sweep runs once: then one single-column call per GMRES
    # product, and nothing else.  A preconditioner rebuilt per product
    # would add calls
    widths = []
    real = multipliers.linear_response

    def counted(tree, coeffs, ws, lam, eta):
        widths.append(lam.shape[1])
        return real(tree, coeffs, ws, lam, eta)

    monkeypatch.setattr(multipliers, "linear_response", counted)
    base = count_calls(monkeypatch, multipliers, "_xi_response")
    for name, nt in (("d2", 5), ("d2", 13), ("m1_random", 5)):
        widths.clear()
        base.clear()
        res = run_pipeline(corpus[name], nt)
        d = eta_dimension(res.tree, res.coeffs)
        products = res.outer.columns - 1
        assert len(base) == 1, (name, nt)
        assert widths == [2 * d] + [1] * products, (name, nt)
        assert res.multiplier_residual <= 1e-12


@pytest.mark.parametrize("name", ["m1_random", "tiled_d2"])
def test_deep_node_varying_trees_run_gmres(corpus, monkeypatch, name):
    if name == "tiled_d2":
        tile_realize(monkeypatch)
    gmres = count_calls(monkeypatch, multipliers, "_gmres")
    res = run_pipeline(corpus[name.removeprefix("tiled_")], 13)
    assert len(gmres) == 1
    assert "probe_operators" not in res.timings
    assert res.outer.columns < 2 * eta_dimension(res.tree, res.coeffs) + 1
    assert res.multiplier_residual <= 1e-12


def test_krylov_pipeline_never_probes(corpus):
    # the base sweep, then the preconditioner's columns on one node per
    # level and one column per GMRES product, then the final solve.  The
    # base and final sweeps always sweep the tree and keep no field but the
    # final control; a product sweeps the tree only on node-varying data,
    # and a second base sweep inside the outer solve would add one
    for name, nt, tiled in (("d2", 5, False), ("d2", 13, False),
                            ("m1_random", 5, False), ("d2", 5, True)):
        with pytest.MonkeyPatch.context() as monkeypatch:
            if tiled:
                tile_realize(monkeypatch)
            calls = count_calls(monkeypatch, multipliers, "solve_decoupled")
            sweeps = count_calls(monkeypatch, multipliers, "forward_levels")
            refuse = _refuse("the pipeline must not probe")
            monkeypatch.setattr(multipliers, "probe_operators", refuse)
            monkeypatch.setattr(outer, "probe_operators", refuse)
            res = run_pipeline(corpus[name], nt)
        case = (name, nt, tiled)
        products = res.outer.columns - 1
        assert 1 <= products <= 8, case
        assert len(calls) == 0, case
        assert len(sweeps) == 2 + (products if name == "m1_random" or tiled else 0), case
        diag = res.report()["diagnostics"]
        assert diag["outer_columns"] == products + 1, case
        assert diag["outer_relative_residual"] <= 1e-12, case
        assert "probe_operators" not in res.timings, case
        assert res.multiplier_residual <= 1e-12, case


def test_final_sweep_keeps_only_the_control(corpus, monkeypatch):
    # every adjoint sweep of the pipeline, the final one last, stops at
    # level n_steps - 1; the result holds the control, no other field, and
    # it is the full-field solve's control at the certified (lam, eta)
    widths = []
    real = multipliers.forward_levels

    def recorded(*args):
        for level in real(*args):
            widths.append(len(level))
            yield level

    monkeypatch.setattr(multipliers, "forward_levels", recorded)
    monkeypatch.setattr(multipliers, "solve_decoupled",
                        _refuse("the pipeline must not keep the decoupled fields"))
    for name, nt in (("d2", 6), ("m1_random", 6)):
        widths.clear()
        res = run_pipeline(corpus[name], nt)
        assert widths[-1] == max(widths) == res.tree.n_nodes(nt - 1), name
        assert [len(level) for level in res.constrained.u] == [
            res.tree.n_nodes(k) for k in range(nt)], name
        kept = {f.name for f in dataclasses.fields(res.constrained)}
        assert kept.isdisjoint({"y", "z", "x", "phi", "vtheta"}), name
        assert "resolved" not in {f.name for f in dataclasses.fields(res)}, name
        full = solve_decoupled(res.tree, res.coeffs, res.riccati,
                               res.constrained.lam, res.constrained.eta)
        assert all(np.array_equal(a, b) for a, b in zip(res.constrained.u, full.u)), name


def test_wrong_probe_is_caught_by_multiplier_residual(m1, monkeypatch):
    # a probed coupling block off by 1e-3 still yields feasible means, so
    # only the multiplier condition on the final solve can catch it
    perturb_coupling_response(monkeypatch, 1e-3)
    with pytest.raises(NumericsError, match="multiplier residual"):
        run_pipeline(m1, 4)


def test_nan_outer_map_is_a_numerics_error(m1_random, monkeypatch):
    # NaN couplings in every product of the outer map used to come out as
    # cost = nan with no error; the solve gates now refuse them
    perturb_coupling_response(monkeypatch, np.nan)
    with np.errstate(all="ignore"), pytest.raises(NumericsError):
        run_pipeline(m1_random, 6)


def test_nan_multiplier_residual_is_a_numerics_error(m1, monkeypatch):
    real = outer.constrained_solution_at

    def nan_coupling(*args):
        sol = real(*args)
        sol.coupling = sol.coupling * np.nan
        return sol

    monkeypatch.setattr(outer, "constrained_solution_at", nan_coupling)
    with pytest.raises(NumericsError, match="multiplier residual nan"):
        run_pipeline(m1, 4)


def test_pipeline_does_not_assemble_outer_quadratic(m1, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline must not assemble the outer quadratic")

    monkeypatch.setattr(outer, "assemble_outer_quadratic", refuse)
    res = run_pipeline(m1, 4, with_oracle=True)
    assert res.oracle_cost_gap >= -1e-9
    assert max(res.report()["constraint_residuals"].values()) <= 1e-8
