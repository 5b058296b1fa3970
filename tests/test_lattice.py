"""The walk lattice: data that depend on the path only through W(t_k).

Level k of the lattice has k + 1 nodes, one per number d of down moves.
Where every coefficient is a function of (k, W(t_k)), the Riccati pair and
the outer system run on it, and so does the oracle's elimination when the
terminal value is a function of W(T); the pair stays there, and gathered to
the tree it is the tree's solve bit for bit, the lattice sweeps give the level means and
couplings of the full sweeps, and the oracle gives the tree route's
controls.  The route is decided by the values.
"""

import dataclasses
import json

import numpy as np
import pytest

from mfbslq import (ConfigurationError, RiccatiError, build_tree, load_spec, realize,
                    run_pipeline, solve_decoupled, solve_riccati)
from mfbslq.model import CoefficientSet
from mfbslq.tree import ScenarioTree, WalkLattice
from mfbslq import multipliers, oracle
from mfbslq.multipliers import eta_dimension
from conftest import (corpus_path, materialised, on_tree, record_adjoint_steps,
                      workspace)


def vector_walk_doc() -> dict:
    """d2 with A, C and R affine in tanh(W), Q a polynomial in tanh(W) and
    a polynomial terminal in W(T): a 2 x 2 Riccati pair that varies over
    the nodes, on the lattice."""
    doc = json.loads(corpus_path("d2").read_text())
    doc["dynamics"]["A"] = {"form": "affine_tanh_W", "m0": [[0.1, 0.05], [0.0, 0.15]],
                            "m1": [[0.1, 0.0], [0.05, -0.1]]}
    doc["dynamics"]["C"] = {"form": "affine_tanh_W", "m0": [[0.2, 0.0], [0.1, 0.1]],
                            "m1": [[0.1, 0.05], [0.0, 0.1]]}
    doc["cost"]["R"] = {"form": "affine_tanh_W", "m0": [[1.0, 0.2], [0.2, 1.0]],
                        "m1": [[0.2, 0.0], [0.0, 0.1]]}
    doc["cost"]["Q"] = {"form": "tanh_poly_W", "coeffs": [
        [[1.0, 0.1], [0.1, 0.5]], [[0.2, 0.0], [0.0, 0.1]], [[0.1, 0.0], [0.0, 0.1]]]}
    doc["terminal"] = {"form": "poly_in_WT",
                       "coeffs": [[1.0, -0.5], [0.5, 0.2], [0.1, 0.0]]}
    return doc


@pytest.fixture(scope="module")
def walk_specs(m1_random):
    return {"m1_random": m1_random, "vector": load_spec(json.dumps(vector_walk_doc()))}


def _class_means(tree, values):
    """The mean of a tree level over each class of nodes with d down moves."""
    downs = tree.popcounts(len(values).bit_length() - 1)
    counts = np.bincount(downs)
    sums = np.zeros((len(counts),) + values.shape[1:])
    np.add.at(sums, downs, values)
    return sums / counts.reshape((-1,) + (1,) * (values.ndim - 1))


# ---------------------------------------------------------------------------
# the layout


def test_restrict_and_gather_are_inverse():
    tree = build_tree(1.0, 14)
    rng = np.random.default_rng(5)
    for level in range(15):
        downs = np.bitwise_count(np.arange(1 << level))
        assert tree.popcounts(level).dtype == np.uint8
        assert np.array_equal(tree.popcounts(level), downs)
        lattice = rng.standard_normal((level + 1, 2, 3))
        full = tree.gather(lattice, level)
        assert np.array_equal(full, lattice[downs])
        assert np.array_equal(tree.restrict(full), lattice)
        if level > 1:   # one node off its class: not on the lattice
            full[-2, 1, 2] = np.nextafter(full[-2, 1, 2], np.inf)
            assert tree.restrict(full) is None
    one = rng.standard_normal((1, 2))
    assert tree.gather(one, 9) is one and tree.restrict(one) is one
    # the walk itself, and a NaN never passes
    assert np.array_equal(tree.restrict(tree.brownian(9)),
                          tree.sqrt_dt * (9 - 2.0 * np.arange(10)))
    assert tree.restrict(np.full((8, 1), np.nan)) is None


def test_gather_refuses_a_tree_level():
    # a level is gathered only from k + 1 lattice nodes or one node: a tree
    # level of four nodes is not taken for lattice level 3
    tree = build_tree(1.0, 6)
    with pytest.raises(ConfigurationError, match="4 lattice nodes or one node on level 3, "
                                                 "got 8"):
        tree.gather(np.arange(8.0), 3)
    with pytest.raises(ConfigurationError, match="7 lattice nodes .* level 6, got 4"):
        tree.gather(np.arange(4.0), 6)
    with pytest.raises(ConfigurationError, match="level 7 outside"):
        tree.gather(np.arange(8.0), 7)
    assert np.array_equal(tree.gather(np.arange(3.0), 2), [0, 1, 1, 2])


def test_lattice_operators_match_the_tree():
    tree = build_tree(1.5, 9)
    lattice = tree.lattice()
    rng = np.random.default_rng(6)
    for level in range(9):
        weights = lattice.weights(level)
        assert weights.sum() == 1.0
        assert lattice.tree_nodes(level, np.ones(level + 1, bool)) == 1 << level
        nxt = rng.standard_normal((level + 2, 3))
        # a function of W(t_{k+1}): the same arithmetic, bit for bit
        for op in ("cond_expect", "z_from_next"):
            assert np.array_equal(getattr(lattice, op)(nxt),
                                  tree.restrict(getattr(tree, op)(
                                      tree.gather(nxt, level + 1))))
        mats = rng.standard_normal((level + 1, 3, 2))
        x = rng.standard_normal((level + 1, 3, 4))
        for m, v in ((mats, x), (mats[:1], x), (mats, x[:1]), (mats, x[..., 0])):
            want = tree.level_coupling(tree.gather(m, level), tree.gather(v, level))
            np.testing.assert_allclose(lattice.level_coupling(m, v), want, rtol=1e-13)
        np.testing.assert_allclose(lattice.expect(x), tree.expect(tree.gather(x, level)),
                                   rtol=1e-13)
        # a forward step: the lattice keeps the children's mean given d
        step, shock = x, rng.standard_normal((level + 1, 3, 4))
        want = _class_means(tree, tree.children(tree.gather(step, level),
                                                tree.gather(shock, level)))
        np.testing.assert_allclose(lattice.children(step, shock), want, rtol=1e-13,
                                   atol=1e-15)


# ---------------------------------------------------------------------------
# the Riccati pair


@pytest.mark.parametrize("name", ["m1_random", "vector"])
def test_lattice_riccati_pair_is_the_tree_solve(walk_specs, monkeypatch, name):
    # Sigma and Phi stay on the lattice, k + 1 nodes on level k (one on the
    # zero terminal level and on the last Phi, its integrand); gathered to the tree they equal the tree's solve
    # bit for bit, and so do the health numbers; Newton runs on k + 1 nodes
    # of level k
    spec = walk_specs[name]
    for nt in (4, 8, 12, 16):
        tree = build_tree(spec.horizon, nt)
        got = solve_riccati(tree, realize(spec, tree))
        with monkeypatch.context() as patch:
            on_tree(patch)
            want = solve_riccati(tree, realize(spec, tree))
        assert got.newton_nodes == nt * (nt + 1) // 2
        assert want.newton_nodes == (1 << nt) - 1
        assert [len(level) for level in got.sigma] == list(range(1, nt + 1)) + [1]
        assert [len(level) for level in got.phi] == list(range(1, nt)) + [1]
        for k, (a, b) in [*enumerate(zip(got.sigma, want.sigma)),
                          *enumerate(zip(got.phi, want.phi))]:
            a = tree.gather(a, k)
            assert a.shape == b.shape and np.array_equal(a, b), (nt, k)
        for field in ("symmetry_defect", "min_sigma_eig", "min_conditioner_sv",
                      "newton_iterations_per_level"):
            assert getattr(got, field) == getattr(want, field), (nt, field)


@pytest.mark.parametrize("name", ["m1_random", "vector"])
def test_pipeline_keeps_the_pair_on_the_lattice(walk_specs, monkeypatch, name):
    # a pipeline run returns Sigma and Phi on the lattice, k + 1 nodes on
    # level k and one where node-constant (the zero terminal and its
    # integrand), and the only tree levels it restricts are the coefficient
    # set's own: the pair is never gathered to be restricted back
    real_restrict, real_on_lattice = ScenarioTree.restrict, CoefficientSet.on_lattice
    inside, callers = [], []

    def on_lattice(self, tree):
        inside.append(True)
        try:
            return real_on_lattice(self, tree)
        finally:
            inside.pop()

    def restrict(self, values):
        callers.append(bool(inside))
        return real_restrict(self, values)

    monkeypatch.setattr(CoefficientSet, "on_lattice", on_lattice)
    monkeypatch.setattr(ScenarioTree, "restrict", restrict)
    res = run_pipeline(walk_specs[name], 16)
    assert [len(level) for level in res.riccati.sigma] == list(range(1, 17)) + [1]
    assert [len(level) for level in res.riccati.phi] == list(range(1, 16)) + [1]
    assert callers and all(callers)


def test_lattice_riccati_names_the_tree_node(m1_random, monkeypatch):
    # an infinite A on the level-3 nodes with two down moves, 3, 5 and 6:
    # both routes name the first of them
    tree = build_tree(1.0, 6)
    coeffs = realize(m1_random, tree)
    coeffs.A[3][[3, 5, 6]] = np.inf
    assert coeffs.on_lattice(tree) is not None
    for route in ("lattice", "tree"):
        with monkeypatch.context() as patch:
            if route == "tree":
                on_tree(patch)
            with pytest.raises(RiccatiError, match=r"not finite at level 3, node 3$"):
                solve_riccati(tree, dataclasses.replace(coeffs))


# ---------------------------------------------------------------------------
# the outer system


@pytest.mark.parametrize("name", ["m1_random", "vector", "tiled_d2", "s1", "m1", "d2"])
@pytest.mark.parametrize("nt", [5, 12])
def test_lattice_means_match_full_sweeps(walk_specs, corpus, monkeypatch, name, nt):
    # the linear part and the base sweep, each one lattice sweep, give the
    # means and couplings of full sweeps of the tree, on node-varying data
    # and on compact node-constant data alike
    spec = {**corpus, **walk_specs}[name.removeprefix("tiled_")]
    tree = build_tree(spec.horizon, nt)
    coeffs = realize(spec, tree)
    if name == "tiled_d2":
        coeffs = materialised(tree, coeffs)
    ric = solve_riccati(tree, coeffs)
    ws = workspace(tree, coeffs, ric)
    assert isinstance(ws.layout, WalkLattice)
    d = eta_dimension(tree, coeffs)
    lam, eta = np.random.default_rng(nt).standard_normal((2, d, 3))
    zero = dataclasses.replace(coeffs, xi=np.zeros_like(coeffs.xi))
    full = solve_decoupled(tree, zero, ric, lam, eta)
    base = solve_decoupled(tree, coeffs, ric, np.zeros(d), np.zeros(d))

    steps = record_adjoint_steps(monkeypatch)
    means, coupling = multipliers.linear_response(tree, coeffs, ws, lam, eta)
    assert steps == [(k, k + 2) for k in range(nt - 1)]
    steps.clear()
    base_means, base_coupling = multipliers._xi_response(tree, coeffs, ws)
    assert steps == [(k, k + 2) for k in range(nt - 1)]
    for got, want in ((means, full.means), (coupling, full.coupling),
                      (base_means, base.means), (base_coupling, base.coupling)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def leaf_terminal_doc(nt: int) -> dict:
    """m1_random with a leaf_table terminal for depth ``nt``: coefficients
    on the walk lattice, a terminal off it."""
    doc = json.loads(corpus_path("m1_random").read_text())
    doc["terminal"] = {"form": "leaf_table",
                       "values": np.random.default_rng(9).standard_normal(1 << nt).tolist()}
    return doc


@pytest.mark.parametrize("name, nt", [("m1_random", 10), ("d2", 9), ("vector", 8),
                                      ("leaf_terminal", 8)])
def test_final_sweep_is_the_tree_route_bit_for_bit(walk_specs, corpus, monkeypatch,
                                                    name, nt):
    # the final sweep reads the lattice workspace one gathered level at a
    # time: its backward half runs on the lattice when xi is a function of
    # W(T), on the tree for a leaf_table xi, and its forward half on the
    # tree.  u, the means and the couplings are the forced tree route's,
    # bit for bit, at the same (lam, eta)
    if name == "leaf_terminal":
        spec = load_spec(json.dumps(leaf_terminal_doc(nt)))
    else:
        spec = {**corpus, **walk_specs}[name]
    tree = build_tree(spec.horizon, nt)
    coeffs = realize(spec, tree)
    ws = workspace(tree, coeffs, solve_riccati(tree, coeffs))
    assert isinstance(ws.layout, WalkLattice)
    eta, lam = multipliers.solve_outer_system(tree, coeffs, ws)[:2]
    layouts = []
    real = multipliers._backward_sweep

    def recorded(layout, *args):
        layouts.append(type(layout))
        return real(layout, *args)

    with monkeypatch.context() as patch:
        patch.setattr(multipliers, "_backward_sweep", recorded)
        got = multipliers.constrained_solution_at(tree, coeffs, ws, lam, eta)
    assert layouts == [ScenarioTree if name == "leaf_terminal" else WalkLattice]
    with monkeypatch.context() as patch:
        on_tree(patch)
        tree_coeffs = realize(spec, tree)
        tree_ws = workspace(tree, tree_coeffs, solve_riccati(tree, tree_coeffs))
        want = multipliers.constrained_solution_at(tree, tree_coeffs, tree_ws, lam, eta)
    assert tree_ws.layout is tree
    assert all(np.array_equal(a, b) for a, b in zip(got.u, want.u))
    assert np.array_equal(got.means, want.means)
    assert np.array_equal(got.coupling, want.coupling)


@pytest.mark.parametrize("name", ["s1", "m1", "m1_random", "d2", "vector"])
def test_one_sweep_outer_system_matches_separate_sweeps(walk_specs, corpus, monkeypatch,
                                                         name):
    # on lattice data the outer solve sweeps its 2d unit columns and its
    # base column together: that one sweep reads the means and couplings of
    # the unit columns swept alone and of the base sweep within 1e-14
    # relative, and a fresh single-column sweep at the solution reads the
    # relative residual GMRES reports
    spec = {**corpus, **walk_specs}[name]
    tree = build_tree(spec.horizon, 8)
    coeffs = realize(spec, tree)
    ws = workspace(tree, coeffs, solve_riccati(tree, coeffs))
    d = eta_dimension(tree, coeffs)
    swept = []
    real = multipliers.linear_response

    def recorded(*args):
        swept.append(real(*args))
        return swept[-1]

    with monkeypatch.context() as patch:
        patch.setattr(multipliers, "linear_response", recorded)
        sol = multipliers.solve_outer_system(tree, coeffs, ws)
    [(means, coupling)] = swept
    assert means.shape == coupling.shape == (d, 2 * d + 1)
    unit, zero = np.eye(d), np.zeros((d, d))
    alone = multipliers.linear_response(tree, coeffs, ws, np.hstack([zero, unit]),
                                        np.hstack([unit, zero]))
    base = multipliers._xi_response(tree, coeffs, ws)
    for got, want in ((means[:, :-1], alone[0]), (coupling[:, :-1], alone[1]),
                      (means[:, -1], base[0]), (coupling[:, -1], base[1])):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    rhs = np.concatenate(base)
    at = np.concatenate([sol.eta, sol.lam, [0.0]])[:, None]
    fresh = multipliers._outer_map(tree, coeffs, ws, multipliers.mean_cost_weights(tree, coeffs),
                                   at)[:, 0]
    assert abs(np.linalg.norm(fresh - rhs) / np.linalg.norm(rhs)
               - sol.relative_residual) <= 1e-14


@pytest.mark.parametrize("nt", [6, 11])
def test_lattice_pipeline_matches_the_tree_route(walk_specs, monkeypatch, nt):
    # the n = 2 document end to end: one GMRES product on the lattice, the
    # answers of the tree route within rounding
    spec = walk_specs["vector"]
    got = run_pipeline(spec, nt)
    with monkeypatch.context() as patch:
        on_tree(patch)
        want = run_pipeline(spec, nt)
    assert got.outer.columns == 2 and want.outer.columns > 2
    assert abs(got.cost - want.cost) <= 1e-12 * abs(want.cost)
    scale = np.abs(want.constrained.eta).max()
    assert np.abs(got.constrained.eta - want.constrained.eta).max() <= 1e-10 * scale
    for a, b in zip(got.constrained.u, want.constrained.u):
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


@pytest.mark.parametrize("name, nt", [("s1", 6), ("m1_random", 10), ("d2", 9),
                                      ("vector", 8)])
def test_lattice_oracle_matches_the_tree_route(walk_specs, corpus, monkeypatch, name, nt):
    # the elimination and the leaves-first pass on k + 1 lattice nodes per
    # level, the root-first pass on the tree: the tree route's controls and
    # KKT tail on the same coefficient set, within rounding
    spec = walk_specs["vector"] if name == "vector" else corpus[name]
    tree = build_tree(spec.horizon, nt)
    coeffs = realize(spec, tree)
    got, got_sv, got_nodes = oracle._solve_sparse(tree, coeffs)
    with monkeypatch.context() as patch:
        on_tree(patch)
        want, want_sv, want_nodes = oracle._solve_sparse(tree, coeffs)
    assert (got_nodes, want_nodes) == (nt * (nt + 1) // 2, (1 << nt) - 1)
    reference = np.concatenate([level.ravel() for level in want])
    diff = np.concatenate([level.ravel() for level in got]) - reference
    assert np.abs(diff).max() <= 1e-12 * np.abs(reference).max()
    assert abs(got_sv - want_sv) <= 1e-12 * want_sv


# ---------------------------------------------------------------------------
# the route


def test_route_is_decided_by_value(m1_path, m1_random, monkeypatch):
    # path-dependent data run on the tree
    tree = build_tree(1.0, 8)
    coeffs = realize(m1_path, tree)
    assert coeffs.on_lattice(tree) is None
    ric = solve_riccati(tree, coeffs)
    assert ric.newton_nodes == tree.total_nodes - tree.n_nodes(8)
    assert workspace(tree, coeffs, ric).layout is tree

    # a node_table that is a function of W(t_k) takes the lattice: the
    # values decide, not the form
    doc = json.loads(corpus_path("m1_random").read_text())
    shallow = build_tree(1.0, 6)
    a_levels = realize(m1_random, shallow).A
    doc["dynamics"]["A"] = {"form": "node_table",
                            "values": [level[:, 0, 0].tolist() for level in a_levels]}
    assert realize(load_spec(json.dumps(doc)), shallow).on_lattice(shallow) is not None

    # a leaf_table terminal off the walk: the Riccati pair and the linear
    # part on the lattice, the base sweep on the tree
    spec = load_spec(json.dumps(leaf_terminal_doc(6)))
    coeffs = realize(spec, shallow)
    assert coeffs.on_lattice(shallow).xi is None
    ric = solve_riccati(shallow, coeffs)
    assert ric.newton_nodes == 21
    ws = workspace(shallow, coeffs, ric)
    assert isinstance(ws.layout, WalkLattice)
    steps = record_adjoint_steps(monkeypatch)
    multipliers._xi_response(shallow, coeffs, ws)
    assert steps[1] == (1, 4)      # the tree
    steps.clear()
    d = eta_dimension(shallow, coeffs)
    multipliers.linear_response(shallow, coeffs, ws, np.eye(d)[:, :1], np.zeros((d, 1)))
    assert steps[1] == (1, 3)      # the lattice
    res = run_pipeline(spec, 6)
    assert res.outer.columns == 2 and res.multiplier_residual <= 1e-12

    # a NaN on one node of a wide level: the tree
    coeffs = realize(m1_random, shallow)
    coeffs.N[4][7] = np.nan
    assert coeffs.on_lattice(shallow) is None


def test_oracle_route_is_decided_by_value(m1_path, m1_random):
    # lattice data: k + 1 nodes per level, 21 on six levels
    shallow = build_tree(1.0, 6)
    assert oracle.solve_oracle(shallow, realize(m1_random, shallow)).elimination_nodes == 21
    # path-dependent drift: the tree
    tree = build_tree(1.0, 8)
    sol = oracle.solve_oracle(tree, realize(m1_path, tree))
    assert sol.elimination_nodes == tree.total_nodes - tree.n_nodes(8)
    # lattice coefficients with a leaf_table terminal off the walk: the tree
    coeffs = realize(load_spec(json.dumps(leaf_terminal_doc(6))), shallow)
    assert coeffs.on_lattice(shallow).xi is None
    assert oracle.solve_oracle(shallow, coeffs).elimination_nodes == 63
    # one node of a wide level moved off its class: the tree
    coeffs = realize(m1_random, shallow)
    coeffs.N[4][7] *= 1.01
    assert coeffs.on_lattice(shallow) is None
    assert oracle.solve_oracle(shallow, coeffs).elimination_nodes == 63
