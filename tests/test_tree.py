"""Scenario-tree structure and the exact conditional-expectation calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbslq import ConfigurationError, build_tree
from mfbslq.tree import DEFAULT_DEPTH, MAX_DEPTH


def test_grid_basics():
    tree = build_tree(2.0, 4)
    assert tree.dt == 0.5
    assert tree.sqrt_dt == math.sqrt(0.5)
    assert np.allclose(tree.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert [tree.n_nodes(k) for k in range(5)] == [1, 2, 4, 8, 16]
    assert tree.total_nodes == 31
    assert tree.node_probability(3) == 0.125


def test_depth_limits():
    assert MAX_DEPTH == 24
    assert 1 <= DEFAULT_DEPTH <= MAX_DEPTH
    with pytest.raises(ConfigurationError):
        build_tree(1.0, 0)
    with pytest.raises(ConfigurationError):
        build_tree(1.0, MAX_DEPTH + 1)
    with pytest.raises(ConfigurationError):
        build_tree(-1.0, 4)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="finite"):
            build_tree(horizon, 4)


def test_walk_values_match_updown_counts():
    tree = build_tree(1.0, 2)
    h = tree.sqrt_dt
    assert np.allclose(tree.brownian(0), [0.0])
    assert np.allclose(tree.brownian(1), [h, -h])
    # node index bit b = 1 means the step from level b to b+1 went down
    assert np.allclose(tree.brownian(2), [2 * h, 0.0, 0.0, -2 * h])


def test_child_signs_alternate():
    tree = build_tree(1.0, 3)
    assert np.allclose(tree.child_signs(1), [1.0, -1.0, 1.0, -1.0])


def test_walk_is_martingale_with_unit_integrand():
    tree = build_tree(1.5, 6)
    for k in range(tree.n_steps):
        w_next = tree.brownian(k + 1)
        assert np.allclose(tree.cond_expect(w_next), tree.brownian(k))
        assert np.allclose(tree.z_from_next(w_next), 1.0)
        assert abs(tree.expect(w_next)) < 1e-14


def test_cond_expect_inverts_to_children():
    tree = build_tree(1.0, 5)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((tree.n_nodes(3), 2))
    assert np.allclose(tree.cond_expect(tree.to_children(v)), v)
    assert np.allclose(tree.z_from_next(tree.to_children(v)), 0.0)


def test_operators_reject_odd_levels():
    tree = build_tree(1.0, 3)
    for op in (tree.cond_expect, tree.z_from_next):
        for odd in (np.zeros(0), np.zeros(3), np.zeros((5, 2))):
            with pytest.raises(ConfigurationError):
                op(odd)
    with pytest.raises(ConfigurationError):
        tree.brownian(9)


def test_operators_accept_one_node_levels():
    # one node stands for a value shared by every node of its level
    tree = build_tree(1.0, 3)
    value = np.array([[[1.5, -2.0]]])
    assert tree.cond_expect(value) is value
    z = tree.z_from_next(value)
    assert z.shape == value.shape and not z.any()
    assert np.array_equal(tree.expect(value), value[0])
    full = np.repeat(value, 4, axis=0)
    assert np.array_equal(tree.cond_expect(full)[0], tree.cond_expect(value)[0])
    assert np.array_equal(tree.z_from_next(full)[0], z[0])
    assert np.array_equal(tree.expect(full), tree.expect(value))


def test_operators_work_on_matrix_valued_processes():
    tree = build_tree(1.0, 3)
    rng = np.random.default_rng(1)
    v = rng.standard_normal((8, 2, 2))
    cond = tree.cond_expect(v)
    assert cond.shape == (4, 2, 2)
    assert np.allclose(cond[0], 0.5 * (v[0] + v[1]))
    z = tree.z_from_next(v)
    assert np.allclose(z[1], (v[2] - v[3]) / (2 * tree.sqrt_dt))


@settings(max_examples=25, deadline=None)
@given(level=st.integers(min_value=0, max_value=6), seed=st.integers(0, 2**32 - 1))
def test_tower_property(level, seed):
    tree = build_tree(1.0, 7)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((tree.n_nodes(level + 1), 3))
    # averaging children then the level equals averaging the child level
    assert np.allclose(tree.expect(tree.cond_expect(v)), tree.expect(v))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_martingale_difference_orthogonality(seed):
    # E[ Z * dW | parent ] = Z * E[dW] = 0 for any parent-measurable Z
    tree = build_tree(1.0, 4)
    rng = np.random.default_rng(seed)
    k = 2
    z = rng.standard_normal(tree.n_nodes(k))
    dw = tree.sqrt_dt * tree.child_signs(k)
    prod = tree.to_children(z) * dw
    assert np.allclose(tree.cond_expect(prod), 0.0)


def test_increment_reconstruction_identity():
    # any child-level process splits as conditional mean + integrand * dW
    tree = build_tree(1.0, 4)
    rng = np.random.default_rng(2)
    y_next = rng.standard_normal(tree.n_nodes(3))
    cond = tree.cond_expect(y_next)
    z = tree.z_from_next(y_next)
    dw = tree.sqrt_dt * tree.child_signs(2)
    rebuilt = tree.to_children(cond) + tree.to_children(z) * dw
    assert np.allclose(rebuilt, y_next)
