"""Scenario-tree structure and the exact conditional-expectation calculus."""

import math

import numpy as np
import pytest

from mfbslq import ConfigurationError, build_tree
from mfbslq.tree import (DEFAULT_DEPTH, MAX_DEPTH, _inv, _lowest_eig, _mul, _mul_last,
                         _mv, _solve)


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
    # a depth is an int, as the spec parser requires of n and m: no
    # truncated float or string, and no bool
    for depth in (3.7, True, "5"):
        with pytest.raises(ConfigurationError, match="integer"):
            build_tree(1.0, depth)
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


def test_walk_values_match_the_bit_loop():
    # the number of down moves to node j is the number of set bits of j
    tree = build_tree(1.0, 12)
    for level in range(13):
        j = np.arange(1 << level, dtype=np.int64)
        downs = np.zeros(1 << level, dtype=np.int64)
        for bit in range(level):
            downs += (j >> bit) & 1
        expected = tree.sqrt_dt * (level - 2 * downs).astype(np.float64)
        got = tree.brownian(level)
        assert got.dtype == np.float64
        assert np.array_equal(got, expected)


def test_child_signs_alternate():
    # a forward step's shock enters with the sign of the move: entry 2j is
    # the up child of j, dW = +sqrt(dt), entry 2j+1 the down child
    tree = build_tree(1.0, 3)
    step, shock = np.array([[1.0], [2.0]]), np.array([[0.5], [0.25]])
    assert np.array_equal(tree.children(step, shock)[:, 0], [1.5, 0.5, 2.25, 1.75])
    assert np.array_equal(tree.children(np.zeros(2), np.ones(2)), [1.0, -1.0, 1.0, -1.0])


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
    v, s = rng.standard_normal((2, tree.n_nodes(3), 2))
    assert np.allclose(tree.cond_expect(tree.children(v, np.zeros_like(v))), v)
    assert np.allclose(tree.z_from_next(tree.children(v, np.zeros_like(v))), 0.0)
    # a shock s is the integrand s / sqrt(dt) and leaves the mean
    assert np.allclose(tree.cond_expect(tree.children(v, s)), v)
    assert np.allclose(tree.z_from_next(tree.children(v, s)), s / tree.sqrt_dt)


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


def test_tower_property():
    # 25 seeded draws, every level 0..6 in turn
    tree = build_tree(1.0, 7)
    rng = np.random.default_rng(25)
    for trial in range(25):
        level = trial % 7
        v = rng.standard_normal((tree.n_nodes(level + 1), 3))
        # averaging children then the level equals averaging the child level
        assert np.allclose(tree.expect(tree.cond_expect(v)), tree.expect(v)), trial


def test_martingale_difference_orthogonality():
    # E[ Z * dW | parent ] = Z * E[dW] = 0 for any parent-measurable Z,
    # over 25 seeded draws
    tree = build_tree(1.0, 4)
    rng = np.random.default_rng(26)
    k = 2
    for trial in range(25):
        z = rng.standard_normal(tree.n_nodes(k))
        prod = tree.children(np.zeros_like(z), tree.sqrt_dt * z)   # z dW
        assert np.allclose(tree.cond_expect(prod), 0.0), trial


def test_increment_reconstruction_identity():
    # any child-level process splits as conditional mean + integrand * dW
    tree = build_tree(1.0, 4)
    rng = np.random.default_rng(2)
    y_next = rng.standard_normal(tree.n_nodes(3))
    cond = tree.cond_expect(y_next)
    z = tree.z_from_next(y_next)
    rebuilt = tree.children(cond, tree.sqrt_dt * z)   # cond + z dW
    assert np.allclose(rebuilt, y_next)


# ---------------------------------------------------------------------------
# per-node kernels: 1 x 1 stacks by broadcast arithmetic, the same numbers


@pytest.mark.parametrize("level", [0, 1, 5, 12])
def test_scalar_kernels_match_numpy_exactly(level):
    rng = np.random.default_rng(level)
    nodes = 1 << level
    a = rng.standard_normal((nodes, 1, 1)) * rng.uniform(0.1, 10.0, (nodes, 1, 1))
    b = rng.standard_normal((nodes, 1, 1))
    row = rng.standard_normal((nodes, 1, 3))
    col = rng.standard_normal((nodes, 3, 1))
    assert np.array_equal(_inv(a), np.linalg.inv(a))
    assert np.array_equal(_solve(a, b), np.linalg.solve(a, b))
    assert np.array_equal(_mul(a, b), a @ b)
    assert np.array_equal(_mul(col, row), col @ row)
    assert np.array_equal(_mul(a, row), a @ row)
    assert np.array_equal(_mul(a, np.eye(1)), a @ np.eye(1))
    sym = a * a
    assert np.array_equal(_lowest_eig(sym), np.linalg.eigvalsh(sym)[:, 0])
    # a length-1 node axis stands for every node of the level
    one = a[:1]
    assert np.array_equal(_inv(one), np.linalg.inv(one))
    assert np.array_equal(_mul(one, b), one @ b)
    assert np.array_equal(_mul(b, one), b @ one)
    assert np.array_equal(_solve(one, b), np.linalg.solve(one, b))


def _close(got, want, rtol=1e-15):
    """Equal shapes and agreement to ``rtol`` relative in norm."""
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def test_wider_kernels_are_the_numpy_calls():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 2, 2)) + 3.0 * np.eye(2)
    b = rng.standard_normal((8, 2, 3))
    assert np.array_equal(_inv(a), np.linalg.inv(a))
    assert np.array_equal(_solve(a, b), np.linalg.solve(a, b))
    assert np.array_equal(_mul(a, b), a @ b)
    sym = a @ np.swapaxes(a, 1, 2)
    assert np.array_equal(_lowest_eig(sym), np.linalg.eigvalsh(sym)[:, 0])
    # every branch of the one product dispatch is a @ b: a shared (q, c)
    # stack, a one-node a times a column (full-width or one-node), and
    # matmul, here also for a full-width a times a column; a 2-D a, even
    # one row long (len 1), is a plain matrix, not a one-node stack
    wide = rng.standard_normal((64, 3, 2))
    col = rng.standard_normal((64, 2, 1))
    pairs = [(wide, b[0]), (wide[:1], b[0]), (wide[:1], col), (wide, col),
             (wide, col[:1]), (wide[:1], col[:1]), (wide, b[:1]),
             (wide[0], col), (wide[:1, :1], col), (wide[0, :1], col)]
    for x, y in pairs:
        _close(_mul(x, y), x @ y)
        if y.ndim == 3 and y.shape[-1] == 1:   # _mv is the one-column case
            vec = y[..., 0]
            _close(_mv(x, vec), np.einsum("kij,kj->ki", x, vec) if x.ndim == 3
                   else np.einsum("ij,kj->ki", x, vec))
    # E[mats' x], one-node or full-width on either side, vectors or stacks,
    # against the per-node loop, which sums the 64 nodes in another order
    mats = rng.standard_normal((64, 2, 3))
    stack = rng.standard_normal((64, 2, 4))
    for m in (mats, mats[:1]):
        for x in (stack, stack[:1], stack[..., 0], stack[:1, :, 0]):
            want = sum(m[j % len(m)].T @ x[j % len(x)] for j in range(64)) / 64
            _close(build_tree(1.0, 6).level_coupling(m, x), want, rtol=1e-14)
    # the node-last product (r, q, nodes) @ (q, c, nodes) against the
    # per-node loop a[..., j] @ b[..., j], every branch of its dispatch,
    # transposed views among the operands as the oracle passes them
    def per_node(x, y):
        nodes = max(x.shape[2], y.shape[2])
        return np.stack([x[..., j % x.shape[2]] @ y[..., j % y.shape[2]]
                         for j in range(nodes)], axis=-1)

    def last(*shape):
        return rng.standard_normal(shape)

    cases = [(last(3, 1, 64), last(1, 4, 64)),                   # inner dimension 1
             (last(2, 3, 1), last(5, 3, 64).swapaxes(0, 1)),     # one-node a
             (last(3, 3, 64), last(3, 5, 1)),                    # one-node b
             (last(2, 3, 1), last(3, 5, 1)),                     # both one-node
             (last(2, 2, 64).swapaxes(0, 1), last(2, 2, 64)),    # full width, q = 2
             (last(3, 3, 64), last(3, 4, 64)),                   # full width, q = 3
             (last(5, 2, 64), last(2, 3, 64))]                   # rectangular
    for x, y in cases:
        want = per_node(x, y)
        _close(_mul_last(x, y), want)
        # into a strided slice of a larger node-last array, which keeps the
        # rest; a one-node product broadcasts into a full-width slice
        for nodes in {want.shape[2], 64}:
            big = np.zeros((x.shape[0] + 2, y.shape[1] + 3, nodes))
            dest = big[1:-1, 2:-1]
            assert _mul_last(x, y, out=dest) is dest
            _close(dest, np.broadcast_to(want, dest.shape))
            dest[...] = 0.0
            assert not big.any()


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf])
def test_scalar_solve_refuses_singular_or_non_finite(bad):
    mats = np.array([[[2.0]], [[bad]], [[1.0]]])
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _solve(mats, np.ones((3, 1, 1)))
