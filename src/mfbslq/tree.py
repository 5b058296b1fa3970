"""Binary scenario tree: a finite filtered probability space with exact operators.

The driving noise is a +/-sqrt(dt) random walk on n_steps steps.  Nodes at
level k are indexed by j in [0, 2^k); the children of (k, j) are
(k+1, 2j) -- the "up" move, increment +sqrt(dt) -- and (k+1, 2j+1) -- the
"down" move, increment -sqrt(dt).  The bits of j therefore spell the path,
most significant bit first.  Every level-k node carries probability 2^-k
(exact in binary floating point).

Adapted processes are stored as one flat contiguous array per level with
the node index as the leading axis, so children of node j sit at 2j and
2j+1 and all level sweeps are plain slicing.  Reductions (``expect``) use
numpy's fixed pairwise summation order, which is bit-reproducible for a
given input regardless of threading.

A level whose leading node axis has length 1 holds a value that is the same
on every node of that level (a noise-independent coefficient, or a process
driven only by such data).  Every operator here accepts it: its conditional
expectation is itself, its martingale integrand is zero and its mean is its
value, and per-node products broadcast it against full levels.  Level 0 has
one node either way.
"""

from __future__ import annotations

import math

import numpy as np

from ._errors import ConfigurationError

MAX_DEPTH = 24
DEFAULT_DEPTH = 16
# Columns solved together in one batched sweep.  Fixed, so results never
# depend on the machine; every per-column buffer lives for one block only.
_COLUMN_BLOCK = 16


def column_blocks(count: int) -> list:
    """Slices covering ``count`` columns, _COLUMN_BLOCK at a time."""
    return [slice(start, min(start + _COLUMN_BLOCK, count))
            for start in range(0, count, _COLUMN_BLOCK)]


def _t(mats: np.ndarray) -> np.ndarray:
    """Transpose the last two axes of a stack of matrices."""
    return mats.swapaxes(-1, -2)


# Per-node kernels.  A stack of per-node matrices whose multiplied (or
# inverted) dimension is 1 is handled by broadcast arithmetic, without one
# library call per node: the same numbers as matmul, LAPACK's inverse and
# its one-column solve.  (A solve of several columns, which LAPACK runs as
# a multiply by the reciprocal, can differ from the division in the last
# bit.)  Every per-node product goes through the one dispatch of ``_mul``,
# or of ``_mul_last`` for the oracle's node-last stacks (rows, cols, nodes);
# wider inverses, solves and eigenvalues run the numpy.linalg call itself.

def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for per-node stacks (nodes, r, q) @ (nodes, q, c); a length-1
    node axis or a 2-D matrix broadcasts.  Inner dimension 1 is a broadcast
    multiply, a shared (q, c) ``b`` one GEMM over all the nodes' rows, and a
    one-node ``a`` times one column one flat GEMM over ``b``'s rows; the rest
    is matmul."""
    q = a.shape[-1]
    if q == 1:
        return a * b
    if b.ndim == 2:
        return (a.reshape(-1, q) @ b).reshape(a.shape[:-1] + b.shape[-1:])
    if b.shape[-1] == 1 and a.ndim == 3 and len(a) == 1:   # a 2-D a's len is its row count
        return (b[..., 0] @ a[0].T)[..., None]
    return a @ b


def _mul_last(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` node by node for node-last stacks (r, q, nodes) @ (q, c,
    nodes), where every matrix entry is one contiguous vector over the
    nodes; a length-1 node axis broadcasts.  Inner dimension 1 is a
    broadcast multiply, a one-node ``a`` one flat GEMM over ``b``'s
    trailing (c, nodes) axes, a one-node ``b`` one GEMM per row of ``a``
    over its (q, nodes) slab, and the rest one ``einsum`` that runs along
    the contiguous node vectors.  Written into ``out`` when given, which may
    be a slice of a larger node-last array."""
    (r, q, wide_a), (c, wide_b) = a.shape, b.shape[1:]
    if q == 1:
        return np.multiply(a, b, out=out)
    nodes = max(wide_a, wide_b)
    if out is None:
        out = np.empty((r, c, nodes))
    elif out.shape[2] != nodes:           # both sides narrower than out
        out[...] = _mul_last(a, b)
        return out
    if wide_a == 1:
        np.matmul(a[:, :, 0], b.reshape(q, -1), out=out.reshape(r, -1, copy=False))
        return out
    if wide_b == 1:
        return np.matmul(b[:, :, 0].T, a, out=out)
    # one pass over the nodes per output entry, with no (r, c, nodes)
    # temporary; it adds the q products in order, as multiply-adds would
    return np.einsum("rqn,qcn->rcn", a, b, out=out)


def _mv(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Per-node matrix @ vector, ``_mul`` on one-column stacks."""
    return _mul(mats, vecs[..., None])[..., 0]


def _level_coupling(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """E[mats' x] over a level, the node mean of mats_j' x_j, for vectors x
    (nodes, n) or column stacks (nodes, n, c): one GEMM, (n, k)' x (n, c).
    A one-node side is the same on every node and multiplies the node sum
    of the other, one GEMV (a stride-0 broadcast would defeat BLAS)."""
    if x.ndim == 2:
        return _level_coupling(mats, x[..., None])[..., 0]
    if len(mats) == 1:
        total = np.ones(len(x)) @ x.reshape(len(x), -1)
        return mats[0].T @ total.reshape(x.shape[1:]) / len(x)
    if len(x) == 1:   # E[mats' x] = E[x' mats]'
        return _level_coupling(x, mats).T
    return mats.reshape(-1, mats.shape[-1]).T @ x.reshape(-1, x.shape[-1]) / len(x)


def _inv(mats: np.ndarray) -> np.ndarray:
    """``np.linalg.inv`` of a per-node stack; 1 x 1 matrices divide."""
    return 1.0 / mats if mats.shape[-1] == 1 else np.linalg.inv(mats)


def _solve(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(mats, rhs)`` for per-node square matrices and
    per-node right-hand sides (nodes, p, c); 1 x 1 matrices divide.  A 1 x 1
    matrix that is zero or not finite raises LinAlgError, as LAPACK does on
    an exact zero pivot (a NaN or infinite one it would pass through)."""
    if mats.shape[-1] != 1:
        return np.linalg.solve(mats, rhs)
    if not (np.isfinite(mats).all() and mats.all()):
        raise np.linalg.LinAlgError("Singular matrix")
    return rhs / mats


def _lowest_eig(sym: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of every matrix of a symmetric per-node stack;
    a 1 x 1 matrix is its own eigenvalue."""
    return sym[:, 0, 0] if sym.shape[-1] == 1 else np.linalg.eigvalsh(sym)[:, 0]


def _concat_nodes(parts: list, axis: int) -> np.ndarray:
    """Concatenate per-node stacks along ``axis`` (not 0), broadcasting
    length-1 node axes to the longest; all length 1 stays length 1."""
    nodes = max(len(part) for part in parts)
    return np.concatenate([part if len(part) == nodes
                           else np.broadcast_to(part, (nodes,) + part.shape[1:])
                           for part in parts], axis=axis)


class ScenarioTree:
    """Time grid plus the exact conditional-expectation calculus of the walk."""

    def __init__(self, horizon: float, n_steps: int):
        if not 0 < horizon < math.inf:
            raise ConfigurationError(
                f"horizon must be positive and finite, got {horizon}")
        if type(n_steps) is not int or not 1 <= n_steps <= MAX_DEPTH:   # bool is not a depth
            raise ConfigurationError(
                f"n_steps must be an integer within [1, {MAX_DEPTH}], got {n_steps!r}"
            )
        self.horizon = float(horizon)
        self.n_steps = n_steps
        self.dt = self.horizon / self.n_steps
        self.sqrt_dt = math.sqrt(self.dt)
        self.times = np.arange(self.n_steps + 1) * self.dt

    # -- structure ---------------------------------------------------------

    def n_nodes(self, level: int) -> int:
        self._check_level(level)
        return 1 << level

    @property
    def total_nodes(self) -> int:
        return (1 << (self.n_steps + 1)) - 1

    def node_probability(self, level: int) -> float:
        self._check_level(level)
        return 2.0 ** (-level)

    def brownian(self, level: int) -> np.ndarray:
        """Walk values W(level, j) for every node of a level, shape (2^level,)."""
        self._check_level(level)
        # the set bits of j are the path's down moves
        downs = np.bitwise_count(np.arange(1 << level, dtype=np.int64))
        return self.sqrt_dt * (level - 2.0 * downs)

    def child_signs(self, level: int) -> np.ndarray:
        """Sign of the increment for each child node at ``level + 1``.

        Entry 2j is +1 (up child of j), entry 2j+1 is -1.
        """
        self._check_level(level + 1)
        return np.tile(np.array([1.0, -1.0]), 1 << level)

    # -- operators ---------------------------------------------------------

    def cond_expect(self, values: np.ndarray) -> np.ndarray:
        """One-step conditional expectation: average the two children of each
        node.  A length-1 level is the same on every node: returned as is."""
        _check_child_level(values, "cond_expect")
        if len(values) == 1:
            return values
        return 0.5 * (values[0::2] + values[1::2])

    def expect(self, values: np.ndarray) -> np.ndarray:
        """Unconditional mean over a level (uniform node probability 2^-k);
        ``values.mean(axis=0)`` without its per-call overhead."""
        return np.add.reduce(values, axis=0) / len(values)

    def z_from_next(self, y_next: np.ndarray) -> np.ndarray:
        """Martingale-representation integrand of a next-level process.

        Z(k, j) = (y(k+1, 2j) - y(k+1, 2j+1)) / (2 sqrt(dt)), exact on the
        tree; zero, of the same shape, for a length-1 (node-constant) level.
        """
        _check_child_level(y_next, "z_from_next")
        if len(y_next) == 1:
            return np.zeros(y_next.shape)
        return (y_next[0::2] - y_next[1::2]) / (2.0 * self.sqrt_dt)

    # -- helpers -----------------------------------------------------------

    def to_children(self, values: np.ndarray) -> np.ndarray:
        """Copy level-k node values onto their two children (repeat along axis 0)."""
        return np.repeat(values, 2, axis=0)

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.n_steps:
            raise ConfigurationError(
                f"level {level} outside [0, {self.n_steps}]"
            )


def _check_child_level(values: np.ndarray, name: str) -> None:
    """A child level has an even number of nodes, or one node if constant."""
    if len(values) != 1 and (len(values) < 2 or len(values) % 2):
        raise ConfigurationError(
            f"{name} needs a full child level or one node, got {len(values)} nodes"
        )


def build_tree(horizon: float, n_steps: int) -> ScenarioTree:
    """Build the scenario tree for a horizon and step count (1 <= n_steps <= 24)."""
    return ScenarioTree(horizon, n_steps)
