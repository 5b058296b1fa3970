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


def _mv(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Batched matrix @ vector over the node axis (a length-1 axis broadcasts)."""
    return np.einsum("kij,kj->ki", mats, vecs)


def _mm(mats: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``mats @ cols`` for a level's per-node matrices (nodes, r, q).

    ``cols`` is a per-node column stack (nodes, q, c) or one stack (q, c)
    shared by every node.  With q = 1 the product is a broadcast multiply
    (the same numbers as matmul, without one BLAS call per node), and with
    one column per node it is q of them; a shared stack is one GEMM over
    all the nodes' rows.  A length-1 node axis on either side broadcasts.
    """
    if mats.shape[-1] == 1:
        return mats * cols
    if cols.ndim == 2:
        rows = mats.reshape(-1, mats.shape[-1]) @ cols
        return rows.reshape(mats.shape[:-1] + cols.shape[-1:])
    if cols.shape[-1] == 1:
        vec = _t(cols)
        out = mats[..., :1] * vec[..., :1]
        for j in range(1, mats.shape[-1]):
            out += mats[..., j:j + 1] * vec[..., j:j + 1]
        return out
    return mats @ cols


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
        j = np.arange(1 << level, dtype=np.int64)
        downs = np.zeros(1 << level, dtype=np.int64)
        for bit in range(level):
            downs += (j >> bit) & 1
        return self.sqrt_dt * (level - 2 * downs).astype(np.float64)

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
