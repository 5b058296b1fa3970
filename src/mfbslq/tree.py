"""Binary scenario tree: a finite filtered probability space with exact operators.

The driving noise is a +/-sqrt(dt) random walk on n_steps steps.  Nodes at
level k are indexed by j in [0, 2^k); the children of (k, j) are
(k+1, 2j) -- the "up" move, increment +sqrt(dt) -- and (k+1, 2j+1) -- the
"down" move, increment -sqrt(dt).  The bits of j therefore spell the path,
most significant bit first.  Every level-k node carries probability 2^-k
(exact in binary floating point).

Adapted processes are stored as one flat contiguous array per level with
the node index as the leading axis, so children of node j sit at 2j and
2j+1 and all level sweeps are plain slicing.  Only this module knows that
layout: a sweep steps from a level to its children through ``children``
and back through ``cond_expect``, ``z_from_next`` and ``lift``, on either
layout below.  Reductions (``expect``) use
numpy's fixed pairwise summation order, which is bit-reproducible for a
given input regardless of threading.

A level whose leading node axis has length 1 holds a value that is the same
on every node of that level (a noise-independent coefficient, or a process
driven only by such data).  Every operator here accepts it: its conditional
expectation is itself, its martingale integrand is zero and its mean is its
value, and per-node products broadcast it against full levels.  Level 0 has
one node either way.

A level that depends on the path only through the walk value W(t_k), that
is through the number d of down moves (the set bits of j), takes k + 1
distinct values.  :class:`WalkLattice` stores such a level once per d and
offers the operators the sweeps call on the tree; :meth:`ScenarioTree.restrict`
and :meth:`ScenarioTree.gather` move a level between the two layouts.
"""

from __future__ import annotations

import math

import numpy as np

from ._errors import ConfigurationError

MAX_DEPTH = 24
DEFAULT_DEPTH = 16
# Moves at the end of a path that :meth:`ScenarioTree.gather` copies as one
# block: 2^8 nodes, so a level's gather copies contiguous runs of 256 entries.
_LOW_BITS = 8
# Moves at the end of a path that :meth:`ScenarioTree.restrict` compares as
# one block: 2^16 nodes, a bounded transient whatever the depth.
_CHECK_BITS = 16
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


class _Walk:
    """Time grid of the walk and the one-step operators both of its node
    layouts share: a level's nodes pair up as (up child, down child) of the
    nodes one level up, and :meth:`_pairs` says how."""

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

    def cond_expect(self, values: np.ndarray) -> np.ndarray:
        """One-step conditional expectation: average the two children of each
        node.  A length-1 level is the same on every node: returned as is."""
        up, down = self._pairs(values, "cond_expect")
        if up is None:
            return values
        return 0.5 * (up + down)

    def lift(self, child_rows: np.ndarray) -> np.ndarray:
        """(E_k[.], difference quotient) over each parent's two children of a
        child level's rows, node-last (r, c, children), stacked on the
        parents' rows, (2r, c, parents).  Both are written through
        transposed views of the result, so no temporary of the level's size
        is formed.  A one-node level is the same on every node: its
        difference quotient is zero."""
        rows = len(child_rows)
        up, down = self._pairs(child_rows.T, "lift")
        if up is None:
            return np.concatenate([child_rows, np.zeros_like(child_rows)])
        out = np.empty((2 * rows,) + child_rows.shape[1:-1] + (len(up),))
        mean, quotient = out[:rows].T, out[rows:].T
        np.add(up, down, out=mean)
        mean *= 0.5
        np.subtract(up, down, out=quotient)
        quotient /= 2.0 * self.sqrt_dt
        return out

    def z_from_next(self, y_next: np.ndarray) -> np.ndarray:
        """Martingale-representation integrand of a next-level process.

        Z(k, j) = (y(up child) - y(down child)) / (2 sqrt(dt)), exact on the
        walk; zero, of the same shape, for a length-1 (node-constant) level.
        """
        up, down = self._pairs(y_next, "z_from_next")
        if up is None:
            return np.zeros(y_next.shape)
        return (up - down) / (2.0 * self.sqrt_dt)

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.n_steps:
            raise ConfigurationError(
                f"level {level} outside [0, {self.n_steps}]"
            )


class ScenarioTree(_Walk):
    """Time grid plus the exact conditional-expectation calculus of the walk."""

    def __init__(self, horizon: float, n_steps: int):
        super().__init__(horizon, n_steps)
        self._lattice = None
        self._popcounts = [np.zeros(1, dtype=np.uint8)]

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
        return self.sqrt_dt * (level - 2.0 * self.popcounts(level))

    # -- operators ---------------------------------------------------------

    def _pairs(self, values: np.ndarray, name: str) -> tuple:
        """(up children, down children) of a child level, (None, None) for a
        length-1 one."""
        _check_child_level(values, name)
        if len(values) == 1:
            return None, None
        return values[0::2], values[1::2]

    def expect(self, values: np.ndarray) -> np.ndarray:
        """Unconditional mean over a level (uniform node probability 2^-k);
        ``values.mean(axis=0)`` without its per-call overhead."""
        return np.add.reduce(values, axis=0) / len(values)

    def level_coupling(self, mats: np.ndarray, x: np.ndarray) -> np.ndarray:
        """E[mats' x] over a level, the node mean of mats_j' x_j, for vectors
        x (nodes, n) or column stacks (nodes, n, c): one GEMM, (n, k)' x (n,
        c).  A one-node side is the same on every node and multiplies the
        node sum of the other, one GEMV (a stride-0 broadcast would defeat
        BLAS)."""
        if x.ndim == 2:
            return self.level_coupling(mats, x[..., None])[..., 0]
        if len(mats) == 1:
            total = np.ones(len(x)) @ x.reshape(len(x), -1)
            return mats[0].T @ total.reshape(x.shape[1:]) / len(x)
        if len(x) == 1:   # E[mats' x] = E[x' mats]'
            return self.level_coupling(x, mats).T
        return mats.reshape(-1, mats.shape[-1]).T @ x.reshape(-1, x.shape[-1]) / len(x)

    def children(self, step: np.ndarray, shock: np.ndarray) -> np.ndarray:
        """The next level of a forward step: step + shock on the up child of
        each node, dW = +sqrt(dt), and step - shock on the down child."""
        nxt = np.empty((2 * len(step),) + step.shape[1:])
        np.add(step, shock, out=nxt[0::2])
        np.subtract(step, shock, out=nxt[1::2])
        return nxt

    def first_node(self, index: int) -> int:
        """The node an index of a level names: itself on the tree."""
        return index

    def tree_nodes(self, level: int, mask: np.ndarray) -> int:
        """How many nodes the selected entries of a level stand for."""
        return int(mask.sum())

    def counted(self, values: np.ndarray, level: int, at: slice = slice(None)) -> np.ndarray:
        """A node-last stack (..., nodes) of the nodes ``at`` of a level with
        each node's entries times the number of tree nodes it stands for, so
        that its node sum is the sum over the tree: one each, so ``values``
        as it is."""
        return values

    # -- the recombining lattice -------------------------------------------

    def lattice(self) -> WalkLattice:
        """The walk lattice of this tree, built at the first call."""
        if self._lattice is None:
            self._lattice = WalkLattice(self.horizon, self.n_steps)
        return self._lattice

    def popcounts(self, level: int) -> np.ndarray:
        """Down moves to every node of a level, the set bits of j, as uint8;
        each level is built from the one above it and kept."""
        self._check_level(level)
        counts = self._popcounts
        while len(counts) <= level:
            prev = counts[-1]
            nxt = np.empty(2 * len(prev), dtype=np.uint8)
            nxt[0::2] = prev                       # an up move adds no set bit
            np.add(prev, 1, out=nxt[1::2])
            counts.append(nxt)
        return counts[level]

    def gather(self, values: np.ndarray, level: int) -> np.ndarray:
        """Lattice level ``level``, (level + 1, ...), at every node of that
        tree level: node j takes entry popcount(j).  A length-1 level is
        returned as is; any other length is a ConfigurationError, so a tree
        level is never taken for a lattice one.

        The last _LOW_BITS moves of a path are gathered once per count of
        down moves before them, and the nodes' leading moves then pick
        whole rows of that table, so every copy is a contiguous block."""
        self._check_level(level)
        if len(values) == 1:
            return values
        if len(values) != level + 1:
            raise ConfigurationError(
                f"gather needs {level + 1} lattice nodes or one node on level "
                f"{level}, got {len(values)}")
        if level <= _LOW_BITS:
            return values[self.popcounts(level)]
        low = self.popcounts(_LOW_BITS)
        table = values[np.arange(level - _LOW_BITS + 1)[:, None] + low]
        return table[self.popcounts(level - _LOW_BITS)].reshape(
            (1 << level,) + values.shape[1:])

    def restrict(self, values: np.ndarray) -> np.ndarray | None:
        """A tree level on the lattice: the value of the first node of each
        count of down moves d, node 2^d - 1, when every node equals the value
        of its count bit for bit (so no node is NaN), else None.  A length-1
        level is returned as is.

        The level is compared in blocks of 2^_CHECK_BITS nodes that share
        their leading moves, so no full-width copy is formed."""
        if len(values) == 1:
            return values
        level = len(values).bit_length() - 1
        firsts = values[(1 << np.arange(level + 1)) - 1]
        if np.isnan(firsts).any():
            return None
        low = min(level, _CHECK_BITS)
        bits = np.ascontiguousarray(values).view(np.uint64)
        blocks = bits.reshape((-1, 1 << low) + bits.shape[1:])
        expected: dict = {}   # the block of each count of leading down moves
        for block, lead in zip(blocks, self.popcounts(level - low).tolist()):
            if lead not in expected:
                expected[lead] = self.gather(firsts[lead:lead + low + 1], low).view(np.uint64)
            if not np.array_equal(block, expected[lead]):
                return None
        return firsts


class WalkLattice(_Walk):
    """The recombining binomial lattice of the walk (Cox, Ross and
    Rubinstein, J. Financial Economics 7, 1979): level k has k + 1 nodes,
    indexed by the number d of down moves, so W(k, d) = sqrt(dt) (k - 2d).
    The up child of d is d and the down child d + 1, and node d stands for
    the C(k, d) tree nodes with d down moves, probability C(k, d) 2^-k.

    A process that is a function of (k, W(t_k)) lives here exactly: its
    conditional expectation and martingale integrand take the same
    arithmetic as on the tree.  A linear forward process does not, but its
    conditional mean given d does, and that is all a level's means and
    couplings read (:meth:`children`).  Level weights are built at their
    first use and kept."""

    def __init__(self, horizon: float, n_steps: int):
        super().__init__(horizon, n_steps)
        self._weights = [np.ones(1)]
        self._merges: dict = {}

    def weights(self, level: int) -> np.ndarray:
        """Node probabilities C(k, d) 2^-k of a level, exact in binary
        floating point; each level is built from the one above it."""
        self._check_level(level)
        weights = self._weights
        while len(weights) <= level:
            prev = weights[-1]
            nxt = np.zeros(len(prev) + 1)
            nxt[:-1] = prev
            nxt[1:] += prev
            weights.append(0.5 * nxt)
        return weights[level]

    def _pairs(self, values: np.ndarray, name: str) -> tuple:
        """(up children, down children) of a child level, (None, None) for a
        length-1 one."""
        if not len(values):
            raise ConfigurationError(f"{name} needs a lattice level or one node, got none")
        if len(values) == 1:
            return None, None
        return values[:-1], values[1:]

    def expect(self, values: np.ndarray) -> np.ndarray:
        """Mean over a level under its binomial node weights."""
        if len(values) == 1:
            return values[0].copy()
        weights = self.weights(len(values) - 1)
        return (weights @ values.reshape(len(values), -1)).reshape(values.shape[1:])

    def level_coupling(self, mats: np.ndarray, x: np.ndarray) -> np.ndarray:
        """E[mats' x] over a level under its node weights, for vectors x
        (nodes, n) or column stacks (nodes, n, c); a one-node side multiplies
        the mean of the other."""
        if x.ndim == 2:
            return self.level_coupling(mats, x[..., None])[..., 0]
        if len(mats) == 1:
            return mats[0].T @ self.expect(x)
        if len(x) == 1:
            return self.expect(mats).T @ x[0]
        weighted = x * self.weights(len(x) - 1)[:, None, None]
        return mats.reshape(-1, mats.shape[-1]).T @ weighted.reshape(-1, x.shape[-1])

    def children(self, step: np.ndarray, shock: np.ndarray) -> np.ndarray:
        """E[x_{k+1} | d] from a level-k forward step x_{k+1} = step +/-
        shock, both functions of d on level k: node d of level k + 1 is the
        up child of d, a share (k + 1 - d) / (k + 1) of its tree nodes, and
        the down child of d - 1, the other d / (k + 1)."""
        level = len(step) - 1
        up_share, down_share = self._merge_shares(level, step.ndim)
        nxt = np.empty((level + 2,) + step.shape[1:])
        nxt[-1] = 0.0
        np.multiply(step + shock, up_share, out=nxt[:-1])
        nxt[1:] += (step - shock) * down_share
        return nxt

    def _merge_shares(self, level: int, ndim: int) -> tuple:
        key = (level, ndim)
        shares = self._merges.get(key)
        if shares is None:
            counts = np.arange(1.0, level + 2.0)
            shape = (-1,) + (1,) * (ndim - 1)
            shares = self._merges[key] = ((counts[::-1] / (level + 1)).reshape(shape),
                                          (counts / (level + 1)).reshape(shape))
        return shares

    def first_node(self, index: int) -> int:
        """The first tree node of lattice node d (or of a length-1 level's
        only entry): 2^d - 1, the path that moves down d times first."""
        return (1 << index) - 1

    def tree_nodes(self, level: int, mask: np.ndarray) -> int:
        """How many tree nodes the selected lattice nodes of a level stand
        for, C(k, d) each; a length-1 level's entry counts once, as on the
        tree."""
        if len(mask) == 1:
            return int(mask.sum())
        return int(self.weights(level)[mask].sum() * 2.0 ** level)

    def counted(self, values: np.ndarray, level: int, at: slice = slice(None)) -> np.ndarray:
        """A node-last stack (..., nodes) of the nodes ``at`` of a level with
        each node's entries times the number of tree nodes it stands for, so
        that its node sum is the sum over the tree: C(k, d) for node d, its
        weight times 2^k, exact in binary floating point."""
        return values * (self.weights(level)[at] * 2.0 ** level)


def _check_child_level(values: np.ndarray, name: str) -> None:
    """A child level has an even number of nodes, or one node if constant."""
    if len(values) != 1 and (len(values) < 2 or len(values) % 2):
        raise ConfigurationError(
            f"{name} needs a full child level or one node, got {len(values)} nodes"
        )


def build_tree(horizon: float, n_steps: int) -> ScenarioTree:
    """Build the scenario tree for a horizon and step count (1 <= n_steps <= 24)."""
    return ScenarioTree(horizon, n_steps)
