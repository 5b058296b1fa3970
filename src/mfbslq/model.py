"""Problem specification: coefficient descriptors, realization, assumption checks.

A problem is described by a single JSON document::

    {"n": 1, "m": 1, "T": 1.0, "delta": 0.5,
     "dynamics": {"A": ..., "A_bar": ..., "B": ..., "B_bar": ..., "C": ..., "C_bar": ...},
     "cost":     {"Q": ..., "Q_bar": ..., "R": ..., "R_bar": ..., "N": ..., "N_bar": ...,
                  "G": [[...]]},
     "terminal": {...}}

Each coefficient entry is {"form": <name>, ...form-specific payload...} with
matrices as row-major nested lists (a bare number is accepted for 1x1).
Coefficient forms: "constant", "time_table" (one matrix per step),
"affine_tanh_W" (m0 + m1*tanh(W(t_k))), "tanh_poly_W" (matrix coefficients
of a polynomial in tanh(W(t_k))), "node_table" (explicit per-node values).
Terminal forms: "leaf_table", "affine_in_WT" (g0 + g1*W(T)), "poly_in_WT".

Parsing (``load_spec``) is purely structural; the positivity/symmetry
assumptions are checked on realized values by ``validate_h1_h2``, which
reports and never throws.  Asymmetric weights are rejected there, not
silently symmetrized.

G is a deterministic constant matrix: the information set at time 0 is
trivial on the tree, so a random G has nowhere to live.

Realized coefficients follow the tree's length-1 convention: a
noise-independent coefficient ("constant", "time_table", or a one-term
"tanh_poly_W") is stored once per level as a (1, rows, cols) array that
stands for every node, and only coefficients that depend on the walk carry
one matrix per node.  The terminal xi always has one vector per leaf.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from ._errors import ConfigurationError
from .tree import ScenarioTree, _lowest_eig

_COEFF_FORMS = ("constant", "time_table", "affine_tanh_W", "tanh_poly_W", "node_table")
_TERMINAL_FORMS = ("leaf_table", "affine_in_WT", "poly_in_WT")

# field -> (rows, cols) in terms of the dimension symbols
_DYNAMICS_SHAPES = {
    "A": ("n", "n"), "A_bar": ("n", "n"),
    "B": ("n", "m"), "B_bar": ("n", "m"),
    "C": ("n", "n"), "C_bar": ("n", "n"),
}
_COST_SHAPES = {
    "Q": ("n", "n"), "Q_bar": ("n", "n"),
    "R": ("n", "n"), "R_bar": ("n", "n"),
    "N": ("m", "m"), "N_bar": ("m", "m"),
}


@dataclass(frozen=True)
class Coefficient:
    """Parsed descriptor for one coefficient process (not yet on a tree)."""

    form: str
    payload: dict


@dataclass(frozen=True)
class ProblemSpec:
    n: int
    m: int
    horizon: float
    delta: float
    dynamics: dict
    cost: dict
    g_matrix: np.ndarray
    terminal: Coefficient


@dataclass(frozen=True)
class CoefficientSet:
    """Every coefficient on levels 0..n_t-1, realized per node, or once per
    level when noise-independent (a leading node axis of length 1), plus G
    and xi."""

    n: int
    m: int
    n_steps: int
    A: list
    A_bar: list
    B: list
    B_bar: list
    C: list
    C_bar: list
    Q: list
    Q_bar: list
    R: list
    R_bar: list
    N: list
    N_bar: list
    G: np.ndarray
    xi: np.ndarray
    # matrices derived from the coefficients (the implicit BSDE step, the
    # mean cost weights); never part of equality, and a replaced copy starts
    # with an empty one
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def mean_weights(self, k: int) -> tuple:
        """Level-k weights of the mean cost terms: E[Q_bar], E[R_bar], E[N_bar].
        Computed for every level at the first call and cached on the set."""
        cached = self._cache.get("mean_weights")
        if cached is None:
            cached = self._cache["mean_weights"] = [
                (qb.mean(axis=0), rb.mean(axis=0), nb.mean(axis=0))
                for qb, rb, nb in zip(self.Q_bar, self.R_bar, self.N_bar)]
        return cached[k]

    def node_means(self) -> CoefficientSet:
        """The coefficients with every level replaced by its node mean, kept
        as one node; ``self`` when every level already has one node."""
        names = (*_DYNAMICS_SHAPES, *_COST_SHAPES)
        if all(len(level) == 1 for name in names for level in getattr(self, name)):
            return self
        return replace(self, **{name: [level.mean(axis=0, keepdims=True)
                                       for level in getattr(self, name)] for name in names})


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float | None = None
    worst_node: tuple | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            extra = f" margin={c.margin:.6g}" if c.margin is not None else ""
            where = f" at node {c.worst_node}" if c.worst_node is not None else ""
            detail = f" ({c.detail})" if c.detail else ""
            lines.append(f"{status}: {c.name}{extra}{where}{detail}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# parsing


def _has_bool(value) -> bool:
    if isinstance(value, list):
        return any(_has_bool(v) for v in value)
    return isinstance(value, bool)


def _as_array(value, field: str) -> np.ndarray:
    """Nested lists of numbers as a float array; anything else (a string,
    even a numeric one, a boolean anywhere in the nesting, a ragged nesting)
    is a ConfigurationError naming the field."""
    try:
        arr = np.asarray(value)
        # numpy reads a boolean among numbers as 0 or 1
        if arr.dtype.kind in "iuf" and not _has_bool(value):
            return arr.astype(float)
    except ValueError:   # a ragged nesting
        pass
    raise ConfigurationError(f"{field}: expected nested lists of numbers, got {value!r}")


def _as_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ConfigurationError(f"{field}: expected a list, got {value!r}")
    return value


def _as_matrix(value, rows: int, cols: int, field: str) -> np.ndarray:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if (rows, cols) != (1, 1):
            raise ConfigurationError(
                f"{field}: scalar given where a {rows}x{cols} matrix is required"
            )
        return np.array([[float(value)]])
    arr = _as_array(value, field)
    if arr.shape != (rows, cols):
        raise ConfigurationError(
            f"{field}: expected shape ({rows}, {cols}), got {arr.shape}"
        )
    return arr


def _as_vector(value, n: int, field: str) -> np.ndarray:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if n != 1:
            raise ConfigurationError(
                f"{field}: scalar given where a length-{n} vector is required"
            )
        return np.array([float(value)])
    arr = _as_array(value, field)
    if arr.shape != (n,):
        raise ConfigurationError(f"{field}: expected shape ({n},), got {arr.shape}")
    return arr


def _require_keys(entry: dict, required: tuple, field: str) -> None:
    missing = [k for k in required if k not in entry]
    if missing:
        raise ConfigurationError(f"{field}: missing keys {missing}")
    unknown = [k for k in entry if k not in required and k != "form"]
    if unknown:
        raise ConfigurationError(f"{field}: unknown keys {unknown}")


def _parse_coefficient(entry, rows: int, cols: int, field: str) -> Coefficient:
    if not isinstance(entry, dict) or "form" not in entry:
        raise ConfigurationError(f"{field}: expected an object with a 'form' key")
    form = entry["form"]
    if form not in _COEFF_FORMS:
        raise ConfigurationError(
            f"{field}: unsupported form {form!r}; supported: {_COEFF_FORMS}"
        )
    if form == "constant":
        _require_keys(entry, ("value",), field)
        return Coefficient(form, {"value": _as_matrix(entry["value"], rows, cols, field)})
    if form == "time_table":
        _require_keys(entry, ("values",), field)
        mats = [_as_matrix(v, rows, cols, f"{field}[{i}]")
                for i, v in enumerate(_as_list(entry["values"], field))]
        return Coefficient(form, {"values": mats})
    if form == "affine_tanh_W":
        _require_keys(entry, ("m0", "m1"), field)
        return Coefficient(form, {
            "m0": _as_matrix(entry["m0"], rows, cols, f"{field}.m0"),
            "m1": _as_matrix(entry["m1"], rows, cols, f"{field}.m1"),
        })
    if form == "tanh_poly_W":
        _require_keys(entry, ("coeffs",), field)
        mats = [_as_matrix(v, rows, cols, f"{field}.coeffs[{i}]")
                for i, v in enumerate(_as_list(entry["coeffs"], f"{field}.coeffs"))]
        if not mats:
            raise ConfigurationError(f"{field}: tanh_poly_W needs at least one coefficient")
        return Coefficient(form, {"coeffs": mats})
    # node_table: per-level lists; node counts are checked at realize time
    _require_keys(entry, ("values",), field)
    levels = []
    for k, level in enumerate(_as_list(entry["values"], field)):
        if not _as_list(level, f"{field}[level {k}]"):
            raise ConfigurationError(f"{field}[level {k}]: no nodes given")
        levels.append(np.stack([
            _as_matrix(v, rows, cols, f"{field}[level {k}][{i}]")
            for i, v in enumerate(level)
        ]))
    return Coefficient(form, {"values": levels})


def _parse_terminal(entry, n: int) -> Coefficient:
    field = "terminal"
    if not isinstance(entry, dict) or "form" not in entry:
        raise ConfigurationError(f"{field}: expected an object with a 'form' key")
    form = entry["form"]
    if form not in _TERMINAL_FORMS:
        raise ConfigurationError(
            f"{field}: unsupported form {form!r}; supported: {_TERMINAL_FORMS}"
        )
    if form == "leaf_table":
        _require_keys(entry, ("values",), field)
        values = _as_list(entry["values"], field)
        if not values:
            raise ConfigurationError(f"{field}: leaf_table has no entries")
        vecs = np.stack([_as_vector(v, n, f"{field}[{i}]")
                         for i, v in enumerate(values)])
        return Coefficient(form, {"values": vecs})
    if form == "affine_in_WT":
        _require_keys(entry, ("g0", "g1"), field)
        return Coefficient(form, {
            "g0": _as_vector(entry["g0"], n, f"{field}.g0"),
            "g1": _as_vector(entry["g1"], n, f"{field}.g1"),
        })
    _require_keys(entry, ("coeffs",), field)
    vecs = [_as_vector(v, n, f"{field}.coeffs[{i}]")
            for i, v in enumerate(_as_list(entry["coeffs"], f"{field}.coeffs"))]
    if not vecs:
        raise ConfigurationError(f"{field}: poly_in_WT needs at least one coefficient")
    return Coefficient(form, {"coeffs": vecs})


def _positive_number(doc: dict, key: str) -> float:
    value = doc[key]
    # bool and str are not numbers here; 1e400 parses to inf, and an int
    # above the largest float would overflow float()
    if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
        raise ConfigurationError(
            f"{key} must be a positive finite number, got {value!r}")
    return float(value)


def load_spec(text: str) -> ProblemSpec:
    """Parse a JSON problem document.  Structural errors only; see validate_h1_h2."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("spec must be a JSON object")
    required = ("n", "m", "T", "delta", "dynamics", "cost", "terminal")
    for key in required:
        if key not in doc:
            raise ConfigurationError(f"spec missing required field '{key}'")
    unknown = [k for k in doc if k not in required]
    if unknown:
        raise ConfigurationError(f"spec has unknown fields {unknown}")

    n, m = doc["n"], doc["m"]
    if not all(type(v) is int and v >= 1 for v in (n, m)):   # bool is not a size
        raise ConfigurationError(f"n and m must be integers >= 1, got n={n}, m={m}")
    horizon, delta = _positive_number(doc, "T"), _positive_number(doc, "delta")

    dims = {"n": n, "m": m}
    dyn_doc, cost_doc = doc["dynamics"], doc["cost"]
    for key, section in (("dynamics", dyn_doc), ("cost", cost_doc)):
        if not isinstance(section, dict):
            raise ConfigurationError(f"{key} must be an object, got {section!r}")
    if set(dyn_doc) != set(_DYNAMICS_SHAPES):
        raise ConfigurationError(
            f"dynamics must have exactly the fields {sorted(_DYNAMICS_SHAPES)}, "
            f"got {sorted(dyn_doc)}"
        )
    if set(cost_doc) != set(_COST_SHAPES) | {"G"}:
        raise ConfigurationError(
            f"cost must have exactly the fields {sorted(_COST_SHAPES) + ['G']}, "
            f"got {sorted(cost_doc)}"
        )
    dynamics = {
        f: _parse_coefficient(dyn_doc[f], dims[r], dims[c], f)
        for f, (r, c) in _DYNAMICS_SHAPES.items()
    }
    cost = {
        f: _parse_coefficient(cost_doc[f], dims[r], dims[c], f)
        for f, (r, c) in _COST_SHAPES.items()
    }
    g_matrix = _as_matrix(cost_doc["G"], n, n, "G")
    terminal = _parse_terminal(doc["terminal"], n)
    return ProblemSpec(n, m, horizon, delta, dynamics, cost, g_matrix, terminal)


def load_spec_file(path) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return load_spec(fh.read())


# ---------------------------------------------------------------------------
# realization


def _realize_coefficient(desc: Coefficient, tree: ScenarioTree, field: str) -> list:
    levels = []
    for k in range(tree.n_steps):
        if desc.form == "constant":
            levels.append(desc.payload["value"][None].copy())
        elif desc.form == "time_table":
            values = desc.payload["values"]
            if len(values) != tree.n_steps:
                raise ConfigurationError(
                    f"{field}: time_table has {len(values)} entries, tree has "
                    f"{tree.n_steps} steps"
                )
            levels.append(values[k][None].copy())
        elif desc.form == "affine_tanh_W":
            th = np.tanh(tree.brownian(k))[:, None, None]
            levels.append(desc.payload["m0"][None] + th * desc.payload["m1"][None])
        elif desc.form == "tanh_poly_W":
            th = np.tanh(tree.brownian(k))[:, None, None]
            coeffs = desc.payload["coeffs"]
            acc = coeffs[-1][None].copy()
            for mat in reversed(coeffs[:-1]):
                acc = acc * th + mat[None]
            levels.append(acc)
        else:  # node_table
            values = desc.payload["values"]
            if len(values) != tree.n_steps:
                raise ConfigurationError(
                    f"{field}: node_table has {len(values)} levels, tree has "
                    f"{tree.n_steps} steps"
                )
            if len(values[k]) != tree.n_nodes(k):
                raise ConfigurationError(
                    f"{field}: node_table level {k} has {len(values[k])} nodes, "
                    f"expected {tree.n_nodes(k)}"
                )
            levels.append(values[k].copy())
    return levels


def _realize_terminal(desc: Coefficient, tree: ScenarioTree, n: int) -> np.ndarray:
    leaves = tree.n_nodes(tree.n_steps)
    if desc.form == "leaf_table":
        values = desc.payload["values"]
        if len(values) != leaves:
            raise ConfigurationError(
                f"terminal: leaf_table has {len(values)} entries, tree has {leaves} leaves"
            )
        return values.copy()
    w_T = tree.brownian(tree.n_steps)
    if desc.form == "affine_in_WT":
        return desc.payload["g0"][None, :] + w_T[:, None] * desc.payload["g1"][None, :]
    coeffs = desc.payload["coeffs"]
    acc = np.broadcast_to(coeffs[-1], (leaves, n)).copy()
    for vec in reversed(coeffs[:-1]):
        acc = acc * w_T[:, None] + vec[None, :]
    return acc


def realize(spec: ProblemSpec, tree: ScenarioTree) -> CoefficientSet:
    """Evaluate every coefficient on levels 0..n_t-1 (once per level where it
    is noise-independent, else at each node) and xi at each leaf."""
    fields = {}
    for name in _DYNAMICS_SHAPES:
        fields[name] = _realize_coefficient(spec.dynamics[name], tree, name)
    for name in _COST_SHAPES:
        fields[name] = _realize_coefficient(spec.cost[name], tree, name)
    xi = _realize_terminal(spec.terminal, tree, spec.n)
    return CoefficientSet(
        n=spec.n, m=spec.m, n_steps=tree.n_steps,
        G=spec.g_matrix.copy(), xi=xi, **fields,
    )


# ---------------------------------------------------------------------------
# validation

_SYMMETRY_TOL = 1e-12
_PSD_TOL = -1e-12


def _level_blocks(levels: list):
    """Yield (first level, stacked matrices, number of levels): each run of
    consecutive one-node levels stacked into one array, one row per level,
    and each wider level on its own, so no block is wider than a level."""
    start = 0
    while start < len(levels):
        stop = start + 1
        if len(levels[start]) == 1:
            while stop < len(levels) and len(levels[stop]) == 1:
                stop += 1
        block = levels[start] if stop == start + 1 else np.concatenate(levels[start:stop])
        yield start, block, stop - start
        start = stop


def _first_largest(values: np.ndarray, first: int, count: int) -> tuple:
    """The largest of one block's per-matrix values and its (level, node),
    the first one on ties.  A level with a NaN value is passed over, as a
    NaN compares false."""
    table = values.reshape(count, -1)
    table = np.where(np.isnan(table).any(axis=1, keepdims=True), -np.inf, table)
    row, node = divmod(int(np.argmax(table)), table.shape[1])
    return float(table[row, node]), (first + row, node)


def _process_checks(name: str, levels: list, psd: bool, floor: float | None):
    """Symmetry / semidefiniteness / eigenvalue-floor checks for one weight process."""
    checks = []
    sym_defect, sym_worst = 0.0, None
    # the lowest eigenvalue is found as the largest negated one
    neg_min_eig, eig_worst = -np.inf, None
    for first, mats, count in _level_blocks(levels):
        transposed = np.swapaxes(mats, -1, -2)
        defect, where = _first_largest(np.abs(mats - transposed).max(axis=(1, 2)),
                                       first, count)
        if defect > sym_defect:
            sym_defect, sym_worst = defect, where
        neg_low, where = _first_largest(-_lowest_eig(0.5 * (mats + transposed)),
                                        first, count)
        if neg_low > neg_min_eig:
            neg_min_eig, eig_worst = neg_low, where
    min_eig = -neg_min_eig
    checks.append(CheckResult(
        f"{name} symmetric", sym_defect <= _SYMMETRY_TOL,
        margin=_SYMMETRY_TOL - sym_defect, worst_node=sym_worst,
        detail=f"max asymmetry {sym_defect:.3g}",
    ))
    if psd:
        checks.append(CheckResult(
            f"{name} positive semidefinite", min_eig >= _PSD_TOL,
            margin=min_eig, worst_node=eig_worst,
            detail=f"min eigenvalue {min_eig:.6g}",
        ))
    if floor is not None:
        checks.append(CheckResult(
            f"{name} >= delta*I", min_eig - floor >= _PSD_TOL,
            margin=min_eig - floor, worst_node=eig_worst,
            detail=f"min eigenvalue {min_eig:.6g} vs delta {floor:.6g}",
        ))
    return checks


def validate_h1_h2(coeffs: CoefficientSet, delta: float) -> ValidationReport:
    """Check finiteness (H1) and the positivity assumptions (H2); never raises."""
    checks = []

    max_abs = 0.0
    all_finite = True
    for name in list(_DYNAMICS_SHAPES) + list(_COST_SHAPES):
        for _, mats, count in _level_blocks(getattr(coeffs, name)):
            # per level: NaN if it has a NaN entry, else inf if it has an
            # infinite one; a NaN level is left out of the maximum
            peaks = np.abs(mats).reshape(count, -1).max(axis=1)
            all_finite = all_finite and bool(np.isfinite(peaks).all())
            max_abs = float(np.fmax.reduce(peaks, initial=max_abs))
    all_finite = all_finite and bool(np.all(np.isfinite(coeffs.G)))
    all_finite = all_finite and bool(np.all(np.isfinite(coeffs.xi)))
    checks.append(CheckResult(
        "H1 coefficients finite", all_finite, margin=None,
        detail=f"max |entry| {max_abs:.6g}",
    ))

    checks += _process_checks("Q", coeffs.Q, psd=True, floor=None)
    checks += _process_checks("Q_bar", coeffs.Q_bar, psd=True, floor=None)
    checks += _process_checks("R", coeffs.R, psd=False, floor=delta)
    checks += _process_checks("R_bar", coeffs.R_bar, psd=True, floor=None)
    checks += _process_checks("N", coeffs.N, psd=False, floor=delta)
    checks += _process_checks("N_bar", coeffs.N_bar, psd=True, floor=None)
    checks += _process_checks("G", [coeffs.G[None]], psd=True, floor=None)
    return ValidationReport(checks)
