"""Workload definitions and seeded problem generation.

A workload is a fixed list of solves (spec, tree depth, certified or not).
Its problem data come from the shipped ``specs/*.json`` files: seed 0 loads
them unchanged; any other seed multiplies every coefficient matrix, every
polynomial coefficient and every terminal vector of the document by its own
factor drawn uniformly from [1 - PERTURB, 1 + PERTURB].  A scalar factor
keeps each matrix's form, shape, symmetry and sparsity, so the work a solve
does is the same on every seed; only the values move.

This module imports nothing heavy at module level, so the parent process can
read the workload table without loading numpy.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

SPEC_DIR = "specs"
DEFAULT_SEED = 0
PERTURB = 0.1


@dataclass(frozen=True)
class Case:
    spec: str
    n_steps: int
    certify: bool


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple


# Each workload loads a different layer; BENCHMARK.json gives the reasons.
WORKLOADS = {w.name: w for w in (
    # Vector state (n = 2): the outer quadratic's pairwise cost form and the
    # decoupled sweeps dominate; the oracle never runs, so oracle changes
    # must leave it unchanged.
    Workload("pipeline-d2", (Case("d2", 13, False),)),
    # The `mfbslq run --with-oracle` default depth on random coefficients:
    # the default oracle route is the sparse KKT factorization, and the
    # process holds the most memory.
    Workload("certify-m1r", (Case("m1_random", 16, True),)),
    # The convergence-table use: small trees, so per-call overhead and the
    # dense impulse-response oracle dominate.
    Workload("sweep-shallow", tuple(
        Case(spec, nt, True)
        for spec in ("s1", "m1", "m1_random", "d2") for nt in (4, 6, 8))),
)}


def spec_names(workload: Workload) -> list:
    return sorted({case.spec for case in workload.cases})


def missing_inputs(root: str, workload: Workload) -> list:
    """Paths the workload needs under ``root`` that do not exist."""
    needed = [os.path.join(root, "src", "mfbslq", "__init__.py")]
    needed += [os.path.join(root, SPEC_DIR, f"{name}.json")
               for name in spec_names(workload)]
    return [path for path in needed if not os.path.isfile(path)]


def _scale(value, factor: float):
    if isinstance(value, list):
        return [_scale(v, factor) for v in value]
    return value * factor


def _perturb_entry(entry: dict, rng: random.Random) -> dict:
    """Scale each matrix or vector of one coefficient/terminal entry."""
    out = {"form": entry["form"]}
    for key in sorted(k for k in entry if k != "form"):
        value = entry[key]
        if key in ("values", "coeffs"):
            # a list of matrices/vectors: one factor each
            out[key] = [_scale(v, 1.0 + PERTURB * rng.uniform(-1.0, 1.0))
                        for v in value]
        else:
            out[key] = _scale(value, 1.0 + PERTURB * rng.uniform(-1.0, 1.0))
    return out


def perturb_document(doc: dict, seed: int, name: str) -> dict:
    """Seeded copy of a spec document with the same forms and shapes."""
    rng = random.Random(f"{seed}:{name}")
    out = dict(doc)
    out["dynamics"] = {f: _perturb_entry(doc["dynamics"][f], rng)
                       for f in sorted(doc["dynamics"])}
    cost = {}
    for f in sorted(doc["cost"]):
        if f == "G":
            cost[f] = _scale(doc["cost"][f], 1.0 + PERTURB * rng.uniform(-1.0, 1.0))
        else:
            cost[f] = _perturb_entry(doc["cost"][f], rng)
    out["cost"] = cost
    out["terminal"] = _perturb_entry(doc["terminal"], rng)
    return out


def load_specs(mfbslq, root: str, workload: Workload, seed: int) -> dict:
    """Load or generate every spec the workload uses and check it against the
    standing assumptions at each depth the workload solves it at.

    Raises ``ValueError`` when a generated spec fails validation, so no
    timing starts on data the solver would reject.
    """
    specs = {}
    for name in spec_names(workload):
        path = os.path.join(root, SPEC_DIR, f"{name}.json")
        if seed == DEFAULT_SEED:
            specs[name] = mfbslq.load_spec_file(path)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            specs[name] = mfbslq.load_spec(json.dumps(perturb_document(doc, seed, name)))
    for case in workload.cases:
        spec = specs[case.spec]
        tree = mfbslq.build_tree(spec.horizon, case.n_steps)
        report = mfbslq.validate_h1_h2(mfbslq.realize(spec, tree), spec.delta)
        if not report.ok:
            raise ValueError(
                f"seed {seed}: {case.spec} at nt={case.n_steps} fails validation:\n"
                + report.summary())
    return specs
