"""Shared fixtures: corpus loading and small problem builders.

Expected values asserted in the test modules were frozen from hand
derivations or from independent reference computations (tiny quadratic
programs solved on paper, Runge-Kutta references coded inline) before the
tests were written.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mfbslq import load_spec, load_spec_file

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
CORPUS = ("s1", "m1", "m1_random", "d2")
FIELDS = ("A", "A_bar", "B", "B_bar", "C", "C_bar",
          "Q", "Q_bar", "R", "R_bar", "N", "N_bar")


def corpus_path(name: str) -> Path:
    return SPEC_DIR / f"{name}.json"


def materialised(tree, coeffs):
    """A copy of ``coeffs`` with every level stored at all 2^k nodes, so
    nothing is node-constant by storage."""
    return dataclasses.replace(coeffs, **{
        name: [np.broadcast_to(level, (tree.n_nodes(k),) + level.shape[1:]).copy()
               for k, level in enumerate(getattr(coeffs, name))]
        for name in FIELDS})


def tile_realize(monkeypatch) -> None:
    """Make :func:`.outer.run_pipeline` solve from materialised coefficients."""
    from mfbslq import outer, realize
    monkeypatch.setattr(outer, "realize",
                        lambda spec, tree: materialised(tree, realize(spec, tree)))


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` so that every call appends to the returned list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def constant(value) -> dict:
    return {"form": "constant", "value": value}


def scalar_spec_doc(*, A=0.0, A_bar=0.0, B=1.0, B_bar=0.0, C=0.0, C_bar=0.0,
                    Q=0.0, Q_bar=0.0, R=1.0, R_bar=0.0, N=1.0, N_bar=0.0,
                    G=0.0, terminal=None, T=1.0, delta=0.5) -> dict:
    """A fully scalar problem document with constant coefficients."""
    return {
        "n": 1, "m": 1, "T": T, "delta": delta,
        "dynamics": {"A": constant(A), "A_bar": constant(A_bar),
                     "B": constant(B), "B_bar": constant(B_bar),
                     "C": constant(C), "C_bar": constant(C_bar)},
        "cost": {"Q": constant(Q), "Q_bar": constant(Q_bar),
                 "R": constant(R), "R_bar": constant(R_bar),
                 "N": constant(N), "N_bar": constant(N_bar), "G": G},
        "terminal": terminal
        if terminal is not None else {"form": "poly_in_WT", "coeffs": [0.0]},
    }


def scalar_spec(**kwargs):
    return load_spec(json.dumps(scalar_spec_doc(**kwargs)))


def singular_step_doc() -> dict:
    """The shipped ``specs/singular_step.json``: a 4-level scalar document
    with A = 1/dt on level 2 (dt = 1/4), so the one-step matrix I - dt A
    there is exactly zero."""
    return json.loads(corpus_path("singular_step").read_text())


def singular_mean_doc() -> dict:
    """A 4-level scalar document with A_bar = 1/dt on level 2 (dt = 1/4), so
    the mean-closing matrix I - dt E[(I - dt A)^-1 A_bar] there is exactly
    zero while I - dt A stays the identity."""
    doc = scalar_spec_doc(terminal={"form": "affine_in_WT", "g0": 1.0, "g1": 1.0})
    doc["dynamics"]["A_bar"] = {"form": "time_table", "values": [0.0, 0.0, 4.0, 0.0]}
    return doc


def vector_control_doc() -> dict:
    """d2 with a two-dimensional control and node-varying A and N, so every
    KKT pivot block of the sparse route is 2 x 2 and differs per node, and
    the Riccati pair varies over the nodes of a 2 x 2 state."""
    doc = json.loads(corpus_path("d2").read_text())
    doc["m"] = 2
    doc["dynamics"]["A"] = {"form": "affine_tanh_W", "m0": [[0.1, 0.05], [0.0, 0.15]],
                            "m1": [[0.1, 0.0], [0.05, -0.1]]}
    doc["dynamics"]["B"] = {"form": "constant", "value": [[1.0, 0.2], [0.5, -0.3]]}
    doc["dynamics"]["B_bar"] = {"form": "constant", "value": [[0.2, 0.0], [0.0, 0.1]]}
    doc["cost"]["N"] = {"form": "tanh_poly_W", "coeffs": [
        [[1.0, 0.1], [0.1, 0.8]], [[0.0, 0.0], [0.0, 0.0]], [[0.25, 0.0], [0.0, 0.25]]]}
    doc["cost"]["N_bar"] = {"form": "constant", "value": [[0.5, 0.0], [0.0, 0.5]]}
    return doc


def barred_zero_spec(name: str = "m1"):
    """A corpus spec with every mean-coupling coefficient replaced by zero."""
    raw = json.loads(corpus_path(name).read_text())
    for key in ("A_bar", "B_bar", "C_bar"):
        raw["dynamics"][key] = constant(0.0)
    for key in ("Q_bar", "R_bar", "N_bar"):
        raw["cost"][key] = constant(0.0)
    return load_spec(json.dumps(raw))


def workspace(tree, coeffs, ric):
    """:func:`.multipliers.build_workspace` of the Riccati pair ``ric``."""
    from mfbslq.multipliers import build_workspace
    return build_workspace(tree, coeffs, ric.sigma, ric.phi)


def perturb_coupling_response(monkeypatch, shift: float) -> None:
    """Make every call of :func:`.multipliers.linear_response`, which builds
    the outer solve's preconditioner and runs each GMRES product, return
    couplings whose multiplier block M is off by ``shift`` in every entry:
    shift times the sum of each lam column is added to every coupling."""
    from mfbslq import multipliers
    real = multipliers.linear_response

    def perturbed(tree, coeffs, ws, lam, eta):
        means, coupling = real(tree, coeffs, ws, lam, eta)
        return means, coupling + shift * lam.sum(axis=0)

    monkeypatch.setattr(multipliers, "linear_response", perturbed)


def _probed_system(tree, coeffs, ws):
    """(A, b) of the outer system assembled densely from
    :func:`.multipliers.probe_operators`."""
    from mfbslq.multipliers import eta_dimension, mean_cost_weights, probe_operators
    ops = probe_operators(tree, coeffs, ws)
    eye = np.eye(eta_dimension(tree, coeffs))
    a_sys = np.block([
        [eye - ops.P_eta, -ops.L],
        [mean_cost_weights(tree, coeffs) - ops.Q_eta, -(eye + ops.M)],
    ])
    return a_sys, np.concatenate([ops.p_xi, ops.q_xi])


def probed_solve(tree, coeffs, ws):
    """(eta, lam) from a dense solve of the probed outer system, the referee
    of the GMRES solve."""
    a_sys, rhs = _probed_system(tree, coeffs, ws)
    sol = np.linalg.solve(a_sys, rhs)
    d = len(sol) // 2
    return sol[:d], sol[d:]


def probe_route(monkeypatch) -> None:
    """Make :func:`.outer.run_pipeline` take (eta, lam) from
    :func:`probed_solve`: the base column and 2d impulse columns."""
    from mfbslq import outer
    from mfbslq.multipliers import OuterSolution

    def solve(tree, coeffs, ws):
        a_sys, rhs = _probed_system(tree, coeffs, ws)
        sol = np.linalg.solve(a_sys, rhs)
        d = len(sol) // 2
        residual = np.linalg.norm(a_sys @ sol - rhs) / np.linalg.norm(rhs)
        return OuterSolution(sol[:d], sol[d:], 2 * d + 1, float(residual),
                             float(np.linalg.svd(a_sys, compute_uv=False)[-1]))

    monkeypatch.setattr(outer, "solve_outer_system", solve)


@pytest.fixture(scope="session")
def s1():
    return load_spec_file(corpus_path("s1"))


@pytest.fixture(scope="session")
def m1():
    return load_spec_file(corpus_path("m1"))


@pytest.fixture(scope="session")
def m1_random():
    return load_spec_file(corpus_path("m1_random"))


@pytest.fixture(scope="session")
def d2():
    return load_spec_file(corpus_path("d2"))


@pytest.fixture(scope="session")
def corpus(s1, m1, m1_random, d2):
    return {"s1": s1, "m1": m1, "m1_random": m1_random, "d2": d2}
