"""Command-line interface: exit codes, report payloads, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mfbslq import NumericsError
from mfbslq.cli import main
from conftest import (corpus_path, infinite_weight_doc, perturb_coupling_response,
                      scalar_spec_doc, singular_mean_doc, singular_step_doc)

S1 = str(corpus_path("s1"))
M1 = str(corpus_path("m1"))
M1_RANDOM = str(corpus_path("m1_random"))
M1_PATH = str(corpus_path("m1_path"))


def _write_spec(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _strip_timings(path):
    report = json.loads(path.read_text())
    report.pop("timings")
    return json.dumps(report, sort_keys=True)


# ---------------------------------------------------------------------------
# run


def test_run_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", "--spec", S1, "--nt", "4", "--with-oracle",
                 "--check", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert {"cost", "eta_star", "multiplier_residual", "constraint_residuals",
            "stationarity_residual", "riccati", "diagnostics", "timings",
            "oracle"} == set(report)
    assert report["oracle"]["control_error"] <= 0.10
    assert {"cost", "control_error", "gradient_norm", "certified",
            "method", "min_kkt_tail_sv", "elimination_nodes"} == set(report["oracle"])
    assert report["oracle"]["elimination_nodes"] == 10     # lattice levels of 1 to 4 nodes
    assert {"outer_columns", "outer_relative_residual",
            "min_outer_preconditioner_sv"} <= set(report["diagnostics"])


def test_run_zero_terminal(tmp_path):
    spec = _write_spec(tmp_path, scalar_spec_doc())
    out = tmp_path / "report.json"
    assert main(["run", "--spec", spec, "--nt", "4", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["cost"] == 0.0


def test_run_check_gate_trips_on_coarse_tree(tmp_path):
    # the coarse-grid control error genuinely exceeds the quality gate
    out = tmp_path / "report.json"
    code = main(["run", "--spec", M1, "--nt", "4", "--with-oracle",
                 "--check", "--out", str(out)])
    assert code == 3
    assert out.exists()  # report still written before the gate fires


def test_run_check_gate_override(tmp_path):
    out = tmp_path / "report.json"
    code = main(["run", "--spec", M1, "--nt", "4", "--with-oracle", "--check",
                 "--max-control-error", "0.5", "--out", str(out)])
    assert code == 0


def test_run_missing_file_is_usage_error(tmp_path):
    assert main(["run", "--spec", str(tmp_path / "nope.json"), "--nt", "4"]) == 1


def test_mistyped_option_is_usage_error(capsys):
    # argparse alone would exit 2, the code of a solver failure
    assert main(["run", "--spec", M1, "--max-residual", "1"]) == 1
    assert "unrecognized arguments: --max-residual" in capsys.readouterr().err
    assert main(["run", "--spec", M1, "--nt", "four"]) == 1
    assert main(["run", "--help"]) == 0


def test_run_invalid_assumptions_is_usage_error(tmp_path):
    spec = _write_spec(tmp_path, scalar_spec_doc(R=0.1))
    assert main(["run", "--spec", spec, "--nt", "4"]) == 1


def test_run_solver_failure_maps_to_two(tmp_path, monkeypatch):
    import mfbslq.cli as cli

    def boom(*args, **kwargs):
        raise NumericsError("synthetic failure")

    monkeypatch.setattr(cli, "run_pipeline", boom)
    assert main(["run", "--spec", S1, "--nt", "4"]) == 2


def test_run_wrong_probe_maps_to_two(monkeypatch, capsys):
    perturb_coupling_response(monkeypatch, 1e-3)
    assert main(["run", "--spec", M1, "--nt", "4", "--out", "-"]) == 2
    assert "multiplier residual" in capsys.readouterr().err


def test_unconverged_outer_solve_maps_to_two(monkeypatch, capsys):
    # path-dependent data: the node-mean preconditioner leaves more than one
    # product, so a cap of one stops GMRES short
    from mfbslq import multipliers
    real = multipliers._gmres
    monkeypatch.setattr(multipliers, "_gmres",
                        lambda product, rhs, cap: real(product, rhs, 1))
    assert main(["run", "--spec", M1_PATH, "--nt", "8", "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert "GMRES" in err and "after 1 products" in err


def test_check_gates_multiplier_residual():
    from mfbslq.cli import _run_checks

    class NoOracle:
        oracle = None

    report = {"constraint_residuals": {"y_means": 0.0, "z_means": 0.0,
                                       "u_means": 0.0},
              "multiplier_residual": 2e-8, "cost": 1.0,
              "riccati": {"symmetry": 0.0, "min_I_plus_SigmaR_sv": 1.0}}
    failures = _run_checks(NoOracle(), report, 0.1)
    assert len(failures) == 1 and "multiplier residual" in failures[0]
    assert _run_checks(NoOracle(), dict(report, multiplier_residual=1e-8), 0.1) == []
    # NaN fails every gate it reaches, not only the finite-cost one
    nan_report = dict(report, multiplier_residual=math.nan,
                      constraint_residuals={"y_means": math.nan})
    nan_report["riccati"] = {"symmetry": math.nan, "min_I_plus_SigmaR_sv": math.nan}
    assert len(_run_checks(NoOracle(), nan_report, 0.1)) == 4

    class NanOracle:
        oracle = object()
        oracle_control_error = math.nan
        oracle_cost_gap = math.nan

    failures = _run_checks(NanOracle(), dict(report, multiplier_residual=0.0), 0.1)
    assert [line.split(" vs ")[0] for line in failures] == ["control error", "cost gap"]


def test_run_deterministic_checked_payload(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["run", "--spec", M1, "--nt", "5", "--with-oracle",
                     "--out", str(out)]) == 0
    assert _strip_timings(out1) == _strip_timings(out2)


# ---------------------------------------------------------------------------
# converge


def test_converge_table(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["converge", "--spec", S1, "--nt", "2,4,8",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["nt"] for r in rows] == ["2", "4", "8"]
    errs = [float(r["control_err_vs_oracle"]) for r in rows]
    assert errs[2] < errs[1] < errs[0]
    gaps = [float(r["cost_gap"]) for r in rows]
    assert gaps[2] < gaps[1] < gaps[0]
    # log2 ratios of a first-order quantity hover around one
    assert 0.7 <= float(rows[2]["control_rate"]) <= 1.4
    assert rows[0]["control_rate"] == ""


def test_converge_zero_terminal_all_zero(tmp_path):
    spec = _write_spec(tmp_path, scalar_spec_doc())
    out = tmp_path / "table.csv"
    assert main(["converge", "--spec", spec, "--nt", "2,4",
                 "--out", str(out)]) == 0
    for row in csv.DictReader(out.read_text().splitlines()):
        assert float(row["control_err_vs_oracle"]) == 0.0
        assert abs(float(row["cost_gap"])) <= 1e-15


def test_converge_requires_ascending_depths(tmp_path, capsys):
    assert main(["converge", "--spec", S1, "--nt", "8,4",
                 "--out", str(tmp_path / "t.csv")]) == 1
    # a non-integer entry is a configuration error naming it, not a traceback
    assert main(["converge", "--spec", S1, "--nt", "4,x",
                 "--out", str(tmp_path / "t.csv")]) == 1
    assert "error: --nt entries must be integers, got 'x'" in capsys.readouterr().err


def test_converge_partial_table_on_failure(tmp_path, monkeypatch):
    import mfbslq.cli as cli
    real = cli.run_pipeline

    def flaky(spec, nt, **kwargs):
        if nt >= 4:
            raise NumericsError("synthetic failure")
        return real(spec, nt, **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", flaky)
    out = tmp_path / "table.csv"
    assert main(["converge", "--spec", S1, "--nt", "2,4,8",
                 "--out", str(out)]) == 2
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header, one good row, one marked failure
    assert lines[1].startswith("2,")
    assert lines[2].startswith("4,") and "error" in lines[2]


# ---------------------------------------------------------------------------
# validate


def test_validate_corpus_passes(capsys):
    assert main(["validate", "--spec", M1]) == 0
    assert "pass" in capsys.readouterr().out


def test_validate_names_offending_weight(tmp_path, capsys):
    spec = _write_spec(tmp_path, scalar_spec_doc(R=0.1))
    assert main(["validate", "--spec", spec]) == 1
    out = capsys.readouterr().out
    assert "FAIL: R >= delta*I" in out


def test_validate_reports_negative_eigenvalue(tmp_path, capsys):
    doc = scalar_spec_doc()
    doc["n"] = 2
    zero2 = {"form": "constant", "value": [[0.0, 0.0], [0.0, 0.0]]}
    for key in ("A", "A_bar", "C", "C_bar"):
        doc["dynamics"][key] = dict(zero2)
    doc["dynamics"]["B"] = {"form": "constant", "value": [[1.0], [0.0]]}
    doc["dynamics"]["B_bar"] = {"form": "constant", "value": [[0.0], [0.0]]}
    doc["cost"]["Q"] = {"form": "constant", "value": [[1.0, 2.0], [2.0, 1.0]]}
    for key in ("Q_bar", "R_bar"):
        doc["cost"][key] = dict(zero2)
    doc["cost"]["R"] = {"form": "constant", "value": [[1.0, 0.0], [0.0, 1.0]]}
    doc["cost"]["G"] = [[0.0, 0.0], [0.0, 0.0]]
    doc["terminal"] = {"form": "affine_in_WT", "g0": [0.0, 0.0],
                       "g1": [0.0, 0.0]}
    spec = _write_spec(tmp_path, doc)
    assert main(["validate", "--spec", spec]) == 1
    out = capsys.readouterr().out
    assert "Q" in out and "-1" in out


def test_validate_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["validate", "--spec", str(path)]) == 1


def _run_python(*args):
    """A fresh interpreter that imports the package from this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_validate_infinite_weight_entry_fails_h1(tmp_path):
    # run as a process: a LinAlgError from the eigenvalue check used to
    # escape as a traceback, after a RuntimeWarning
    proc = _run_python("-m", "mfbslq.cli", "validate", "--spec",
                       _write_spec(tmp_path, infinite_weight_doc()))
    assert proc.returncode == 1
    assert "FAIL: H1 coefficients finite" in proc.stdout
    assert proc.stderr == ""
    # Q's only level is passed over, so no Q check may claim a pass
    assert "FAIL: Q symmetric (no level was finite" in proc.stdout
    assert not any(line.startswith("pass: Q ") for line in proc.stdout.splitlines())


def test_validate_malformed_structure_is_an_error_line(tmp_path):
    # run as a process, so an escaping exception would show as a traceback
    doc = scalar_spec_doc()
    doc["dynamics"] = 5
    proc = _run_python("-m", "mfbslq.cli", "validate", "--spec",
                       _write_spec(tmp_path, doc))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: dynamics must be an object")
    assert "Traceback" not in proc.stderr


def test_no_route_of_the_package_loads_scipy():
    # NumPy is the only dependency: a fresh process that solves, certifies
    # (by both oracle routes), takes the Hessian spectrum and validates must
    # not import SciPy
    proc = _run_python("-c", f"""
import sys
import mfbslq
import mfbslq.cli
from mfbslq import oracle
spec = mfbslq.load_spec_file({M1_RANDOM!r})
mfbslq.run_pipeline(spec, 4, with_oracle=True).report()
tree = mfbslq.build_tree(spec.horizon, 4)
coeffs = mfbslq.realize(spec, tree)
assert oracle.solve_oracle(tree, coeffs, "dense").certified
assert oracle.weighted_hessian_eigenvalues(tree, coeffs).min() > 0.0
assert mfbslq.cli.main(["validate", "--spec", {M1_RANDOM!r}]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# step-size failures


def test_singular_step_maps_to_two(tmp_path, capsys):
    # A = 1/dt on level 2 of a 4-level tree makes I - dt A exactly zero;
    # A_bar = 1/dt there makes the mean-closing matrix exactly zero
    for doc, matrix in ((singular_step_doc(), "I - dt A"),
                        (singular_mean_doc(), "mean-closing")):
        spec = _write_spec(tmp_path, doc)
        assert main(["run", "--spec", spec, "--nt", "4"]) == 2
        err = capsys.readouterr().err
        assert "singular" in err and "level 2" in err and matrix in err
    # the same document ships as a spec file, loaded by name
    assert main(["run", "--spec", str(corpus_path("singular_step")), "--nt", "4"]) == 2
    assert "I - dt A" in capsys.readouterr().err


def test_tiny_control_weight_maps_to_two(capsys):
    # m1 with N = 1e-200, which the floor delta = 1e-300 admits: N^-1 = 1e200
    # would carry NaN into the cost and residuals, so N is refused as singular
    spec = str(corpus_path("tiny_control_weight"))
    assert main(["run", "--spec", spec, "--nt", "6", "--out", os.devnull]) == 2
    err = capsys.readouterr().err
    assert "control weight N" in err and "level 0" in err
