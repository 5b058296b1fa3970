"""Problem parsing, coefficient realization, and standing-assumption checks."""

import json

import numpy as np
import pytest

from mfbslq import ConfigurationError, build_tree, load_spec, realize, validate_h1_h2
from conftest import constant, corpus_path, infinite_weight_doc, scalar_spec, scalar_spec_doc


def _doc(**kwargs):
    return scalar_spec_doc(**kwargs)


# ---------------------------------------------------------------------------
# parsing


def test_corpus_parses(corpus):
    assert corpus["s1"].n == corpus["s1"].m == 1
    assert corpus["d2"].n == 2 and corpus["d2"].m == 1
    for spec in corpus.values():
        assert spec.horizon == 1.0
        assert spec.delta == 0.5


def test_missing_field_rejected():
    doc = _doc()
    del doc["delta"]
    with pytest.raises(ConfigurationError, match="delta"):
        load_spec(json.dumps(doc))


def test_unknown_field_rejected():
    doc = _doc()
    doc["extra"] = 1
    with pytest.raises(ConfigurationError, match="unknown"):
        load_spec(json.dumps(doc))


def test_invalid_json_rejected():
    with pytest.raises(ConfigurationError, match="JSON"):
        load_spec("{not json")


def test_bad_dimensions_rejected():
    doc = _doc()
    doc["n"] = 0
    with pytest.raises(ConfigurationError):
        load_spec(json.dumps(doc))
    doc = _doc()
    doc["delta"] = -0.5
    with pytest.raises(ConfigurationError, match="delta"):
        load_spec(json.dumps(doc))
    for key in ("n", "m"):   # isinstance(True, int) holds, but a bool is no size
        doc = _doc()
        doc[key] = True
        with pytest.raises(ConfigurationError, match="n and m"):
            load_spec(json.dumps(doc))
    for key in ("T", "delta"):   # 1e400 parses to inf
        for literal in ("1e400", "-1e400", "NaN", '"abc"', "true",
                        "1" + "0" * 400):
            doc = _doc()
            doc[key] = "@"
            with pytest.raises(ConfigurationError, match=key):
                load_spec(json.dumps(doc).replace('"@"', literal))


def test_unsupported_form_rejected():
    doc = _doc()
    doc["dynamics"]["A"] = {"form": "mystery", "value": 1.0}
    with pytest.raises(ConfigurationError, match="mystery"):
        load_spec(json.dumps(doc))


def test_shape_mismatch_rejected():
    doc = _doc()
    doc["dynamics"]["A"] = constant([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ConfigurationError, match="A"):
        load_spec(json.dumps(doc))


def test_coefficient_payload_keys_checked():
    doc = _doc()
    doc["dynamics"]["A"] = {"form": "constant"}
    with pytest.raises(ConfigurationError, match="missing"):
        load_spec(json.dumps(doc))
    doc["dynamics"]["A"] = {"form": "constant", "value": 0.0, "stray": 1}
    with pytest.raises(ConfigurationError, match="unknown"):
        load_spec(json.dumps(doc))


def _d2_doc():
    return json.loads(corpus_path("d2").read_text())


def _set(section, key, value):
    def edit(doc):
        (doc[section] if section else doc)[key] = value
    return edit


@pytest.mark.parametrize("make_doc, edit, message", [
    pytest.param(_doc, _set(None, "dynamics", 5), r"^dynamics must be an object",
                 id="dynamics-number"),
    pytest.param(_doc, lambda doc: doc.update(dynamics=list(doc["dynamics"])),
                 r"^dynamics must be an object", id="dynamics-list-of-names"),
    pytest.param(_doc, _set("dynamics", "A", {"form": "time_table", "values": 3}),
                 r"^A: expected a list", id="time_table-values-number"),
    pytest.param(_doc, _set("cost", "Q", {"form": "tanh_poly_W", "coeffs": 3}),
                 r"^Q\.coeffs: expected a list", id="tanh_poly_W-coeffs-number"),
    pytest.param(_doc, _set("dynamics", "B", constant("x")),
                 r"^B: expected nested lists", id="value-string"),
    pytest.param(_doc, _set("dynamics", "C", constant([[1, [2]]])),
                 r"^C: expected nested lists", id="value-ragged"),
    pytest.param(_doc, _set("dynamics", "C", constant([["0.5"]])),
                 r"^C: expected nested lists", id="value-numeric-string"),
    pytest.param(_doc, _set("dynamics", "C", constant([[True]])),
                 r"^C: expected nested lists", id="value-boolean"),
    # numpy would read a boolean among numbers as 1.0 or 0.0
    pytest.param(_d2_doc, _set("dynamics", "A", constant([[0.1, True], [0.0, 0.15]])),
                 r"^A: expected nested lists", id="matrix-boolean-among-numbers"),
    pytest.param(_d2_doc, _set(None, "terminal",
                               {"form": "poly_in_WT", "coeffs": [[1.5, 0.5], [False, 0.25]]}),
                 r"^terminal\.coeffs\[1\]: expected nested lists",
                 id="poly_in_WT-boolean-among-numbers"),
    pytest.param(_doc, _set("cost", "G", "x"), r"^G: expected nested lists",
                 id="G-string"),
    pytest.param(_doc, _set(None, "terminal", {"form": "poly_in_WT", "coeffs": "ab"}),
                 r"^terminal\.coeffs: expected a list", id="poly_in_WT-coeffs-string"),
    pytest.param(_doc, _set("dynamics", "A", {"form": "node_table", "values": [[]]}),
                 r"^A\[level 0\]: no nodes given", id="node_table-empty-level"),
    pytest.param(_doc, _set(None, "terminal", {"form": "leaf_table", "values": []}),
                 r"^terminal: leaf_table has no entries", id="leaf_table-empty"),
    # a bare number stands only for a 1x1 matrix or a length-1 vector
    pytest.param(_d2_doc, _set("dynamics", "A", constant(0.5)),
                 r"^A: scalar given where a 2x2 matrix is required",
                 id="scalar-for-2x2"),
])
def test_malformed_structure_names_the_field(make_doc, edit, message):
    doc = make_doc()
    edit(doc)
    with pytest.raises(ConfigurationError, match=message):
        load_spec(json.dumps(doc))


# ---------------------------------------------------------------------------
# realization of each coefficient form


def test_realize_constant_and_shapes():
    # noise-independent coefficients are stored once per level (one node
    # stands for every node); walk-dependent ones and xi keep 2^k nodes
    doc = _doc(A=0.25, B=2.0)
    doc["dynamics"]["C"] = {"form": "time_table", "values": [0.1, 0.2, 0.3]}
    doc["dynamics"]["C_bar"] = {"form": "affine_tanh_W", "m0": 0.1, "m1": 0.1}
    doc["cost"]["N"] = {"form": "tanh_poly_W", "coeffs": [1.0, 0.5]}
    doc["cost"]["N_bar"] = {"form": "tanh_poly_W", "coeffs": [0.5]}
    tree = build_tree(1.0, 3)
    coeffs = realize(load_spec(json.dumps(doc)), tree)
    for k in range(3):
        for name in ("A", "B", "C", "N_bar"):
            assert getattr(coeffs, name)[k].shape == (1, 1, 1), (name, k)
        for name in ("C_bar", "N"):
            assert getattr(coeffs, name)[k].shape == (tree.n_nodes(k), 1, 1)
        assert np.allclose(coeffs.A[k], 0.25)
        assert np.allclose(coeffs.B[k], 2.0)
        assert np.allclose(coeffs.C[k], 0.1 * (k + 1))
        assert np.allclose(coeffs.N_bar[k], 0.5)
    assert coeffs.xi.shape == (8, 1)
    assert np.allclose(coeffs.xi, 0.0)


def test_realize_time_table():
    doc = _doc()
    doc["dynamics"]["A"] = {"form": "time_table", "values": [0.1, 0.2, 0.3]}
    spec = load_spec(json.dumps(doc))
    coeffs = realize(spec, build_tree(1.0, 3))
    assert np.allclose(coeffs.A[0], 0.1)
    assert np.allclose(coeffs.A[2], 0.3)
    with pytest.raises(ConfigurationError, match="time_table"):
        realize(spec, build_tree(1.0, 4))


def test_realize_affine_tanh_of_walk():
    doc = _doc()
    doc["dynamics"]["A"] = {"form": "affine_tanh_W", "m0": 0.1, "m1": 0.1}
    spec = load_spec(json.dumps(doc))
    tree = build_tree(1.0, 2)
    coeffs = realize(spec, tree)
    w1 = tree.brownian(1)
    assert np.allclose(coeffs.A[1][:, 0, 0], 0.1 + 0.1 * np.tanh(w1))


def test_realize_tanh_polynomial_of_walk():
    doc = _doc()
    doc["cost"]["N"] = {"form": "tanh_poly_W", "coeffs": [1.0, 0.0, 0.25]}
    spec = load_spec(json.dumps(doc))
    tree = build_tree(1.0, 2)
    coeffs = realize(spec, tree)
    th = np.tanh(tree.brownian(1))
    assert np.allclose(coeffs.N[1][:, 0, 0], 1.0 + 0.25 * th**2)


def test_realize_node_table():
    doc = _doc()
    doc["dynamics"]["A"] = {"form": "node_table", "values": [[0.5], [0.1, 0.9]]}
    spec = load_spec(json.dumps(doc))
    coeffs = realize(spec, build_tree(1.0, 2))
    assert np.allclose(coeffs.A[0][:, 0, 0], [0.5])
    assert np.allclose(coeffs.A[1][:, 0, 0], [0.1, 0.9])
    with pytest.raises(ConfigurationError, match="node_table"):
        realize(spec, build_tree(1.0, 3))


def test_realize_terminal_forms():
    tree = build_tree(1.0, 2)
    w = tree.brownian(2)

    spec = scalar_spec(terminal={"form": "affine_in_WT", "g0": 1.0, "g1": 2.0})
    assert np.allclose(realize(spec, tree).xi[:, 0], 1.0 + 2.0 * w)

    spec = scalar_spec(terminal={"form": "poly_in_WT", "coeffs": [0.0, 0.0, 1.0]})
    assert np.allclose(realize(spec, tree).xi[:, 0], w**2)

    spec = scalar_spec(terminal={"form": "leaf_table",
                                 "values": [1.0, 2.0, 3.0, 4.0]})
    assert np.allclose(realize(spec, tree).xi[:, 0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ConfigurationError, match="leaf_table"):
        realize(spec, build_tree(1.0, 3))


def test_affine_forms_are_the_two_term_polynomials():
    # a document written with the affine forms and the same one written as
    # two-term polynomials realize to the same arrays, bit for bit: Horner's
    # rule forms m1 tanh W + m0 and g1 W(T) + g0 from the same products
    affine = json.loads(corpus_path("d2").read_text())
    polynomial = json.loads(corpus_path("d2").read_text())
    terms = {"A": ([[0.1, 0.05], [0.0, 0.15]], [[0.1, 0.0], [0.05, -0.1]]),
             "C": ([[0.2, 0.0], [0.1, 0.1]], [[0.1, 0.05], [0.0, 0.1]])}
    for name, (m0, m1) in terms.items():
        affine["dynamics"][name] = {"form": "affine_tanh_W", "m0": m0, "m1": m1}
        polynomial["dynamics"][name] = {"form": "tanh_poly_W", "coeffs": [m0, m1]}
    affine["terminal"] = {"form": "affine_in_WT", "g0": [1.0, 0.5], "g1": [0.3, -0.7]}
    polynomial["terminal"] = {"form": "poly_in_WT", "coeffs": [[1.0, 0.5], [0.3, -0.7]]}
    tree = build_tree(1.0, 9)
    got, want = (realize(load_spec(json.dumps(doc)), tree) for doc in (affine, polynomial))
    assert got.xi.shape == (512, 2) and np.array_equal(got.xi, want.xi)
    w_T = tree.brownian(9)[:, None]
    assert np.array_equal(got.xi, np.array([1.0, 0.5]) + w_T * np.array([0.3, -0.7]))
    for name, (m0, m1) in terms.items():
        for k, (a, b) in enumerate(zip(getattr(got, name), getattr(want, name))):
            assert a.shape == b.shape == (tree.n_nodes(k), 2, 2) and np.array_equal(a, b)
            th = np.tanh(tree.brownian(k))[:, None, None]
            assert np.array_equal(a, np.array(m0) + th * np.array(m1)), (name, k)


def test_realize_matrix_valued_terminal(d2):
    tree = build_tree(1.0, 3)
    coeffs = realize(d2, tree)
    w = tree.brownian(3)
    assert np.allclose(coeffs.xi[:, 0], 1.0 + 0.5 * w)
    assert np.allclose(coeffs.xi[:, 1], 0.5 - 0.25 * w)


# ---------------------------------------------------------------------------
# assumption validation


def _report(spec, nt=4):
    tree = build_tree(spec.horizon, nt)
    return validate_h1_h2(realize(spec, tree), spec.delta)


def test_corpus_validates(corpus):
    for name, spec in corpus.items():
        report = _report(spec)
        assert report.ok, f"{name}: {report.summary()}"


def test_control_weight_below_floor_detected():
    report = _report(scalar_spec(N=0.1))
    assert not report.ok
    assert "N" in report.summary()


def test_martingale_weight_below_floor_detected():
    report = _report(scalar_spec(R=0.1))
    assert not report.ok
    assert "R" in report.summary()


def test_asymmetric_weight_detected():
    doc = _doc()
    doc["n"] = 2
    for key in ("A", "A_bar", "C", "C_bar"):
        doc["dynamics"][key] = constant([[0.0, 0.0], [0.0, 0.0]])
    doc["dynamics"]["B"] = constant([[1.0], [0.0]])
    doc["dynamics"]["B_bar"] = constant([[0.0], [0.0]])
    for key in ("Q", "Q_bar", "R_bar"):
        doc["cost"][key] = constant([[0.0, 0.0], [0.0, 0.0]])
    doc["cost"]["R"] = constant([[1.0, 0.0], [0.0, 1.0]])
    doc["cost"]["G"] = [[0.0, 0.0], [0.0, 0.0]]
    doc["terminal"] = {"form": "affine_in_WT", "g0": [0.0, 0.0], "g1": [0.0, 0.0]}
    doc["cost"]["N_bar"] = {"form": "constant", "value": 1.0}

    base = load_spec(json.dumps(doc))
    assert _report(base).ok

    doc["cost"]["Q"] = constant([[1.0, 0.5], [0.0, 1.0]])
    report = _report(load_spec(json.dumps(doc)))
    assert not report.ok and "Q" in report.summary()


def _two_state_doc(Q) -> dict:
    doc = _doc()
    doc["n"] = 2
    for key in ("A", "A_bar", "C", "C_bar"):
        doc["dynamics"][key] = constant([[0.0, 0.0], [0.0, 0.0]])
    doc["dynamics"]["B"] = constant([[1.0], [0.0]])
    doc["dynamics"]["B_bar"] = constant([[0.0], [0.0]])
    doc["cost"]["Q"] = Q
    for key in ("Q_bar", "R_bar"):
        doc["cost"][key] = constant([[0.0, 0.0], [0.0, 0.0]])
    doc["cost"]["R"] = constant([[1.0, 0.0], [0.0, 1.0]])
    doc["cost"]["G"] = [[0.0, 0.0], [0.0, 0.0]]
    doc["terminal"] = {"form": "affine_in_WT", "g0": [0.0, 0.0], "g1": [0.0, 0.0]}
    return doc


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_indefinite_state_weight_reports_eigenvalue():
    doc = _two_state_doc(constant([[1.0, 2.0], [2.0, 1.0]]))
    report = _report(load_spec(json.dumps(doc)))
    assert not report.ok
    text = report.summary()
    assert "Q" in text and "-1" in text


def test_failed_check_names_the_level_of_a_time_table():
    # eigenvalues -1 and 3 on level 3 of 5, the identity elsewhere
    tables = [[[1.0, 0.0], [0.0, 1.0]]] * 5
    tables[3] = [[1.0, 2.0], [2.0, 1.0]]
    doc = _two_state_doc({"form": "time_table", "values": tables})
    check = _check(_report(load_spec(json.dumps(doc)), nt=5), "Q positive semidefinite")
    assert not check.passed
    assert check.worst_node == (3, 0)
    assert check.margin == pytest.approx(-1.0)


def test_failed_check_names_the_node_of_a_node_table():
    # N = 0.1 < delta = 0.5 on node 3 of level 2 only
    levels = [[1.0] * 2 ** k for k in range(4)]
    levels[2][3] = 0.1
    doc = _doc()
    doc["cost"]["N"] = {"form": "node_table", "values": levels}
    check = _check(_report(load_spec(json.dumps(doc))), "N >= delta*I")
    assert not check.passed
    assert check.worst_node == (2, 3)
    assert check.margin == pytest.approx(0.1 - 0.5)


def test_nonfinite_coefficient_detected():
    doc = _doc()
    doc["dynamics"]["A"] = constant(float("1e400"))  # parses to inf
    report = _report(load_spec(json.dumps(doc)))
    assert not report.ok


def test_infinite_entry_of_a_wide_weight_is_reported_not_raised():
    # a 3 x 3 weight with an infinite entry used to reach eigvalsh (which
    # raised LinAlgError) and to warn on inf - inf; H1 reports it, and the
    # level is passed over by the symmetry and eigenvalue checks
    report = _report(load_spec(json.dumps(infinite_weight_doc())))
    assert not report.ok
    assert not _check(report, "H1 coefficients finite").passed
    assert _check(report, "Q symmetric").worst_node is None
    assert _check(report, "R >= delta*I").passed


def test_weight_checks_with_no_finite_level_fail_without_a_margin():
    # Q's only level is passed over, so its checks measured nothing: they
    # fail with no margin and say why, instead of passing with margin inf;
    # the floor check of R fails the same way
    doc = infinite_weight_doc()
    doc["cost"]["R"] = doc["cost"]["Q"]
    report = _report(load_spec(json.dumps(doc)))
    for name in ("Q symmetric", "Q positive semidefinite", "R symmetric", "R >= delta*I"):
        check = _check(report, name)
        assert not check.passed, name
        assert check.margin is None and check.worst_node is None, name
        assert check.detail == "no level was finite, so none was checked", name
    assert _check(report, "N >= delta*I").passed


def test_corpus_files_match_committed_dimensions():
    raw = json.loads(corpus_path("d2").read_text())
    assert raw["n"] == 2 and raw["m"] == 1
    raw = json.loads(corpus_path("m1_random").read_text())
    assert raw["dynamics"]["A"]["form"] == "affine_tanh_W"
    assert raw["cost"]["N"]["form"] == "tanh_poly_W"
