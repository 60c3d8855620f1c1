"""Document parsing: exact numbers, round trips, actionable failures."""

import json
import random
from fractions import Fraction

import pytest

from polyevp.evp import ScaledMode, solve, verify_certificate
from polyevp.problemfile import (
    ProblemFileError,
    build_cone,
    build_problem,
    build_ranges,
    build_separation,
    certificate_from_document,
    certificate_to_document,
    load_document,
)

from conftest import make_chain3, problem_to_document, rand_problem


def load_from(tmp_path, doc):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    return load_document(f)


def test_decimal_strings_parse_exactly(tmp_path):
    doc = load_from(
        tmp_path,
        {
            "dimension": 2,
            "cone": {"generators": [[0.1, 0], [0, "2/3"]]},
            "H": {"vertices": [["0.25", 1]]},
        },
    )
    K = build_cone(doc)
    assert K.generators[0][0] == Fraction(1, 10)  # not the binary float
    assert K.generators[1][1] == Fraction(2, 3)
    sf = build_separation(doc)
    assert sf.H.vertices[0][0] == Fraction(1, 4)


def test_settings_defaults_and_overrides(tmp_path):
    doc = load_from(
        tmp_path,
        {
            "dimension": 2,
            "cone": {"generators": [[1, 0], [0, 1]]},
            "H": {"vertices": [[1, 1]]},
            "tolerance": "1/100000",
            "t_max": 64,
        },
    )
    sf = build_separation(doc)
    assert sf.tol == Fraction(1, 100000)
    assert sf.t_max == 64


def test_problem_document_round_trip():
    rng = random.Random(71)
    for _ in range(5):
        p = rand_problem(rng, max_points=5, require_witness=False)
        assert build_problem(problem_to_document(p)) == p


def test_scaled_mode_round_trip():
    p = make_chain3(5, ScaledMode(5, 10))
    q = build_problem(problem_to_document(p))
    assert q == p and q.scale == Fraction(1, 2)


def test_certificate_round_trip():
    p = make_chain3(5)
    cert = solve(p)
    report = verify_certificate(p, cert)
    doc = certificate_to_document(cert, p, report)
    assert certificate_from_document(doc, p) == cert
    assert doc["checks"] == {"a": True, "b": True}


def test_certificate_validation_failures():
    p = make_chain3(5)
    cert = solve(p)
    doc = certificate_to_document(cert, p, verify_certificate(p, cert))
    wrong_dim = dict(doc, y0=[1, 2, 3])
    with pytest.raises(ProblemFileError):
        certificate_from_document(wrong_dim, p)
    wrong_label = dict(doc, xbar="zz")
    with pytest.raises(ProblemFileError):
        certificate_from_document(wrong_label, p)
    wrong_mode = dict(doc, mode="efficiency")
    with pytest.raises(ProblemFileError):
        certificate_from_document(wrong_mode, p)


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (lambda d: d.pop("dimension"), "dimension"),
        (lambda d: d.update(dimension=0), "dimension"),
        (lambda d: d.pop("cone"), "cone"),
        (lambda d: d["cone"].update(generators=[[1]]), "expected dimension"),
        (lambda d: d.pop("x0"), "x0"),
        (lambda d: d.update(epsilon="zero"), "not a number"),
        (lambda d: d.update(mode="fancy"), "mode"),
        (lambda d: d["map"].pop("b"), "missing entries"),
    ],
)
def test_problem_validation_messages(mutation, fragment):
    doc = problem_to_document(make_chain3(5))
    mutation(doc)
    with pytest.raises(ProblemFileError) as exc:
        build_problem(doc)
    assert fragment in str(exc.value)


def test_ranges_validation():
    base = {
        "dimension": 2,
        "cone": {"generators": [[1, 0]]},
        "H": {"vertices": [[1, 0]]},
    }
    with pytest.raises(ProblemFileError):
        build_ranges(base)
    with pytest.raises(ProblemFileError):
        build_ranges(dict(base, ranges={"pieces": []}))
    union = build_ranges(
        dict(base, ranges={"pieces": [{"vertices": [[0, 0]], "rays": [[1, 0]]}]})
    )
    assert union.pieces[0][1] == ((Fraction(1), Fraction(0)),)


def test_non_json_and_non_object_inputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all {")
    with pytest.raises(ProblemFileError):
        load_document(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]")
    with pytest.raises(ProblemFileError):
        load_document(arr)
    with pytest.raises(ProblemFileError):
        load_document(tmp_path / "missing.json")
