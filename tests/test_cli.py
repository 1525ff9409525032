import json
from pathlib import Path

import pytest

from spherical_models.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, doc, name="problem.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


SL3_BASE = {
    "version": 1,
    "kind": "spherical",
    "root_datum": "A2",
    "galois": "trivial",
    "field": {"mode": "padic"},
    "tits": "zero",
    "X": [[1, 0], [0, 1]],
    "sigma": [[1, 1]],
    "colors": [
        {"id": "D1", "rho": ["1", "0"], "sigma_set": [1]},
        {"id": "D2", "rho": ["0", "1"], "sigma_set": [2]},
    ],
}


def test_decide_exit_codes(tmp_path, capsys):
    good = write(tmp_path, SL3_BASE, "a.json")
    assert run(capsys, "decide", good)[0] == 0

    bad = dict(SL3_BASE)
    bad["tits"] = {"values": ["1/3"]}
    code, out, _ = run(capsys, "decide", write(tmp_path, bad, "b.json"))
    assert code == 1 and "does not exist" in out


def test_decide_parse_error(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "decide", str(p))
    assert code == 2 and "not valid JSON" in err


def test_decide_missing_file(capsys):
    code, _, err = run(capsys, "decide", "/nonexistent/x.json")
    assert code == 2


def test_decide_unknown_kind(tmp_path, capsys):
    doc = dict(SL3_BASE, kind="mystery")
    code, _, err = run(capsys, "decide", write(tmp_path, doc))
    assert code == 2 and "unknown kind" in err


def test_decide_unsupported_field(tmp_path, capsys):
    doc = dict(SL3_BASE)
    doc["field"] = {"mode": "general"}
    code, _, err = run(capsys, "decide", write(tmp_path, doc))
    assert code == 2 and "unsupported base field" in err


def test_decide_schema_violation_location(tmp_path, capsys):
    doc = dict(SL3_BASE)
    del doc["X"]
    code, _, err = run(capsys, "decide", write(tmp_path, doc))
    assert code == 2 and "X" in err


def test_decide_pairing_violation(tmp_path, capsys):
    doc = {
        "version": 1,
        "kind": "horospherical",
        "root_datum": "A2",
        "galois": "trivial",
        "field": {"mode": "real"},
        "tits": "zero",
        "I": [1],
        "M": [[1, 0]],
    }
    code, _, err = run(capsys, "decide", write(tmp_path, doc))
    assert code == 2 and "node 1" in err


HORO_A2 = {
    "version": 1,
    "kind": "horospherical",
    "root_datum": "A2",
    "galois": "trivial",
    "field": {"mode": "real"},
    "I": [],
    "M": [[1, 1]],
}


@pytest.mark.parametrize("name", ["SU(nope)", "SU(9,9)"])
def test_decide_rejects_catalog_form_of_another_type(tmp_path, capsys, name):
    doc = dict(HORO_A2, tits={"catalog": name})
    path = write(tmp_path, doc)
    for command in ("decide", "invariants"):
        code, _, err = run(capsys, command, path)
        assert code == 2 and ".tits" in err


@pytest.mark.parametrize(
    "key, value",
    [("M", 5), ("I", 5), ("deltas", "xyz")],
)
def test_decide_rejects_malformed_shapes(tmp_path, capsys, key, value):
    if key == "deltas":
        doc = {"version": 1, "kind": "diagonal", "deltas": value}
    else:
        doc = dict(HORO_A2, tits="zero", **{key: value})
    code, _, err = run(capsys, "decide", write(tmp_path, doc))
    assert code == 2 and "." + key in err


def test_json_output_is_stable(tmp_path, capsys):
    path = write(tmp_path, SL3_BASE)
    _, out1, _ = run(capsys, "decide", path, "--json")
    _, out2, _ = run(capsys, "decide", path, "--json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["exists"] is True and doc["reasons"]


def test_explain_lists_conditions(tmp_path, capsys):
    doc = dict(SL3_BASE)
    doc["tits"] = {"values": ["1/3"]}
    code, out, _ = run(capsys, "decide", write(tmp_path, doc), "--explain")
    assert code == 1
    assert "[ok] invariants-stability" in out
    assert "[FAIL] cohomology" in out
    assert "via:" in out


def test_invariants_report_deterministic(tmp_path, capsys):
    path = write(tmp_path, SL3_BASE)
    _, out1, _ = run(capsys, "invariants", path)
    _, out2, _ = run(capsys, "invariants", path)
    assert out1 == out2
    assert "center characters P/Q: Z/3" in out1
    assert "X*(A) = X/<sigma_N>: Z" in out1


def test_invariants_gu_kind(tmp_path, capsys):
    doc = {
        "version": 1,
        "kind": "gu",
        "root_datum": "A5",
        "galois": "flip",
        "field": {"mode": "real"},
        "tits": {"catalog": "SU(6)"},
    }
    code, out, _ = run(capsys, "invariants", write(tmp_path, doc))
    assert code == 0
    assert "fixed center characters (P/Q)^G: Z/2" in out
    assert "tits character values: [1/2]" in out


def test_catalog_list_and_show(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0 and "SU(p,q)" in out
    code, out, _ = run(capsys, "catalog", "show", "SU(3,3)")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "A5" and doc["tits"]["kind"] == "zero"
    code, _, err = run(capsys, "catalog", "show", "bogus")
    assert code == 2


def test_sample_problem_files(capsys):
    cases = {
        "so10_orthogonal.json": 0,
        "so10_quaternionic.json": 1,
        "sl6_embedding_su42.json": 1,
        "su6_number_field.json": 0,
        "bad_pairing.json": 2,
        "unsupported_field.json": 2,
        "diagonal_su.json": 0,
        "sl3_slh.json": 1,
    }
    for name, expect in cases.items():
        code = main(["decide", str(PROBLEMS / name)])
        capsys.readouterr()
        assert code == expect, name


def test_decide_gu_kinds(tmp_path, capsys):
    base = {
        "version": 1,
        "kind": "gu",
        "root_datum": "A5",
        "galois": "flip",
        "field": {"mode": "real"},
        "tits": {"catalog": "SU(6)"},
    }
    code, out, _ = run(capsys, "decide", write(tmp_path, base, "gu1.json"))
    assert code == 1  # the compact form has a nonzero class

    quasi_split = dict(base, tits={"catalog": "SU(3,3)"})
    assert run(capsys, "decide", write(tmp_path, quasi_split, "gu2.json"))[0] == 0

    number_field = dict(base)
    number_field["field"] = {
        "mode": "number_field",
        "sites": [
            {"label": "inf", "mode": "real", "galois": "flip", "t0": ["1/2"]},
            {"label": "p", "mode": "padic", "galois": "trivial", "t0": "trivial"},
        ],
    }
    del number_field["tits"]
    # the full weight lattice maps onto the fixed classes: the real site fails
    assert run(capsys, "decide", write(tmp_path, number_field, "gu3.json"))[0] == 1


def test_decide_number_field_unsupported_kind(tmp_path, capsys):
    doc = dict(SL3_BASE)
    doc["field"] = {"mode": "number_field", "sites": []}
    code, _, err = run(capsys, "decide", write(tmp_path, doc))
    assert code == 2 and "horospherical and gu kinds" in err


GOLDEN_SL6_INVARIANTS = """\
kind: embedding
root datum: A5
galois group: cyclic2
center characters P/Q: Z/6
fixed center characters (P/Q)^G: Z/2
  generator 1 image in P/Q: (3)
tits character values: [1/2]
character kernel: trivial
kernel preimage in fixed weights, basis:
  (1, 0, 0, 0, 1)
  (0, 1, 0, 1, 0)
  (0, 0, 2, 0, 0)
fan (canonical maximal colored cones):
  rays (-1, 1, -1) (0, 0, 1) (1, 0, 0) colors {D1+, D5-}
orbit lattice rank: 3
  basis (2, -1, 0, 0, 0)
  basis (0, 0, 1, 0, 0)
  basis (0, 0, 0, -1, 2)
spherical roots: (2, -1, 0, 0, 0); (0, 0, 0, -1, 2)
colinear-color simple roots: (2, -1, 0, 0, 0); (0, 0, 0, -1, 2)
sigma_sc: (2, -1, 0, 0, 0); (0, 0, 0, -1, 2)
sigma_N: (4, -2, 0, 0, 0); (0, 0, 0, -2, 4)
omega1 (2):
  rho (-1, 0, 0) moves [2]
  rho (0, 0, -1) moves [4]
omega2 (2):
  rho (1, 0, 0) moves [1]
  rho (0, 0, 1) moves [5]
X*(A) = X/<sigma_N>: Z/2 + Z/2 + Z
X*(A^ker) = X/<sigma_sc>: Z
"""


def test_invariants_golden_sl6(capsys):
    code, out, _ = run(capsys, "invariants", str(PROBLEMS / "sl6_embedding_su42.json"))
    assert code == 0
    assert out == GOLDEN_SL6_INVARIANTS


def test_number_field_invalid_site_character(tmp_path, capsys):
    doc = {
        "version": 1,
        "kind": "horospherical",
        "root_datum": "A5",
        "galois": "flip",
        "field": {
            "mode": "number_field",
            "sites": [{"label": "inf", "mode": "real", "galois": "trivial", "t0": ["1/6"]}],
        },
        "I": [],
        "M": [[1, 0, 0, 0, 1]],
    }
    code, _, err = run(capsys, "decide", write(tmp_path, doc))
    assert code == 2 and "invalid Tits character" in err


def test_problem_round_trip(tmp_path, capsys):
    # parse -> rebuild datum -> serialize -> parse again must be stable
    from spherical_models import SphericalDatum, based_root_datum
    from spherical_models.cli import load_problem, run_decide

    doc, kind = load_problem(str(PROBLEMS / "sl6_embedding_su42.json"))
    rd = based_root_datum(doc["root_datum"])
    datum = SphericalDatum.from_dict(rd, doc)
    doc2 = dict(doc)
    doc2.update(datum.to_dict())
    datum2 = SphericalDatum.from_dict(rd, doc2)
    assert datum2.to_dict() == datum.to_dict()
    v1 = run_decide(doc, "x")
    v2 = run_decide(doc2, "x")
    assert v1.exists == v2.exists
