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
    # invariants derive data only, so every valid file exits 0
    for name in cases:
        code, _, err = run(capsys, "invariants", str(PROBLEMS / name))
        if name in ("bad_pairing.json", "unsupported_field.json"):
            assert code == 2 and err.startswith("error: "), name
        else:
            assert code == 0, name


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


def test_number_field_site_t0_must_be_a_list(tmp_path, capsys):
    doc = {
        "version": 1,
        "kind": "horospherical",
        "root_datum": "A5",
        "galois": "flip",
        "field": {
            "mode": "number_field",
            "sites": [{"label": "inf", "mode": "real", "galois": "flip", "t0": "1/2"}],
        },
        "I": [],
        "M": [[1, 0, 0, 0, 1]],
    }
    for command in ("decide", "invariants"):
        code, _, err = run(capsys, command, write(tmp_path, doc))
        assert code == 2 and ".field.sites[0].t0" in err


@pytest.mark.parametrize(
    "doc",
    [
        dict(SL3_BASE, colors=[dict(SL3_BASE["colors"][0], rho=[0.5, 1]), SL3_BASE["colors"][1]]),
        dict(SL3_BASE, X=[[1.0, 0], [0, 1]]),
        dict(SL3_BASE, tits={"values": [1e-1]}),
        {"version": 1, "kind": "diagonal", "deltas": [float("nan")]},
    ],
)
def test_floats_are_rejected_anywhere(tmp_path, capsys, doc):
    path = write(tmp_path, doc)
    for command in ("decide", "invariants"):
        code, _, err = run(capsys, command, path)
        assert code == 2 and "float" in err


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


HORO_A3 = dict(HORO_A2, root_datum="A3", I=[2], M=[[1, 0, 0]])
SO10_QUATERNIONIC = json.loads((PROBLEMS / "so10_quaternionic.json").read_text())


def _with_color_sigma_set(doc, value):
    colors = [dict(doc["colors"][0], sigma_set=value)] + doc["colors"][1:]
    return dict(doc, colors=colors)


@pytest.mark.parametrize(
    "doc, where",
    [
        (dict(HORO_A3, M=[["1", 0, 0]]), ".M[0][0]"),
        (dict(HORO_A3, M=[[True, 0, 0]]), ".M[0][0]"),
        (dict(HORO_A3, M=[[1, 0, 0], 7]), ".M[1]"),
        (dict(HORO_A3, I=["2"]), ".I[0]"),
        (dict(HORO_A3, I=[False]), ".I[0]"),
        (dict(SO10_QUATERNIONIC, X=[["1", 0, 0, 0, 0]]), ".X[0][0]"),
        (dict(SO10_QUATERNIONIC, X=5), ".X"),
        (dict(SO10_QUATERNIONIC, sigma=[[2, 0, 0, 0, "0"]]), ".sigma[0][4]"),
        (dict(SO10_QUATERNIONIC, sigma234=[True]), ".sigma234[0]"),
        (dict(SO10_QUATERNIONIC, sigma234=["0"]), ".sigma234[0]"),
        (dict(SO10_QUATERNIONIC, sigma234=[[0]]), ".sigma234[0]"),
        (dict(SO10_QUATERNIONIC, torus_rank="0"), ".torus_rank"),
        (dict(SO10_QUATERNIONIC, torus_rank=False), ".torus_rank"),
        (_with_color_sigma_set(SO10_QUATERNIONIC, ["1"]), ".colors[0].sigma_set[0]"),
        (_with_color_sigma_set(SO10_QUATERNIONIC, [True]), ".colors[0].sigma_set[0]"),
        (dict(SO10_QUATERNIONIC, colors=[5]), ".colors[0]"),
        (dict(HORO_A3, galois={"group": "cyclic2", "generators": [["3", 2, 1]]}), ".galois.generators[0][0]"),
        (dict(HORO_A3, galois={"group": "cyclic2", "generators": [[3, 2, True]]}), ".galois.generators[0][2]"),
    ],
)
def test_non_integer_entries_are_rejected_at_load(tmp_path, capsys, doc, where):
    path = write(tmp_path, doc)
    for command in ("decide", "invariants"):
        code, out, err = run(capsys, command, path)
        assert code == 2 and out == "", (command, err)
        assert err.startswith("error: " + path + where + ": "), err


def test_integer_documents_still_decide(tmp_path, capsys):
    assert run(capsys, "decide", write(tmp_path, HORO_A3))[0] == 0
    assert run(capsys, "decide", write(tmp_path, SO10_QUATERNIONIC))[0] == 1
    # sigma234 is a flat list of indices into sigma
    assert run(capsys, "decide", write(tmp_path, dict(SO10_QUATERNIONIC, sigma234=[0])))[0] == 1


def test_datum_with_doubling_flags_round_trips_through_cli(tmp_path, capsys):
    from spherical_models import SphericalDatum, based_root_datum

    rd = based_root_datum("D5")
    datum = SphericalDatum.from_dict(rd, dict(SO10_QUATERNIONIC, sigma234=[0]))
    doc = dict(SO10_QUATERNIONIC, **datum.to_dict())
    assert doc["sigma234"] == [0]
    code, out, err = run(capsys, "decide", write(tmp_path, doc))
    assert code in (0, 1) and err == "", err
    # from_dict reads the same integer shapes as the CLI
    with pytest.raises(ValueError, match=r"^\.sigma234\[0\]: "):
        SphericalDatum.from_dict(rd, dict(doc, sigma234=["0"]))


def _embedding_doc(rho1, rho2, ray1, ray2):
    return {
        "version": 1,
        "kind": "embedding",
        "root_datum": "A2",
        "galois": "flip",
        "field": {"mode": "real"},
        "tits": "zero",
        "X": [[1, 0], [0, 1]],
        "sigma": [[1, 1]],
        "colors": [
            {"id": "D1", "rho": rho1, "sigma_set": [1]},
            {"id": "D2", "rho": rho2, "sigma_set": [2]},
        ],
        "fan": [
            {"generators": [ray1], "colors": ["D1"]},
            {"generators": [ray2], "colors": ["D2"]},
        ],
    }


def test_integral_values_as_strings_or_integers_give_identical_output(tmp_path, capsys):
    strings = _embedding_doc(["2", "1/2"], ["1/2", "2"], ["-2", "0"], ["0", "-2"])
    ints = _embedding_doc([2, "1/2"], ["1/2", 2], [-2, 0], [0, -2])
    a, b = write(tmp_path, strings, "s.json"), write(tmp_path, ints, "i.json")
    for command in (("decide", "--json"), ("decide", "--explain"), ("invariants",)):
        code_a, out_a, err_a = run(capsys, *command, a)
        code_b, out_b, err_b = run(capsys, *command, b)
        assert (code_a, out_a, err_a) == (code_b, out_b, err_b), command
        assert code_a == 0 and err_a == ""
    a = write(tmp_path, dict(strings, kind="spherical"), "s2.json")
    b = write(tmp_path, dict(ints, kind="spherical"), "i2.json")
    assert run(capsys, "decide", "--json", a) == run(capsys, "decide", "--json", b)


def test_rho_entries_that_are_not_rationals_exit_2(tmp_path, capsys):
    for bad in (True, [1], None, "abc", "1/0", "1.2.3", ""):
        doc = dict(SL3_BASE, colors=[dict(SL3_BASE["colors"][0], rho=[bad, "0"]), SL3_BASE["colors"][1]])
        code, out, err = run(capsys, "decide", write(tmp_path, doc))
        assert code == 2 and out == "" and "bad spherical datum" in err, (bad, err)


def test_zero_denominator_in_a_fan_generator_exits_2(tmp_path, capsys):
    doc = _embedding_doc(["2", "1/2"], ["1/2", "2"], ["1/0", "0"], ["0", "-2"])
    code, out, err = run(capsys, "decide", write(tmp_path, doc))
    assert code == 2 and out == "" and "zero denominator" in err, err


def _limit_memory():
    import resource

    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def test_root_datum_above_the_rank_bound_exits_2_at_once(tmp_path):
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    doc = dict(HORO_A3, root_datum="A99999", I=[], M=[])
    path = write(tmp_path, doc)
    # Without the bound the first matrix alone would need 10^10 entries: the
    # child's address space is capped, and the timeout catches a slow run,
    # so a missing bound fails this test instead of exhausting the machine.
    proc = subprocess.run(
        [sys.executable, "-m", "spherical_models.cli", "decide", path],
        capture_output=True, text=True, timeout=60, env=env, preexec_fn=_limit_memory,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: " + path + ".root_datum: rank 99999 exceeds"), proc.stderr


def test_catalog_form_above_the_rank_bound_exits_2(capsys):
    code, out, err = run(capsys, "catalog", "show", "SU(40,40)")
    assert code == 2 and out == "" and "exceeds" in err


@pytest.mark.parametrize("command,engine", [("decide", "run_decide"), ("invariants", "invariants_report")])
def test_internal_error_exits_3_not_1(tmp_path, capsys, monkeypatch, command, engine):
    from spherical_models import cli

    def crash(doc, path):
        raise RuntimeError("engine fault\non two lines")

    monkeypatch.setattr(cli, engine, crash)
    code, out, err = run(capsys, command, write(tmp_path, SL3_BASE))
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    # an input error is still exit 2
    assert run(capsys, command, str(tmp_path / "missing.json"))[0] == 2


# -- bad SPHERICAL_MODELS_CATALOG files ------------------------------------------

CATALOG_FAULTS = {
    "missing": (None, "cannot read"),
    "not_json": ("{not json", "not valid JSON"),
    "no_type": (json.dumps({"MyForm": {"galois": "flip"}}), 'entry MyForm has no "type"'),
}

CATALOG_COMMANDS = {
    "list": ("catalog", "list"),
    "show": ("catalog", "show", "SU(4,2)"),
    "decide": ("decide", str(PROBLEMS / "sl6_embedding_su42.json"), "--json"),
}


@pytest.mark.parametrize("command", sorted(CATALOG_COMMANDS))
@pytest.mark.parametrize("fault", sorted(CATALOG_FAULTS))
def test_bad_catalog_file_exits_2_naming_file_and_fault(tmp_path, capsys, monkeypatch, fault, command):
    text, fault_msg = CATALOG_FAULTS[fault]
    path = tmp_path / "extra.json"
    if text is not None:
        path.write_text(text)
    monkeypatch.setenv("SPHERICAL_MODELS_CATALOG", str(path))
    argv = CATALOG_COMMANDS[command]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    where = argv[1] + ".tits: " if command == "decide" else ""
    assert err.startswith("error: %scatalog file %s: " % (where, path)), err
    assert fault_msg in err and err.count("\n") == 1


@pytest.mark.parametrize("action", [("list",), ("show", "SU(3)")])
def test_catalog_internal_error_exits_3(capsys, monkeypatch, action):
    from spherical_models import cli

    def crash(*args):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(cli, "catalog_names" if action[0] == "list" else "catalog_lookup", crash)
    code, out, err = run(capsys, "catalog", *action)
    assert code == 3 and out == ""
    assert err.startswith("internal error: ")
