import json
import time
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


# Files the JSON decoder refuses with an error other than JSONDecodeError
DECODER_FAULTS = {
    "huge-integer": b'{"version": 1, "kind": "gu", "root_datum": [' + b"1" * 5000 + b"]}",
    "deep-nesting": b"[" * 100000,
    "not-utf-8": b'{"version": 1, "kind": "\xff"}',
}


@pytest.mark.parametrize("command", ["decide", "invariants"])
@pytest.mark.parametrize("fault", sorted(DECODER_FAULTS))
def test_decoder_faults_exit_2_as_invalid_json(tmp_path, capsys, fault, command):
    path = tmp_path / "problem.json"
    path.write_bytes(DECODER_FAULTS[fault])
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, ""), err
    assert err.startswith("error: %s: not valid JSON (" % path) and err.count("\n") == 1, err


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
    [
        ("M", 5),
        ("I", 5),
        ("deltas", "xyz"),
        ("deltas", []),
        ("factors", 5),
        ("factors", []),
        ("factors", ["SU(2,2)"]),
        ("deltas", ["trivil"]),
        ("deltas", [True]),
        ("deltas", [5]),
        ("deltas", [{}]),
    ],
)
def test_decide_rejects_malformed_shapes(tmp_path, capsys, key, value):
    if key in ("deltas", "factors"):
        doc = {"version": 1, "kind": "diagonal", key: value}
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
    assert run(capsys, "catalog", "show", "bogus") == (
        2, "", "error: unknown catalog name 'bogus'\n"
    )


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
    embedding = dict(SL3_BASE, kind="embedding", fan=[{"generators": [[-1, 0]], "colors": []}])
    for base in (SL3_BASE, embedding):
        doc = dict(base, field={"mode": "number_field", "sites": []})
        for command in ("decide", "invariants"):
            code, out, err = run(capsys, command, write(tmp_path, doc))
            assert (code, out) == (2, "") and "horospherical and gu kinds" in err, (base["kind"], command)


def test_number_field_refuses_a_global_tits(tmp_path, capsys):
    # a number-field problem takes its characters from its sites; a global
    # tits would be read by no verdict
    gu = {
        "version": 1, "kind": "gu", "root_datum": "A5", "galois": "flip",
        "field": {"mode": "number_field", "sites": []}, "tits": {"values": ["1/3"]},
    }
    horo = dict(json.loads((PROBLEMS / "su6_number_field.json").read_text()), tits={"catalog": "SU(6)"})
    for doc in (gu, horo):
        path = write(tmp_path, doc)
        for command in ("decide", "invariants"):
            code, out, err = run(capsys, command, path)
            assert (code, out) == (2, "") and err.startswith("error: %s.tits: " % path), err


# A3 under the flip, which swaps the spherical roots alpha_1 and alpha_3 and
# the colors over them, but only alpha_1 carries a doubling flag
A3_UNSTABLE_FLAGS = {
    "version": 1, "kind": "spherical", "root_datum": "A3", "galois": "flip",
    "field": {"mode": "padic"}, "tits": "zero",
    "X": [[2, -1, 0], [0, -1, 2], [0, 1, 0]], "sigma": [[2, -1, 0], [0, -1, 2]], "sigma234": [0],
    "colors": [
        {"id": "D1+", "rho": [1, 0, 1], "sigma_set": [1]},
        {"id": "D1-", "rho": [1, 0, -1], "sigma_set": [1]},
        {"id": "D3+", "rho": [0, 1, 1], "sigma_set": [3]},
        {"id": "D3-", "rho": [0, 1, -1], "sigma_set": [3]},
        {"id": "D2", "rho": [-1, -1, 1], "sigma_set": [2]},
    ],
}


@pytest.mark.parametrize("tits", ["zero", {"values": ["1/2"]}])
def test_galois_unstable_doubling_flags_exit_2_whatever_the_character(tmp_path, capsys, tits):
    path = write(tmp_path, dict(A3_UNSTABLE_FLAGS, tits=tits))
    # the embedding kind reads the same orbit datum
    fan = [{"generators": [[-1, -1, 0]], "colors": []}]
    embedding = write(tmp_path, dict(A3_UNSTABLE_FLAGS, tits=tits, kind="embedding", fan=fan), "fan.json")
    # flagging both swapped roots is stable
    both = write(tmp_path, dict(A3_UNSTABLE_FLAGS, tits=tits, sigma234=[0, 1]), "both.json")
    for command in ("decide", "invariants"):
        for doc in (path, embedding):
            code, out, err = run(capsys, command, doc)
            assert (code, out, err) == (2, "", "error: %s: generator 1 moves the doubling flags (sigma234)\n" % doc)
        assert run(capsys, command, both)[0] in (0, 1)


@pytest.mark.parametrize("command", ["decide", "invariants"])
def test_a_refused_character_exits_2_at_tits(tmp_path, capsys, command):
    gu = {"version": 1, "kind": "gu", "root_datum": "A5", "galois": "flip", "field": {"mode": "real"}}
    # the fixed center classes of A5 under the flip are Z/2, which 1/3 is no character of
    path = write(tmp_path, dict(gu, tits={"values": ["1/3"]}))
    code, out, err = run(capsys, command, path)
    assert (code, out) == (2, "") and err == "error: %s.tits: value 1/3 is not killed by the generator order 2\n" % path
    # the D4 flip fixes only the sum of the two spin classes, which is the
    # norm of either: 1/2 is half-integral and fails the norm check alone
    d4 = write(tmp_path, dict(gu, root_datum="D4", tits={"values": ["1/2"]}), "d4.json")
    code, out, err = run(capsys, command, d4)
    assert (code, out) == (2, "") and err.startswith("error: %s.tits: invalid Tits character: " % d4), err


# The exit code and stdout of each command on each demo problem.  They were
# recorded once and are not regenerated from the code under test, so a
# refactor that moves any verdict, reason or report line fails here; stdout
# names no path, so they hold for any checkout.
DEMO_OUTPUTS = json.loads((Path(__file__).resolve().parent / "golden" / "demo_outputs.json").read_text())


@pytest.mark.parametrize("command", ["decide --json", "decide --explain", "invariants"])
@pytest.mark.parametrize("name", sorted(p.name for p in PROBLEMS.glob("*.json")))
def test_demo_outputs_match_the_goldens(capsys, name, command):
    want = DEMO_OUTPUTS[name][command]
    code, out, err = run(capsys, *command.split(), str(PROBLEMS / name))
    assert (code, out) == (want["code"], want["stdout"])
    if command == "invariants" and want["code"] == 2:
        # the report refuses what decide refuses, with the same line
        assert err == run(capsys, "decide", "--json", str(PROBLEMS / name))[2]


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
    path = write(tmp_path, doc)
    # the trivial group's norms over the reals are the doubles, so the
    # half-integrality clause is the whole diagnosis; the report runs the
    # decision that resolves the site's character, so it refuses it too
    for command in ("decide", "invariants"):
        assert run(capsys, command, path) == (
            2, "", "error: %s: site inf: invalid Tits character: value 1/6 not in (1/2)Z/Z\n" % path
        ), command
    # a value the fixed center characters cannot carry, on a G/U problem
    gu = {
        "version": 1, "kind": "gu", "root_datum": "A5", "galois": "flip",
        "field": {"mode": "number_field", "sites": [{"mode": "real", "galois": "flip", "t0": ["1/3"]}]},
    }
    path = write(tmp_path, gu)
    for command in ("decide", "invariants"):
        assert run(capsys, command, path) == (
            2, "", "error: %s: site v0: value 1/3 is not killed by the generator order 2\n" % path
        ), command


@pytest.mark.parametrize(
    "labels, k, label",
    [(["x", "x"], 1, "x"), (["v1", None], 1, "v1"), (["p", None, "v1"], 2, "v1")],
    ids=["twice", "explicit-then-default", "default-then-explicit"],
)
def test_duplicate_site_labels_exit_2(tmp_path, capsys, labels, k, label):
    # labels are compared after the v<k> defaults are applied: each names
    # one place in the reasons of a verdict
    doc = _demo("su6_number_field.json")
    doc["field"]["sites"] = [
        dict({"mode": "padic", "galois": "flip", "t0": ["1/2"]}, **({} if x is None else {"label": x}))
        for x in labels
    ]
    path = write(tmp_path, doc)
    for command in ("decide", "invariants"):
        assert run(capsys, command, path) == (
            2, "", "error: %s.field.sites[%d].label: duplicate site label %r\n" % (path, k, label)
        ), command
    doc["field"]["sites"][k]["label"] = "elsewhere"
    assert run(capsys, "decide", write(tmp_path, doc))[0] == 0


def test_a_bad_pair_is_refused_before_a_bad_site_character(tmp_path, capsys):
    # the decision resolves the sites, after the payload is built
    doc = _demo("su6_number_field.json")
    doc["I"], doc["M"] = [1], [[1, 0, 0, 0, 0]]
    doc["field"]["sites"][0]["t0"] = ["1/3"]
    path = write(tmp_path, doc)
    for command in ("decide", "invariants"):
        assert run(capsys, command, path) == (
            2, "", "error: %s: invalid horospherical datum: node 1 pairs with [1, 0, 0, 0, 0]\n" % path
        ), command


def test_a_decision_resolves_each_site_character_once(capsys, monkeypatch):
    from spherical_models import decision

    calls = []
    resolve = decision.resolve_local_character

    def counted(*args):
        calls.append(args[3])
        return resolve(*args)

    monkeypatch.setattr(decision, "resolve_local_character", counted)
    assert run(capsys, "decide", str(PROBLEMS / "su6_number_field.json")) == (0, "exists\n", "")
    # two of its three sites carry a character, one real and one p-adic
    assert calls == ["real", "padic"]


def _count_hnfs(monkeypatch):
    """A list that gains an entry at each row-style HNF from here on."""
    from spherical_models import lattice

    calls = []
    hnf_in_place = lattice._hnf_in_place

    def counted(*args):
        calls.append(len(args[0]))
        return hnf_in_place(*args)

    monkeypatch.setattr(lattice, "_hnf_in_place", counted)
    return calls


def test_a_warm_gu_decision_runs_no_hnf(tmp_path, monkeypatch):
    from spherical_models.cli import load_problem, run_decide

    path = write(tmp_path, {
        "version": 1, "kind": "gu", "root_datum": "A15", "galois": "flip",
        "field": {"mode": "real"}, "tits": {"values": ["1/2"]},
    })
    doc = load_problem(path)[0]
    want = run_decide(doc, path)  # warms the caches of the type and the image
    calls = _count_hnfs(monkeypatch)
    assert run_decide(doc, path) == want and not want.exists
    assert calls == []


def test_a_trivial_image_failing_row_is_read_off_the_basis_of_m(tmp_path, monkeypatch):
    """Under the trivial image the fixed part of M is M: the decision names
    the first failing row of its canonical basis, here not its first row,
    without a second HNF."""
    from spherical_models.cli import load_problem, run_decide

    path = write(tmp_path, {
        "version": 1, "kind": "horospherical", "root_datum": "A3", "galois": "trivial",
        "field": {"mode": "padic"}, "tits": {"values": ["1/4"]},
        "I": [], "M": [[4, 0, 0], [2, 2, 0], [1, 0, 1], [0, 0, 2]],
    })
    doc = load_problem(path)[0]
    run_decide(doc, path)  # warms the caches of the type and the image
    calls = _count_hnfs(monkeypatch)
    verdict = run_decide(doc, path)
    assert calls == [4]  # the four rows of M
    assert verdict.reasons[-1] == {
        "condition": "cohomology", "ok": False, "rule": "*3", "witness": [0, 0, 2],
    }


def test_many_sites_load_and_decide_in_linear_time(tmp_path):
    from spherical_models.cli import load_problem, run_decide

    sites = [{"mode": "real", "galois": "flip", "t0": ["1/2"]}, {"mode": "padic", "galois": "flip"}] * 5000
    path = write(tmp_path, {
        "version": 1, "kind": "gu", "root_datum": "A5", "galois": "flip",
        "field": {"mode": "number_field", "sites": sites},
    })
    start = time.process_time()
    verdict = run_decide(load_problem(path)[0], path)
    assert time.process_time() - start < 5.0
    assert len(verdict.reasons) == 10001 and not verdict.exists


def test_number_field_site_character_is_checked_before_pair_stability(tmp_path, capsys):
    # I = {1} is not stable under the flip, and 1/3 is no character of the
    # fixed center characters Z/2: the site is refused, not read as "does not exist"
    doc = {
        "version": 1,
        "kind": "horospherical",
        "root_datum": "A5",
        "galois": "flip",
        "field": {
            "mode": "number_field",
            "sites": [{"label": "inf", "mode": "real", "galois": "flip", "t0": ["1/3"]}],
        },
        "I": [1],
        "M": [[0, 0, 2, 0, 0]],
    }
    code, out, err = run(capsys, "decide", write(tmp_path, doc))
    assert (code, out) == (2, ""), err
    doc["field"]["sites"][0]["t0"] = ["1/2"]
    assert run(capsys, "decide", "--explain", write(tmp_path, doc))[:2] == (
        1, "does not exist\n  [FAIL] pair-stability\n  via: necessary stability of the horospherical pair\n"
        "  via: place-by-place vanishing for simply connected simple groups\n"
    )


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
    # a list whose value is not a rational is refused at the same path
    bad_value = json.loads(json.dumps(doc))
    bad_value["field"]["sites"][0]["t0"] = ["1/0"]
    for command in ("decide", "invariants"):
        for d in (doc, bad_value):
            code, _, err = run(capsys, command, write(tmp_path, d))
            assert code == 2 and ".field.sites[0].t0" in err, err


def test_zero_denominator_is_refused_where_it_is_read(tmp_path, capsys):
    base = {"version": 1, "kind": "horospherical", "root_datum": "A5", "galois": "flip",
            "I": [], "M": [[1, 0, 0, 0, 1]]}
    site = {"label": "inf", "mode": "real", "galois": "flip", "t0": ["1/0"]}
    cases = [
        (dict(base, field={"mode": "real"}, tits={"values": ["1/0"]}), ".tits"),
        (dict(base, field={"mode": "number_field", "sites": [site]}), ".field.sites[0].t0"),
    ]
    for doc, where in cases:
        path = write(tmp_path, doc)
        for command in ("decide", "invariants"):
            assert run(capsys, command, path) == (
                2, "", "error: %s%s: bad character value: zero denominator in '1/0'\n" % (path, where)
            )


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
    from spherical_models import based_root_datum
    from spherical_models.cli import _build_payload, load_problem, run_decide

    doc, kind = load_problem(str(PROBLEMS / "sl6_embedding_su42.json"))
    # SL3_BASE with one central torus coordinate, which to_dict writes back
    torus = dict(
        SL3_BASE, torus_rank=1, X=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], sigma=[[1, 1, 0]],
        colors=[dict(c, rho=c["rho"] + ["0"]) for c in SL3_BASE["colors"]],
    )
    for doc in (doc, torus):
        rd = based_root_datum(doc["root_datum"])
        datum = _build_payload(doc, rd, "spherical", "x")
        doc2 = {key: value for key, value in doc.items() if key != "torus_rank"}
        doc2.update(datum.to_dict())
        datum2 = _build_payload(doc2, rd, "spherical", "x")
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
    from spherical_models import based_root_datum
    from spherical_models.cli import _CHECKS, _build_payload

    rd = based_root_datum("D5")
    datum = _build_payload(dict(SO10_QUATERNIONIC, sigma234=[0]), rd, "spherical", "x")
    doc = dict(SO10_QUATERNIONIC, **datum.to_dict())
    assert doc["sigma234"] == [0]
    code, out, err = run(capsys, "decide", write(tmp_path, doc))
    assert code in (0, 1) and err == "", err
    # the schema refuses the same integer shapes at the same path
    assert _CHECKS["spherical"](dict(doc, sigma234=["0"]))[0] == ".sigma234[0]"


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
    strings = _embedding_doc(["2", "1"], ["1", "4/2"], ["-2", "0"], ["0", "-2"])
    ints = _embedding_doc([2, 1], [1, 2], [-2, 0], [0, -2])
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
    doc = _embedding_doc(["2", "1"], ["1", "2"], ["1/0", "0"], ["0", "-2"])
    code, out, err = run(capsys, "decide", write(tmp_path, doc))
    assert code == 2 and out == "" and "zero denominator" in err, err


def _limit_memory():
    import resource

    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _cli_process(argv, **kwargs):
    """The interpreter run on ``argv`` with this checkout's ``src`` first on
    its path; text output, and a minute at most."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *argv], text=True, timeout=60, env=env, **kwargs)


def test_root_datum_above_the_rank_bound_exits_2_at_once(tmp_path):
    doc = dict(HORO_A3, root_datum="A99999", I=[], M=[])
    path = write(tmp_path, doc)
    # Without the bound the first matrix alone would need 10^10 entries: the
    # child's address space is capped, and the timeout catches a slow run,
    # so a missing bound fails this test instead of exhausting the machine.
    proc = _cli_process(
        ["-m", "spherical_models.cli", "decide", path], capture_output=True, preexec_fn=_limit_memory,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: " + path + ".root_datum: rank 99999 exceeds"), proc.stderr


_A1_SPHERICAL = {"version": 1, "kind": "spherical", "root_datum": "A1", "galois": "trivial",
                 "field": {"mode": "padic"}}


@pytest.mark.parametrize("keys, message", [
    ({"X": [[1]] * 40000}, "basis rows are not linearly independent"),
    ({"X": [], "torus_rank": 10**6}, "torus_rank must be at most 64, got 1000000"),
], ids=["rows-of-X", "torus-rank"])
def test_an_oversized_orbit_lattice_exits_2_at_once(tmp_path, keys, message):
    # more rows of X than coordinates, or a central torus above the rank
    # bound, is refused before any matrix of that size is built; the capped
    # address space turns a missing bound into a failure here
    path = write(tmp_path, dict(_A1_SPHERICAL, **keys))
    proc = _cli_process(
        ["-m", "spherical_models.cli", "decide", path], capture_output=True, preexec_fn=_limit_memory,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: %s: bad spherical datum: %s\n" % (path, message))


@pytest.mark.parametrize("argv, code", [
    (["decide", "--json", "sl6_embedding_su42.json"], 1),
    (["decide", "--explain", "sl6_embedding_su42.json"], 1),
    (["decide", "--json", "so10_orthogonal.json"], 0),
    (["invariants", "sl6_embedding_su42.json"], 0),
    (["catalog", "list"], 0),
])
def test_a_closed_stdout_changes_no_exit_code(argv, code):
    # exit 1 means "the model does not exist": a reader of stdout that is
    # gone before the first line turns no verdict or report into it, and
    # leaves no traceback on stderr
    import os
    import subprocess

    argv = [str(PROBLEMS / a) if a.endswith(".json") else a for a in argv]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process(["-m", "spherical_models.cli", *argv], stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_the_cli_imports_no_code_generation():
    # the engine's records are named tuples and slot classes, so importing
    # the CLI loads neither dataclasses nor what it imports; -S keeps the
    # site hooks of the interpreter, which may import anything, out of it
    import re
    import subprocess

    heavy = ["ast", "dataclasses", "dis", "inspect", "tokenize"]
    code = "import sys, spherical_models.cli; print(sorted(set(sys.modules) & set(%r)))" % heavy
    proc = _cli_process(["-S", "-c", code], capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
    src = Path(__file__).resolve().parent.parent / "src" / "spherical_models"
    for path in sorted(src.glob("*.py")):
        assert not re.search(r"^\s*(from|import)\s+dataclasses\b", path.read_text(), re.M), path.name


def test_the_cli_imports_no_rational_arithmetic():
    # every number below the document reader is an int, so neither importing
    # the CLI nor deciding a number-field or an embedding problem loads the
    # standard library's rationals or decimals; -X importtime names every
    # module that a run imports, in its stderr
    heavy = {"decimal", "fractions", "numbers"}
    proc = _cli_process(["-S", "-X", "importtime", "-c", "import spherical_models.cli"], capture_output=True)
    runs = [(proc, 0)]
    for name, code in (("su6_number_field.json", 0), ("sl6_embedding_su42.json", 1)):
        argv = ["-S", "-X", "importtime", "-m", "spherical_models.cli", "decide", "--json", str(PROBLEMS / name)]
        runs.append((_cli_process(argv, capture_output=True), code))
    for proc, code in runs:
        lines = proc.stderr.splitlines()
        assert proc.returncode == code and lines and all(line.startswith("import time:") for line in lines), proc
        assert "spherical_models.lattice" in proc.stderr
        assert heavy.isdisjoint(line.rsplit("|", 1)[-1].strip() for line in lines), proc.stderr


def test_no_module_reads_the_environment():
    # a verdict depends on its document alone: no setting of the process
    # environment reaches the engine or the CLI
    import ast

    src = Path(__file__).resolve().parent.parent / "src" / "spherical_models"
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "SPHERICAL_MODELS_CATALOG" not in text, path.name
        for node in ast.walk(ast.parse(text)):
            name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
            assert name not in ("environ", "environb", "getenv", "getenvb"), (path.name, node.lineno)


@pytest.mark.parametrize("argv", [("decide", "--json"), ("invariants",)], ids=["decide", "invariants"])
def test_a_catalog_file_in_the_environment_changes_nothing(tmp_path, capsys, monkeypatch, argv):
    # the file redefines SU(4,2) without its Tits class: read, it would turn
    # "does not exist" into "exists".  A catalog name in the document reads
    # the built-in form whatever the environment holds
    monkeypatch.delenv("SPHERICAL_MODELS_CATALOG", raising=False)
    path = str(PROBLEMS / "sl6_embedding_su42.json")
    plain = run(capsys, *argv, path)
    assert plain[0] == (1 if argv[0] == "decide" else 0)
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"SU(4,2)": {"type": "A5", "galois": "flip", "t0": []}}))
    monkeypatch.setenv("SPHERICAL_MODELS_CATALOG", str(catalog))
    assert run(capsys, *argv, path) == plain


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


@pytest.mark.parametrize("action", [("list",), ("show", "SU(3)")])
def test_catalog_internal_error_exits_3(capsys, monkeypatch, action):
    from spherical_models import cli

    def crash(*args):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(cli, "catalog_names" if action[0] == "list" else "catalog_lookup", crash)
    code, out, err = run(capsys, "catalog", *action)
    assert code == 3 and out == ""
    assert err.startswith("internal error: ")


# -- the catalog, pinned ---------------------------------------------------------

_TABLES = "Tits-algebra tables for the classical real forms"
_SPLIT = "split forms have trivial Tits class"

# `catalog show` on every built-in family at and just outside its bounds: the
# type, the Galois image name ("flip", or "trivial-c2" for the order-2 group
# acting trivially), the Tits character values and the citation of a real
# form; or the error line
CATALOG_SHOW = {
    "SU(0,1)": "unknown catalog name 'SU(0,1)'",
    "SU(1,1)": ("A1", "trivial-c2", [], _TABLES),
    "SU(4,2)": ("A5", "flip", ["1/2"], _TABLES),
    "SU(5,1)": ("A5", "flip", [], _TABLES),
    "SU(32,33)": ("A64", "flip", [], _TABLES),
    "SU(33,33)": "rank 65 exceeds the supported maximum 64",
    "SU(1)": "unknown catalog name 'SU(1)'",
    "SU(2)": ("A1", "trivial-c2", ["1/2"], _TABLES),
    "SU(6)": ("A5", "flip", ["1/2"], _TABLES),
    "SU(65)": ("A64", "flip", [], _TABLES),
    "SU(66)": "rank 65 exceeds the supported maximum 64",
    "SU(3,3)\n": "unknown catalog name 'SU(3,3)\\n'",
    "SL(1,R)": "unknown catalog name 'SL(1,R)'",
    "SL(2,R)": ("A1", "trivial-c2", [], _SPLIT),
    "SL(65,R)": ("A64", "trivial-c2", [], _SPLIT),
    "SL(66,R)": "rank 65 exceeds the supported maximum 64",
    "SL(0,H)": "unknown catalog name 'SL(0,H)'",
    "SL(1,H)": ("A1", "trivial-c2", ["1/2"], _TABLES),
    "SL(32,H)": ("A63", "trivial-c2", ["1/2"], _TABLES),
    "SL(33,H)": "rank 65 exceeds the supported maximum 64",
    "Sp(2,R)": "unknown catalog name 'Sp(2,R)'",
    "Sp(4,R)": ("B2", "trivial-c2", [], _SPLIT),
    "Sp(5,R)": "unknown catalog name 'Sp(5,R)'",
    "Sp(128,R)": ("C64", "trivial-c2", [], _SPLIT),
    "Sp(130,R)": "rank 65 exceeds the supported maximum 64",
    "Sp(0,1)": "unknown catalog name 'Sp(0,1)'",
    "Sp(1,1)": ("B2", "trivial-c2", ["1/2"], _TABLES),
    "Sp(32,32)": ("C64", "trivial-c2", ["1/2"], _TABLES),
    "Sp(33,32)": "rank 65 exceeds the supported maximum 64",
    "SO*(10)": ("D5", "flip", ["1/2"], _TABLES),
    "SO*(10)\n": "unknown catalog name 'SO*(10)\\n'",
    "SO*(12)": "unknown catalog name 'SO*(12)'",
    "SU(40,40)": "rank 79 exceeds the supported maximum 64",
    "SU(3, 3)": "unknown catalog name 'SU(3, 3)'",
    "bogus": "unknown catalog name 'bogus'",
}

CATALOG_LIST = "SU(p,q)\nSU(n)\nSL(n,R)\nSL(m,H)\nSp(2n,R)\nSp(p,q)\nSO*(10)\n"

def _shown(name, type_label, star, values, citation):
    doc = {
        "name": name,
        "type": type_label,
        "galois": "cyclic2",
        "tits": {"kind": "values" if values else "zero", "values": values},
        "mode": "real",
        "citation": citation,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# a catalog file that redefines a built-in form and adds one: the catalog is
# the built-in table alone, so naming the file in the environment changes no
# output
STRAY_CATALOG = {
    "MyForm": {"type": "A3", "galois": "flip", "t0": ["1/2"]},
    "SU(3,3)": {"type": "A5", "galois": "trivial", "t0": ["1/2"]},
}


@pytest.mark.parametrize("with_file", [False, True])
def test_catalog_output_is_pinned(tmp_path, capsys, monkeypatch, with_file):
    from spherical_models import catalog_lookup

    monkeypatch.delenv("SPHERICAL_MODELS_CATALOG", raising=False)
    if with_file:
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(STRAY_CATALOG))
        monkeypatch.setenv("SPHERICAL_MODELS_CATALOG", str(path))
    shows = dict(CATALOG_SHOW, MyForm="unknown catalog name 'MyForm'")
    assert run(capsys, "catalog", "list") == (0, CATALOG_LIST, "")
    for name, want in shows.items():
        if isinstance(want, str):
            assert run(capsys, "catalog", "show", name) == (2, "", "error: %s\n" % want), name
            continue
        assert run(capsys, "catalog", "show", name) == (0, _shown(name, *want), ""), name
        # the printed group name does not tell the flip from the trivial action
        assert catalog_lookup(name).galois.is_trivial_action() == (want[1] != "flip"), name


# -- malformed shapes exit 2 at their path ----------------------------------------


def _demo(name):
    return json.loads((PROBLEMS / name).read_text())


def _replaced(doc, where, value):
    """``doc`` with the node at the key path ``where`` replaced by ``value``."""
    if not where:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return doc


SL6 = _demo("sl6_embedding_su42.json")
_GU_A5 = {"version": 1, "kind": "gu", "root_datum": "A5", "galois": "flip", "field": {"mode": "real"}}

MALFORMED = [
    (_replaced(_demo("su6_number_field.json"), ["field", "sites"], 5), ".field.sites: expected a list"),
    (_replaced(_demo("su6_number_field.json"), ["field", "sites", 0], "x"), ".field.sites[0]: expected an object"),
    (_replaced(_demo("sl3_slh.json"), ["tits", "values"], 5), ".tits.values: expected a list"),
    (_replaced(_demo("sl3_slh.json"), ["colors", 0, "rho"], None), ".colors[0].rho: expected a list"),
    (_replaced(SL6, ["fan"], 5), ".fan: expected a list"),
    (_replaced(SL6, ["fan"], {}), ".fan: expected a list"),
    (_replaced(SL6, ["fan", 0], []), ".fan[0]: expected an object"),
    (_replaced(SL6, ["fan", 0, "generators"], 5), ".fan[0].generators: expected a list"),
    (_replaced(SL6, ["fan", 0, "colors"], "D1+"), ".fan[0].colors: expected a list"),
    (_replaced(SL6, ["fan", 0, "generators", 0], True), ".fan[0].generators[0]: expected a list"),
    (_replaced(SL6, ["fan", 0, "colors", 0], ["D1+"]), ".fan: unknown color id"),
    (_replaced(SL6, ["fan", 0, "generators", 0], [5]), ".fan: a generator has length 1, not the orbit rank 3"),
    (
        _replaced(SL6, ["fan", 0, "generators", 0], [1, 0, 0, 7]),
        ".fan: a generator has length 4, not the orbit rank 3",
    ),
    (_replaced(SL6, ["quasi_projective"], "false"), ".quasi_projective: expected true or false"),
    (
        _replaced(_demo("su6_number_field.json"), ["field", "sites", 0, "label"], None),
        ".field.sites[0].label: expected a string",
    ),
    (_replaced(SL6, ["version"], True), ": unsupported version True"),
    # a second form of the same input, which would be dropped
    (
        _replaced(_demo("sl3_slh.json"), ["tits"], {"catalog": "SU(3)", "values": ["1/3"]}),
        '.tits: expected "zero", "trivial", null, an object with "catalog" or an object with "values"\n',
    ),
    (dict(_demo("diagonal_su.json"), deltas=["nontrivial"]), ".deltas: give factors or deltas, not both\n"),
    (
        _replaced(_GU_A5, ["field"], {"mode": "real", "sites": [{"mode": "real", "galois": "flip", "t0": ["1/3"]}]}),
        ".field.sites: sites are read in number_field mode only\n",
    ),
    (_replaced(_GU_A5, ["field"], {"mode": "padic", "sites": []}), ".field.sites: sites are read in number_field mode only\n"),
]


def test_two_maximal_cones_with_the_same_rays_exit_2_at_the_fan(tmp_path, capsys):
    # the demo's cone with its colors, and the same rays without colors
    same_rays = {"generators": [[-1, 1, -1], [1, 0, 0], [0, 0, 1]], "colors": []}
    path = write(tmp_path, _replaced(SL6, ["fan"], SL6["fan"] + [same_rays]))
    for command in ("decide", "invariants"):
        assert run(capsys, command, path) == (
            2, "", "error: %s.fan: two maximal colored cones have the same rays\n" % path
        ), command


def test_trivial_group_refuses_a_generator_other_than_the_identity(tmp_path, capsys):
    flip = _replaced(SL6, ["galois"], {"group": "trivial", "generators": [[5, 4, 3, 2, 1]]})
    path = write(tmp_path, flip)
    for command in ("decide", "invariants"):
        assert run(capsys, command, path) == (
            2, "", "error: %s.galois: generator 1 of the trivial group is not the identity\n" % path
        ), command
    identity = _replaced(SL6, ["galois"], {"group": "trivial", "generators": [[1, 2, 3, 4, 5]]})
    trivial = _replaced(SL6, ["galois"], "trivial")
    assert run(capsys, "decide", "--json", write(tmp_path, identity)) == run(
        capsys, "decide", "--json", write(tmp_path, trivial)
    )


# Documents of a valid shape whose mathematics is invalid: each is refused
# with exit 2 at the document's path, never exit 3.
_OVERLAP = _replaced(SL6, ["sigma234"], [0])
# D5 with one central torus coordinate taken away: 4-entry rows of X
_NEGATIVE_TORUS = {
    "version": 1, "kind": "spherical", "root_datum": "D5", "galois": "trivial", "field": {"mode": "real"},
    "tits": "zero", "torus_rank": -1, "X": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
}
INVALID_DATA = [
    (_OVERLAP, "bad spherical datum: doubling flags overlap the colinear-color simple roots"),
    (dict(_OVERLAP, tits="zero"), "bad spherical datum: doubling flags overlap the colinear-color simple roots"),
    (
        dict(SL3_BASE, colors=SL3_BASE["colors"] + [{"id": "E%d" % i, "rho": ["1", "1"], "sigma_set": []} for i in range(3)]),
        "bad spherical datum: three colors share the same image: E0, E1, E2",
    ),
    (_NEGATIVE_TORUS, "bad spherical datum: torus_rank must be at least 0, got -1"),
    (
        dict(_NEGATIVE_TORUS, colors=[{"id": "D", "rho": ["1", "0", "0", "0"], "sigma_set": [1]}]),
        "bad spherical datum: torus_rank must be at least 0, got -1",
    ),
    (dict(_NEGATIVE_TORUS, torus_rank=65, X=[]), "bad spherical datum: torus_rank must be at most 64, got 65"),
    (
        dict(SL3_BASE, colors=[dict(SL3_BASE["colors"][0], rho=["1/2", "0"]), SL3_BASE["colors"][1]]),
        "bad spherical datum: functional of D1 is not integral",
    ),
]


@pytest.mark.parametrize(
    "doc, message",
    INVALID_DATA,
    ids=[
        "overlap", "overlap-zero-tits", "three-colors", "negative-torus", "negative-torus-color",
        "torus-over-bound", "non-integral-functional",
    ],
)
def test_invalid_data_of_valid_shape_exits_2(tmp_path, capsys, doc, message):
    path = write(tmp_path, doc)
    refused = (2, "", "error: %s: %s\n" % (path, message))
    assert run(capsys, "decide", path) == refused
    assert run(capsys, "invariants", path) == refused


def test_gu_above_the_color_bound_is_decided_and_reported(tmp_path, capsys):
    # the bound is on a document's colors; the derived orbit datum of a pair
    # has one color per image, so one lift, and is never bounded
    path = write(tmp_path, {"version": 1, "kind": "gu", "root_datum": "A20", "field": {"mode": "real"}})
    assert run(capsys, "decide", path) == (0, "exists\n", "")
    code, out, err = run(capsys, "invariants", path)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    k = lines.index("omega1 (20):")
    assert [line.split(" moves ")[1] for line in lines[k + 1 : k + 21]] == ["[%d]" % i for i in range(1, 21)]
    assert lines[k + 21] == "omega2 (0):"


def test_color_cap_is_checked_before_the_lattice(tmp_path, capsys):
    # 17 colors and dependent X rows: the cap is reported, not the HNF result;
    # at 16 colors the lattice is refused
    def colors(n):
        return [{"id": "c%d" % i, "rho": [0, i], "sigma_set": []} for i in range(n)]

    doc = dict(SL3_BASE, X=[[1, 0], [2, 0]], sigma=[], colors=colors(17))
    path = write(tmp_path, doc)
    for command in ("decide", "invariants"):
        assert run(capsys, command, path) == (
            2, "", "error: %s: bad spherical datum: more than 16 colors is out of scope\n" % path
        ), command
    path = write(tmp_path, dict(doc, colors=colors(16)))
    for command in ("decide", "invariants"):
        assert run(capsys, command, path) == (
            2, "", "error: %s: bad spherical datum: basis rows are not linearly independent\n" % path
        ), command


@pytest.mark.parametrize("doc, where", MALFORMED)
def test_malformed_shapes_exit_2_at_their_path(tmp_path, capsys, doc, where):
    path = write(tmp_path, doc)
    for command in ("decide", "invariants"):
        code, out, err = run(capsys, command, path)
        assert (code, out) == (2, ""), (command, err)
        assert err.startswith("error: " + path + where), (command, err)


@pytest.mark.parametrize(
    "doc, where",
    [
        (_replaced(SL6, ["galois"], 5), '.galois: expected "trivial", "flip" or an object with "group"'),
        (_replaced(_demo("su6_number_field.json"), ["field", "sites", 0], "x"), ".field.sites[0]: expected an object"),
        (_replaced(_demo("sl3_slh.json"), ["tits", "values"], 5), ".tits.values: expected a list"),
        (_replaced(SL6, ["fan", 0, "generators"], 5), ".fan[0].generators: expected a list"),
    ],
)
def test_misfits_exit_2_before_the_root_datum_is_built(tmp_path, capsys, monkeypatch, doc, where):
    from spherical_models import cli

    def no_mathematics(label):
        raise RuntimeError("the root datum was built")

    monkeypatch.setattr(cli, "based_root_datum", no_mathematics)
    path = write(tmp_path, doc)
    for command in ("decide", "invariants"):
        code, out, err = run(capsys, command, path)
        assert (code, out) == (2, ""), (command, err)
        assert err.startswith("error: " + path + where), (command, err)


def _nodes(doc, where=()):
    """The key path of every node of a JSON document, the root first."""
    yield where
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, where + (key,))


def _schema(where):
    return tuple("[]" if isinstance(key, int) else key for key in where)


def test_one_node_sweep_over_the_demo_files_never_exits_3(tmp_path, capsys):
    # each node of each demo problem replaced in turn by a value of another
    # shape; the first node of each schema path (list indices read alike)
    # stands for the others, which keeps the sweep to a few seconds
    internal = []
    for demo in sorted(PROBLEMS.glob("*.json")):
        doc = json.loads(demo.read_text())
        seen = set()
        for where in _nodes(doc):
            if _schema(where) in seen:
                continue
            seen.add(_schema(where))
            for value in (5, "x", [], {}, [5], None, True):
                path = write(tmp_path, _replaced(doc, list(where), value))
                for command in ("decide", "invariants"):
                    code, _, err = run(capsys, command, path)
                    if code == 3:
                        internal.append((demo.name, where, value, command, err))
    assert internal == []


# -- the compiled schema and the verdict writer, against the routes they replaced


WRITER_EDGES = [
    [], {}, [[]], [[], [[]], {}], None, True, False, 0, -1, 10**40, -(10**40),
    "", "non-ASCII: é ü ☃ \U0001d4b3, controls: \n\t\"\\ \x00",
    {"b": [], "a": {"z": None, "é": [[-5, 7], []], "": [True, False]}},
    {"exists": False, "reasons": [], "citations": []},
]


def test_verdict_writer_writes_what_the_encoder_writes(corpus_runs):
    # the corpus verdicts are those of the corpus pass, with what
    # ``decide --json`` printed for each
    from oracles import verdict_json_by_encoder

    from spherical_models.cli import ProblemError, _check_problem, _dumps, run_decide
    from spherical_models.decision import catalog_lookup

    docs = list(WRITER_EDGES) + [catalog_lookup(n).to_dict() for n in ("SU(2,2)", "SO*(10)", "Sp(2,1)")]
    problems = [(str(p), json.loads(p.read_text())) for p in sorted(PROBLEMS.glob("*.json"))]
    for path, doc in problems:
        try:
            _check_problem(doc, path)
            docs.append(run_decide(doc, path).to_dict())
        except ProblemError:
            continue
    for doc in docs:
        assert _dumps(doc) == verdict_json_by_encoder(doc), doc
    decided = 0
    for records in corpus_runs.values():
        assert len(records) >= 2000
        for record in records[:2000]:
            if record["verdict"] is not None:
                printed = record["runs"][("decide", "--json")][1]
                assert printed == verdict_json_by_encoder(record["verdict"]) + "\n", record["doc"]
                decided += 1
    assert decided > 3000


# Values that one mutation puts in place of a member: each JSON type, lists of
# integers, rows and rationals, and objects that fit one, none or two of the
# object alternatives of an entry.
_MUTANTS = (None, True, 0, -7, "x", "flip", [], {}, [1], [[1]], ["1/2"], {"group": "s3"},
            {"catalog": "x", "values": []}, {"values": ["1/2"]})


def _one_mutation_away(doc):
    """Every document one mutation away from ``doc``: one member of an object
    removed, or one value anywhere replaced by one of _MUTANTS."""
    def walk(value, rebuild):
        if isinstance(value, dict):
            for key in value:
                yield rebuild({k: v for k, v in value.items() if k != key})
                yield from walk(value[key], lambda new, key=key: rebuild(dict(value, **{key: new})))
        elif isinstance(value, list):
            for i, x in enumerate(value):
                yield from walk(x, lambda new, i=i: rebuild(value[:i] + [new] + value[i + 1 :]))
        for new in _MUTANTS:
            yield rebuild(new)

    yield from walk(doc, lambda new: new)


def test_compiled_schema_finds_what_the_walk_finds(corpus_runs):
    """The compiled checkers give the recursive walk's (path, message) on the
    demos and a deterministic slice of each corpus, and on every document
    one mutation away from them: a wrong type, a missing key, a bad
    alternative."""
    from oracles import shape_error_by_walk

    from spherical_models.cli import _CHECKS, SCHEMA

    docs = [json.loads(p.read_text()) for p in sorted(PROBLEMS.glob("*.json"))]
    docs += [records[k]["doc"] for records in corpus_runs.values() for k in range(0, 2000, 200)]
    checked = refused = 0
    for doc in docs:
        kind = doc["kind"]
        assert _CHECKS[kind](doc) == shape_error_by_walk(doc, SCHEMA[kind]) is None
        for mutant in _one_mutation_away(doc):
            got = _CHECKS[kind](mutant)
            assert got == shape_error_by_walk(mutant, SCHEMA[kind]), mutant
            checked += 1
            refused += got is not None
    assert refused > 1000 and checked > refused


# -- every refusal a document can reach ------------------------------------------

_A2 = {"version": 1, "kind": "spherical", "root_datum": "A2", "galois": "trivial",
       "field": {"mode": "padic"}, "X": [[1, 0], [0, 1]]}


def _gu(label, galois, **keys):
    return dict({"version": 1, "kind": "gu", "root_datum": label, "galois": galois,
                 "field": {"mode": "padic"}}, **keys)


# name: (document, stderr after "error: <path>")
REFUSALS = {
    "no-flip": (_gu("B3", "flip"), ".galois: type B3 has no order-2 diagram automorphism"),
    "not-a-permutation": (
        _gu("A3", {"group": "cyclic2", "generators": [[1, 1, 3]]}),
        ".galois: generator 1 is not a permutation of 1..3",
    ),
    "relations": (
        _gu("A3", {"group": "cyclic3", "generators": [[3, 2, 1]]}),
        ".galois: matrices do not satisfy the group relations",
    ),
    "site-image": (
        _gu("A3", "trivial", field={"mode": "number_field", "sites": [{"mode": "real", "galois": "flip"}]}),
        ".field.sites[0]: site image is not contained in the global image",
    ),
    "torus-root": (
        dict(_A2, torus_rank=1, X=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], sigma=[[2, -1, 1]]),
        ": bad spherical datum: spherical roots have no central-torus component",
    ),
    "dependent-roots": (
        dict(_A2, sigma=[[2, -1], [4, -2]]),
        ": bad spherical datum: spherical roots are not linearly independent",
    ),
    "repeated-color": (
        dict(_A2, colors=[{"id": "a", "rho": ["1", "0"], "sigma_set": [1]},
                          {"id": "a", "rho": ["0", "1"], "sigma_set": [2]}]),
        ": bad spherical datum: duplicate color id 'a'",
    ),
    "flag-without-root": (
        dict(_A2, sigma234=[0]),
        ": bad spherical datum: doubling flags must index the spherical roots",
    ),
    "zero-functional": (
        dict(_A2, kind="embedding", colors=[{"id": "a", "rho": ["0", "0"], "sigma_set": [1]}],
             fan=[{"generators": [["1", "0"]], "colors": ["a"]}]),
        ".fan: color a has zero functional",
    ),
    "dual-rank-over-cap": (
        {"version": 1, "kind": "embedding", "root_datum": "A9", "galois": "trivial", "field": {"mode": "padic"},
         "X": [[int(i == j) for j in range(9)] for i in range(9)], "fan": [{"generators": [["1"] + ["0"] * 8]}]},
        ".fan: dual space dimension exceeds the supported cap",
    ),
    "different-groups": (
        {"version": 1, "kind": "diagonal", "factors": ["SU(2,2)", "Sp(4,R)"]},
        ".factors: factors are models of different groups",
    ),
    "different-images": (
        {"version": 1, "kind": "diagonal", "factors": ["SU(3)", "SL(3,R)"]},
        ".factors: factors induce different Galois images",
    ),
    "unknown-factor": (
        {"version": 1, "kind": "diagonal", "factors": ["SL(4,R)", "BOGUS"]},
        ".factors: unknown catalog name 'BOGUS'",
    ),
    # 25 rays of one cone in the plane: the double description is refused
    # above 24 generators and colors, whatever the dimension
    "generators-over-cap": (
        dict(_A2, kind="embedding", fan=[{"generators": [[1, k] for k in range(25)]}]),
        ".fan: a cone has 25 generators and colors, more than 24",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_every_refusal_exits_2_with_its_line_from_both_commands(tmp_path, capsys, name):
    doc, message = REFUSALS[name]
    path = write(tmp_path, doc)
    for command in (("decide", "--json"), ("invariants",)):
        assert run(capsys, *command, path) == (2, "", "error: %s%s\n" % (path, message)), command


def test_an_unstable_pair_does_not_exist(tmp_path, capsys):
    # the flip of A2 moves M = <omega_1> to <omega_2>
    doc = {"version": 1, "kind": "horospherical", "root_datum": "A2", "galois": "flip",
           "field": {"mode": "padic"}, "I": [], "M": [[1, 0]]}
    code, out, _ = run(capsys, "decide", "--json", write(tmp_path, doc))
    assert code == 1
    assert json.loads(out)["reasons"] == [{"condition": "pair-stability", "ok": False}]


def test_a_second_main_call_builds_no_parser(capsys, monkeypatch):
    import argparse

    assert run(capsys, "catalog", "list")[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "catalog", "list")[0] == 0
    # the parser it reuses still refuses a show without a name
    with pytest.raises(SystemExit) as refused:
        main(["catalog", "show"])
    err = capsys.readouterr().err
    assert refused.value.code == 2 and err.startswith("usage: sphmodels") and "show requires a name" in err
    assert built == []
