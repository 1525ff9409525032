import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from spherical_models import (
    GaloisAction,
    HorosphericalDatum,
    LocalSite,
    PADIC,
    REAL,
    TitsClassSpec,
    all_characters,
    based_root_datum,
    catalog_lookup,
    decide_diagonal,
    decide_embedding,
    decide_gu,
    decide_horospherical,
    decide_local_general,
    decide_number_field,
    delta_markers_from_catalog,
    diagram_automorphism_group,
    galois_from_permutations,
)
from spherical_models.decision import (
    _horospherical_fast_path,
    catalog_names,
    center_invariants,
    check_local_mode,
    resolve_local_character,
    theta_lattice,
)
from spherical_models.galoismodule import BrCharacter
from spherical_models.lattice import IntMatrix, Lattice, apply_row, fixed_sublattice
from spherical_models.rootdata import DiagramAutomorphism, diagram_flip


def _char(rd, galois, values, mode=PADIC):
    _, inv, _ = center_invariants(rd, galois)
    return BrCharacter(inv, [F(str(v)) for v in values])


# -- theta ---------------------------------------------------------------------


def test_theta_zero_character_gives_fixed_weights():
    rd = based_root_datum("A3")
    g = GaloisAction.trivial(3)
    t0 = _char(rd, g, ["0"])
    theta, _, theta_p = theta_lattice(rd, g, t0)
    assert theta_p == fixed_sublattice(3, list(g.matrices))


def test_theta_e7_order_two():
    rd = based_root_datum("E7")
    g = GaloisAction.trivial(7)
    t0 = _char(rd, g, ["1/2"])
    theta, _, theta_p = theta_lattice(rd, g, t0)
    assert theta.rank == 0
    assert theta_p == rd.root_lattice


def test_theta_a3_order_two_on_z4():
    rd = based_root_datum("A3")
    g = GaloisAction.trivial(3)
    t0 = _char(rd, g, ["1/2"])
    _, _, theta_p = theta_lattice(rd, g, t0)
    doubled = Lattice(3, [[2 if i == j else 0 for j in range(3)] for i in range(3)])
    assert theta_p == doubled.sum(rd.root_lattice)


# -- local general -------------------------------------------------------------


def test_center_invariant_coordinates_are_pinned():
    # Tits values in problem files are aligned with the SNF generators of the
    # fixed center characters; these are their invariant factors and images
    # in P/Q for every (type, action) pair of the benchmark tables, recorded
    # once.  A change of HNF/SNF pivoting would silently reinterpret every file.
    pins = json.loads((Path(__file__).resolve().parent / "golden" / "center_invariants.json").read_text())
    moved = []
    for pin in pins:
        rd = based_root_datum(pin["type"])
        autos = [DiagramAutomorphism(tuple(i - 1 for i in g)) for g in pin["generators"]]
        galois = galois_from_permutations(rd, autos, group_name=pin["group"])
        mod, inv, fixed = center_invariants(rd, galois)
        # the image in P/Q of each generator of (P/Q)^G = F/Q, through F
        gens = [tuple(int(i == j) for i in range(inv.rank)) for j in range(inv.rank)]
        images = [list(mod.from_ambient(apply_row(inv.lift(e), fixed.basis))) for e in gens]
        got = (list(inv.invariant_factors), images)
        if got != (pin["fixed_factors"], pin["images"]):
            moved.append((pin["type"], pin["generators"], got))
    assert len(pins) == 83 and moved == []


def test_pinned_pairs_read_classes_and_norms_as_the_group_route():
    # on every pinned (type, action) pair, class_of and the norm diagnostics
    # of validate_br_character, both read through F = fixed_sublattice(P, gens,
    # modulo=Q), agree with the oracle's abstract group with its induced
    # action, its invariants and their inclusion
    from oracles import center_invariants_by_group, norm_problems_by_group

    from spherical_models.decision import LocalCharacter
    from spherical_models.galoismodule import validate_br_character

    pins = json.loads((Path(__file__).resolve().parent / "golden" / "center_invariants.json").read_text())
    rng = random.Random(83)
    refused = norm_refused = 0
    for pin in pins:
        rd = based_root_datum(pin["type"])
        autos = [DiagramAutomorphism(tuple(i - 1 for i in g)) for g in pin["generators"]]
        galois = galois_from_permutations(rd, autos, group_name=pin["group"])
        mod, inv, fixed = center_invariants(rd, galois)
        g_mod, g_inv, g_incl = center_invariants_by_group(rd, galois)
        assert g_inv.invariant_factors == inv.invariant_factors
        zero = LocalCharacter(mod, inv, fixed, BrCharacter.zero(inv))
        units = [tuple(int(i == j) for j in range(rd.rank)) for i in range(rd.rank)]
        weights = units + [tuple(rng.randint(-9, 9) for _ in range(rd.rank)) for _ in range(40)]
        for w in weights:
            expect = g_incl.preimage(g_mod.from_ambient(w))  # None when not fixed
            try:
                got = zero.class_of(w)
            except ValueError:
                got = None
            assert got == expect, (pin["type"], pin["generators"], w)
            refused += got is None
        for t0 in all_characters(inv):
            local = LocalCharacter(mod, inv, fixed, t0)
            halves = ["value %s not in (1/2)Z/Z" % (v,) for v in t0.values if (2 * v) % 1 != 0]
            norms = norm_problems_by_group(t0, g_mod, g_incl)
            assert validate_br_character(t0, REAL, galois, local) == halves + norms
            assert validate_br_character(t0, PADIC, galois, local) == []
            norm_refused += bool(norms)
    assert len(pins) == 83 and refused and norm_refused


def test_quadric_orthogonal_exists(so10_datum, galois_d5_flip):
    for galois, mode in ((GaloisAction.trivial(5), PADIC), (galois_d5_flip, REAL)):
        v = decide_local_general(so10_datum, galois, TitsClassSpec.zero(), mode)
        assert v.exists


def test_quadric_quaternionic_fails(so10_datum, galois_d5_flip):
    v = decide_local_general(so10_datum, galois_d5_flip, TitsClassSpec.from_values(["1/2"]), REAL)
    assert not v.exists
    v = decide_local_general(
        so10_datum, GaloisAction.trivial(5), TitsClassSpec.from_values(["1/4"]), PADIC
    )
    assert not v.exists


def test_sl3_sl2_cases(sl3_datum, rd_a2):
    flip = diagram_automorphism_group(rd_a2.type)[1]
    g_out = galois_from_permutations(rd_a2, [flip])
    g_in = GaloisAction.trivial(2)
    assert decide_local_general(sl3_datum, g_in, TitsClassSpec.zero(), PADIC).exists
    assert decide_local_general(sl3_datum, g_out, TitsClassSpec.zero(), REAL).exists
    assert not decide_local_general(
        sl3_datum, g_in, TitsClassSpec.from_values(["1/3"]), PADIC
    ).exists
    with pytest.raises(ValueError, match="^unsupported base field: 'general'$"):
        check_local_mode("general")


def test_stability_short_circuit(rd_a2):
    from spherical_models import SphericalDatum

    flip = diagram_automorphism_group(rd_a2.type)[1]
    g = galois_from_permutations(rd_a2, [flip])
    d = SphericalDatum(rd_a2, [[1, 0]], [], [])
    v = decide_local_general(d, g, TitsClassSpec.zero(), REAL)
    assert not v.exists
    assert v.reasons[0]["condition"] == "invariants-stability"
    assert v.reasons[0]["witness"] == "generator 1"


# -- horospherical -------------------------------------------------------------


def test_e7_dichotomy():
    rd = based_root_datum("E7")
    g = GaloisAction("cyclic2", [IntMatrix.identity(7)])
    half = TitsClassSpec.from_values(["1/2"])
    h_p = HorosphericalDatum(rd, [], Lattice.full(7).basis.data)
    v = decide_horospherical(h_p, g, half, REAL)
    assert not v.exists
    h_q = HorosphericalDatum(rd, [], rd.root_lattice.basis.data)
    v = decide_horospherical(h_q, g, half, REAL)
    assert v.exists and v.uniqueness_note
    assert any(r.get("rule") == "*1" for r in v.reasons)


def test_index_two_condition_at_real_site(rd_a5, galois_a5_flip, m_2p_plus_q):
    h = HorosphericalDatum(rd_a5, [], m_2p_plus_q.basis.data)
    v = decide_horospherical(h, galois_a5_flip, TitsClassSpec.from_values(["1/2"]), REAL)
    assert v.exists
    assert any(r.get("rule") == "*2" for r in v.reasons)
    assert v.uniqueness_note is None  # outer action: no splitness claim


def test_padic_zero_character_never_fails_cohomology(rd_a5):
    rng = random.Random(6)
    g = GaloisAction.trivial(5)
    for _ in range(20):
        rows = [
            [rng.randint(-2, 2) for _ in range(5)] for _ in range(rng.randint(1, 4))
        ]
        h = HorosphericalDatum(rd_a5, [], rows)
        v = decide_horospherical(h, g, TitsClassSpec.zero(), PADIC)
        coh = [r for r in v.reasons if r["condition"] == "cohomology"]
        assert coh and coh[0]["ok"]


# -- fast paths agree with the kernel-preimage test ------------------------------


# D6 and D8 check *4 and *5 where the spin weights differ from those of D4
FAST_PATH_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D4", "D5", "D6", "D8", "G2"]


@pytest.mark.parametrize("label", FAST_PATH_TYPES)
def test_fast_path_matches_generic(label):
    rng = random.Random(hash(label) % 10000)
    rd = based_root_datum(label)
    n = rd.rank
    for auto in diagram_automorphism_group(rd.type):
        galois = (
            GaloisAction.trivial(n)
            if auto.is_identity()
            else galois_from_permutations(rd, [auto])
        )
        mod, inv, fixed = center_invariants(rd, galois)
        chars = [c for c in all_characters(inv) if not c.is_zero()]
        thetas = {c.values: theta_lattice(rd, galois, c)[2] for c in chars}
        node_orbits = _node_orbits(auto, n)
        for _ in range(40):
            m_lat = _random_stable_m(rng, galois, node_orbits, n)
            m_fix = fixed_sublattice(m_lat, list(galois.matrices))
            for c in chars:
                fast = _horospherical_fast_path(rd, galois, c, m_lat, mod, inv, fixed)
                generic = thetas[c.values].contains(m_fix)
                if fast is not None:
                    assert fast[1] == generic, (label, auto.one_line(), c.values)


def _node_orbits(auto, n):
    seen, orbits = set(), []
    for i in range(1, n + 1):
        if i in seen:
            continue
        orb, j = [], i
        while j not in orb:
            orb.append(j)
            j = auto.image(j)
        orbits.append(tuple(orb))
        seen.update(orb)
    return orbits


def _random_stable_m(rng, galois, node_orbits, n):
    nodes = set()
    for orb in node_orbits:
        if rng.random() < 0.35:
            nodes |= set(orb)
    rows = []
    for _ in range(rng.randint(1, 3)):
        v = [0] * n
        for j in range(n):
            if (j + 1) not in nodes:
                v[j] = rng.randint(-3, 3)
        for m in galois.matrices:
            rows.append([sum(v[i] * m.data[i][j] for i in range(n)) for j in range(n)])
    return Lattice(n, rows)


# -- specialization coherence ----------------------------------------------------


@pytest.mark.parametrize(
    "label", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "D5"]
)
def test_horospherical_agrees_with_orbit_test(label):
    rng = random.Random(len(label) * 37)
    rd = based_root_datum(label)
    n = rd.rank
    for auto in diagram_automorphism_group(rd.type):
        galois = (
            GaloisAction.trivial(n)
            if auto.is_identity()
            else galois_from_permutations(rd, [auto])
        )
        _, inv, _ = center_invariants(rd, galois)
        node_orbits = _node_orbits(auto, n)
        for _ in range(15):
            m_lat = _random_stable_m(rng, galois, node_orbits, n)
            nodes = [
                i
                for i in range(1, n + 1)
                if all(row[i - 1] == 0 for row in m_lat.basis.data)
            ]
            h = HorosphericalDatum(rd, nodes, m_lat.basis.data)
            if not h.stable(galois):
                continue
            for t0 in all_characters(inv):
                tits = (
                    TitsClassSpec.zero()
                    if t0.is_zero()
                    else TitsClassSpec.from_values(list(t0.values))
                )
                via_pair = decide_horospherical(h, galois, tits, PADIC)
                via_orbit = decide_local_general(h.to_spherical(), galois, tits, PADIC)
                assert via_pair.exists == via_orbit.exists, (label, h.to_dict(), t0.values)


# -- G/U --------------------------------------------------------------------------


def test_gu_su_family_parity():
    for m in range(1, 6):
        for s in range(0, 2 * m + 1):
            entry = catalog_lookup("SU(%d,%d)" % (s, 2 * m - s))
            rd = based_root_datum(entry.type)
            v = decide_gu(rd, entry.galois, entry.tits, entry.mode)
            assert v.exists == ((s - m) % 2 == 0)


def test_gu_zero_character_exists():
    rd = based_root_datum("B3")
    v = decide_gu(rd, GaloisAction.trivial(3), TitsClassSpec.zero(), PADIC)
    assert v.exists


def test_gu_symplectic_quaternionic_fails():
    entry = catalog_lookup("Sp(2,1)")
    rd = based_root_datum(entry.type)
    v = decide_gu(rd, entry.galois, entry.tits, entry.mode)
    assert not v.exists


def test_gu_agrees_with_full_weight_lattice_pair():
    for name in ["SU(2,2)", "SU(3,1)", "SU(4)", "SL(3,R)", "SL(2,H)", "Sp(6,R)", "Sp(2,1)", "SO*(10)"]:
        entry = catalog_lookup(name)
        rd = based_root_datum(entry.type)
        h = HorosphericalDatum(rd, [], Lattice.full(rd.rank).basis.data)
        a = decide_gu(rd, entry.galois, entry.tits, entry.mode)
        b = decide_horospherical(h, entry.galois, entry.tits, entry.mode)
        assert a.exists == b.exists, name


# -- number field ------------------------------------------------------------------


def test_number_field_index_two(rd_a5, galois_a5_flip, m_2p_plus_q):
    sites = [
        LocalSite("inf", REAL, galois_a5_flip, ("1/2",)),
        LocalSite("p2", PADIC, galois_a5_flip, ("1/2",)),
        LocalSite("split", PADIC, GaloisAction.trivial(5), None),
    ]
    h = HorosphericalDatum(rd_a5, [], m_2p_plus_q.basis.data)
    assert decide_number_field(h, galois_a5_flip, sites).exists
    h_full = HorosphericalDatum(rd_a5, [], Lattice.full(5).basis.data)
    v = decide_number_field(h_full, galois_a5_flip, sites)
    assert not v.exists
    failing = [r for r in v.reasons if not r["ok"]]
    assert failing and failing[0]["condition"].startswith("site:")


def test_number_field_all_trivial_sites(rd_a5, galois_a5_flip):
    h = HorosphericalDatum(rd_a5, [], Lattice.full(5).basis.data)
    sites = [LocalSite("p", PADIC, galois_a5_flip, None)]
    assert decide_number_field(h, galois_a5_flip, sites).exists
    h_bad = HorosphericalDatum(rd_a5, [1], [])
    assert not decide_number_field(h_bad, galois_a5_flip, sites).exists


def test_number_field_s3_global_cyclic_sites():
    # the full symmetric group acts globally on the fork; completions see
    # cyclic subgroups only, and the order-3 ones admit no nonzero character
    rd = based_root_datum("D4")
    autos = diagram_automorphism_group(rd.type)
    three = [a for a in autos if a.order() == 3][0]
    two = [a for a in autos if a.order() == 2][0]
    global_g = galois_from_permutations(rd, [three, two])
    site3 = LocalSite("p3", PADIC, galois_from_permutations(rd, [three]), None)
    site2 = LocalSite("p2", PADIC, galois_from_permutations(rd, [two]), ("1/2",))
    h_root = HorosphericalDatum(rd, [], rd.root_lattice.basis.data)
    v = decide_number_field(h_root, global_g, [site3, site2])
    assert v.exists
    h_full = HorosphericalDatum(rd, [], Lattice.full(4).basis.data)
    v = decide_number_field(h_full, global_g, [site3, site2])
    assert not v.exists
    # a nonzero character at an order-3 completion is structurally impossible
    from spherical_models.decision import center_invariants

    _, inv3, _ = center_invariants(rd, galois_from_permutations(rd, [three]))
    assert inv3.rank == 0


def test_number_field_rejects_non_subaction(rd_a5, galois_a5_flip):
    h = HorosphericalDatum(rd_a5, [], Lattice.full(5).basis.data)
    site = LocalSite("bad", PADIC, galois_a5_flip, None)
    with pytest.raises(ValueError):
        decide_number_field(h, GaloisAction.trivial(5), [site])


def test_number_field_rejects_a_repeated_site_label(rd_a5, galois_a5_flip, m_2p_plus_q):
    # each label names one reason of the verdict
    h = HorosphericalDatum(rd_a5, [], m_2p_plus_q.basis.data)
    sites = [
        LocalSite("x", REAL, galois_a5_flip, ("1/2",)),
        LocalSite("y", PADIC, galois_a5_flip, None),
        LocalSite("x", PADIC, GaloisAction.trivial(5), None),
    ]
    with pytest.raises(ValueError, match="^duplicate site label 'x'$"):
        decide_number_field(h, galois_a5_flip, sites)
    sites[2] = LocalSite("z", PADIC, GaloisAction.trivial(5), None)
    v = decide_number_field(h, galois_a5_flip, sites)
    assert [r["condition"] for r in v.reasons] == ["pair-stability", "site:x", "site:y", "site:z"]


# -- diagonal -----------------------------------------------------------------------


def test_diagonal_all_trivial():
    assert decide_diagonal(["trivial", "trivial"]).exists


def test_diagonal_catalog_pairs():
    assert decide_diagonal(delta_markers_from_catalog(["SU(2,2)", "SU(4)"])).exists
    assert not decide_diagonal(delta_markers_from_catalog(["Sp(4,R)", "Sp(2,0)"])).exists


def test_diagonal_marker_count():
    with pytest.raises(ValueError, match="at least two factors"):
        decide_diagonal([])


# -- the resolved Tits character -------------------------------------------------


def test_equal_inputs_resolve_to_the_identical_character(rd_a5, galois_a5_flip):
    first = resolve_local_character(rd_a5, galois_a5_flip, TitsClassSpec.from_values(["1/2"]), REAL)
    again = resolve_local_character(
        based_root_datum("A5"), galois_from_permutations(rd_a5, [diagram_flip(rd_a5.type)]),
        TitsClassSpec.from_values([F(1, 2)]), REAL,
    )
    assert again is first
    zero = resolve_local_character(rd_a5, galois_a5_flip, TitsClassSpec.zero(), PADIC)
    assert zero is resolve_local_character(rd_a5, galois_a5_flip, TitsClassSpec(), PADIC)
    assert zero is not resolve_local_character(rd_a5, galois_a5_flip, TitsClassSpec.zero(), REAL)


def test_a_refused_character_raises_on_every_call(rd_a5):
    trivial = GaloisAction.trivial(5)
    for _ in range(3):
        with pytest.raises(ValueError, match="invalid Tits character: value 1/3 not in"):
            resolve_local_character(rd_a5, trivial, TitsClassSpec.from_values(["1/3"]), REAL)
        with pytest.raises(ValueError, match="^unsupported base field: 'complex'$"):
            resolve_local_character(rd_a5, trivial, TitsClassSpec.zero(), "complex")


# -- embedding ----------------------------------------------------------------------


def test_embedding_su6_family(sl6_fan, sl6_datum):
    outcomes = []
    for j in range(4):
        entry = catalog_lookup("SU(%d,%d)" % (6 - j, j))
        v = decide_embedding(sl6_fan, sl6_datum, entry.galois, entry.tits, REAL)
        outcomes.append(v.exists)
    assert outcomes == [False, True, False, True]


def test_embedding_split_exists(sl6_fan, sl6_datum):
    entry = catalog_lookup("SL(6,R)")
    v = decide_embedding(sl6_fan, sl6_datum, entry.galois, entry.tits, REAL)
    assert v.exists


def test_embedding_sl3_fan_fails_on_lift(sl3_fan, sl3_datum, rd_a2):
    flip = diagram_automorphism_group(rd_a2.type)[1]
    g = galois_from_permutations(rd_a2, [flip])
    v = decide_embedding(sl3_fan, sl3_datum, g, TitsClassSpec.zero(), REAL)
    assert not v.exists
    fan_reason = [r for r in v.reasons if r["condition"] == "fan-stability"][0]
    assert not fan_reason["ok"]


# -- catalog ------------------------------------------------------------------------


def test_catalog_su_values():
    assert catalog_lookup("SU(2,2)").tits.kind == "zero"
    assert catalog_lookup("SU(5,1)").tits.kind == "zero"
    assert catalog_lookup("SU(6)").tits.values == (F(1, 2),)
    assert catalog_lookup("Sp(4,R)").tits.kind == "zero"


def test_catalog_unknown_name():
    with pytest.raises(ValueError, match="^unknown catalog name 'bogus'$"):
        catalog_lookup("bogus")


def test_catalog_extension_env(tmp_path, monkeypatch):
    import json

    path = tmp_path / "extra.json"
    path.write_text(
        json.dumps(
            {"MyForm": {"type": "A3", "galois": "flip", "t0": ["1/2"], "mode": "real"}}
        )
    )
    monkeypatch.setenv("SPHERICAL_MODELS_CATALOG", str(path))
    entry = catalog_lookup("MyForm")
    assert str(entry.type) == "A3" and entry.tits.values == (F(1, 2),)
    assert "MyForm" in catalog_names()


def test_verdict_reasons_replay_everywhere(sl6_fan, sl6_datum, galois_a5_flip, rd_a5, m_2p_plus_q):
    import json

    verdicts = [
        decide_embedding(
            sl6_fan, sl6_datum, catalog_lookup("SU(6)").galois, catalog_lookup("SU(6)").tits, REAL
        ),
        decide_horospherical(
            HorosphericalDatum(rd_a5, [], m_2p_plus_q.basis.data),
            galois_a5_flip,
            TitsClassSpec.from_values(["1/2"]),
            REAL,
        ),
        decide_diagonal(["trivial"]),
    ]
    for v in verdicts:
        # a reader of the JSON document recomputes the verdict from its reasons
        doc = json.loads(json.dumps(v.to_dict()))
        assert doc["exists"] == all(r["ok"] for r in doc["reasons"])


def test_local_decisions_build_no_quotient_group(
    monkeypatch, capsys, rd_a5, galois_a5_flip, m_2p_plus_q
):
    # one lattice test decides every local cohomology condition: a warm
    # spherical or embedding verdict builds no quotient group, and no
    # horospherical verdict reads the kernel preimage of theta_lattice
    import json
    from pathlib import Path

    from spherical_models import decision, lattice, spherical
    from spherical_models.cli import main

    problems = Path(__file__).resolve().parent.parent / "demos" / "problems"
    expected = {}
    for name in ("so10_quaternionic.json", "sl6_embedding_su42.json"):
        main(["decide", "--json", str(problems / name)])  # warms the type-level caches
        expected[name] = capsys.readouterr().out

    quotients = []

    def counting(*args, _real=lattice.quotient_group, **kwargs):
        quotients.append(args)
        return _real(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("theta_lattice called")

    for module in (lattice, decision, spherical):
        monkeypatch.setattr(module, "quotient_group", counting)
    monkeypatch.setattr(decision, "theta_lattice", refuse)
    assert json.loads(expected["so10_quaternionic.json"])["reasons"][1]["rule"] == "generic-theta"
    for name in expected:
        assert main(["decide", "--json", str(problems / name)]) == 1
        assert capsys.readouterr().out == expected[name]
    assert quotients == []
    # nonzero characters, on a pair that passes and on one that fails
    t0 = TitsClassSpec.from_values(["1/2"])
    for m_rows, ok in ((m_2p_plus_q.basis.data, True), (rd_a5.weight_lattice.basis.data, False)):
        h = HorosphericalDatum(rd_a5, [], m_rows)
        assert decide_horospherical(h, galois_a5_flip, t0, REAL).exists == ok
        site = LocalSite("inf", REAL, galois_a5_flip, (F(1, 2),))
        assert decide_number_field(h, galois_a5_flip, [site]).exists == ok


def _sl6_demo():
    from pathlib import Path

    from spherical_models import cli

    path = str(Path(__file__).resolve().parent.parent / "demos" / "problems" / "sl6_embedding_su42.json")
    doc, kind = cli.load_problem(path)
    rd, galois, field, tits = cli._build_common(doc, path)
    datum, fan = cli._build_payload(doc, rd, kind, path)
    return fan, datum, galois, tits, field.mode


def test_embedding_cohomology_reason_is_the_local_one():
    fan, datum, galois, tits, mode = _sl6_demo()
    embedding = decide_embedding(fan, datum, galois, tits, mode)
    local = decide_local_general(datum, galois, tits, mode)
    assert embedding.reasons[-1] == local.reasons[-1]
    assert embedding.reasons[-1] == {
        "condition": "cohomology", "ok": False, "rule": "generic-theta", "witness": [1],
    }


def test_one_embedding_decision_restricts_each_generator_once(monkeypatch):
    from spherical_models import spherical

    from test_embeddings import _d4_triality_case

    fan, datum, galois, tits, mode = _sl6_demo()
    d4_fan, d4_datum, d4_galois = _d4_triality_case()
    cases = [
        (fan, datum, galois, tits, mode),
        (d4_fan, d4_datum, d4_galois, TitsClassSpec.zero(), PADIC),
    ]
    calls = []

    def counting(datum, mat, _real=spherical._restriction_to_basis):
        calls.append(mat)
        return _real(datum, mat)

    for case in cases:
        decide_embedding(*case)  # warm the type-level caches
    monkeypatch.setattr(spherical, "_restriction_to_basis", counting)
    for case, generators in zip(cases, (1, 2)):
        del calls[:]
        verdict = decide_embedding(*case)
        # stable, so the lift search ran too
        assert verdict.reasons[0]["ok"] and verdict.reasons[3]["condition"] == "fan-stability"
        assert len(calls) == generators


def _stable_horospherical_lattice(rng, rd, galois):
    """The root lattice plus random multiples of the fixed orbit sums of the
    fundamental weights: a lattice every element of the Galois image preserves."""
    n = rd.rank
    rows = [list(rd.simple_root(i)) for i in range(1, n + 1)]
    seen = set()
    for i in range(n):
        orbit = {next(j for j in range(n) if m.data[i][j]) for m in galois.matrices}
        if orbit & seen:
            continue
        seen |= orbit
        k = rng.choice((0, 1, 2, 3))
        if k:
            rows.append([k if j in orbit else 0 for j in range(n)])
    return Lattice(n, rows)


KERNEL_ROUTE_TYPES = ("A1", "A2", "A3", "A5", "B3", "C3", "D4", "D5", "E6", "E7")


def diagram_actions(rd):
    """The trivial action, each diagram action of order 2 or 3, and S3 on D4."""
    autos = diagram_automorphism_group(rd.type)
    actions = [GaloisAction.trivial(rd.rank)] + [
        galois_from_permutations(rd, [a]) for a in autos if a.order() in (2, 3)
    ]
    if len(autos) == 6:
        three = next(a for a in autos if a.order() == 3)
        actions.append(galois_from_permutations(rd, [three, diagram_flip(rd.type)]))
    return actions


@pytest.mark.parametrize("label", KERNEL_ROUTE_TYPES)
def test_kernel_route_agrees_on_horospherical_orbits(label):
    from spherical_models import orbit_action

    rd = based_root_datum(label)
    rng = random.Random(label)
    checked = 0
    for galois in diagram_actions(rd):
        chars = [c for c in all_characters(center_invariants(rd, galois)[1]) if not c.is_zero()]
        for _ in range(4):
            m_lat = _stable_horospherical_lattice(rng, rd, galois)
            datum = HorosphericalDatum(rd, [], m_lat.basis.data).to_spherical()
            assert orbit_action(datum, galois).unstable is None
            checked += _assert_routes_agree(datum, galois, chars)
    assert checked > 0


@pytest.mark.parametrize("action", ["trivial", "flip"])
def test_kernel_route_agrees_on_the_sl6_datum(sl6_datum, rd_a5, action):
    galois = GaloisAction.trivial(5) if action == "trivial" else galois_from_permutations(
        rd_a5, [diagram_flip(rd_a5.type)]
    )
    chars = [c for c in all_characters(center_invariants(rd_a5, galois)[1]) if not c.is_zero()]
    assert _assert_routes_agree(sl6_datum, galois, chars) == len(chars) > 0


def _assert_routes_agree(datum, galois, chars):
    """The engine's lattice test, modulo the fully doubled roots and modulo
    the partially doubled ones (the color-fixing kernel), and the oracle's
    group route through kappa push forward the same classes and agree for
    every character, and each witness lies in the image of kappa; returns
    the number of characters checked."""
    from oracles import (
        GroupHom,
        all_element_aut_character_lattices,
        br_vanishing_test,
        kappa_on_invariants,
    )

    from spherical_models.decision import LocalCharacter, _first_failing_row
    from spherical_models.lattice import FgAbelianGroup
    from spherical_models.spherical import _extended_matrices

    mod, inv, fixed = center_invariants(datum.rd, galois)
    # the map does not read the character, so the zero one stands in
    zero = LocalCharacter(mod, inv, fixed, BrCharacter.zero(inv))
    xa, _ = all_element_aut_character_lattices(datum, galois)
    kappa = kappa_on_invariants(datum, xa, zero)
    mats = _extended_matrices(datum, galois)
    spans = [Lattice(datum.ambient_dim, roots) for roots in (datum.sigma_n, datum.sigma_sc)]
    for span in spans:
        rows = fixed_sublattice(datum.lattice, mats, span).basis.data
        classes = [zero.class_of(r[: datum.rd.rank]) for r in rows]
        pushed = GroupHom(FgAbelianGroup(len(classes), []), inv, classes)
        assert all(kappa.preimage(c) is not None for c in classes)
        assert all(pushed.preimage(img) is not None for img in kappa.images)
    for t0 in chars:
        local = LocalCharacter(mod, inv, fixed, t0)
        exists = br_vanishing_test(t0, kappa)
        for span in spans:
            bad = _first_failing_row(local, datum.lattice, mats, span)
            assert (bad is None) == exists, (t0.values, span)
            if bad is not None:
                assert kappa.preimage(local.class_of(bad[: datum.rd.rank])) is not None
    return len(chars)
