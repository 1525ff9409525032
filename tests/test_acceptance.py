"""Acceptance suite: one test per criterion, one printed pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is an exact integer or rational, so each
assertion is an exact match (no tolerances anywhere).
"""

import random
from fractions import Fraction as F

import pytest

from oracles import (
    FiniteModule,
    _det,
    brute_force_h2_orders,
    build_cyclic_module,
    group_order_multiset,
    h2_cyclic,
    lifts,
)
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
    decide_local_general,
    decide_number_field,
    delta_markers_from_catalog,
    diagram_automorphism_group,
    galois_from_permutations,
    orbit_action,
    stabilizing_lift,
)
from spherical_models.decision import _horospherical_fast_path, center_invariants, theta_lattice
from spherical_models.lattice import (
    Lattice,
    apply_row,
    fixed_sublattice,
    quotient_group,
)
from spherical_models.rootdata import SimpleType, cartan_matrix
from spherical_models.spherical import aut_character_lattices


def _report(num, text):
    print("ACCEPTANCE %02d: PASS — %s" % (num, text))


def test_criterion_01_quadric_verdicts(so10_datum, galois_d5_flip):
    """Four golden verdicts for the 8-dimensional quadric."""
    trivial = GaloisAction.trivial(5)
    got = [
        decide_local_general(so10_datum, trivial, TitsClassSpec.zero(), PADIC).exists,
        decide_local_general(so10_datum, galois_d5_flip, TitsClassSpec.zero(), REAL).exists,
        decide_local_general(
            so10_datum, trivial, TitsClassSpec.from_values(["1/4"]), PADIC
        ).exists,
        decide_local_general(
            so10_datum, galois_d5_flip, TitsClassSpec.from_values(["1/2"]), REAL
        ).exists,
    ]
    assert got == [True, True, False, False]
    _report(1, "quadric: exists iff the obstruction class is zero, both actions")


def test_criterion_02_rank_two_orbit_cases(sl3_datum, rd_a2):
    """The four base-field cases of the rank-2 group with rank-1 sphere."""
    flip = diagram_automorphism_group(rd_a2.type)[1]
    outer = galois_from_permutations(rd_a2, [flip])
    inner = GaloisAction.trivial(2)
    assert decide_local_general(sl3_datum, inner, TitsClassSpec.zero(), PADIC).exists
    assert decide_local_general(sl3_datum, outer, TitsClassSpec.zero(), REAL).exists
    assert not decide_local_general(
        sl3_datum, inner, TitsClassSpec.from_values(["1/3"]), PADIC
    ).exists
    from pathlib import Path

    from spherical_models.cli import main

    problem = Path(__file__).resolve().parent.parent / "demos" / "problems" / "unsupported_field.json"
    code = main(["decide", str(problem)])
    assert code == 2
    _report(2, "split/quasi-split exist, order-3 class fails, general field rejected")


def test_criterion_03_unipotent_quotient_family():
    """Unitary family over the maximal unipotent quotient: parity rule."""
    verdicts = 0
    for m in range(1, 6):
        for s in range(0, 2 * m + 1):
            entry = catalog_lookup("SU(%d,%d)" % (s, 2 * m - s))
            rd = based_root_datum(entry.type)
            v = decide_gu(rd, entry.galois, entry.tits, entry.mode)
            assert v.exists == ((s - m) % 2 == 0), (m, s)
            verdicts += 1
    assert verdicts == 35
    _report(3, "35 unitary verdicts match the parity of the signature")


def test_criterion_04_number_field_index_two(rd_a5, galois_a5_flip, m_2p_plus_q):
    """Local-global run over the rationals for the index-two weight subgroup."""
    sites = [
        LocalSite("inf", REAL, galois_a5_flip, ("1/2",)),
        LocalSite("p2", PADIC, galois_a5_flip, ("1/2",)),
        LocalSite("split", PADIC, GaloisAction.trivial(5), None),
    ]
    h2pq = HorosphericalDatum(rd_a5, [], m_2p_plus_q.basis.data)
    assert decide_number_field(h2pq, galois_a5_flip, sites).exists
    h_full = HorosphericalDatum(rd_a5, [], Lattice.full(5).basis.data)
    assert not decide_number_field(h_full, galois_a5_flip, sites).exists
    # the hand computation: fixed classes of P/Q are {0, 3}, of M/Q just {0}
    mats = list(galois_a5_flip.matrices)
    q_lat = rd_a5.root_lattice
    fixed = fixed_sublattice(rd_a5.weight_lattice, mats, q_lat)
    pq = quotient_group(rd_a5.weight_lattice, q_lat)
    assert sorted({pq.from_ambient(r) for r in fixed.basis.data}) == [(0,), (3,)]
    assert quotient_group(fixed_sublattice(m_2p_plus_q, mats, q_lat), q_lat).order() == 1
    _report(4, "index-two subgroup passes all places, full lattice fails at infinity")


def test_criterion_05_rank_five_embedding(sl6_fan, sl6_datum, rd_a5, galois_a5_flip):
    """Embedding with one maximal colored cone over the unitary family."""
    got = []
    for j in range(4):
        entry = catalog_lookup("SU(%d,%d)" % (6 - j, j))
        got.append(
            decide_embedding(sl6_fan, sl6_datum, entry.galois, entry.tits, REAL).exists
        )
    assert got == [False, True, False, True]
    every = lifts(orbit_action(sl6_datum, galois_a5_flip))
    assert len(every) == 4
    found = stabilizing_lift(sl6_fan, orbit_action(sl6_datum, galois_a5_flip))
    gmap = found.mapping(0)
    assert gmap["D1+"] == "D5-" and gmap["D5-"] == "D1+"
    from spherical_models import fan_stable

    action = orbit_action(sl6_datum, galois_a5_flip)
    count = sum(1 for L in every if fan_stable(sl6_fan, action, L))
    assert count == 1
    a1, a5 = rd_a5.simple_root(1), rd_a5.simple_root(5)
    assert sl6_datum.sigma_n == (tuple(2 * x for x in a1), tuple(2 * x for x in a5))
    xa, xa_ker = aut_character_lattices(sl6_datum)
    assert xa_ker.invariant_factors == (0,)
    omega3_coords = sl6_datum.lattice.coords_of((0, 0, 1, 0, 0))
    assert xa_ker.from_ambient(omega3_coords) in ((1,), (-1,))
    mod, galois_tag = build_cyclic_module((6,), [(1,)], 2)
    h2, _ = h2_cyclic(mod, galois_tag)
    assert h2.invariant_factors == (2,)
    _report(5, "verdicts (no, yes, no, yes); unique stabilizing cross-swap among 4 lifts")


def test_criterion_06_two_cone_fan(sl3_fan, sl3_datum, rd_a2):
    """Two-cone fan: orbit stable but no stabilizing lift under the outer form."""
    flip = diagram_automorphism_group(rd_a2.type)[1]
    outer = galois_from_permutations(rd_a2, [flip])
    assert orbit_action(sl3_datum, outer).unstable is None
    v = decide_embedding(sl3_fan, sl3_datum, outer, TitsClassSpec.zero(), REAL)
    assert not v.exists
    fan_reason = [r for r in v.reasons if r["condition"] == "fan-stability"][0]
    assert not fan_reason["ok"]
    split = decide_embedding(
        sl3_fan, sl3_datum, GaloisAction.trivial(2), TitsClassSpec.zero(), PADIC
    )
    assert split.exists
    _report(6, "outer form breaks fan stability, split form keeps it")


RANK5_TYPES = [
    "A1", "A2", "A3", "A4", "A5",
    "B2", "B3", "B4", "B5",
    "C3", "C4", "C5",
    "D3", "D4", "D5",
    "F4", "G2",
]


def test_criterion_07_shortcut_coherence():
    """Tabulated shortcut equals the kernel-preimage test on random pairs."""
    rng = random.Random(20260811)
    checked = 0
    for label in RANK5_TYPES:
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
            orbits = _node_orbits(auto, n)
            for _ in range(200):
                m_lat = _random_stable_m(rng, galois, orbits, n)
                m_fix = fixed_sublattice(m_lat, list(galois.matrices))
                for c in chars:
                    fast = _horospherical_fast_path(rd, galois, c, m_lat, mod, inv, fixed)
                    generic = thetas[c.values].contains(m_fix)
                    if fast is not None:
                        assert fast[1] == generic, (label, auto.one_line(), c.values)
                        checked += 1
    assert checked > 0
    _report(7, "shortcut vs kernel-preimage agreement on %d checks" % checked)


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
            rows.append(apply_row(tuple(v), m))
    return Lattice(n, rows)


def test_criterion_08_cohomology_oracle():
    """Fixed-mod-norms H^2 equals literal cocycle enumeration, all small modules."""
    moduli_list = [()] + [(d,) for d in range(1, 7)] + [
        (d1, d2) for d1 in range(1, 7) for d2 in range(1, 7)
    ]
    compared = 0
    for moduli in moduli_list:
        fm = FiniteModule(moduli)
        for order in (2, 3):
            for images, table in fm.all_endomorphism_tables(order):
                mod, galois = build_cyclic_module(moduli, images, order)
                h2, _ = h2_cyclic(mod, galois)
                assert group_order_multiset(h2) == brute_force_h2_orders(
                    fm, table, order
                ), (moduli, order, images)
                compared += 1
    _report(8, "cocycle oracle agreement on %d (module, action) pairs" % compared)


def test_criterion_09_center_tables():
    """Determinant of the Cartan matrix equals the center order, structures match."""
    checked = 0
    for fam, ranks in [
        ("A", range(1, 9)),
        ("B", range(2, 9)),
        ("C", range(3, 9)),
        ("D", range(3, 9)),
        ("E", (6, 7, 8)),
        ("F", (4,)),
        ("G", (2,)),
    ]:
        for n in ranks:
            t = SimpleType(fam, n)
            g = center_invariants(based_root_datum(t), GaloisAction.trivial(n))[0]
            assert _det(cartan_matrix(t).data) == g.order()
            if fam == "A":
                assert g.invariant_factors == (n + 1,)
            elif fam in ("B", "C"):
                assert g.invariant_factors == (2,)
            elif fam == "D":
                assert g.invariant_factors == ((4,) if n % 2 else (2, 2))
            elif t == SimpleType("E", 7):
                assert g.invariant_factors == (2,)
            checked += 1
    _report(9, "center tables verified for %d simple types" % checked)


def test_criterion_10_diagonal_quotients():
    """Pure-inner-form criterion on the transporter examples."""
    assert decide_diagonal(delta_markers_from_catalog(["SU(2,2)", "SU(4)"])).exists
    for n in (2, 3, 4):
        for m in range(0, n + 1):
            markers = delta_markers_from_catalog(["Sp(%d,R)" % (2 * n), "Sp(%d,%d)" % (m, n - m)])
            assert not decide_diagonal(markers).exists
    _report(10, "unitary pair admits the model, symplectic pairs never do")
