from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import fraction_extreme_rays, fraction_rank
from spherical_models import (
    ColoredCone,
    ColoredFan,
    GaloisAction,
    SphericalDatum,
    based_root_datum,
    diagram_automorphism_group,
    fan_stable,
    galois_from_permutations,
    orbit_action,
    stabilizing_lift,
)
from spherical_models.cli import _build_payload
from spherical_models.embeddings import cone_canonicalize
from spherical_models.lattice import IntMatrix, _unimodular_inverse
from spherical_models.spherical import _exact_rational, _restriction_to_basis


def _move_ray(action, k, ray):
    """A ray moved contragrediently by the k-th generator of a stable action."""
    return tuple(_exact_rational(sum(a * b for a, b in zip(row, ray))) for row in action.r_invs[k].data)


def test_canonicalize_collinear(sl3_datum):
    c = cone_canonicalize(ColoredCone(((1, 0), (2, 0)), frozenset()), sl3_datum)
    assert c.rays == ((1, 0),)


def test_canonicalize_drops_interior_generator(sl3_datum):
    c = cone_canonicalize(ColoredCone(((1, 0), (0, 1), (1, 1)), frozenset()), sl3_datum)
    assert c.rays == ((0, 1), (1, 0))


def test_canonicalize_sl6_cone_extreme(sl6_datum):
    # independent generators of a pointed cone are all extreme; rank check
    gens = ((-1, 1, -1), (1, 0, 0), (0, 0, 1))
    assert fraction_rank(gens) == len(gens)
    c = cone_canonicalize(ColoredCone(gens, frozenset()), sl6_datum)
    assert set(c.rays) == set(gens)


def test_canonicalize_merges_color_functionals(sl6_datum):
    c = cone_canonicalize(
        ColoredCone(((-1, 1, -1),), frozenset({"D1+", "D5-"})), sl6_datum
    )
    assert set(c.rays) == {(-1, 1, -1), (1, 0, 0), (0, 0, 1)}
    assert c.colors == frozenset({"D1+", "D5-"})


def test_canonicalize_idempotent_and_scale_invariant(sl3_datum):
    a = cone_canonicalize(
        ColoredCone(((F(1, 2), F(-1, 2)), (-2, 0)), frozenset()), sl3_datum
    )
    b = cone_canonicalize(ColoredCone(tuple(reversed(((1, -1), (-1, 0)))), frozenset()), sl3_datum)
    assert a.key() == b.key()
    assert cone_canonicalize(a, sl3_datum).key() == a.key()


def test_canonicalize_rejects_line(sl3_datum):
    with pytest.raises(ValueError):
        cone_canonicalize(ColoredCone(((1, 0), (-1, 0)), frozenset()), sl3_datum)


def test_fan_rejects_duplicates(sl3_datum):
    with pytest.raises(ValueError):
        ColoredFan(
            [
                ColoredCone(((1, -1),), frozenset()),
                ColoredCone(((2, -2),), frozenset()),
            ],
            sl3_datum,
        )


def test_fan_valuation_cone_toggle(sl3_datum):
    # a cone whose interior is strictly dominant misses the valuation cone
    good = ColoredFan([ColoredCone(((-1, 0),), frozenset())], sl3_datum)
    assert len(good.cones) == 1
    with pytest.raises(ValueError):
        ColoredFan(
            [ColoredCone(((1, 0), (0, 1)), frozenset())],
            sl3_datum,
        )


def test_fan_stable_trivial_action(sl3_fan, sl3_datum):
    action = orbit_action(sl3_datum, GaloisAction.trivial(2))
    lift = action.lifts()[0]
    assert fan_stable(sl3_fan, action, lift)


def test_fan_not_stable_under_flip(sl3_fan, sl3_datum, rd_a2):
    flip = diagram_automorphism_group(rd_a2.type)[1]
    action = orbit_action(sl3_datum, galois_from_permutations(rd_a2, [flip]))
    lift = action.lifts()[0]
    assert not fan_stable(sl3_fan, action, lift)
    assert stabilizing_lift(sl3_fan, action) is None


def test_sl6_stabilizing_lift_is_cross_swap(sl6_fan, sl6_datum, galois_a5_flip):
    action = orbit_action(sl6_datum, galois_a5_flip)
    lift = stabilizing_lift(sl6_fan, action)
    assert lift is not None
    gmap = lift.mapping(0)
    assert gmap["D1+"] == "D5-" and gmap["D5-"] == "D1+"
    assert gmap["D1-"] == "D5+" and gmap["D5+"] == "D1-"
    # the straight swap does not stabilize
    straight = [
        L
        for L in action.lifts()
        if L.mapping(0)["D1+"] == "D5+" and L.mapping(0)["D5+"] == "D1+"
    ][0]
    assert not fan_stable(sl6_fan, action, straight)


def test_v_action_is_contragredient_and_functorial():
    # on the D4 fork the full symmetric group acts; products of generator
    # matrices must restrict and invert coherently
    rd = based_root_datum("D4")
    autos = diagram_automorphism_group(rd.type)
    three = [a for a in autos if a.order() == 3][0]
    two = [a for a in autos if a.order() == 2][0]
    g = galois_from_permutations(rd, [three, two])
    datum = SphericalDatum(rd, [list(rd.simple_root(i)) for i in range(1, 5)], [], [])
    # no central torus, so every element matrix acts on the orbit lattice as is
    restr = {i: _restriction_to_basis(datum, m) for i, m in enumerate(g.matrices)}
    for a in range(len(g.matrices)):
        for b in range(len(g.matrices)):
            ab = g.matrices.index(g.matrices[a] * g.matrices[b])
            assert restr[a] * restr[b] == restr[ab]
            va, vb, vab = (_inverse_transpose(restr[i]) for i in (a, b, ab))
            assert va * vb == vab


def _inverse_transpose(m):
    inv = _unimodular_inverse(m)
    return IntMatrix(list(zip(*inv.data)), cols=inv.rows)


@pytest.mark.parametrize("case", ["sl6_flip", "d4_s3"])
def test_v_matrices_move_color_functionals_as_the_lift_moves_colors(
    case, sl6_datum, galois_a5_flip
):
    # a ray moves like the functional of a color: the lift covers the action
    # on color images, so v sends each functional to that of the image color
    from spherical_models import HorosphericalDatum

    if case == "sl6_flip":
        datum, g = sl6_datum, galois_a5_flip
    else:
        rd = based_root_datum("D4")
        autos = diagram_automorphism_group(rd.type)
        three = [a for a in autos if a.order() == 3][0]
        two = [a for a in autos if a.order() == 2][0]
        g = galois_from_permutations(rd, [three, two])
        datum = HorosphericalDatum(rd, [], [[int(i == j) for j in range(4)] for i in range(4)]).to_spherical()
    rho = {c.id: c.rho for c in datum.colors}
    action = orbit_action(datum, g)
    for lift in action.lifts():
        for k in range(len(g.generators)):
            for cid in rho:
                assert _move_ray(action, k, rho[cid]) == rho[lift.mapping(k)[cid]]


def _fan_from_doc(fan_doc, datum):
    doc = dict(datum.to_dict(), fan=fan_doc)
    return _build_payload(doc, datum.rd, "embedding", "x")[1]


def test_fan_serialization_round_trip(sl6_fan, sl6_datum):
    doc = sl6_fan.to_dict()
    back = _fan_from_doc(doc, sl6_datum)
    assert back.to_dict() == doc
    assert {c.key() for c in back.cones} == {c.key() for c in sl6_fan.cones}


def test_lift_validation_in_fan_stability(sl6_fan, sl6_datum, galois_a5_flip):
    from spherical_models.spherical import ColorLift

    bogus = ColorLift(((("D1+", "D1+"), ("D1-", "D1-"), ("D2", "D2"), ("D4", "D4"), ("D5+", "D5+"), ("D5-", "D5-")),))
    action = orbit_action(sl6_datum, galois_a5_flip)
    with pytest.raises(ValueError):
        fan_stable(sl6_fan, action, bogus)


def _d4_triality_case():
    # the order-3 generator acts by a non-symmetric permutation matrix, so a
    # transposed action would move the cone elsewhere
    rd = based_root_datum("D4")
    autos = diagram_automorphism_group(rd.type)
    three = [a for a in autos if a.order() == 3][0]
    two = [a for a in autos if a.order() == 2][0]
    g = galois_from_permutations(rd, [three, two])
    datum = SphericalDatum(rd, [list(rd.simple_root(i)) for i in range(1, 5)], [], [])
    cone = ColoredCone(((1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 2, 0), (0, 0, 1, 3)), frozenset())
    return ColoredFan([cone], datum), datum, g


@pytest.mark.parametrize("case", ["sl3_trivial", "sl3_flip", "sl6_flip", "d4_triality"])
def test_moved_canonical_cone_equals_recanonicalized(
    case, sl3_fan, sl3_datum, sl6_fan, sl6_datum, rd_a2, galois_a5_flip
):
    from spherical_models.embeddings import _moved_key

    if case == "sl3_trivial":
        fan, datum, g = sl3_fan, sl3_datum, GaloisAction.trivial(2)
    elif case == "sl3_flip":
        flip = diagram_automorphism_group(rd_a2.type)[1]
        fan, datum, g = sl3_fan, sl3_datum, galois_from_permutations(rd_a2, [flip])
    elif case == "sl6_flip":
        fan, datum, g = sl6_fan, sl6_datum, galois_a5_flip
    else:
        fan, datum, g = _d4_triality_case()
    action = orbit_action(datum, g)
    for lift in action.lifts():
        for k, r_inv in enumerate(action.r_invs):
            gmap = lift.mapping(k)
            for cone in fan.cones:
                moved = ColoredCone(
                    tuple(_move_ray(action, k, r) for r in cone.rays),
                    frozenset(gmap[c] for c in cone.colors),
                )
                assert _moved_key(cone.key(), r_inv.data, gmap) == cone_canonicalize(moved, datum).key()


def test_fan_keys_hold_integer_rays(sl6_fan):
    assert sl6_fan.keys == {c.key() for c in sl6_fan.cones}
    for rays, _ in sl6_fan.keys:
        assert all(type(x) is int for r in rays for x in r)


def test_lift_search_checks_stability_and_computes_omega_once(
    sl6_fan, sl6_datum, galois_a5_flip, rd_a2, monkeypatch
):
    from spherical_models import HorosphericalDatum, spherical

    # the action of the one generator on the orbit lattice is derived once
    # per search and serves the stability check, omega and the v matrices
    calls = []

    def counting(datum, mat, _real=spherical._restriction_to_basis):
        calls.append(mat)
        return _real(datum, mat)

    monkeypatch.setattr(spherical, "_restriction_to_basis", counting)
    assert stabilizing_lift(sl6_fan, orbit_action(sl6_datum, galois_a5_flip)) is not None
    assert len(calls) == 1
    # on its own, the lift enumeration still checks stability itself
    assert len(orbit_action(sl6_datum, galois_a5_flip).lifts()) == 4
    assert len(calls) == 2
    # an action that moves the orbit lattice is refused by the search too
    moved = HorosphericalDatum(rd_a2, [2], [[1, 0]]).to_spherical()
    flip = galois_from_permutations(rd_a2, [diagram_automorphism_group(rd_a2.type)[1]])
    fan = ColoredFan([ColoredCone(((1,),), frozenset())], moved)
    for search in (
        lambda: orbit_action(moved, flip).lifts(),
        lambda: fan_stable(fan, orbit_action(moved, flip), None),
        lambda: stabilizing_lift(fan, orbit_action(moved, flip)),
    ):
        with pytest.raises(ValueError, match="does not preserve"):
            search()


# -- exact values: an int for each integral entry, never a float -------------

_entries = st.one_of(st.integers(-4, 4), st.builds(F, st.integers(-6, 6), st.integers(1, 3)))


def _exact(values):
    return all(type(x) is int or (type(x) is F and x.denominator != 1) for x in values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_entries, _entries), min_size=1, max_size=4), st.sets(st.sampled_from(["D1", "D2"])))
def test_cone_rays_are_ints_where_integral(sl3_datum, rays, colors):
    cone = ColoredCone(tuple(rays), frozenset(colors))
    assert all(_exact(r) for r in cone.rays)
    assert cone.rays == tuple(tuple(F(x) for x in r) for r in rays)
    rho = {c.id: c.rho for c in sl3_datum.colors}
    gens = list(cone.rays) + [rho[c] for c in sorted(colors)]
    assume(all(any(r) for r in rays) and fraction_extreme_rays(gens) is not None)
    canon = cone_canonicalize(cone, sl3_datum)
    assert all(type(x) is int for r in canon.rays for x in r)


def test_fan_from_doc_reads_integer_strings_and_ints_alike(sl3_datum):
    a = _fan_from_doc([{"generators": [["-2", "1/2"], [-1, "0"]]}], sl3_datum)
    b = _fan_from_doc([{"generators": [[-2, "1/2"], ["-1", 0]]}], sl3_datum)
    assert a.keys == b.keys and a.to_dict() == b.to_dict()
    assert a.cones[0].rays == ((-4, 1), (-1, 0))


def test_moved_rays_hold_no_float(sl3_fan, sl3_datum, rd_a2):
    flip = diagram_automorphism_group(rd_a2.type)[1]
    action = orbit_action(sl3_datum, galois_from_permutations(rd_a2, [flip]))
    assert _move_ray(action, 0, (F(1, 2), 3)) == (3, F(1, 2))
    assert _exact(_move_ray(action, 0, (F(1, 2), 3)))
    assert _exact(_move_ray(action, 0, (F(4, 2), 3)))
