import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import fraction_extreme_rays, fraction_rank, is_gamma_action, lifts
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
from spherical_models.embeddings import _moved_rays, cone_canonicalize
from spherical_models.lattice import IntMatrix, _unimodular_inverse, action_coordinates, apply_row
from spherical_models.spherical import _extended_matrices


def _move_ray(action, k, ray):
    """A ray moved contragrediently by the k-th generator of a stable action."""
    return tuple(sum(a * b for a, b in zip(row, ray)) for row in action.r_invs[k].data)


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
    lift = lifts(action)[0]
    assert fan_stable(sl3_fan, action, lift)


def test_fan_not_stable_under_flip(sl3_fan, sl3_datum, rd_a2):
    flip = diagram_automorphism_group(rd_a2.type)[1]
    action = orbit_action(sl3_datum, galois_from_permutations(rd_a2, [flip]))
    lift = lifts(action)[0]
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
        for L in lifts(action)
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
    restr = dict(enumerate(map(IntMatrix, action_coordinates(datum.lattice, g.matrices))))
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
    for lift in lifts(action):
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
    for lift in lifts(action):
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


def record_orbit_lattice_work(monkeypatch, datum):
    """From here on, record the work done on the orbit lattice of ``datum``:
    the generator matrices that action_coordinates finds on it, one entry
    per matrix, and each vector whose coordinates are solved on it."""
    import sys

    from spherical_models import lattice

    found, solved = [], []
    real_action, real_coords = lattice.action_coordinates, lattice._RowSolver.coords_of

    def counted_action(lat, mats):
        if lat is datum.lattice:
            found.extend(mats)
        return real_action(lat, mats)

    def counted_coords(self, v):
        if self is datum.lattice:
            solved.append(tuple(v))
        return real_coords(self, v)

    for name, module in list(sys.modules.items()):
        if name.startswith("spherical_models") and getattr(module, "action_coordinates", None) is real_action:
            monkeypatch.setattr(module, "action_coordinates", counted_action)
    monkeypatch.setattr(lattice._RowSolver, "coords_of", counted_coords)
    return found, solved


def moved_basis_rows(datum, mats):
    """Each chosen basis row of the orbit lattice moved by each matrix."""
    return Counter(apply_row(row, m) for m in mats for row in datum.basis.data)


def test_lift_search_checks_stability_and_computes_omega_once(
    sl6_fan, sl6_datum, galois_a5_flip, rd_a2, monkeypatch
):
    from spherical_models import HorosphericalDatum

    # the matrix of the one generator on the orbit lattice is found once
    # per search and serves the stability check, omega and the v matrices
    mats = list(_extended_matrices(sl6_datum, galois_a5_flip))
    found, solved = record_orbit_lattice_work(monkeypatch, sl6_datum)
    assert stabilizing_lift(sl6_fan, orbit_action(sl6_datum, galois_a5_flip)) is not None
    assert found == mats and Counter(solved) == moved_basis_rows(sl6_datum, mats)
    # the reference enumeration counts the same four lifts, on an action of its own
    assert len(lifts(orbit_action(sl6_datum, galois_a5_flip))) == 4
    assert found == mats * 2
    # an action that moves the orbit lattice is refused by the search too
    moved = HorosphericalDatum(rd_a2, [2], [[1, 0]]).to_spherical()
    flip = galois_from_permutations(rd_a2, [diagram_automorphism_group(rd_a2.type)[1]])
    fan = ColoredFan([ColoredCone(((1,),), frozenset())], moved)
    for search in (
        lambda: lifts(orbit_action(moved, flip)),
        lambda: fan_stable(fan, orbit_action(moved, flip), None),
        lambda: stabilizing_lift(fan, orbit_action(moved, flip)),
    ):
        with pytest.raises(ValueError, match="does not preserve"):
            search()


# -- exact values: rational generators become primitive integer rays ---------

_entries = st.one_of(st.integers(-4, 4), st.builds(F, st.integers(-6, 6), st.integers(1, 3)))


def _same_ray(ray, generator):
    """Is the integer ``ray`` primitive and a positive multiple of ``generator``?"""
    if not all(type(x) is int for x in ray) or math.gcd(*ray) > 1:
        return False
    if not any(generator):
        return not any(ray)
    pairs = list(zip(ray, map(F, generator)))
    collinear = all(a * y == b * x for a, x in pairs for b, y in pairs)
    return collinear and sum(a * x for a, x in pairs) > 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_entries, _entries), min_size=1, max_size=4), st.sets(st.sampled_from(["D1", "D2"])))
def test_cone_rays_are_ints_where_integral(sl3_datum, rays, colors):
    cone = ColoredCone(tuple(rays), frozenset(colors))
    assert all(map(_same_ray, cone.rays, rays))
    # a string spelling of each entry reads the same
    assert ColoredCone(tuple(tuple(map(str, r)) for r in rays), colors) == cone
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
    moved = _moved_rays(((1, 6), (-2, 3)), action.r_invs[0].data)
    assert moved == ((3, -2), (6, 1)) and all(type(x) is int for r in moved for x in r)


def test_a_cone_holds_the_primitive_integer_vector_of_each_generator():
    assert ColoredCone(((F(2, 3), F(-4, 3)), ("2/3", "-4/3"), (6, -12), (0, 0)), ()).rays == (
        (1, -2), (1, -2), (1, -2), (0, 0),
    )


# -- the lift read off the fan -------------------------------------------------


def _a15_s3_document():
    """A15 under an S3 image acting trivially on the nodes: X and the
    spherical roots are the odd simple roots, each moving two colors with one
    functional (8 two-color fibers), and one cone with the ray (-1, ..., -1).
    The fiber-wise enumeration has 2**16 lifts; the first one stabilizes."""
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(15)] for i in range(15)]
    odd = [cartan[i] for i in range(0, 15, 2)]
    colors = [
        {"id": "D%d%s" % (2 * j + 1, sign), "rho": [int(i == j) for i in range(8)], "sigma_set": [2 * j + 1]}
        for j in range(8)
        for sign in "+-"
    ]
    identity = list(range(1, 16))
    return {
        "version": 1, "kind": "embedding", "root_datum": "A15",
        "galois": {"group": "s3", "generators": [identity, identity]},
        "field": {"mode": "padic"}, "tits": "zero",
        "X": odd, "sigma": odd, "colors": colors,
        "fan": [{"generators": [[-1] * 8]}],
    }


def test_a15_s3_lift_is_built_once_and_checked_once(tmp_path, capsys, monkeypatch):
    import json
    import sys
    import time

    from spherical_models.cli import main
    from spherical_models.spherical import ColorLift

    built, checked = [], []

    def counted_lift(*args):
        built.append(ColorLift(*args))
        return built[-1]

    def counted_check(*args):
        checked.append(args)
        return fan_stable(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("spherical_models"):
            if getattr(module, "ColorLift", None) is ColorLift:
                monkeypatch.setattr(module, "ColorLift", counted_lift)
            if getattr(module, "fan_stable", None) is fan_stable:
                monkeypatch.setattr(module, "fan_stable", counted_check)
    path = tmp_path / "a15.json"
    path.write_text(json.dumps(_a15_s3_document()))
    t = time.process_time()
    code = main(["decide", "--json", str(path)])
    elapsed = time.process_time() - t
    verdict = json.loads(capsys.readouterr().out)
    assert (len(built), len(checked)) == (1, 1)
    assert elapsed < 1.0
    (stability,) = [r for r in verdict["reasons"] if r["condition"] == "fan-stability"]
    colors = sorted(c["id"] for c in _a15_s3_document()["colors"])
    assert code == 0 and stability["ok"]
    assert stability["lift"] == [[[c, c] for c in colors]] * 2


def test_two_cones_with_the_same_rays_are_refused(sl6_datum):
    # the colors of the first cone add the rays (1, 0, 0) and (0, 0, 1): the second's rays
    with pytest.raises(ValueError, match="^two maximal colored cones have the same rays$"):
        ColoredFan(
            [
                ColoredCone(((-1, 1, -1),), frozenset({"D1+", "D5-"})),
                ColoredCone(((-1, 1, -1), (1, 0, 0), (0, 0, 1)), frozenset()),
            ],
            sl6_datum,
        )


def _d4_outer_datum():
    """D4 with X and the spherical roots the three outer simple roots, each
    moving two colors with one functional: triality permutes the three
    two-color fibers, so most lifts of S3 are not Γ-actions."""
    from spherical_models import Color

    rd = based_root_datum("D4")
    outer = [1, 3, 4]
    rows = [list(rd.simple_root(i)) for i in outer]
    colors = [
        Color("D%d%s" % (i, sign), tuple(int(i == j) for j in outer), frozenset({i}))
        for i in outer
        for sign in "+-"
    ]
    return SphericalDatum(rd, rows, rows, colors)


def _lift_cases():
    from spherical_models import HorosphericalDatum

    d4 = based_root_datum("D4")
    autos = diagram_automorphism_group(d4.type)
    three = [a for a in autos if a.order() == 3][0]
    two = [a for a in autos if a.order() == 2][0]
    a5 = based_root_datum("A5")
    horo_d4 = HorosphericalDatum(d4, [], [[int(i == j) for j in range(4)] for i in range(4)]).to_spherical()
    horo_a5 = HorosphericalDatum(a5, [2, 4], [[1, 0, 0, 0, 1], [0, 0, 1, 0, 0]]).to_spherical()
    triality, s3 = galois_from_permutations(d4, [three]), galois_from_permutations(d4, [three, two])
    return {
        "horo_a5_flip": (horo_a5, galois_from_permutations(a5, [diagram_automorphism_group(a5.type)[1]])),
        "horo_d4_triality": (horo_d4, triality),
        "horo_d4_s3": (horo_d4, s3),
        "d4_outer_triality": (_d4_outer_datum(), triality),
        "d4_outer_s3": (_d4_outer_datum(), s3),
    }


_LIFT_CASES = _lift_cases()


def _closed_fan(datum, action, seeds, lift):
    """A fan from the seed cones, closed under the generators moving colors by
    ``lift`` (None: not closed); a cone that is not valid on its own, or
    whose rays an earlier cone already has, is dropped."""
    cones, queue = [], [ColoredCone(tuple(rays), frozenset(colors)) for rays, colors in seeds]
    while queue and len(cones) < 24:
        cone = queue.pop(0)
        try:
            cone = ColoredFan([cone], datum).cones[0]
        except ValueError:
            continue
        if any(cone.rays == other.rays for other in cones):
            continue
        cones.append(cone)
        if lift is not None:
            for k in range(len(action.r_invs)):
                gmap = lift.mapping(k)
                moved = tuple(_move_ray(action, k, r) for r in cone.rays)
                queue.append(ColoredCone(moved, frozenset(gmap[c] for c in cone.colors)))
    return ColoredFan(cones, datum) if cones else None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lift_read_off_the_fan_is_the_first_stabilizing_gamma_action(sl6_datum, galois_a5_flip, data):
    case = data.draw(st.sampled_from(["sl6_flip"] + sorted(_LIFT_CASES)))
    datum, galois = (sl6_datum, galois_a5_flip) if case == "sl6_flip" else _LIFT_CASES[case]
    action = orbit_action(datum, galois)
    every, gamma = lifts(action), lifts(action, galois.group_name)
    ray = st.lists(st.integers(-2, 1), min_size=datum.rank, max_size=datum.rank)
    # per fiber none, one or all of its colors, so that cones often split a fiber
    picks = st.tuples(*(
        st.sampled_from([()] + [(c,) for c in ids] + [ids] * (len(ids) == 2)) for ids in action.fibers.values()
    ))
    seed = st.tuples(st.lists(ray, min_size=1, max_size=3), picks.map(lambda p: sum(p, ())))
    seeds = data.draw(st.lists(seed, min_size=1, max_size=3))
    closing = data.draw(st.sampled_from(every + [None]))
    fan = _closed_fan(datum, action, seeds, closing)
    assume(fan is not None)
    found = stabilizing_lift(fan, action)
    first = next((L for L in every if fan_stable(fan, action, L)), None)
    first_gamma = next((L for L in gamma if fan_stable(fan, action, L)), None)
    assert found == first_gamma == first
    assert found is None or is_gamma_action(found, galois.group_name)


@pytest.mark.parametrize(
    "maps, match",
    [((), "lift has the wrong number of generator maps"),
     (((("D1+", "D1+"),),), "lift is not a permutation of the colors")],
    ids=["count", "not-a-permutation"],
)
def test_fan_stable_refuses_a_lift_of_the_wrong_shape(sl6_fan, sl6_datum, galois_a5_flip, maps, match):
    from spherical_models.spherical import ColorLift

    with pytest.raises(ValueError, match=match):
        fan_stable(sl6_fan, orbit_action(sl6_datum, galois_a5_flip), ColorLift(maps))
