import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    GroupHom,
    all_color_lifts_by_filter,
    fraction_omega_perms,
    hom_kernel,
    lifts,
    set_based_unstable_generator,
)
from spherical_models import (
    Color,
    GaloisAction,
    HorosphericalDatum,
    SphericalDatum,
    based_root_datum,
    diagram_automorphism_group,
    galois_from_permutations,
    orbit_action,
)
from spherical_models.cli import _build_payload
from spherical_models.lattice import IntMatrix, Lattice, Rational, fixed_sublattice, read_rational
from spherical_models.spherical import aut_character_lattices
from test_decision import KERNEL_ROUTE_TYPES, _stable_horospherical_lattice, diagram_actions


# -- construction validation --------------------------------------------------


def test_rejects_dependent_basis(rd_a2):
    with pytest.raises(ValueError):
        SphericalDatum(rd_a2, [[1, 0], [2, 0]], [], [])


@pytest.mark.parametrize(
    "key, value",
    [("sigma", [(1.0, 1)]), ("sigma", [(True, 1)]), ("sigma234", [0.0]), ("sigma234", [False]),
     ("torus_rank", 0.9), ("torus_rank", True)],
)
def test_datum_refuses_a_float_or_a_bool(rd_a2, key, value):
    # int() would read each of them as an integer and build a datum
    args = {"basis": [[1, 0], [0, 1]], "sigma": [(1, 1)], "colors": [], key: value}
    with pytest.raises(ValueError, match="is not an integer$"):
        SphericalDatum(rd_a2, **args)


@pytest.mark.parametrize("sigma_set", [[1.0], [1.7], [True]])
def test_color_refuses_a_moving_node_that_is_no_integer(sigma_set):
    with pytest.raises(ValueError, match="is not an integer$"):
        Color("c", (1, 0), sigma_set)


def test_rejects_root_outside_root_lattice(rd_a2):
    with pytest.raises(ValueError):
        SphericalDatum(rd_a2, [[1, 0], [0, 1]], [(1, 0)], [])  # omega1 is not in Q


def test_rejects_three_colors_per_node(rd_a2):
    cols = [Color("a", (F(1), F(0)), frozenset({1})) for _ in range(1)]
    cols = [
        Color("a", (F(1), F(0)), frozenset({1})),
        Color("b", (F(0), F(1)), frozenset({1})),
        Color("c", (F(1), F(1)), frozenset({1})),
    ]
    with pytest.raises(ValueError):
        SphericalDatum(rd_a2, [[1, 0], [0, 1]], [(2, -1)], cols)


def test_two_colors_require_simple_spherical_root(rd_a2):
    cols = [
        Color("a", (F(1), F(0)), frozenset({1})),
        Color("b", (F(0), F(1)), frozenset({1})),
    ]
    with pytest.raises(ValueError):
        SphericalDatum(rd_a2, [[1, 0], [0, 1]], [], cols)


# -- omega sets: the color images over one color and over two -------------------


def test_omega_sets_quadric(so10_datum):
    ((rho, sigma_set), ids), = so10_datum.fibers.items()
    assert len(ids) == 1
    assert rho == (F(1),) and sigma_set == frozenset({1})


def test_omega_sets_sl6(sl6_datum):
    assert sorted(len(ids) for ids in sl6_datum.fibers.values()) == [1, 1, 2, 2]


def test_omega_sets_no_colors(rd_a2):
    d = SphericalDatum(rd_a2, [[1, 1]], [], [])
    assert d.fibers == {}


# -- doubled spherical roots ---------------------------------------------------


def test_sigma_two_sl6(sl6_datum, rd_a5):
    assert sl6_datum.sigma_two == (
        tuple(rd_a5.simple_root(1)),
        tuple(rd_a5.simple_root(5)),
    )


def test_sigma_two_quadric_empty(so10_datum):
    assert so10_datum.sigma_two == ()


def test_sigma_two_empty_sigma(rd_a2):
    assert SphericalDatum(rd_a2, [[1, 1]], [], []).sigma_two == ()


def test_sigma_variants_sl6(sl6_datum, rd_a5):
    sc, n = sl6_datum.sigma_sc, sl6_datum.sigma_n
    a1, a5 = tuple(rd_a5.simple_root(1)), tuple(rd_a5.simple_root(5))
    assert sc == (a1, a5)
    assert n == (tuple(2 * x for x in a1), tuple(2 * x for x in a5))


def test_sigma_variants_sl3(sl3_datum):
    assert sl3_datum.sigma_sc == sl3_datum.sigma_n == ((1, 1),)


def test_sigma_variants_flag_overlap_rejected(sl6_datum, rd_a5):
    with pytest.raises(ValueError, match="doubling flags overlap"):
        SphericalDatum(rd_a5, sl6_datum.basis.data, sl6_datum.sigma, sl6_datum.colors, sigma234=[0])


def test_sigma_variants_elementary_two_quotient(sl6_datum):
    from spherical_models.lattice import Lattice, quotient_group

    span_sc = Lattice(5, sl6_datum.sigma_sc)
    span_n = Lattice(5, sl6_datum.sigma_n)
    q = quotient_group(span_sc, span_n)
    assert q.order() == 2 ** len(sl6_datum.sigma_two)
    assert all(d == 2 for d in q.invariant_factors)


# -- automorphism character lattices -------------------------------------------


def test_aut_lattices_sl6(sl6_datum):
    xa, xa_ker = aut_character_lattices(sl6_datum)
    assert xa.invariant_factors == (2, 2, 0)
    assert xa_ker.invariant_factors == (0,)
    # the natural surjection X/<sigma_N> -> X/<sigma_sc>, on the generators
    units = [tuple(int(i == j) for i in range(xa.rank)) for j in range(xa.rank)]
    proj = GroupHom(xa, xa_ker, [xa_ker.from_ambient(xa.lift(e)) for e in units])
    k, _ = hom_kernel(proj)
    assert k.order() == 4 and set(k.invariant_factors) == {2}


def test_aut_lattices_horospherical_is_m(rd_a5, m_2p_plus_q):
    from spherical_models import HorosphericalDatum

    h = HorosphericalDatum(rd_a5, [], m_2p_plus_q.basis.data)
    xa, xa_ker = aut_character_lattices(h.to_spherical())
    assert xa.invariant_factors == (0,) * 5
    assert xa_ker.invariant_factors == (0,) * 5


def test_aut_lattice_flip_acts_by_negation(sl3_datum, rd_a2):
    # the flip sends the free generator class of X/<sigma_N> to its negative,
    # so the only points it fixes modulo the doubled roots are their span
    flip = diagram_automorphism_group(rd_a2.type)[1]
    g = galois_from_permutations(rd_a2, [flip])
    span = Lattice(2, sl3_datum.sigma_n)
    assert fixed_sublattice(sl3_datum.lattice, g.generator_matrices(), span) == span


def test_aut_lattices_full_quotient(rd_a2):
    d = SphericalDatum(rd_a2, [[1, 1]], [(1, 1)], [])
    xa, _ = aut_character_lattices(d)
    assert xa.rank == 0


# -- stability ------------------------------------------------------------------


def test_stability_sl6(sl6_datum, galois_a5_flip):
    assert orbit_action(sl6_datum, galois_a5_flip).unstable is None


def test_stability_sl3(sl3_datum, rd_a2):
    flip = diagram_automorphism_group(rd_a2.type)[1]
    assert orbit_action(sl3_datum, galois_from_permutations(rd_a2, [flip])).unstable is None


def test_stability_moved_lattice(rd_a2):
    flip = diagram_automorphism_group(rd_a2.type)[1]
    g = galois_from_permutations(rd_a2, [flip])
    d = SphericalDatum(rd_a2, [[1, 0]], [], [])
    assert orbit_action(d, g).unstable is not None
    assert orbit_action(d, g).unstable == 0


def test_stability_quadric_flip(so10_datum, galois_d5_flip):
    assert orbit_action(so10_datum, galois_d5_flip).unstable is None


def test_stability_moved_spherical_roots():
    # lattice and colors are flip-stable, the spherical root a1 + a2 is not
    rd = based_root_datum("A3")
    roots = [list(rd.simple_root(i)) for i in (1, 2, 3)]
    colors = [Color("D%d" % i, tuple(r), frozenset({i})) for i, r in zip((1, 2, 3), roots)]
    d = SphericalDatum(rd, roots, [tuple(a + b for a, b in zip(roots[0], roots[1]))], colors)
    g = galois_from_permutations(rd, [diagram_automorphism_group(rd.type)[1]])
    assert orbit_action(SphericalDatum(rd, roots, [], colors), g).unstable is None
    assert orbit_action(d, g).unstable is not None
    assert orbit_action(d, g).unstable == 0
    # the color images alone are permuted, but the action is refused
    assert fraction_omega_perms(d, g)[0] == fraction_omega_perms(SphericalDatum(rd, roots, [], colors), g)[0]
    with pytest.raises(ValueError, match="does not preserve"):
        orbit_action(d, g).stable()


def _assert_stability_matches_oracles(datum, galois):
    """The merged stability check against the set-based oracle, and the
    color-image permutations against the Fraction oracle; returns the witness."""
    want = set_based_unstable_generator(datum, galois)
    assert orbit_action(datum, galois).unstable == want
    if want is not None:
        with pytest.raises(ValueError, match="does not preserve"):
            orbit_action(datum, galois).stable()
        return want
    action = orbit_action(datum, galois).stable()
    fibers, perms = action.fibers, action.perms
    assert set(fibers) == {(c.rho, c.sigma_set) for c in datum.colors}
    assert list(perms) == fraction_omega_perms(datum, galois)
    return None


def _random_horospherical(rng, rd):
    """A horospherical datum with random nodes I and a random lattice M
    orthogonal to their coroots, rarely stable under a diagram action."""
    n = rd.rank
    nodes = {i for i in range(1, n + 1) if rng.random() < 0.3}
    free = [j for j in range(n) if j + 1 not in nodes]
    if not free:
        nodes, free = (), list(range(n))
    rows = [
        [rng.randint(-2, 2) if j in free else 0 for j in range(n)]
        for _ in range(rng.randint(1, len(free)))
    ]
    rows.append([rng.choice((1, 2)) if j == free[0] else 0 for j in range(n)])
    return HorosphericalDatum(rd, nodes, rows)


@pytest.mark.parametrize("label", KERNEL_ROUTE_TYPES)
def test_merged_stability_matches_set_oracle_on_horospherical_orbits(label):
    rd = based_root_datum(label)
    rng = random.Random("stability:" + label)
    actions = diagram_actions(rd)
    unstable = 0
    for galois in actions:
        for _ in range(4):
            stable_m = _stable_horospherical_lattice(rng, rd, galois)
            for h in (HorosphericalDatum(rd, [], stable_m.basis.data), _random_horospherical(rng, rd)):
                unstable += _assert_stability_matches_oracles(h.to_spherical(), galois) is not None
    # every type but A1 has a diagram action that moves some random datum
    assert (unstable > 0) == (len(actions) > 1)


def _stability_cases(sl3_datum, sl6_datum, so10_datum, rd_a2, rd_a5, rd_d5):
    flip_a2 = galois_from_permutations(rd_a2, [diagram_automorphism_group(rd_a2.type)[1]])
    flip_a5 = galois_from_permutations(rd_a5, [diagram_automorphism_group(rd_a5.type)[1]])
    flip_d5 = galois_from_permutations(rd_d5, [diagram_automorphism_group(rd_d5.type)[1]])
    rd_a3 = based_root_datum("A3")
    roots = [list(rd_a3.simple_root(i)) for i in (1, 2, 3)]
    colors = [Color("D%d" % i, tuple(r), frozenset({i})) for i, r in zip((1, 2, 3), roots)]
    moved_roots = SphericalDatum(rd_a3, roots, [tuple(a + b for a, b in zip(roots[0], roots[1]))], colors)
    unequal_fibers = SphericalDatum(
        rd_a2,
        [[1, 0], [0, 1]],
        [tuple(rd_a2.simple_root(1))],
        [
            Color("D1+", (1, 0), frozenset({1})),
            Color("D1-", (1, 0), frozenset({1})),
            Color("D2", (0, 1), frozenset({2})),
        ],
    )
    # the flip swaps the images of a two-color and a one-color fiber, and
    # moves nothing else
    unequal_free_fibers = SphericalDatum(
        rd_a2,
        [[1, 0], [0, 1]],
        [],
        [
            Color("E1", (1, 0), frozenset()),
            Color("E2", (1, 0), frozenset()),
            Color("E3", (0, 1), frozenset()),
        ],
    )
    z3, s3 = _d4_actions()
    # the triality orbit of one weight spans a lattice the order-3 generator
    # preserves and the flip moves
    rd_d4 = based_root_datum("D4")
    shifts = [(1, 0, 2, 3), (3, 0, 1, 2), (2, 0, 3, 1)]
    triality_lattice = HorosphericalDatum(rd_d4, [2], shifts)
    return {
        "sl3_trivial": (sl3_datum, GaloisAction.trivial(2)),
        "sl3_flip": (sl3_datum, flip_a2),
        "sl3_negation": (sl3_datum, GaloisAction("cyclic2", [IntMatrix([[-1, 0], [0, -1]])])),
        "sl6_trivial": (sl6_datum, GaloisAction.trivial(5)),
        "sl6_flip": (sl6_datum, flip_a5),
        "sl6_z2_acting_trivially": (sl6_datum, GaloisAction("cyclic2", [IntMatrix.identity(5)])),
        "sl6_torus_flip": (_sl6_with_torus(sl6_datum), flip_a5),
        "so10_trivial": (so10_datum, GaloisAction.trivial(5)),
        "so10_flip": (so10_datum, flip_d5),
        "mixed_trivial": (_collinear_datum(rd_a2), GaloisAction.trivial(2)),
        "mixed_flip": (_collinear_datum(rd_a2), flip_a2),
        "mixed_flip_unstable": (_collinear_datum(rd_a2, (2, 3)), flip_a2),
        "d4_half_z3": (_d4_multiples_datum(), z3),
        "d4_half_s3": (_d4_multiples_datum(), s3),
        "a3_moved_roots": (moved_roots, galois_from_permutations(rd_a3, [diagram_automorphism_group(rd_a3.type)[1]])),
        "a2_unequal_fibers": (unequal_fibers, flip_a2),
        "a2_unequal_free_fibers": (unequal_free_fibers, flip_a2),
        "d4_triality_lattice_z3": (triality_lattice.to_spherical(), z3),
        "d4_triality_lattice_s3": (triality_lattice.to_spherical(), s3),
    }


# the expected unstable generator of each case, or None
STABILITY_CASES = {
    "sl3_trivial": None, "sl3_flip": None, "sl3_negation": 0, "sl6_trivial": None,
    "sl6_flip": None, "sl6_z2_acting_trivially": None, "sl6_torus_flip": None,
    "so10_trivial": None, "so10_flip": None, "mixed_trivial": None, "mixed_flip": None,
    "mixed_flip_unstable": 0, "d4_half_z3": None, "d4_half_s3": None,
    "a3_moved_roots": 0, "a2_unequal_fibers": 0, "a2_unequal_free_fibers": 0,
    "d4_triality_lattice_z3": None, "d4_triality_lattice_s3": 1,
}


@pytest.mark.parametrize("case", sorted(STABILITY_CASES))
def test_merged_stability_matches_set_oracle(case, sl3_datum, sl6_datum, so10_datum, rd_a2, rd_a5, rd_d5):
    datum, galois = _stability_cases(sl3_datum, sl6_datum, so10_datum, rd_a2, rd_a5, rd_d5)[case]
    assert _assert_stability_matches_oracles(datum, galois) == STABILITY_CASES[case]


# -- lifts ----------------------------------------------------------------------


def test_lift_counts(sl6_datum, sl3_datum, galois_a5_flip, rd_a2):
    assert len(lifts(orbit_action(sl6_datum, galois_a5_flip))) == 4
    flip3 = diagram_automorphism_group(rd_a2.type)[1]
    assert len(lifts(orbit_action(sl3_datum, galois_from_permutations(rd_a2, [flip3])))) == 1
    assert len(lifts(orbit_action(sl3_datum, GaloisAction.trivial(2)))) == 1


def test_lift_count_trivial_action_two_fibers(sl6_datum):
    g = GaloisAction("cyclic2", [IntMatrix.identity(5)])
    pairs = sum(len(ids) == 2 for ids in sl6_datum.fibers.values())
    assert len(lifts(orbit_action(sl6_datum, g))) == 2 ** pairs


def test_sl6_contains_cross_swap_lift(sl6_datum, galois_a5_flip):
    wanted = {("D1+", "D5-"), ("D1-", "D5+"), ("D5+", "D1-"), ("D5-", "D1+")}
    assert any(wanted <= set(L.generator_maps[0]) for L in lifts(orbit_action(sl6_datum, galois_a5_flip)))


def test_lifts_cover_omega_action(sl6_datum, galois_a5_flip):
    action = orbit_action(sl6_datum, galois_a5_flip).stable()
    fibers, perms = action.fibers, action.perms
    color_fiber = {cid: key for key, ids in fibers.items() for cid in ids}
    for L in lifts(action):
        gmap = L.mapping(0)
        for cid, img in gmap.items():
            assert color_fiber[img] == perms[0][color_fiber[cid]]


@pytest.mark.parametrize("case", ["sl6_flip", "sl6_split", "sl3_flip"])
def test_lift_enumeration_matches_permutation_filter(case, sl6_datum, sl3_datum, galois_a5_flip, rd_a2):
    if case == "sl6_flip":
        datum, galois = sl6_datum, galois_a5_flip
    elif case == "sl6_split":
        datum, galois = sl6_datum, GaloisAction("cyclic2", [IntMatrix.identity(5)])
    else:
        flip3 = diagram_automorphism_group(rd_a2.type)[1]
        datum, galois = sl3_datum, galois_from_permutations(rd_a2, [flip3])
    ours = {L.generator_maps for L in lifts(orbit_action(datum, galois))}
    oracle = all_color_lifts_by_filter(datum, galois)
    assert ours == oracle


def test_lifts_require_stability(rd_a2):
    from spherical_models import ColoredCone, ColoredFan, stabilizing_lift

    flip = diagram_automorphism_group(rd_a2.type)[1]
    g = galois_from_permutations(rd_a2, [flip])
    d = SphericalDatum(rd_a2, [[1, 0]], [], [])
    fan = ColoredFan([ColoredCone(((1,),), frozenset())], d)
    with pytest.raises(ValueError, match="does not preserve"):
        stabilizing_lift(fan, orbit_action(d, g))
    with pytest.raises(ValueError, match="does not preserve"):
        lifts(orbit_action(d, g))


# -- integer color transforms and generator-only character actions ----------


def _collinear_datum(rd_a2, e2=(2, 1)):
    """Functionals that are multiples of one another under one moving set.
    The flip swaps E1 and E2 when ``e2`` is (2, 1), the flip of E1's (1, 2),
    and sends E1 to a non-image otherwise."""
    return SphericalDatum(
        rd_a2,
        [[1, 0], [0, 1]],
        [],
        [
            Color("D1", (2, 0), frozenset({1})),
            Color("D2", (0, 2), frozenset({2})),
            Color("E1", (1, 2), frozenset()),
            Color("E2", e2, frozenset()),
            Color("F1", (1, 0), frozenset()),
            Color("F2", (0, 1), frozenset()),
            # twice F1 and F2 under the same (empty) moving set, and equal to
            # D1 and D2 in all but the moving set: each an image of its own
            Color("H1", (2, 0), frozenset()),
            Color("H2", (0, 2), frozenset()),
        ],
    )


def _d4_multiples_datum():
    """Triality-symmetric functionals, two of them collinear over the empty moving set."""
    rd = based_root_datum("D4")
    colors = [
        Color("C1", (2, 0, 0, 0), frozenset({1})),
        Color("C3", (0, 0, 2, 0), frozenset({3})),
        Color("C4", (0, 0, 0, 2), frozenset({4})),
        Color("G", (1, 0, 1, 1), frozenset()),
        Color("G2", (2, 0, 2, 2), frozenset()),
    ]
    return SphericalDatum(rd, [[1 if i == j else 0 for j in range(4)] for i in range(4)], [], colors)


def _d4_actions():
    rd = based_root_datum("D4")
    autos = diagram_automorphism_group(rd.type)
    three = [a for a in autos if a.order() == 3][0]
    two = [a for a in autos if a.order() == 2][0]
    return galois_from_permutations(rd, [three]), galois_from_permutations(rd, [three, two])


@pytest.mark.parametrize("case", ["a2_flip", "a2_flip_unstable", "a2_trivial", "d4_z3", "d4_s3"])
def test_color_transform_matches_fraction_oracle(case, rd_a2):
    from oracles import fraction_omega_perms

    if case.startswith("a2"):
        datum = _collinear_datum(rd_a2, (2, 3) if case == "a2_flip_unstable" else (2, 1))
        g = GaloisAction.trivial(2) if case == "a2_trivial" else galois_from_permutations(
            rd_a2, [diagram_automorphism_group(rd_a2.type)[1]]
        )
    else:
        datum = _d4_multiples_datum()
        g = _d4_actions()[0 if case == "d4_z3" else 1]
    images = {(c.rho, c.sigma_set) for c in datum.colors}
    expected = fraction_omega_perms(datum, g)
    stable = all(moved in images for perm in expected for moved in perm.values())
    assert stable == (case != "a2_flip_unstable")
    assert (orbit_action(datum, g).unstable is None) is stable
    if not stable:
        with pytest.raises(ValueError):
            orbit_action(datum, g).stable()
        return
    action = orbit_action(datum, g).stable()
    fibers, perms = action.fibers, action.perms
    assert set(fibers) == images
    assert len(perms) == len(g.generators)
    for perm, want in zip(perms, expected):
        assert perm == want


def test_omega_action_refuses_fibers_of_different_sizes(rd_a2):
    # the flip sends the two-color fiber over node 1 to the one-color fiber
    # over node 2
    datum = SphericalDatum(
        rd_a2,
        [[1, 0], [0, 1]],
        [tuple(rd_a2.simple_root(1))],
        [
            Color("D1+", (1, 0), frozenset({1})),
            Color("D1-", (1, 0), frozenset({1})),
            Color("D2", (0, 1), frozenset({2})),
        ],
    )
    g = galois_from_permutations(rd_a2, [diagram_automorphism_group(rd_a2.type)[1]])
    assert orbit_action(datum, g).unstable is not None
    with pytest.raises(ValueError, match="color images"):
        orbit_action(datum, g).stable()


def _sl6_with_torus(sl6_datum):
    """The sl6 datum with one central torus coordinate adjoined to its lattice."""
    basis = [list(r) + [0] for r in sl6_datum.basis.data] + [[0] * 5 + [1]]
    colors = [Color(c.id, c.rho + (0,), c.sigma_set) for c in sl6_datum.colors]
    sigma = [tuple(s) + (0,) for s in sl6_datum.sigma]
    return SphericalDatum(sl6_datum.rd, basis, sigma, colors, torus_rank=1)


def _aut_cases(sl6_datum, sl3_datum, rd_a2, rd_a5):
    flip_a2 = galois_from_permutations(rd_a2, [diagram_automorphism_group(rd_a2.type)[1]])
    flip_a5 = galois_from_permutations(rd_a5, [diagram_automorphism_group(rd_a5.type)[1]])
    flagged = SphericalDatum(rd_a2, [[1, 0], [0, 1]], [(1, 1)], sl3_datum.colors, sigma234=[0])
    z3, s3 = _d4_actions()
    rd_d4 = based_root_datum("D4")
    from spherical_models import HorosphericalDatum

    d4_q = HorosphericalDatum(rd_d4, [], rd_d4.root_lattice.basis.data).to_spherical()
    d4_torus = SphericalDatum(
        rd_d4, [list(r) + [0, 0] for r in rd_d4.root_lattice.basis.data] + [[0] * 4 + [1, 1], [0] * 5 + [2]], [], [],
        torus_rank=2,
    )
    return {
        "sl3_flags_trivial": (flagged, GaloisAction.trivial(2)),
        "sl3_flags_z2": (flagged, flip_a2),
        "sl6_z2": (sl6_datum, flip_a5),
        "sl6_z2_acting_trivially": (
            sl6_datum, GaloisAction("cyclic2", [IntMatrix.identity(5)])
        ),
        "sl6_torus_z2": (_sl6_with_torus(sl6_datum), flip_a5),
        "d4_z3": (d4_q, z3),
        "d4_s3": (d4_q, s3),
        "d4_torus_s3": (d4_torus, s3),
    }


@pytest.mark.parametrize(
    "case",
    [
        "sl3_flags_trivial", "sl3_flags_z2", "sl6_z2", "sl6_z2_acting_trivially",
        "sl6_torus_z2", "d4_z3", "d4_s3", "d4_torus_s3",
    ],
)
def test_aut_character_actions_from_generators_match_all_elements(
    case, sl6_datum, sl3_datum, rd_a2, rd_a5
):
    # the points fixed modulo the doubled roots by the generators are those
    # fixed by every element, and their classes are the fixed classes of the
    # quotient with the action of every element
    from oracles import all_element_matrices

    from test_lattice import assert_fixed_classes

    datum, g = _aut_cases(sl6_datum, sl3_datum, rd_a2, rd_a5)[case]
    mats = all_element_matrices(datum, g)
    gens = [mats[i] for i in g.generators]
    for roots in (datum.sigma_n, datum.sigma_sc):
        span = Lattice(datum.ambient_dim, roots)
        got = fixed_sublattice(datum.lattice, gens, span)
        assert got == fixed_sublattice(datum.lattice, mats, span)
        assert_fixed_classes(datum.lattice, mats, span, got)


def test_generator_actions_refuse_an_ill_defined_quotient(rd_a2):
    # swapping the coordinates does not preserve the span of (2, 0): the
    # generator alone must be refused, by the engine's fixed classes and by
    # the oracle's group route, as the full element list is
    from oracles import quotient_with_action

    from spherical_models.lattice import Lattice

    swap, full, sub = IntMatrix([[0, 1], [1, 0]]), Lattice.full(2), Lattice(2, [(2, 0)])
    with pytest.raises(ValueError, match="does not stabilize the subgroup of relations"):
        fixed_sublattice(full, [swap], sub)
    with pytest.raises(ValueError, match="does not stabilize the subgroup of relations"):
        quotient_with_action(full, sub, [swap])


# -- exact values: an int for each integral entry, never a float -------------

_rationals = st.one_of(
    st.integers(-6, 6),
    st.builds(F, st.integers(-8, 8), st.integers(1, 4)),
    st.builds(lambda p, q: "%d/%d" % (p, q), st.integers(-8, 8), st.integers(1, 4)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_rationals, min_size=1, max_size=5))
def test_color_functionals_are_ints_where_integral(values):
    # a functional is integral (Luna): integral entries in any form come
    # back as ints, and a proper fraction is refused
    if any(F(x).denominator != 1 for x in values):
        with pytest.raises(ValueError, match="functional of c is not integral"):
            Color("c", values, frozenset())
        return
    rho = Color("c", values, frozenset()).rho
    assert all(type(x) is int for x in rho)
    assert rho == tuple(F(x) for x in values)


def test_payload_reads_integer_strings_and_ints_alike(rd_a2):
    doc = {
        "X": [[1, 0], [0, 1]],
        "sigma": [[1, 1]],
        "colors": [
            {"id": "D1", "rho": ["2", "1"], "sigma_set": [1]},
            {"id": "D2", "rho": [2, "-4/2"], "sigma_set": [2]},
        ],
    }
    d = _build_payload(doc, rd_a2, "spherical", "x")
    assert [c.rho for c in d.colors] == [(2, 1), (2, -2)]
    assert all(type(x) is int for c in d.colors for x in c.rho)


# Strings at the edges of the number grammar -?[0-9]+ and -?[0-9]+/[0-9]+:
# signs, whitespace, underscores, other scripts' digits, decimals, exponents
# and zero or negative denominators.
_EDGE_STRINGS = [
    "0", "-0", "+7", "007", " 12 ", "\t-3\n", "\u00a05\u2003", "\x1c9", "6/2", "-4/2",
    "3 / 1", "1/0", "1.5", "1.", ".5", "1e2", "1E-2", "2.5e1", "1_0", "1__0", "_1",
    "1_", "1_0/2", "+-1", "--1", "0x10", "0b1", "", " ", "abc", "inf", "nan",
    "1 2", "\u0661\u0662", "\uff11\uff12", "\u00b2", "3/-4", "9" * 40,
]


def _grammar_reading(text):
    """The grammar's reading of ``text``, character by character: the
    Fraction of an optional minus sign, ASCII digits and an optional slash
    with ASCII digits that are not all zeros, or "refused"."""
    parts = (text[1:] if text[:1] == "-" else text).split("/")
    if len(parts) > 2 or not all(part and set(part) <= set("0123456789") for part in parts):
        return "refused"
    if len(parts) == 2 and set(parts[1]) == {"0"}:
        return "refused"
    return F(text)


def _assert_read_as_the_grammar_reads(text):
    try:
        got = read_rational(text)
    except ValueError:
        got = "refused"
    want = _grammar_reading(text)
    assert (got if got == "refused" else F(str(got))) == want, text
    if want != "refused":
        assert (type(got) is int) == (want.denominator == 1), got


@pytest.mark.parametrize("text", _EDGE_STRINGS)
def test_json_rational_matches_fraction_of_the_string(text):
    _assert_read_as_the_grammar_reads(text)


# The reader has two routes, int() after an isascii/isdigit test and a
# pattern for p/q, so the text mixes the grammar's characters with those of
# signs, decimals, exponents, separators and whitespace, and with digits of
# other scripts, which isdigit() accepts ("\u00b2".isdigit() is True).
_READER_TEXT = st.text(st.sampled_from("0123456789-+/.e_ \t\n\u00a0\u00b2\u0663\uff11"), max_size=10)
READER_EXAMPLES = 500


def reader_property(examples):
    """The property, run on ``examples`` generated strings."""

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(_READER_TEXT)
    def check(text):
        _assert_read_as_the_grammar_reads(text)

    return check


test_read_rational_reads_generated_text_as_the_grammar_does = reader_property(READER_EXAMPLES)


@pytest.mark.parametrize(
    "value, want",
    [(7, 7), (-(10**30), -(10**30)), (F(4, 2), 2), (F(-6, 3), -2), (F(1, 2), Rational(1, 2))],
)
def test_exact_rational_keeps_ints_and_reduces_fractions(value, want):
    got = read_rational(value)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("value", [True, False, None, [1], {"p": 1}, 0.5, 2.0])
def test_exact_rational_refuses_what_is_no_rational(value):
    with pytest.raises(ValueError):
        read_rational(value)


def test_exact_rational_names_a_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        read_rational("1/0")


def test_orbit_action_refuses_an_image_on_another_lattice(sl3_datum):
    with pytest.raises(ValueError, match="Galois action lives on the wrong lattice"):
        orbit_action(sl3_datum, GaloisAction.trivial(3))


if __name__ == "__main__":
    reader_property(int(sys.argv[1]) if len(sys.argv) > 1 else 20000)()
    print("ok")
