import random
from fractions import Fraction

import pytest

from spherical_models import GaloisAction, based_root_datum, diagram_automorphism_group
from spherical_models.decision import center_invariants
from spherical_models.lattice import Lattice, apply_row
from spherical_models.rootdata import SimpleType, cartan_matrix, diagram_flip, star_action_matrix

from oracles import (
    _det,
    diagram_automorphisms_by_search,
    epsilon_coordinates,
    in_epsilon_lattice,
    weight_coordinates_from_epsilon,
)

ALL_TYPES_RANK8 = (
    [SimpleType("A", n) for n in range(1, 9)]
    + [SimpleType("B", n) for n in range(2, 9)]
    + [SimpleType("C", n) for n in range(3, 9)]
    + [SimpleType("D", n) for n in range(3, 9)]
    + [SimpleType("E", n) for n in (6, 7, 8)]
    + [SimpleType("F", 4), SimpleType("G", 2)]
)


def test_cartan_a2():
    assert cartan_matrix(SimpleType("A", 2)).data == ((2, -1), (-1, 2))


def test_cartan_g2():
    assert cartan_matrix(SimpleType("G", 2)).data == ((2, -1), (-3, 2))


def test_cartan_d5_fork():
    c = cartan_matrix(SimpleType("D", 5))
    assert c.data[2][3] == c.data[2][4] == -1
    assert c.data[3][4] == 0


def test_b2_c2_synonyms():
    assert SimpleType("C", 2) == SimpleType("B", 2)
    assert str(SimpleType.parse("C2")) == "B2"


@pytest.mark.parametrize("label", ["A0", "D2", "E5", "F5", "G3", "H4"])
def test_invalid_type_labels(label):
    with pytest.raises(ValueError):
        SimpleType.parse(label)


CENTER_TABLE = {
    "A": lambda n: (n + 1,),
    "B": lambda n: (2,),
    "C": lambda n: (2,),
    "D": lambda n: (4,) if n % 2 else (2, 2),
}
CENTER_EXCEPTIONAL = {"E6": (3,), "E7": (2,), "E8": (), "F4": (), "G2": ()}


@pytest.mark.parametrize("t", ALL_TYPES_RANK8, ids=str)
def test_center_structure_and_determinant(t):
    # the center characters P/Q, as the decisions build them
    g = center_invariants(based_root_datum(t), GaloisAction.trivial(t.rank))[0]
    assert _det(cartan_matrix(t).data) == g.order()
    if t.family in CENTER_TABLE:
        assert g.invariant_factors == CENTER_TABLE[t.family](t.rank)
    else:
        assert g.invariant_factors == CENTER_EXCEPTIONAL[str(t)]


@pytest.mark.parametrize(
    "label,order",
    [("A1", 1), ("A5", 2), ("B3", 1), ("C4", 1), ("D4", 6), ("D5", 2), ("E6", 2), ("E7", 1), ("F4", 1), ("G2", 1)],
)
def test_diagram_automorphism_group_orders(label, order):
    autos = diagram_automorphism_group(SimpleType.parse(label))
    assert len(autos) == order
    assert autos[0].is_identity()
    # closed under composition
    perms = {a.permutation for a in autos}
    for a in autos:
        for b in autos:
            assert a.compose(b).permutation in perms


ORACLE_TYPES = (
    [SimpleType("A", n) for n in range(1, 21)]
    + [SimpleType("B", n) for n in range(2, 11)]
    + [SimpleType("C", n) for n in range(3, 11)]
    + [SimpleType("D", n) for n in range(3, 21)]
    + [SimpleType("E", n) for n in (6, 7, 8)]
    + [SimpleType("F", 4), SimpleType("G", 2)]
)


@pytest.mark.parametrize("t", ORACLE_TYPES, ids=str)
def test_diagram_automorphism_table_equals_search(t):
    found = diagram_automorphisms_by_search(t)
    assert diagram_automorphism_group(t) == found
    # so the order table of galois_from_permutations covers every generator
    assert all(a.order() <= 3 for a in found)


def test_diagram_automorphism_table_is_immediate_at_the_rank_bound():
    import time

    t = SimpleType("A", 64)
    start = time.perf_counter()
    autos = diagram_automorphism_group(t)
    assert time.perf_counter() - start < 0.01
    assert [a.one_line() for a in autos] == [tuple(range(1, 65)), tuple(range(64, 0, -1))]


@pytest.mark.parametrize(
    "label,one_line",
    [("A1", None), ("A5", (5, 4, 3, 2, 1)), ("B3", None), ("D4", (1, 2, 4, 3)),
     ("D5", (1, 2, 3, 5, 4)), ("E6", (6, 2, 5, 4, 3, 1)), ("E7", None), ("G2", None)],
)
def test_diagram_flip_is_the_first_involution(label, one_line):
    flip = diagram_flip(SimpleType.parse(label))
    assert (flip and flip.one_line()) == one_line
    if flip is not None:
        autos = diagram_automorphism_group(SimpleType.parse(label))
        assert flip == next(a for a in autos if a.order() == 2)


def test_a5_flip_one_line():
    autos = diagram_automorphism_group(SimpleType("A", 5))
    assert autos[1].one_line() == (5, 4, 3, 2, 1)


def test_star_matrix_identity(rd_a5):
    autos = diagram_automorphism_group(rd_a5.type)
    m = star_action_matrix(rd_a5, autos[0])
    assert all(m.data[i][i] == 1 for i in range(5))


def test_star_matrix_a5_flip_fixes_middle_weight(rd_a5):
    flip = diagram_automorphism_group(rd_a5.type)[1]
    m = star_action_matrix(rd_a5, flip)
    assert apply_row((0, 0, 1, 0, 0), m) == (0, 0, 1, 0, 0)
    assert apply_row((1, 0, 0, 0, 0), m) == (0, 0, 0, 0, 1)


def test_star_matrix_d5_flip_swaps_spin_weights(rd_d5):
    flip = [a for a in diagram_automorphism_group(rd_d5.type) if not a.is_identity()][0]
    m = star_action_matrix(rd_d5, flip)
    assert apply_row((0, 0, 0, 1, 0), m) == (0, 0, 0, 0, 1)
    assert apply_row((1, 0, 0, 0, 0), m) == (1, 0, 0, 0, 0)


def test_star_matrix_pairing_covariance(rd_d5):
    rng = random.Random(11)
    flip = [a for a in diagram_automorphism_group(rd_d5.type) if not a.is_identity()][0]
    m = star_action_matrix(rd_d5, flip)
    for _ in range(30):
        chi = tuple(rng.randint(-5, 5) for _ in range(5))
        img = apply_row(chi, m)
        for i in range(1, 6):
            assert img[flip.image(i) - 1] == chi[i - 1]


def test_star_matrix_rejects_bad_permutation(rd_a5):
    from spherical_models.rootdata import DiagramAutomorphism

    bad = DiagramAutomorphism((1, 0, 2, 3, 4))  # swaps nodes 1,2 only: not a symmetry
    with pytest.raises(ValueError):
        star_action_matrix(rd_a5, bad)


# -- epsilon coordinates (an oracle: no decision reads them) --------------------


def test_epsilon_d5_simple_root(rd_d5):
    eps = epsilon_coordinates(rd_d5.type, rd_d5.simple_root(1))
    assert eps == (1, -1, 0, 0, 0)


def test_epsilon_d_spin_weight(rd_d5):
    eps = epsilon_coordinates(rd_d5.type, (0, 0, 0, 0, 1))
    assert eps == tuple(Fraction(1, 2) for _ in range(5))


def test_epsilon_b2_short_root():
    rd = based_root_datum("B2")
    assert epsilon_coordinates(rd.type, rd.simple_root(2)) == (0, 1)


@pytest.mark.parametrize("label", ["B3", "C4", "D4", "D6"])
def test_epsilon_round_trip(label):
    rd = based_root_datum(label)
    rng = random.Random(5)
    n = rd.rank
    for _ in range(25):
        v = tuple(rng.randint(-4, 4) for _ in range(n))
        eps = epsilon_coordinates(rd.type, v)
        back = weight_coordinates_from_epsilon(rd.type, eps)
        assert tuple(int(x) for x in back) == v


def test_epsilon_unsupported_type():
    with pytest.raises(ValueError):
        epsilon_coordinates(SimpleType("A", 3), (1, 0, 0))


def test_epsilon_flip_is_sign_change(rd_d5):
    # the node swap multiplies the last epsilon coordinate by -1
    rng = random.Random(2)
    flip = [a for a in diagram_automorphism_group(rd_d5.type) if not a.is_identity()][0]
    m = star_action_matrix(rd_d5, flip)
    for _ in range(20):
        v = tuple(rng.randint(-3, 3) for _ in range(5))
        e1 = epsilon_coordinates(rd_d5.type, v)
        e2 = epsilon_coordinates(rd_d5.type, apply_row(v, m))
        assert e2 == e1[:4] + (-e1[4],)


def test_epsilon_membership_is_exact(rd_d5):
    # the *4 shortcut tests M inside Q + Z omega_1: that is the epsilon lattice
    rng = random.Random(4)
    for n in range(4, 9):
        rd = based_root_datum("D%d" % n)
        q_omega1 = rd.root_lattice.sum(Lattice(n, [rd.weight_lattice.basis.data[0]]))
        for _ in range(300):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            assert q_omega1.member(v) == in_epsilon_lattice(rd.type, v), (n, v)
    # omega5 is half-integral, its double is integral
    assert not in_epsilon_lattice(rd_d5.type, (0, 0, 0, 0, 1))
    assert in_epsilon_lattice(rd_d5.type, (0, 0, 0, 0, 2))


def test_rank_bound():
    from spherical_models.rootdata import MAX_RANK

    assert MAX_RANK == 64
    for fam in ("A", "B", "C", "D"):
        assert SimpleType(fam, MAX_RANK).rank == MAX_RANK
        with pytest.raises(ValueError, match="exceeds the supported maximum 64"):
            SimpleType(fam, MAX_RANK + 1)
    with pytest.raises(ValueError, match="exceeds"):
        based_root_datum("A99999")


def test_weight_lattice_is_built_once_per_type():
    rd = based_root_datum("D5")
    assert rd.weight_lattice is based_root_datum("D5").weight_lattice
    assert rd.weight_lattice.basis.data == tuple(
        tuple(int(i == j) for j in range(5)) for i in range(5)
    )


def test_unknown_family_and_wrong_rank_automorphism_are_refused():
    with pytest.raises(ValueError, match="unknown family 'X'"):
        SimpleType("X", 3)
    with pytest.raises(ValueError, match="automorphism rank mismatch"):
        star_action_matrix(based_root_datum("A3"), diagram_automorphism_group(SimpleType("A", 2))[1])
