import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import settings

# A failing property prints a blob that @reproduce_failure replays locally.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")

sys.path.insert(0, str(Path(__file__).parent))

from spherical_models import (
    Color,
    ColoredCone,
    ColoredFan,
    GaloisAction,
    HorosphericalDatum,
    Lattice,
    SphericalDatum,
    based_root_datum,
    galois_from_permutations,
)
from spherical_models.rootdata import diagram_flip


def flip_of(rd):
    return galois_from_permutations(rd, [diagram_flip(rd.type)])


@pytest.fixture(scope="session")
def rd_a2():
    return based_root_datum("A2")


@pytest.fixture(scope="session")
def rd_a5():
    return based_root_datum("A5")


@pytest.fixture(scope="session")
def rd_d5():
    return based_root_datum("D5")


@pytest.fixture(scope="session")
def sl3_datum(rd_a2):
    """Open orbit of the quotient by a rank-2 subgroup inside rank-3 (P^3 x P^2 case)."""
    return SphericalDatum(
        rd_a2,
        basis=[[1, 0], [0, 1]],
        sigma=[(1, 1)],
        colors=[
            Color("D1", (F(1), F(0)), frozenset({1})),
            Color("D2", (F(0), F(1)), frozenset({2})),
        ],
    )


@pytest.fixture(scope="session")
def so10_datum(rd_d5):
    """The 8-dimensional quadric orbit datum: X = Z e1, one spherical root 2 e1."""
    return SphericalDatum(
        rd_d5,
        basis=[[1, 0, 0, 0, 0]],
        sigma=[(2, 0, 0, 0, 0)],
        colors=[Color("D", (F(1),), frozenset({1}))],
    )


@pytest.fixture(scope="session")
def sl6_datum(rd_a5):
    a1, a5 = rd_a5.simple_root(1), rd_a5.simple_root(5)
    return SphericalDatum(
        rd_a5,
        basis=[list(a1), [0, 0, 1, 0, 0], list(a5)],
        sigma=[tuple(a1), tuple(a5)],
        colors=[
            Color("D1+", (F(1), F(0), F(0)), frozenset({1})),
            Color("D1-", (F(1), F(0), F(0)), frozenset({1})),
            Color("D5+", (F(0), F(0), F(1)), frozenset({5})),
            Color("D5-", (F(0), F(0), F(1)), frozenset({5})),
            Color("D2", (F(-1), F(0), F(0)), frozenset({2})),
            Color("D4", (F(0), F(0), F(-1)), frozenset({4})),
        ],
    )


@pytest.fixture(scope="session")
def sl6_fan(sl6_datum):
    return ColoredFan(
        [ColoredCone(((-1, 1, -1),), frozenset({"D1+", "D5-"}))],
        sl6_datum,
    )


@pytest.fixture(scope="session")
def sl3_fan(sl3_datum):
    return ColoredFan(
        [
            ColoredCone(((1, -1), (-1, 0)), frozenset()),
            ColoredCone(((-1, 0),), frozenset({"D2"})),
        ],
        sl3_datum,
    )


@pytest.fixture(scope="session")
def m_2p_plus_q(rd_a5):
    doubled = Lattice(5, [[2 if i == j else 0 for j in range(5)] for i in range(5)])
    return doubled.sum(rd_a5.root_lattice)


@pytest.fixture(scope="session")
def galois_a5_flip(rd_a5):
    return flip_of(rd_a5)


@pytest.fixture(scope="session")
def galois_d5_flip(rd_d5):
    return flip_of(rd_d5)
