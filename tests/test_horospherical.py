import random
import time

import pytest

from spherical_models import (
    PADIC,
    REAL,
    GaloisAction,
    HorosphericalDatum,
    TitsClassSpec,
    all_characters,
    based_root_datum,
    decide_horospherical,
    diagram_automorphism_group,
    galois_from_permutations,
    orbit_action,
)
from spherical_models.lattice import Lattice
from spherical_models.rootdata import SimpleType
from spherical_models.spherical import aut_character_lattices
from spherical_models.cli import _build_payload
from spherical_models.decision import center_invariants, resolve_local_character


def test_validate_no_constraint_cases(rd_a2):
    # no node or no lattice: nothing to pair, so both are built
    full = [[1, 0], [0, 1]]
    assert HorosphericalDatum(rd_a2, [], full).M.rank == 2
    assert HorosphericalDatum(rd_a2, [1, 2], []).I == {1, 2}


def test_validate_pairing_violation(rd_a2, rd_a5):
    # the constructor names every node and basis row that pair nonzero
    with pytest.raises(ValueError, match=r"^invalid horospherical datum: node 1 pairs with \[1, 0\]$"):
        HorosphericalDatum(rd_a2, [1], [[1, 0]])
    with pytest.raises(ValueError) as e:
        HorosphericalDatum(rd_a5, [2, 4], [[0, 2, 0, 0, 0], [0, 0, 0, 2, 0]])
    assert str(e.value) == (
        "invalid horospherical datum: node 2 pairs with [0, 2, 0, 0, 0]; "
        "node 4 pairs with [0, 0, 0, 2, 0]"
    )


def test_validate_unknown_node(rd_a2):
    with pytest.raises(ValueError):
        HorosphericalDatum(rd_a2, [3], [])


@pytest.mark.parametrize("nodes", [[1.7], [True]])
def test_a_node_that_is_no_integer_is_refused(rd_a2, nodes):
    # int() would read either as node 1, which pairs to zero with [0, 1]
    with pytest.raises(ValueError, match="is not an integer$"):
        HorosphericalDatum(rd_a2, nodes, [[0, 1]])


def test_stable_index_two_sublattice(rd_a5, galois_a5_flip, m_2p_plus_q):
    h = HorosphericalDatum(rd_a5, [], m_2p_plus_q.basis.data)
    assert h.stable(galois_a5_flip)


def test_stable_moved_node_set(rd_a2):
    flip = diagram_automorphism_group(rd_a2.type)[1]
    g = galois_from_permutations(rd_a2, [flip])
    h = HorosphericalDatum(rd_a2, [1], [])
    assert not h.stable(g)


def test_stable_trivial_group(rd_a2):
    h = HorosphericalDatum(rd_a2, [1], [])
    assert h.stable(GaloisAction.trivial(2))


def test_to_spherical_point(rd_a2):
    h = HorosphericalDatum(rd_a2, [1, 2], [])
    d = h.to_spherical()
    assert d.colors == () and d.rank == 0


def test_to_spherical_full_quotient(rd_a5):
    # the maximal-unipotent case: one color per node, coroot functionals
    h = HorosphericalDatum(rd_a5, [], Lattice.full(5).basis.data)
    d = h.to_spherical()
    assert len(d.colors) == 5
    for i, c in enumerate(sorted(d.colors, key=lambda c: c.id), start=1):
        assert c.sigma_set == frozenset({i})
        assert c.rho == tuple(1 if j + 1 == i else 0 for j in range(5))


def test_to_spherical_index_two_sublattice(rd_a5, m_2p_plus_q):
    h = HorosphericalDatum(rd_a5, [], m_2p_plus_q.basis.data)
    d = h.to_spherical()
    assert len(d.colors) == 5
    # functionals restrict the coroots to the canonical basis of M
    for c in d.colors:
        i = next(iter(c.sigma_set))
        assert c.rho == tuple(row[i - 1] for row in m_2p_plus_q.basis.data)


def test_to_spherical_rejects_invalid(rd_a2):
    # refused when built, so to_spherical only ever sees an orthogonal M
    with pytest.raises(ValueError, match="node 1 pairs with"):
        HorosphericalDatum(rd_a2, [1], [[1, 0]]).to_spherical()


def test_to_spherical_omega_shape(rd_a5):
    rng = random.Random(4)
    for _ in range(10):
        nodes = [i for i in range(1, 6) if rng.random() < 0.4]
        rows = []
        for _ in range(3):
            v = [0] * 5
            for j in range(5):
                if (j + 1) not in nodes:
                    v[j] = rng.randint(-2, 2)
            rows.append(v)
        h = HorosphericalDatum(rd_a5, nodes, rows)
        d = h.to_spherical()
        assert all(len(ids) == 1 for ids in d.fibers.values())
        assert len(d.fibers) == len(set(range(1, 6)) - set(nodes))


def test_character_lattice_is_m(rd_a5, m_2p_plus_q):
    h = HorosphericalDatum(rd_a5, [], m_2p_plus_q.basis.data)
    xa, xa_ker = aut_character_lattices(h.to_spherical())
    assert xa.invariant_factors == (0,) * m_2p_plus_q.rank
    assert xa_ker.invariant_factors == (0,) * m_2p_plus_q.rank


def test_stability_agrees_with_orbit_invariants(rd_a5, galois_a5_flip):
    # pair stability must match invariant stability of the derived orbit datum
    rng = random.Random(12)
    flip_orbits = [(1, 5), (2, 4), (3,)]
    for _ in range(30):
        nodes = set()
        for orb in flip_orbits:
            if rng.random() < 0.4:
                nodes |= set(orb)
        rows = []
        for _ in range(rng.randint(1, 3)):
            v = [0] * 5
            for j in range(5):
                if (j + 1) not in nodes:
                    v[j] = rng.randint(-2, 2)
            for m in galois_a5_flip.matrices:
                rows.append([sum(v[i] * m.data[i][j] for i in range(5)) for j in range(5)])
        h = HorosphericalDatum(rd_a5, nodes, rows)
        assert h.stable(galois_a5_flip)
        assert orbit_action(h.to_spherical(), galois_a5_flip).unstable is None
    # and an unstable pair stays unstable through the derived datum
    h_bad = HorosphericalDatum(rd_a5, [1], [])
    assert not h_bad.stable(galois_a5_flip)
    assert orbit_action(h_bad.to_spherical(), galois_a5_flip).unstable is not None


def test_serialization_round_trip(rd_a5):
    # M = <omega_1 + omega_5, 2 omega_3> pairs to zero with the coroots of I
    h = HorosphericalDatum(rd_a5, [2, 4], [[1, 0, 0, 0, 1], [0, 0, 2, 0, 0]])
    doc = h.to_dict()
    back = _build_payload(doc, rd_a5, "horospherical", "x")
    assert back.I == h.I and back.M == h.M
    assert back.to_dict() == doc


# -- edge families: each type at its largest rank, under every diagram action --


def _diagram_actions(label):
    """(label, generators, id) for the trivial action, each nontrivial diagram
    automorphism on its own, and S3 (a 3-cycle, then a transposition) on D4."""
    autos = diagram_automorphism_group(SimpleType.parse(label))[1:]
    out = [(label, (), label + "-trivial")]
    for k, a in enumerate(autos):
        out.append((label, (a,), "%s-order%d-%d" % (label, a.order(), k)))
    cycles = [a for a in autos if a.order() == 3]
    if cycles:
        flip = next(a for a in autos if a.order() == 2)
        out.append((label, (cycles[0], flip), label + "-s3"))
    return out


EDGE_ACTIONS = [
    case
    for label in ("A64", "B64", "C64", "D64", "E6", "E7", "E8", "F4", "G2", "D4")
    for case in _diagram_actions(label)
]


def _first_valid_nonzero_character(rd, galois, mode):
    inv = center_invariants(rd, galois)[1]
    for ch in all_characters(inv)[1:]:
        spec = TitsClassSpec.from_values(ch.values)
        try:
            resolve_local_character(rd, galois, spec, mode)
        except ValueError:
            continue
        return spec
    return None


@pytest.mark.parametrize("label, gens", [c[:2] for c in EDGE_ACTIONS], ids=[c[2] for c in EDGE_ACTIONS])
def test_edge_families_decide_within_a_second_warm(label, gens):
    rd = based_root_datum(label)
    galois = galois_from_permutations(rd, list(gens))
    for mode in (REAL, PADIC):
        nonzero = _first_valid_nonzero_character(rd, galois, mode)
        specs = [TitsClassSpec.zero()] + ([nonzero] if nonzero is not None else [])
        for m in (Lattice.full(rd.rank), rd.root_lattice):
            datum = HorosphericalDatum(rd, [], m.basis.data)
            for spec in specs:
                decide_horospherical(datum, galois, spec, mode)
                start = time.process_time()
                verdict = decide_horospherical(datum, galois, spec, mode)
                assert time.process_time() - start < 1.0, (mode, m.rank, spec)
                # the root lattice has the zero center class, which every character kills
                if spec.kind == "zero" or m == rd.root_lattice:
                    assert verdict.exists, (mode, m.rank, spec)
