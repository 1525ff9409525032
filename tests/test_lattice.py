import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import minor_gcd_invariant_factors
from spherical_models import (
    FgAbelianGroup,
    IntMatrix,
    Lattice,
    based_root_datum,
    fixed_sublattice,
    group_invariants,
    hnf,
    quotient_group,
    snf,
)
from spherical_models.lattice import apply_row, kernel_basis, solve_row


def small_matrices(max_dim=4, lo=-5, hi=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(lo, hi), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


# -- Hermite normal form ------------------------------------------------------


def test_hnf_identity():
    i3 = IntMatrix.identity(3)
    h, u = hnf(i3)
    assert h == i3 and u == i3


def test_hnf_gcd_pivot():
    # rows (4) and (6) generate 2Z: the canonical basis has the gcd pivot
    h, u = hnf(IntMatrix([[4], [6]]))
    assert h.data == ((2,), (0,))
    assert (u * IntMatrix([[4], [6]])) == h


def test_hnf_already_diagonal():
    m = IntMatrix([[2, 0], [0, 3]])
    h, _ = hnf(m)
    assert h == m


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_hnf_transform_and_row_space(rows):
    m = IntMatrix(rows)
    h, u = hnf(m)
    assert u * m == h
    # row spaces agree: mutual membership
    lat_m = Lattice(m.cols, rows)
    lat_h = Lattice(m.cols, h.data)
    assert lat_m == lat_h


@settings(max_examples=100, deadline=None)
@given(small_matrices())
def test_hnf_idempotent(rows):
    h1, _ = hnf(IntMatrix(rows))
    h2, _ = hnf(h1)
    assert h1 == h2


# -- Smith normal form --------------------------------------------------------


def test_snf_cartan_a2():
    d, p, q = snf(based_root_datum("A2").cartan)
    assert [d.data[i][i] for i in range(2)] == [1, 3]


def test_snf_cartan_d4():
    c = based_root_datum("D4").cartan
    d, p, q = snf(c)
    assert [d.data[i][i] for i in range(4)] == [1, 1, 2, 2]
    assert p * c * q == d


def test_snf_zero_matrix():
    d, _, _ = snf(IntMatrix.zero(2, 2))
    assert d.data == ((0, 0), (0, 0))


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_snf_against_minor_gcd_oracle(rows):
    m = IntMatrix(rows)
    d, p, q = snf(m)
    assert p * m * q == d
    diag = [d.data[i][i] for i in range(min(m.rows, m.cols))]
    nonzero = [x for x in diag if x]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert nonzero == minor_gcd_invariant_factors(rows)


# -- membership ---------------------------------------------------------------


def test_membership_zero_vector(rd_a2):
    assert rd_a2.root_lattice.member((0, 0))


def test_membership_root_sum_in_root_lattice(rd_a2):
    a1 = rd_a2.simple_root(1)
    a2 = rd_a2.simple_root(2)
    s = tuple(x + y for x, y in zip(a1, a2))
    assert rd_a2.root_lattice.member(s)


def test_membership_fundamental_weight_not_in_root_lattice(rd_a2):
    # oracle: search integer combinations x*a1 + y*a2 = omega1 directly
    a1, a2 = rd_a2.simple_root(1), rd_a2.simple_root(2)
    found = any(
        (x * a1[0] + y * a2[0], x * a1[1] + y * a2[1]) == (1, 0)
        for x in range(-9, 10)
        for y in range(-9, 10)
    )
    assert not found
    assert not rd_a2.root_lattice.member((1, 0))


def test_membership_dimension_mismatch(rd_a2):
    with pytest.raises(ValueError):
        rd_a2.root_lattice.member((1, 0, 0))


# -- fixed sublattices --------------------------------------------------------


def test_fixed_sublattice_trivial_action():
    lat = Lattice(3, [[1, 0, 0], [0, 2, 0]])
    assert fixed_sublattice(lat, []) == lat


def test_fixed_sublattice_a5_flip(galois_a5_flip):
    fix = fixed_sublattice(5, list(galois_a5_flip.matrices))
    expect = Lattice(5, [[1, 0, 0, 0, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 0]])
    assert fix == expect


def test_fixed_part_of_index_two_sublattice(rd_a5, galois_a5_flip, m_2p_plus_q):
    mats = list(galois_a5_flip.matrices)
    m_fix = fixed_sublattice(m_2p_plus_q, mats)
    q_fix = fixed_sublattice(rd_a5.root_lattice, mats)
    assert m_fix == q_fix


def test_fixed_sublattice_rejects_unstable():
    lat = Lattice(2, [[1, 0]])
    swap = IntMatrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        fixed_sublattice(lat, [swap])


def test_fixed_sublattice_pointwise_fixed_and_saturated():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 4)
        perm = list(range(n))
        rng.shuffle(perm)
        mat = IntMatrix([[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)])
        fix = fixed_sublattice(n, [mat])
        for row in fix.basis.data:
            assert apply_row(row, mat) == row
        # saturation: any fixed integer vector is a member
        for _ in range(20):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if apply_row(v, mat) == v:
                assert fix.member(v)


# -- quotients and invariants -------------------------------------------------


def test_quotient_center_a5(rd_a5):
    g = quotient_group(rd_a5.weight_lattice, rd_a5.root_lattice)
    assert g.invariant_factors == (6,)


def test_quotient_by_spherical_root_span_is_free(rd_a2):
    span = Lattice(2, [[1, 1]])
    g = quotient_group(rd_a2.weight_lattice, span)
    assert g.invariant_factors == (0,)


def test_quotient_self_trivial():
    lat = Lattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert quotient_group(lat, lat).is_trivial()


def test_quotient_rejects_non_sublattice():
    big = Lattice(2, [[2, 0], [0, 2]])
    with pytest.raises(ValueError):
        quotient_group(big, Lattice(2, [[1, 0]]))


def test_invariants_of_center_under_flip(rd_a5, galois_a5_flip):
    pq = quotient_group(
        rd_a5.weight_lattice, rd_a5.root_lattice, action=list(galois_a5_flip.matrices)
    )
    inv, incl = group_invariants(pq)
    assert inv.invariant_factors == (2,)
    assert sorted(incl.apply(e) for e in inv.elements()) == [(0,), (3,)]


def test_invariants_trivial_action():
    g = FgAbelianGroup(2, [[4, 0]], action=[IntMatrix.identity(2)])
    inv, _ = group_invariants(g)
    assert inv.invariant_factors == g.invariant_factors


def test_invariants_of_free_rank_one_with_negation():
    g = FgAbelianGroup(1, [], action=[IntMatrix([[-1]])])
    inv, _ = group_invariants(g)
    assert inv.is_trivial()


def test_invariants_quotient_composition_consistency(rd_a5, galois_a5_flip, m_2p_plus_q):
    # image of M^G in (P/Q)^G computed two ways must agree
    mats = list(galois_a5_flip.matrices)
    pq = quotient_group(rd_a5.weight_lattice, rd_a5.root_lattice, action=mats)
    inv, incl = group_invariants(pq)
    # way 1: fixed sublattice first, then classes
    m_fix = fixed_sublattice(m_2p_plus_q, mats)
    classes_1 = {incl.preimage(pq.from_ambient(r)) for r in m_fix.basis.data}
    # way 2: quotient M/Q with action, invariants, then map into P/Q
    mq = quotient_group(m_2p_plus_q, rd_a5.root_lattice, action=mats)
    inv_mq, incl_mq = group_invariants(mq)
    classes_2 = set()
    for e in inv_mq.elements():
        amb = apply_row(mq.lift(incl_mq.apply(e)), m_2p_plus_q.basis)
        classes_2.add(incl.preimage(pq.from_ambient(amb)))
    # both describe the image of the fixed part of M in the fixed center classes
    span_a = _generated(inv, classes_1)
    span_b = _generated(inv, classes_2)
    assert span_a == span_b


def _generated(group, elements):
    out = {group.zero()}
    frontier = [group.zero()]
    gens = [e for e in elements if e is not None]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = group.add(cur, g)
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return out


# -- solve/kernel helpers -----------------------------------------------------


def test_solve_row_roundtrip():
    rng = random.Random(3)
    for _ in range(30):
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        m = IntMatrix(rows)
        x = tuple(rng.randint(-3, 3) for _ in range(3))
        v = apply_row(x, m)
        sol = solve_row(m, v)
        assert sol is not None
        assert apply_row(sol, m) == v


def test_kernel_basis_annihilates():
    m = IntMatrix([[1, 2], [2, 4], [0, 0]])
    ker = kernel_basis(m)
    assert len(ker) == 2
    for row in ker:
        assert apply_row(row, m) == (0, 0)
