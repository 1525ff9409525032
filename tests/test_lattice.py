import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    group_elements,
    hom_apply,
    minor_gcd_invariant_factors,
    naive_apply_row,
    naive_product,
)
from spherical_models import based_root_datum, diagram_automorphism_group, galois_from_permutations
from spherical_models.lattice import (
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    Lattice,
    _RowSolver,
    apply_row,
    fixed_sublattice,
    group_invariants,
    hnf,
    kernel_basis,
    quotient_group,
    snf,
)
from spherical_models.rootdata import node_permutation


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
    assert quotient_group(lat, lat).rank == 0


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
    assert sorted(hom_apply(incl, e) for e in group_elements(inv)) == [(0,), (3,)]


def test_invariants_trivial_action():
    g = FgAbelianGroup(2, [[4, 0]], action=[IntMatrix.identity(2)])
    inv, _ = group_invariants(g)
    assert inv.invariant_factors == g.invariant_factors


def test_invariants_of_free_rank_one_with_negation():
    g = FgAbelianGroup(1, [], action=[IntMatrix([[-1]])])
    inv, _ = group_invariants(g)
    assert inv.rank == 0


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
    for e in group_elements(inv_mq):
        amb = apply_row(mq.lift(hom_apply(incl_mq, e)), m_2p_plus_q.basis)
        classes_2.add(incl.preimage(pq.from_ambient(amb)))
    # both describe the image of the fixed part of M in the fixed center classes
    span_a = _generated(inv, classes_1)
    span_b = _generated(inv, classes_2)
    assert span_a == span_b


def _generated(group, elements):
    zero = (0,) * group.rank
    out = {zero}
    frontier = [zero]
    gens = [e for e in elements if e is not None]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = group.reduce_reduced([x + y for x, y in zip(cur, g)])
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
        sol = _RowSolver(m).solve(v)
        assert sol is not None
        assert apply_row(sol, m) == v


def test_kernel_basis_annihilates():
    m = IntMatrix([[1, 2], [2, 4], [0, 0]])
    ker = kernel_basis(m)
    assert len(ker) == 2
    for row in ker:
        assert apply_row(row, m) == (0, 0)


# -- kernels against naive formulas -------------------------------------------


def shaped_matrix(rows, cols, lo=-6, hi=6):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@st.composite
def matrix_pairs(draw):
    """(a, b, b_cols) with a: r x k and b: k x c; any dimension may be 0."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(shaped_matrix(r, k)), draw(shaped_matrix(k, c)), k, c


@settings(max_examples=200, deadline=None)
@given(matrix_pairs())
def test_products_match_naive_formula(pair):
    a, b, k, c = pair
    ma, mb = IntMatrix(a, cols=k), IntMatrix(b, cols=c)
    prod = ma * mb
    assert (prod.rows, prod.cols) == (len(a), c)
    assert [list(r) for r in prod.data] == [list(r) for r in naive_product(a, b, c)]
    for v in a:
        assert apply_row(v, mb) == naive_apply_row(v, b, c)


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_lattice_basis_is_the_nonzero_hnf_rows(rows):
    lat = Lattice(len(rows[0]), rows)
    h, _ = hnf(IntMatrix(rows))
    assert lat.basis.data == tuple(r for r in h.data if any(r))
    for row, j in zip(lat.basis.data, lat.pivots):
        assert row[j] > 0 and not any(row[:j])


@settings(max_examples=150, deadline=None)
@given(small_matrices(), st.lists(st.integers(-8, 8), min_size=4, max_size=4), st.data())
def test_coords_of_agrees_with_solve_row(rows, v, data):
    n = len(rows[0])
    lat = Lattice(n, rows)
    coeffs = [data.draw(st.integers(-3, 3)) for _ in range(lat.rank)]
    member = apply_row(tuple(coeffs), lat.basis) if lat.rank else (0,) * n
    for w in (member, tuple(v[:n])):
        c = lat.coords_of(w)
        sol = _RowSolver(lat.basis).solve(w) if lat.rank else (() if not any(w) else None)
        # the basis rows are independent, so a solution is unique
        assert c == (None if sol is None else tuple(sol))
    assert lat.coords_of(member) == tuple(coeffs)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from([0, 2, 3, 4, 6]), min_size=1, max_size=3),
    st.lists(st.sampled_from([0, 2, 3, 4, 6]), min_size=1, max_size=3),
    st.data(),
)
def test_repeated_preimage_agrees_with_fresh_solve(src_mod, tgt_mod, data):
    source, target = (
        FgAbelianGroup(len(mod), [[d if i == j else 0 for i in range(len(mod))] for j, d in enumerate(mod)])
        for mod in (src_mod, tgt_mod)
    )
    images = []
    for d in source.invariant_factors:
        img = [data.draw(st.integers(-5, 5)) for _ in range(target.rank)]
        if d:
            # an element of order d maps into the d-torsion of the target
            img = [0 if e == 0 else x * (e // gcd(e, d)) for x, e in zip(img, target.invariant_factors)]
        images.append(target.reduce_reduced(img))
    hom = GroupHom(source, target, images)
    mod_rows = [
        [d if i == j else 0 for i in range(target.rank)]
        for j, d in enumerate(target.invariant_factors)
        if d > 0
    ]
    m = IntMatrix([list(r) for r in images] + mod_rows, cols=target.rank)
    for _ in range(4):
        x = tuple(data.draw(st.integers(-6, 6)) for _ in range(source.rank))
        for el in (hom_apply(hom, source.reduce_reduced(x)), tuple(data.draw(st.integers(-6, 6)) for _ in range(target.rank))):
            el = target.reduce_reduced(el)
            fresh = _RowSolver(m).solve(el)
            expect = None if fresh is None else source.reduce_reduced(fresh[: source.rank])
            got = hom.preimage(el)
            assert got == expect
            if got is not None:
                assert hom_apply(hom, got) == el


def _galois_cases():
    """(label, GaloisAction): trivial, Z/2, Z/3 and S3 images, D4 triality included."""
    cases = []
    for label in ("A1", "A3", "A4", "D4", "D5", "E6"):
        rd = based_root_datum(label)
        autos = diagram_automorphism_group(rd.type)
        ident = autos[0]
        cases.append((label + " trivial", galois_from_permutations(rd, [])))
        cases.append((label + " Z/2 acting trivially", galois_from_permutations(rd, [ident], "cyclic2")))
        for a in autos[1:]:
            cases.append(("%s %s" % (label, a.one_line()), galois_from_permutations(rd, [a])))
        if label == "D4":
            three = [a for a in autos if a.order() == 3][0]
            two = [a for a in autos if a.order() == 2][0]
            cases.append(("D4 S3", galois_from_permutations(rd, [three, two])))
    return cases


@pytest.mark.parametrize("label, galois", _galois_cases(), ids=lambda x: x if isinstance(x, str) else "")
def test_fixed_points_from_generators_equal_fixed_points_from_all_elements(label, galois):
    rd = based_root_datum(label.split()[0])
    gens = list(galois.generator_matrices())
    elems = list(galois.matrices)
    rng = random.Random(label)
    lattices = [Lattice.full(rd.rank), rd.root_lattice]
    for _ in range(4):
        # the sum of the orbit of a random lattice is stable
        rows = [[rng.randint(-3, 3) for _ in range(rd.rank)] for _ in range(rng.randint(1, 2))]
        lattices.append(Lattice(rd.rank, [apply_row(r, g) for r in rows for g in elems]))
    for lat in lattices:
        assert fixed_sublattice(lat, gens) == fixed_sublattice(lat, elems)
    assert fixed_sublattice(rd.rank, gens) == fixed_sublattice(rd.rank, elems)


def test_fixed_sublattice_checks_stability_under_the_generators():
    rd = based_root_datum("A3")
    flip = galois_from_permutations(rd, [diagram_automorphism_group(rd.type)[1]])
    with pytest.raises(ValueError):
        fixed_sublattice(Lattice(3, [[1, 0, 0]]), list(flip.generator_matrices()))


def test_node_permutation_returns_a_fresh_dict():
    rd = based_root_datum("A5")
    flip = galois_from_permutations(rd, [diagram_automorphism_group(rd.type)[1]])
    mat = flip.generator_matrices()[0]
    first = node_permutation(rd, mat)
    assert first == {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
    first[1] = 1
    del first[2]
    assert node_permutation(rd, mat) == {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
    assert node_permutation(rd, IntMatrix([[0, 1, 0, 0, 0]] + [[0] * 5] * 4)) is None


def _same_as_constructed(m):
    """``m`` equals, and hashes like, the matrix the public constructor builds
    from its rows: int tuples of the recorded shape."""
    fresh = IntMatrix([list(r) for r in m.data], cols=m.cols)
    assert (m.rows, m.cols) == (fresh.rows, fresh.cols)
    assert all(type(r) is tuple and all(type(x) is int for x in r) for r in m.data)
    assert m == fresh and hash(m) == hash(fresh)


@settings(max_examples=100, deadline=None)
@given(matrix_pairs())
def test_internal_results_are_plain_int_matrices(pair):
    a, b, k, c = pair
    ma, mb = IntMatrix(a, cols=k), IntMatrix(b, cols=c)
    for m in (ma * mb, *hnf(ma), *snf(ma)):
        _same_as_constructed(m)
    _same_as_constructed(Lattice(k, a).basis)


def test_identity_is_built_once_per_size():
    assert IntMatrix.identity(4) is IntMatrix.identity(4)
    _same_as_constructed(IntMatrix.identity(4))
    assert IntMatrix.identity(0).data == ()
