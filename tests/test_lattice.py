import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    fixed_sublattice_by_ambient,
    solve_rows,
    group_invariants,
    minor_gcd_invariant_factors,
    naive_apply_row,
    naive_product,
    quotient_with_action,
    reduce_reduced,
)
from spherical_models import (
    GaloisAction,
    based_root_datum,
    diagram_automorphism_group,
    galois_from_permutations,
)
from spherical_models.decision import LocalCharacter, center_invariants
from spherical_models.galoismodule import BrCharacter
from spherical_models.lattice import (
    FgAbelianGroup,
    IntMatrix,
    Lattice,
    _RowSolver,
    _unimodular_inverse,
    apply_row,
    fixed_sublattice,
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
    d, _, _ = snf(IntMatrix([[0, 0], [0, 0]]))
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


@pytest.mark.parametrize("rows", [[[1.5, 0]], [[2.0, 0]], [[0, True]]])
def test_lattice_refuses_a_float_or_a_bool(rows):
    # int() would truncate 1.5 and read 2.0 and True as integers
    with pytest.raises(ValueError, match="is not an integer$"):
        Lattice(2, rows)


@pytest.mark.parametrize("data", [[[1.9, 1]], [[1, True]]])
def test_int_matrix_refuses_a_float_or_a_bool(data):
    with pytest.raises(ValueError, match="is not an integer$"):
        IntMatrix(data)


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
    mats = list(galois_a5_flip.matrices)
    fixed = fixed_sublattice(rd_a5.weight_lattice, mats, rd_a5.root_lattice)
    inv = quotient_group(fixed, rd_a5.root_lattice)
    pq = quotient_group(rd_a5.weight_lattice, rd_a5.root_lattice)
    assert inv.invariant_factors == (2,)
    # the fixed classes of P/Q = Z/6 are 0 and 3
    assert sorted({pq.from_ambient(r) for r in fixed.basis.data}) == [(0,), (3,)]


def test_invariants_trivial_action():
    sub = Lattice(2, [[4, 0]])
    fixed = fixed_sublattice(2, [IntMatrix.identity(2)], sub)
    assert fixed == Lattice.full(2)
    assert quotient_group(fixed, sub).invariant_factors == quotient_group(Lattice.full(2), sub).invariant_factors


def test_invariants_of_free_rank_one_with_negation():
    fixed = fixed_sublattice(1, [IntMatrix([[-1]])], Lattice(1))
    assert quotient_group(fixed, Lattice(1)).rank == 0


def test_invariants_quotient_composition_consistency(rd_a5, galois_a5_flip, m_2p_plus_q):
    # image of M^G in (P/Q)^G computed two ways must agree
    mats = list(galois_a5_flip.matrices)
    mod, inv, fixed = center_invariants(rd_a5, galois_a5_flip)
    local = LocalCharacter(mod, inv, fixed, BrCharacter.zero(inv))
    # way 1: fixed sublattice first, then classes
    m_fix = fixed_sublattice(m_2p_plus_q, mats)
    classes_1 = {local.class_of(r) for r in m_fix.basis.data}
    # way 2: the points of M fixed modulo Q, then classes
    m_fix_mod_q = fixed_sublattice(m_2p_plus_q, mats, rd_a5.root_lattice)
    classes_2 = {local.class_of(r) for r in m_fix_mod_q.basis.data}
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
            nxt = reduce_reduced(group, [x + y for x, y in zip(cur, g)])
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return out


# -- solve/kernel helpers -----------------------------------------------------


def test_solve_row_roundtrip():
    # the reader of the rows of m, which may be dependent, and the oracle
    # find a solution of x @ m = v exactly for the same v
    rng = random.Random(3)
    for _ in range(30):
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        m = IntMatrix(rows)
        x = tuple(rng.randint(-3, 3) for _ in range(3))
        for v in (apply_row(x, m), tuple(rng.randint(-9, 9) for _ in range(3))):
            sol, oracle = _RowSolver(m).coords_of(v), solve_rows(m, v)
            assert (sol is None) == (oracle is None)
            if sol is not None:
                assert apply_row(sol, m) == apply_row(oracle, m) == v
        assert _RowSolver(m).coords_of(apply_row(x, m)) is not None


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
        # the basis rows are independent, so a solution is unique
        assert lat.coords_of(w) == _RowSolver(lat.basis).coords_of(w) == solve_rows(lat.basis, w)
    assert lat.coords_of(member) == tuple(coeffs)


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


def test_fixed_sublattice_modulo_checks_stability_of_the_relations():
    swap = IntMatrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="does not stabilize the subgroup of relations"):
        fixed_sublattice(Lattice.full(2), [swap], Lattice(2, [(2, 0)]))


def assert_fixed_classes(lattice, mats, modulo, fixed):
    """``fixed`` is the preimage in ``lattice`` of the classes of lattice/modulo
    that the oracle group route finds fixed under ``mats``, and
    fixed/modulo has the invariant factors of the oracle's fixed subgroup."""
    group = quotient_with_action(lattice, modulo, mats)
    inv, incl = group_invariants(group)
    assert all(lattice.coords_of(row) is not None for row in fixed.basis.data)
    assert fixed.contains(modulo)
    assert quotient_group(fixed, modulo).invariant_factors == inv.invariant_factors
    # every fixed class lifts into ``fixed`` ...
    for img in incl.images:
        assert fixed.member(apply_row(group.lift(img), lattice.basis))
    # ... and every point of ``fixed`` has a fixed class: the two sets of
    # classes are the same subgroup of lattice/modulo
    for row in fixed.basis.data:
        assert incl.preimage(group.from_ambient(lattice.coords_of(row))) is not None


def _permutation_matrix(perm, sign=1):
    """The matrix sending e_i to sign * e_perm[i]."""
    n = len(perm)
    return IntMatrix([[sign if j == perm[i] else 0 for j in range(n)] for i in range(n)])


# beyond root data: cyclic and S3 actions by permutations of coordinates,
# and one by signed permutations
_PERMUTATION_CASES = [
    ("swap", GaloisAction("cyclic2", [_permutation_matrix([1, 0])])),
    ("negated swap", GaloisAction("cyclic2", [_permutation_matrix([1, 0], -1)])),
    ("swap fixing one", GaloisAction("cyclic2", [_permutation_matrix([1, 0, 2])])),
    ("two swaps", GaloisAction("cyclic2", [_permutation_matrix([1, 0, 3, 2])])),
    ("3-cycle", GaloisAction("cyclic3", [_permutation_matrix([1, 2, 0])])),
    ("3-cycle fixing one", GaloisAction("cyclic3", [_permutation_matrix([1, 2, 0, 3])])),
    ("S3", GaloisAction("s3", [_permutation_matrix([1, 2, 0]), _permutation_matrix([1, 0, 2])])),
    ("S3 fixing one", GaloisAction("s3", [_permutation_matrix([1, 2, 0, 3]), _permutation_matrix([1, 0, 2, 3])])),
]
_SMALL_GALOIS_CASES = [case for case in _galois_cases() if case[1].n <= 4]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_fixed_sublattice_modulo_matches_the_fixed_classes_of_the_quotient(data):
    cases = st.sampled_from(_SMALL_GALOIS_CASES) | st.sampled_from(_PERMUTATION_CASES)
    _, galois = data.draw(cases)
    n, elems = galois.n, list(galois.matrices)
    vectors = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    # the sum of the orbit of a lattice is stable; so is that of multiples
    # of its points, which lie inside it
    rows = data.draw(st.lists(vectors, min_size=1, max_size=3))
    lattice = Lattice(n, [apply_row(r, g) for r in rows for g in elems])
    coeffs = st.lists(st.integers(-2, 2), min_size=lattice.rank, max_size=lattice.rank)
    scale = data.draw(st.integers(1, 3))
    sub = [apply_row(c, lattice.basis) for c in data.draw(st.lists(coeffs, max_size=2))]
    modulo = Lattice(n, [[scale * x for x in apply_row(r, g)] for r in sub for g in elems])
    fixed = fixed_sublattice(lattice, list(galois.generator_matrices()), modulo)
    assert_fixed_classes(lattice, elems, modulo, fixed)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_fixed_sublattice_is_the_ambient_route(data):
    """Fixed points read from the coordinates of the action in the lattice's
    basis are those read from the ambient matrices, also modulo a stable
    lattice that need not lie inside the lattice."""
    cases = st.sampled_from(_SMALL_GALOIS_CASES) | st.sampled_from(_PERMUTATION_CASES)
    _, galois = data.draw(cases)
    n, elems, gens = galois.n, list(galois.matrices), list(galois.generator_matrices())
    vectors = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    lattice = Lattice(n, [apply_row(r, g) for r in data.draw(st.lists(vectors, min_size=1, max_size=3)) for g in elems])
    modulo = Lattice(n, [apply_row(r, g) for r in data.draw(st.lists(vectors, max_size=2)) for g in elems])
    assert fixed_sublattice(lattice, gens) == fixed_sublattice_by_ambient(lattice, gens)
    assert fixed_sublattice(lattice, gens, modulo) == fixed_sublattice_by_ambient(lattice, gens, modulo)


def test_fixed_classes_under_s3_need_both_generators():
    # S3 permuting the coordinates of ZZ^3, modulo the span S of the orbit
    # of (-2, 1, 1): the 3-cycle alone fixes the classes of Z/3 + Z, the
    # whole group those of Z
    galois = dict(_PERMUTATION_CASES)["S3"]
    sub = Lattice(3, [apply_row((-2, 1, 1), m) for m in galois.matrices])
    fixed = fixed_sublattice(3, list(galois.generator_matrices()), sub)
    assert fixed == Lattice(3, [(1, 1, 1), (0, 3, 0), (0, 0, 3)])
    assert quotient_group(fixed, sub).invariant_factors == (0,)
    by_rotation = fixed_sublattice(3, list(galois.generator_matrices())[:1], sub)
    assert quotient_group(by_rotation, sub).invariant_factors == (3, 0)
    assert_fixed_classes(Lattice.full(3), list(galois.matrices), sub, fixed)


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


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: IntMatrix([[1, 0]]) * IntMatrix([[1, 0]]), "shape mismatch"),
        (lambda: apply_row((1,), IntMatrix.identity(2)), "dimension mismatch"),
        (lambda: Lattice.full(2).sum(Lattice.full(3)), "ambient mismatch"),
        (lambda: fixed_sublattice(2, [IntMatrix.identity(3)]), "action matrix has wrong size"),
        (lambda: FgAbelianGroup(2, [[1, 2, 3]]), "relation width != generator count"),
        (lambda: FgAbelianGroup(2, [[2, 0]]).from_ambient((1,)), "dimension mismatch"),
        (lambda: _unimodular_inverse(IntMatrix([[2]])), "matrix is not unimodular"),
    ],
    ids=["product", "apply-row", "sum", "fixed-sublattice", "relations", "from-ambient", "unimodular"],
)
def test_shape_and_unimodularity_refusals(build, match):
    with pytest.raises(ValueError, match=match):
        build()
