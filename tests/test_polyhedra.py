import random
import sys
import time
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    cone_member,
    feasible,
    fm_extreme_rays,
    fm_relative_interior_point_satisfies,
    fraction_cone_member,
    fraction_extreme_rays,
    fraction_feasible,
    fraction_rank,
    fraction_relative_interior_point_satisfies,
)

from spherical_models import polyhedra
from spherical_models.polyhedra import (
    extreme_rays,
    primitive,
    relative_interior_point_satisfies,
)


def test_primitive_scaling():
    assert primitive((-4, 6)) == (-2, 3)
    assert primitive((6, 9)) == (2, 3)
    assert primitive((0, 0)) == (0, 0)


def test_feasible_basic():
    # x >= 1 and -x >= 0 cannot hold
    assert not feasible(1, ge=[((1,), 1), ((-1,), 0)])
    # x > 0 and x < 1 can
    assert feasible(1, gt=[((1,), 0)], ge=[((-1,), -1)])
    # equality pinning: x + y = 1, x >= 1, y >= 1 infeasible
    assert not feasible(2, eqs=[((1, 1), 1)], ge=[((1, 0), 1), ((0, 1), 1)])
    assert feasible(2, eqs=[((1, 1), 2)], ge=[((1, 0), 1), ((0, 1), 1)])
    # strictness survives elimination: x > y and y >= x combine to 0 > 0
    assert not feasible(2, gt=[((1, -1), 0)], ge=[((-1, 1), 0)])
    assert feasible(2, ge=[((1, -1), 0), ((-1, 1), 0)])
    assert not feasible(2, eqs=[((1, 1), 0)], gt=[((1, 0), 0), ((0, 1), 0)])


def test_cone_membership_random_nonnegative_combinations():
    rng = random.Random(17)
    for _ in range(40):
        d = rng.randint(2, 4)
        m = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(m)]
        coeffs = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(m)]
        point = tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(d))
        assert cone_member(point, gens)


def test_cone_membership_separated_point():
    rng = random.Random(23)
    for _ in range(40):
        d = rng.randint(2, 4)
        # generators in the open upper half-space, candidate below it
        gens = [
            tuple([rng.randint(-3, 3) for _ in range(d - 1)] + [rng.randint(1, 3)])
            for _ in range(rng.randint(1, 4))
        ]
        point = tuple([rng.randint(-3, 3) for _ in range(d - 1)] + [-rng.randint(1, 3)])
        assert not cone_member(point, gens)


def test_strict_convexity_vs_line_detection():
    # a cone of nonzero generators holds a line iff the negative of some
    # generator lies in it; extreme_rays refuses exactly those cones, and
    # on the others some functional is positive on every generator
    rng = random.Random(31)
    for _ in range(30):
        d = rng.randint(2, 4)
        gens = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, 4))]
        nonzero = [g for g in gens if any(g)]
        if any(cone_member(tuple(-x for x in g), nonzero) for g in nonzero):
            with pytest.raises(ValueError, match="^cone is not strictly convex$"):
                extreme_rays(gens)
        else:
            assert set(extreme_rays(gens)) <= {primitive(g) for g in nonzero}
            assert feasible(d, ge=[(g, 1) for g in nonzero])


def test_extreme_rays_reconstruct_cone():
    rng = random.Random(41)
    for _ in range(25):
        d = rng.randint(2, 3)
        gens = []
        while len(gens) < 3:
            g = tuple([rng.randint(-2, 2) for _ in range(d - 1)] + [rng.randint(1, 2)])
            gens.append(g)
        rays = extreme_rays(gens)
        # same cone both ways
        for g in gens:
            assert cone_member(g, rays)
        for r in rays:
            assert cone_member(r, gens)
        # no extreme ray is redundant
        for r in rays:
            others = [x for x in rays if x != r]
            if others:
                assert not cone_member(r, others)


def test_dimension_cap():
    # nine unit vectors and their sum span no simplicial cone in dimension 9
    gens = [tuple(1 if i == j else 0 for i in range(9)) for j in range(9)]
    with pytest.raises(ValueError, match="^dimension 9 exceeds the supported cap 8$"):
        extreme_rays(gens + [(1,) * 9])


def test_relative_interior_empty_cone():
    assert relative_interior_point_satisfies([], [(1, 1)])
    assert relative_interior_point_satisfies([], [])


# -- double description against the two Fourier-Motzkin oracles --------------

entries = st.one_of(
    st.integers(-3, 3),
    st.builds(F, st.integers(-4, 4), st.integers(1, 3)),
)


def vectors(d):
    return st.lists(entries, min_size=d, max_size=d).map(tuple)


def integral(vec):
    """A rational vector times the lcm of its denominators: the same ray, in
    integers, which is what the engine reads (see ColoredCone)."""
    den = lcm(*(F(x).denominator for x in vec))
    return tuple(int(x * den) for x in vec)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 4))
    # homogeneous rows are where strictness decides the answer
    row = st.tuples(vectors(n), st.one_of(st.just(0), entries))
    total = draw(st.integers(0, 7))
    n_eq = draw(st.integers(0, total))
    n_ge = draw(st.integers(0, total - n_eq))
    rows = draw(st.lists(row, min_size=total, max_size=total))
    return n, rows[:n_eq], rows[n_eq : n_eq + n_ge], rows[n_eq + n_ge :]


@st.composite
def cones(draw):
    """Up to 9 generators in dimension <= 6: at most d + 1 drawn freely, the
    rest zero, collinear with, opposite to or a combination of those; all of
    them optionally inside a random proper subspace."""
    d = draw(st.integers(1, 6))
    m = draw(st.integers(0, 9))
    free = draw(st.lists(vectors(d), max_size=min(m, d + 1)))
    derived = st.one_of(
        st.just((0,) * d),
        st.tuples(st.sampled_from(free), st.integers(1, 3)).map(lambda t: tuple(t[1] * x for x in t[0])),
        st.sampled_from(free).map(lambda g: tuple(-x for x in g)),
        st.tuples(st.sampled_from(free), st.sampled_from(free), st.integers(0, 2), st.integers(0, 2)).map(
            lambda t: tuple(t[2] * x + t[3] * y for x, y in zip(t[0], t[1]))
        ),
    ) if free else st.just((0,) * d)
    gens = free + draw(st.lists(derived, min_size=m - len(free), max_size=m - len(free)))
    if d > 1 and draw(st.booleans()):
        span = draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=1, max_size=d - 1))
        gens = [tuple(sum(c * row[j] for c, row in zip(g, span)) for j in range(d)) for g in gens]
    return d, draw(st.permutations(gens))


@settings(max_examples=200, deadline=None)
@given(systems())
def test_feasible_matches_fraction_oracle(system):
    n, eqs, ge, gt = system
    assert feasible(n, eqs=eqs, ge=ge, gt=gt) == fraction_feasible(n, eqs=eqs, ge=ge, gt=gt)


@settings(max_examples=100, deadline=None)
@given(cones(), st.data())
def test_cone_member_matches_fraction_oracle(cone, data):
    d, gens = cone
    v = data.draw(vectors(d))
    assert cone_member(v, gens) == fraction_cone_member(v, gens)


CONE_EXAMPLES = 100


def extreme_rays_property(examples):
    """Double description against both oracles, on ``examples`` cones."""

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(cones())
    # a pointed cone on which Fourier-Motzkin for a functional positive on
    # every generator ran for seconds
    @example(
        (6, [(-1, 3, 3, -3, 1, -2), (1, -1, 2, -2, -2, -1), (0, -1, -3, 3, -2, -3), (2, 1, 1, -2, 1, 0),
             (0, 2, 0, 1, 3, 0), (-2, 0, -3, 2, 3, 2), (4, 2, 2, -4, 2, 0), (-2, 3, 2, 2, 2, -2), (-3, 2, 2, -1, 0, -2)])
    )
    # one generator beyond a basis of the space
    @example((2, [(1, 0), (0, 1), (1, 1)]))
    # a plane in 3-space with four generators, whose elimination keeps a
    # negative pivot
    @example((3, [(0, -2, 2), (1, 0, 1), (1, -1, 2), (2, -1, 3)]))
    # a cone that is not pointed
    @example((2, [(1, 0), (0, 1), (-1, -1)]))
    def check(cone):
        _, gens = cone
        expected = fraction_extreme_rays(gens)
        assert fm_extreme_rays(gens) == expected
        if expected is None:
            with pytest.raises(ValueError, match="^cone is not strictly convex$"):
                extreme_rays(list(map(integral, gens)))
        else:
            assert extreme_rays(list(map(integral, gens))) == expected

    return check


test_extreme_rays_match_fraction_oracle = extreme_rays_property(CONE_EXAMPLES)


@settings(max_examples=100, deadline=None)
@given(cones(), st.data())
def test_relative_interior_matches_fraction_oracle(cone, data):
    d, rays = cone
    inequalities = data.draw(st.lists(vectors(d), max_size=3))
    got = relative_interior_point_satisfies(list(map(integral, rays)), list(map(integral, inequalities)))
    assert got == fraction_relative_interior_point_satisfies(rays, inequalities)
    assert got == fm_relative_interior_point_satisfies(rays, inequalities)


# -- simplicial cones: a rank test instead of double description -------------


@st.composite
def independent_generators(draw):
    """Linearly independent integer rows (dimension <= 6), shuffled together
    with positive multiples of some of them and, optionally, negated copies."""
    d = draw(st.integers(1, 6))
    k = draw(st.integers(0, d))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=k, max_size=k))
    assume(fraction_rank(rows) == k)
    gens = [tuple(r) for r in rows]
    for r in rows:
        for scale in draw(st.lists(st.integers(1, 3), max_size=2)):
            gens.append(tuple(scale * x for x in r))
    negate = draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []
    gens += [tuple(-x for x in r) for r in negate]
    return draw(st.permutations(gens)), bool(negate)


@settings(max_examples=150, deadline=None)
@given(independent_generators())
def test_extreme_rays_of_independent_generators_match_fraction_oracle(case):
    gens, negated = case
    expected = fraction_extreme_rays(gens)
    assert (expected is None) == negated
    if expected is None:
        with pytest.raises(ValueError):
            extreme_rays(gens)
    else:
        assert extreme_rays(gens) == expected


@settings(max_examples=100, deadline=None)
@given(independent_generators())
def test_simplicial_cones_skip_elimination(case):
    gens, negated = case
    assume(not negated)

    def refuse(*args, **kwargs):
        raise AssertionError("a simplicial cone reached double description")

    saved = polyhedra._dd_step
    polyhedra._dd_step = refuse
    try:
        rays = extreme_rays(gens)
    finally:
        polyhedra._dd_step = saved
    assert rays == tuple(sorted({primitive(g) for g in gens}))


def test_independent_generators_beyond_the_cap_need_no_elimination():
    # nine unit vectors in dimension 9 form a simplicial cone
    gens = [tuple(1 if i == j else 0 for i in range(9)) for j in range(9)]
    assert extreme_rays(gens) == tuple(sorted(gens))


# -- edge cones: known answers and seeded random cones at the dimension cap --


def _moment_curve_cone(points, dim, total, seed):
    """Moment-curve points (1, t, ..., t^(dim-1)), t = 1..points, shuffled
    with positive combinations of two of them up to ``total`` generators."""
    rng = random.Random(seed)
    curve = [tuple(t**i for i in range(dim)) for t in range(1, points + 1)]
    gens = list(curve)
    while len(gens) < total:
        (a, b), u, w = rng.sample(curve, 2), rng.randint(1, 3), rng.randint(1, 3)
        gens.append(tuple(u * x + w * y for x, y in zip(a, b)))
    rng.shuffle(gens)
    return curve, gens


@pytest.mark.parametrize("points,dim,total", [(8, 5, 12), (12, 6, 16), (16, 8, 24), (20, 8, 24)])
def test_moment_curve_cones_have_the_curve_points_as_extreme_rays(points, dim, total):
    # every point of the moment curve spans an extreme ray of the cone over
    # the curve points (the cyclic polytope), and the combinations do not
    curve, gens = _moment_curve_cone(points, dim, total, seed=points)
    start = time.process_time()
    rays = extreme_rays(gens)
    assert time.process_time() - start < 1.0
    assert rays == tuple(sorted(curve))


@pytest.mark.parametrize("seed", range(4))
def test_random_pointed_cones_at_the_dimension_cap(seed):
    rng = random.Random(seed)
    gens = [tuple([rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(7)]) for _ in range(24)]
    start = time.process_time()
    rays = extreme_rays(gens)
    assert time.process_time() - start < 1.0
    assert set(rays) <= {primitive(g) for g in gens}
    # the answer depends neither on the order nor on the scale of the generators
    rng.shuffle(gens)
    scaled = [tuple(c * x for x in g) for c, g in zip(rng.choices(range(1, 4), k=len(gens)), gens)]
    assert extreme_rays(scaled) == rays
    # every generator that is not extreme is dropped again beside the extreme rays
    assert extreme_rays(list(rays) + gens[:4]) == rays


if __name__ == "__main__":
    extreme_rays_property(int(sys.argv[1]) if len(sys.argv) > 1 else 2000)()
    print("ok")
