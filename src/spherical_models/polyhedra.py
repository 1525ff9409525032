"""Exact rational polyhedral feasibility at desk scale.

Fraction-free integer Fourier-Motzkin elimination.  Each constraint is
scaled once to an integer row; equalities are removed by fraction-free
Gaussian elimination and inequalities by Fourier-Motzkin on rows of content
1, so every intermediate number is a Python int and no rational is ever
normalized.  Everything here is a helper for cone questions in dimension
<= 8: membership of a vector in a finitely generated cone, strict
convexity, extreme-ray filtering, and "relative interior meets a
half-space system" tests.  Inputs may be ints or Fractions.  No floats,
ever.

A simplicial cone skips elimination altogether: when the distinct
primitive generators are linearly independent (an exact rank test by
fraction-free Gaussian elimination), the cone is pointed and every
generator spans an extreme ray.
"""

from __future__ import annotations

from math import gcd, lcm

DIM_CAP = 8


def _integer_row(values):
    """A rational row times the lcm of its denominators, as a list of ints."""
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values]


def _add_row(system, coeffs, rhs, strict):
    """Add coeffs.x >= rhs (> if strict), scaled to content 1.

    A row without variables is decided on the spot and not added; the
    result is False exactly when such a row fails.
    """
    if not any(coeffs):
        return rhs < 0 or (rhs == 0 and not strict)
    g = gcd(*coeffs, rhs)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        rhs //= g
    system.add((coeffs, rhs, strict))
    return True


def _pivot_out(row, pivot_row, p, col):
    """p * row - row[col] * pivot_row (p > 0), which clears column col."""
    f = row[col]
    return [p * x - f * y for x, y in zip(row, pivot_row)]


def feasible(n, eqs=(), ge=(), gt=()):
    """Is there a rational x in QQ^n with a.x = b, a.x >= b, a.x > b as given?

    Constraints are (coeff_tuple, rhs) pairs with int or Fraction entries.
    Equalities are eliminated first by fraction-free Gaussian elimination
    with a positive pivot, so substituting into an inequality never flips
    it; then Fourier-Motzkin eliminates one variable at a time, and
    strictness propagates through combinations.
    """
    eqs = [_integer_row((*a, b)) for a, b in eqs]
    rows = [(_integer_row((*a, b)), False) for a, b in ge]
    rows += [(_integer_row((*a, b)), True) for a, b in gt]

    pivot_cols = set()
    for e, eq in enumerate(eqs):
        # earlier pivots were cleared from this row, so any nonzero entry
        # is a new pivot column
        col = next((j for j in range(n) if eq[j]), None)
        if col is None:
            if eq[n]:
                return False
            continue
        if eq[col] < 0:
            eq = [-x for x in eq]
        p = eq[col]
        pivot_cols.add(col)
        for e2 in range(e + 1, len(eqs)):
            if eqs[e2][col]:
                eqs[e2] = _pivot_out(eqs[e2], eq, p, col)
        rows = [(_pivot_out(r, eq, p, col) if r[col] else r, s) for r, s in rows]

    live = [j for j in range(n) if j not in pivot_cols]
    system = set()
    for r, s in rows:
        if not _add_row(system, tuple(r[j] for j in live), r[n], s):
            return False

    for _ in live:
        pos, neg = [], []
        reduced = set()
        for coeffs, r, s in system:
            c = coeffs[0]
            if c > 0:
                pos.append((coeffs, r, s))
            elif c < 0:
                neg.append((coeffs, r, s))
            else:
                reduced.add((coeffs[1:], r, s))
        for cp, rp, sp in pos:
            for cn, rn, sn in neg:
                # eliminate: combine with weights |cn[0]| and cp[0]
                w1, w2 = -cn[0], cp[0]
                comb = tuple(w1 * a + w2 * b for a, b in zip(cp[1:], cn[1:]))
                if not _add_row(reduced, comb, w1 * rp + w2 * rn, sp or sn):
                    return False
        system = reduced
    return True


def cone_member(v, generators):
    """Is v a nonnegative rational combination of the generators?"""
    gens = [tuple(g) for g in generators]
    v = tuple(v)
    if not gens:
        return all(x == 0 for x in v)
    m = len(gens)
    eqs = [([g[j] for g in gens], v[j]) for j in range(len(v))]
    ge = [([1 if i == k else 0 for i in range(m)], 0) for k in range(m)]
    return feasible(m, eqs=eqs, ge=ge)


def strictly_convex(generators):
    """cone(generators) meets its negative only in 0.

    Equivalent, for a finitely generated cone with nonzero generators, to the
    existence of a functional strictly positive on every generator.
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        return True
    if any(all(x == 0 for x in g) for g in gens):
        return False
    d = len(gens[0])
    if d > DIM_CAP:
        raise ValueError("dimension %d exceeds the supported cap %d" % (d, DIM_CAP))
    ge = [(g, 1) for g in gens]
    return feasible(d, ge=ge)


def primitive(vec):
    """Scale a rational row to a primitive integer vector (same ray)."""
    ints = _integer_row(tuple(vec))
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def linearly_independent(rows):
    """Are the rational rows linearly independent over QQ?

    Fraction-free Gaussian elimination on the rows scaled to integers: each
    row must keep a pivot after the earlier pivots are cleared from it.
    """
    rows = [_integer_row(tuple(r)) for r in rows]
    if rows and len(rows) > len(rows[0]):
        return False
    for i, row in enumerate(rows):
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            return False
        p = row[col]
        for k in range(i + 1, len(rows)):
            if rows[k][col]:
                rows[k] = _pivot_out(rows[k], row, p, col)
    return True


def extreme_rays(generators):
    """The extreme rays of a strictly convex cone, primitive and sorted.

    Collinear duplicates are merged first.  Linearly independent generators
    span a simplicial cone, which is pointed with every generator extreme;
    otherwise the cone must be strictly convex, and a generator is dropped
    iff it lies in the cone of the others.
    """
    rays = []
    for g in generators:
        p = primitive(g)
        if any(x != 0 for x in p) and p not in rays:
            rays.append(p)
    if linearly_independent(rays):
        return tuple(sorted(rays))
    if not strictly_convex(rays):
        raise ValueError("cone is not strictly convex")
    keep = list(rays)
    for r in list(rays):
        others = [x for x in keep if x != r]
        if others and cone_member(r, others):
            keep = others
    return tuple(sorted(keep))


def relative_interior_point_satisfies(rays, inequalities):
    """Does some point of the relative interior satisfy every a.x <= 0?

    ``rays`` generate the cone; the relative interior consists of strictly
    positive combinations.  Used for the "cone meets the valuation cone"
    validation toggle.
    """
    if not rays:
        return True  # the relative interior of {0} is {0}, and a.0 <= 0
    # positive rescaling moves neither the relative interior nor a.x <= 0
    rays = [primitive(r) for r in rays]
    m = len(rays)
    ge = [([1 if i == k else 0 for i in range(m)], 1) for k in range(m)]
    for a in inequalities:
        a = primitive(a)
        ge.append(([-sum(x * y for x, y in zip(r, a)) for r in rays], 0))
    return feasible(m, ge=ge)
