"""Exact cone questions at desk scale, by double description.

One double-description step (Fukuda-Prodon 1996) answers every question
here: a pointed cone, held as its extreme rays with an integer bitmask of
the constraints each is tight on, is cut by a half-space h.x >= 0.  The
rays on its side stay, and each adjacent pair across the hyperplane, told
by the masks alone, gives a new primitive ray on it.  Only integer dot
products run.  Inputs are integer vectors; no floats, ever.
``extreme_rays`` cuts the facets of a simplicial subcone by the other
generators, and ``relative_interior_point_satisfies`` cuts the orthant of
combination coefficients by the inequalities.  A cone whose distinct
primitive generators are linearly independent (an exact rank test by
fraction-free elimination) is simplicial: it is pointed, every generator
spans an extreme ray, and no step runs.
"""

from __future__ import annotations

from math import gcd
from operator import mul

DIM_CAP = 8
GENERATOR_CAP = 24


def primitive(row):
    """An integer row divided by the gcd of its entries, as a tuple (same ray)."""
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def _pivot_out(row, pivot_row, p, col):
    """p * row - row[col] * pivot_row, which clears column col."""
    f = row[col]
    return [p * x - f * y for x, y in zip(row, pivot_row)]


def _basis(rows):
    """Indices and pivot columns of the first maximal independent subset of
    integer rows, by fraction-free elimination: each row keeps a pivot iff
    one is left after the earlier pivots are cleared from it."""
    picked, pivots = [], []
    for i, row in enumerate(rows):
        for prow, col in pivots:
            if row[col]:
                row = _pivot_out(row, prow, prow[col], col)
        col = next((j for j, x in enumerate(row) if x), None)
        if col is not None:
            picked.append(i)
            pivots.append((primitive(row), col))
    return picked, [col for _, col in pivots]


def _dd_step(gens, h, bit, dim):
    """The pointed cone of ``gens`` in QQ^dim cut by h.x >= 0.

    ``gens`` are its extreme rays, each paired with the mask of constraints
    it is tight on; ``bit`` is the new constraint's own bit.  Two rays on
    opposite sides are adjacent when their common mask has at least dim - 2
    bits and no third ray's mask contains it; each adjacent pair is combined
    into a primitive ray on the hyperplane.
    """
    out, pos, neg = [], [], []
    for v, m in gens:
        x = sum(map(mul, v, h))
        if x > 0:
            out.append((v, m))
            pos.append((v, m, x))
        elif x < 0:
            neg.append((v, m, x))
        else:
            out.append((v, m | bit))
    masks = [m for _, m in gens]
    for vp, mp, xp in pos:
        for vn, mn, xn in neg:
            common = mp & mn
            if common.bit_count() >= dim - 2 and not any(
                (m & common) == common and m != mp and m != mn for m in masks
            ):
                w = primitive([xp * a - xn * b for a, b in zip(vn, vp)])
                out.append((w, common | bit))
    return out


def _simplex_facets(rows):
    """Primitive f_j with rows[i].f_j = 0 for i != j and rows[j].f_j > 0.

    The rows of D (B^T)^-1, that is the columns of D B^-1, for the square
    invertible B of ``rows``, by fraction-free Gauss-Jordan on [B^T | I].
    """
    k = len(rows)
    a = [[b[r] for b in rows] + [int(r == c) for c in range(k)] for r in range(k)]
    for c in range(k):
        piv = next(r for r in range(c, k) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        prow = a[c]
        for r in range(k):
            if r != c and a[r][c]:
                a[r] = primitive(_pivot_out(a[r], prow, prow[c], c))
    # row j is [d_j e_j | E_j] with E_j.rows[i] = d_j delta_ij
    return [primitive(row[k:] if row[j] > 0 else [-x for x in row[k:]]) for j, row in enumerate(a)]


def extreme_rays(generators):
    """The extreme rays of a strictly convex cone, primitive and sorted.

    Collinear duplicates are merged first.  Linearly independent generators
    span a simplicial cone, which is pointed with every generator extreme.
    Otherwise the cone's span is coordinatized by the pivot columns of a
    basis B of the rays, and double description on the dual cone starts
    from the facets of cone(B) and adds every other ray r as the half-space
    r.f >= 0; when no facet is positive on r, -r lies in the cone, which is
    then not strictly convex.  The final facets carry the mask of rays tight
    on them, and a ray is extreme iff no other ray is tight on all of its
    facets.
    """
    rays = [p for p in dict.fromkeys(map(primitive, generators)) if any(p)]
    basis, cols = _basis(rays)
    if len(basis) == len(rays):
        return tuple(sorted(rays))
    d = len(rays[0])
    if d > DIM_CAP:
        raise ValueError("dimension %d exceeds the supported cap %d" % (d, DIM_CAP))
    k = len(basis)
    points = [[r[c] for c in cols] for r in rays]
    tight = sum(1 << i for i in basis)
    facets = _simplex_facets([points[i] for i in basis])
    gens = [(f, tight & ~(1 << i)) for i, f in zip(basis, facets)]
    for i in [i for i in range(len(rays)) if i not in basis]:
        gens = _dd_step(gens, points[i], 1 << i, k)
        if all(m >> i & 1 for _, m in gens):
            raise ValueError("cone is not strictly convex")
    facets_of = [sum(1 << j for j, (_, m) in enumerate(gens) if m >> i & 1) for i in range(len(rays))]
    return tuple(sorted(r for r, t in zip(rays, facets_of) if sum((u & t) == t for u in facets_of) == 1))


def relative_interior_point_satisfies(rays, inequalities):
    """Does some point of the relative interior satisfy every a.x <= 0?

    ``rays`` generate the cone; the relative interior consists of strictly
    positive combinations.  The coefficients lambda of the combinations that
    satisfy the system form a pointed cone, the orthant cut by
    -sum_i lambda_i (a.r_i) >= 0 for each a; it has a strictly positive point
    iff each coordinate is positive on one of its extreme rays.  Used for
    the colored-fan axiom "cone meets the valuation cone".
    """
    if not rays or not inequalities:
        return True  # a relative interior is never empty, and that of {0} is {0}
    m = len(rays)
    axes = (1 << m) - 1
    gens = [([int(i == j) for j in range(m)], axes & ~(1 << i)) for i in range(m)]
    for t, a in enumerate(inequalities):
        gens = _dd_step(gens, [-sum(map(mul, r, a)) for r in rays], 1 << (m + t), m)
    return all(any(v[i] for v, _ in gens) for i in range(m))
