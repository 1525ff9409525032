"""Exact cone questions at desk scale, by double description.

One double-description step (Fukuda-Prodon 1996) answers every question
here: a pointed cone, held as its extreme rays with an integer bitmask of
the constraints each is tight on, is cut by a half-space h.x >= 0.  The
rays on its side stay, and each adjacent pair across the hyperplane, told
by the masks alone, gives a new primitive ray on it.  Only integer dot
products run.  Inputs are integer vectors; no floats, ever.
``extreme_rays`` cuts the orthant of coefficients in a basis of the
generators by the other generators, ``relative_interior_point_satisfies``
the orthant of combination coefficients by the inequalities.  The forward
half of one fraction-free elimination finds the basis and is an exact rank
test: a cone of independent generators is simplicial, and no step runs.
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


def _column_echelon(columns):
    """Row echelon form of the matrix whose columns are ``columns``, by
    fraction-free elimination, and the index of each pivot column: the first
    maximal independent subset of the columns; zero rows are dropped."""
    a, picked = list(zip(*columns)), []
    for c in range(len(columns)):
        t = len(picked)
        piv = next((i for i in range(t, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[t], a[piv] = a[piv], a[t]
        prow = a[t]
        for i in range(t + 1, len(a)):
            if a[i][c]:
                a[i] = primitive(_pivot_out(a[i], prow, prow[c], c))
        picked.append(c)
    return a[: len(picked)], picked


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


def extreme_rays(generators):
    """The extreme rays of a strictly convex cone, primitive and sorted.

    Collinear duplicates are merged first.  Linearly independent generators
    span a simplicial cone, which is pointed with every generator extreme.
    Otherwise each ray is r = c B in the first basis B of the rays, and
    double description on the dual cone, in the coordinates (b.f for b in B)
    scaled by any positive factors, starts from the orthant (the facets of
    cone(B)) and adds every other ray as the half-space c.g >= 0; when no
    facet is positive on it, -r lies in the cone, which is then not strictly
    convex.  The final facets carry the mask of rays tight on them, and a
    ray is extreme iff no other ray is tight on all of its facets.
    """
    rays = [p for p in dict.fromkeys(map(primitive, generators)) if any(p)]
    rows, basis = _column_echelon(rays)
    if len(basis) == len(rays):
        return tuple(sorted(rays))
    d = len(rays[0])
    if d > DIM_CAP:
        raise ValueError("dimension %d exceeds the supported cap %d" % (d, DIM_CAP))
    k = len(basis)
    # back substitution leaves s_t alone in basis column t, on row t, so
    # column i holds (s_t c_t) for ray i = sum_t c_t B_t: times the sign of
    # s_t, that is c with coordinate t scaled by |s_t|
    for t in range(k - 1, 0, -1):
        for i in range(t):
            if rows[i][basis[t]]:
                rows[i] = primitive(_pivot_out(rows[i], rows[t], rows[t][basis[t]], basis[t]))
    signs = [1 if row[c] > 0 else -1 for row, c in zip(rows, basis)]
    tight = sum(1 << i for i in basis)
    gens = [(tuple(int(j == t) for j in range(k)), tight & ~(1 << c)) for t, c in enumerate(basis)]
    for i in [i for i in range(len(rays)) if not tight >> i & 1]:
        gens = _dd_step(gens, [s * row[i] for s, row in zip(signs, rows)], 1 << i, k)
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
