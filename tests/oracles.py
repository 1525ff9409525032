"""Independent oracles the tests check the engine against.

These deliberately avoid the library's own algorithms: matrix products
entry by entry, invariant factors via gcds of minors, cohomology via literal
cocycle enumeration, color lifts enumerated fiber by fiber (with a relator
filter for the Γ-actions) where the engine reads one off the fan, and
counted via filtering all permutations, cone questions via Fourier-Motzkin
(in Fraction arithmetic, and fraction-free in integers) and pointedness via
Caratheodory where the engine runs double description, diagram
automorphisms via a search over node permutations.

Second routes to facts the engine decides some other way live here too.
The group route: a quotient of lattices as an abstract group with one
induced endomorphism per group element, its invariants as a subgroup with
an inclusion homomorphism, and preimages under that inclusion solved as
integer systems, where the engine reads fixed classes as one lattice
quotient F/S with F = fixed_sublattice(L, mats, modulo=S).  On it stand the
fixed center classes (P/Q)^Γ with their ``class_of`` and norm diagnostics,
degree-2 cohomology of cyclic actions as fixed points modulo norms (the
reference for the norm check of ``validate_br_character``), and the local
cohomology condition through the automorphism character groups and the
pushforward map kappa (the reference for the engine's one lattice test).
Also: epsilon coordinates of the classical types (the reference for the
``*4`` shortcut), element-by-element arithmetic in finite abelian groups,
and the routes that a warm decision no longer takes: fixed points from
the ambient matrices, the row scan through ``class_of``, the recursive
walk of the problem schema and the indenting json encoder.
"""

import json
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

from spherical_models.galoismodule import _GROUPS
from spherical_models.lattice import (
    FgAbelianGroup,
    IntMatrix,
    Lattice,
    action_coordinates,
    apply_row,
    hnf,
    preimage_lattice,
)
from spherical_models.spherical import ColorLift


def naive_apply_row(v, rows, cols):
    """v @ m entry by entry, for m given by its rows (``cols`` columns)."""
    return tuple(sum(v[i] * rows[i][j] for i in range(len(rows))) for j in range(cols))


def naive_product(a, b, b_cols):
    """a @ b entry by entry, for matrices given by their rows."""
    return [naive_apply_row(row, b, b_cols) for row in a]


def minor_gcd_invariant_factors(rows):
    """Invariant factors through determinantal divisors (gcd of k x k minors)."""
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    out = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for ri in combinations(range(nr), k):
            for ci in combinations(range(nc), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(_det(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def _det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in a[1:]]
            total += (-1) ** j * a[0][j] * _det(minor)
    return total


class FiniteModule:
    """A finite abelian group ⊕ Z/d with elements indexed 0..N-1."""

    def __init__(self, moduli):
        self.moduli = tuple(int(d) for d in moduli)
        self.elems = list(product(*[range(d) for d in self.moduli]))
        self.index = {e: i for i, e in enumerate(self.elems)}
        n = len(self.elems)
        self.add = [[0] * n for _ in range(n)]
        self.neg = [0] * n
        for i, a in enumerate(self.elems):
            self.neg[i] = self.index[tuple((-x) % d for x, d in zip(a, self.moduli))]
            for j, b in enumerate(self.elems):
                self.add[i][j] = self.index[
                    tuple((x + y) % d for x, y, d in zip(a, b, self.moduli))
                ]

    def all_endomorphism_tables(self, group_order):
        """Index tables of every automorphism s with s^group_order = identity."""
        n = len(self.elems)
        k = len(self.moduli)
        gens = [
            tuple(1 if i == j else 0 for i in range(k)) for j in range(k)
        ]
        out = []
        for images in product(self.elems, repeat=k):
            ok = True
            for d, img in zip(self.moduli, images):
                if any((d * x) % dd for x, dd in zip(img, self.moduli)):
                    ok = False
                    break
            if not ok:
                continue
            table = [0] * n
            for i, a in enumerate(self.elems):
                acc = tuple(0 for _ in range(k))
                for coef, img in zip(a, images):
                    acc = tuple(
                        (x + coef * y) % d for x, y, d in zip(acc, img, self.moduli)
                    )
                table[i] = self.index[acc]
            if len(set(table)) != n:
                continue
            power = list(range(n))
            for _ in range(group_order):
                power = [table[i] for i in power]
            if power != list(range(n)):
                continue
            out.append((images, table))
        return out


def brute_force_h2_orders(module, sigma_table, group_order):
    """Element-order multiset of H^2 for a cyclic action, by cocycle enumeration.

    Normalized 2-cocycles of the cyclic group of order 2 or 3 on the module
    are enumerated literally as functions on the nontrivial pairs and
    verified against the full cocycle identity, then divided by the
    coboundaries of normalized 1-cochains.
    """
    n = len(module.elems)
    add, neg = module.add, module.neg
    sig = sigma_table
    if group_order == 2:
        cocycle_tuples = [(x,) for x in range(n) if sig[x] == x]
        cob_set = {(add[c][sig[c]],) for c in range(n)}
        dims = 1
    elif group_order == 3:
        sig2 = [sig[sig[i]] for i in range(n)]
        cocycle_tuples = []
        for x1 in range(n):
            for x2 in range(n):
                x3 = add[add[sig[x1]][x2]][neg[x1]]
                x4 = add[sig[x2]][neg[x1]]
                f = {(1, 1): x1, (1, 2): x2, (2, 1): x3, (2, 2): x4}
                if _is_cocycle3(f, add, neg, sig, sig2):
                    cocycle_tuples.append((x1, x2, x3, x4))
        cob_set = set()
        for c1 in range(n):
            for c2 in range(n):
                b11 = add[add[sig[c1]][neg[c2]]][c1]
                b12 = add[sig[c2]][c1]
                b21 = add[sig2[c1]][c2]
                b22 = add[add[sig2[c2]][neg[c1]]][c2]
                cob_set.add((b11, b12, b21, b22))
        dims = 4
    else:
        raise ValueError("oracle supports cyclic groups of order 2 and 3")

    def tadd(a, b):
        return tuple(add[x][y] for x, y in zip(a, b))

    zero = (module.index[tuple(0 for _ in module.moduli)],) * dims
    assert zero in cob_set
    cocycle_set = set(cocycle_tuples)
    assert cob_set <= cocycle_set
    # orders of classes in Z^2 / B^2
    seen = set()
    orders = []
    for f in sorted(cocycle_set):
        if f in seen:
            continue
        coset = sorted(tadd(f, b) for b in cob_set)
        seen.update(coset)
        k, acc = 1, f
        while acc not in cob_set:
            acc = tadd(acc, f)
            k += 1
        orders.append(k)
    return sorted(orders)


def _is_cocycle3(f, add, neg, sig, sig2):
    act = {1: sig, 2: sig2}

    def get(a, b):
        if a == 0 or b == 0:
            return None  # normalized: value is zero
        return f[(a, b)]

    zero_idx = 0  # index of the zero element is 0 by construction
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                # a·f(b,c) - f(a+b,c) + f(a,b+c) - f(a,b) = 0
                t1 = act[a][f[(b, c)]]
                ab, bc = (a + b) % 3, (b + c) % 3
                t2 = get(ab, c)
                t3 = get(a, bc)
                t4 = f[(a, b)]
                total = t1
                if t2 is not None:
                    total = add[total][neg[t2]]
                if t3 is not None:
                    total = add[total][t3]
                total = add[total][neg[t4]]
                if total != zero_idx:
                    return False
    return True


def group_order_multiset(group):
    """Element orders of a finite FgAbelianGroup, sorted."""
    return sorted(element_order(group, e) for e in group_elements(group))


# -- abelian groups with a Galois action: the group route ----------------------
#
# The engine reads fixed classes of a quotient lattice/sub as one lattice,
# fixed_sublattice(lattice, mats, modulo=sub), and its quotient by sub.  The
# route it replaced lives here as the reference: the quotient as an abstract
# group with one induced endomorphism per group element, its invariants as a
# subgroup with an inclusion homomorphism, and preimages under that
# inclusion solved as integer systems.


def relations(group):
    """The rows d*e_j of the reduced coordinates, one per finite invariant factor d."""
    k = group.rank
    return [[d if i == j else 0 for i in range(k)] for j, d in enumerate(group.invariant_factors) if d > 0]


def reduce_reduced(group, coords):
    """Reduced coordinates taken modulo the invariant factors."""
    return tuple(x % d if d > 0 else x for x, d in zip(coords, group.invariant_factors))


def scale(group, a, k):
    """k times the element ``a``."""
    return reduce_reduced(group, [x * k for x in a])


class ActedGroup(FgAbelianGroup):
    """An FgAbelianGroup with endomorphisms ``action`` in its reduced
    coordinates, one per matrix on the generator coordinates, each checked
    to be well defined on the quotient."""

    __slots__ = ("action",)

    def __init__(self, n_gens, relation_rows, mats):
        super().__init__(n_gens, relation_rows)
        k = self.rank
        unit = [tuple(int(i == j) for i in range(k)) for j in range(k)]
        action = []
        for m in mats:
            if m.rows != n_gens or m.cols != n_gens:
                raise ValueError("endomorphism has wrong size")
            red = IntMatrix([self.from_ambient(apply_row(self.lift(e), m)) for e in unit], cols=k)
            for i, di in enumerate(self.invariant_factors):
                for j, dj in enumerate(self.invariant_factors):
                    v = di * red.data[i][j]
                    if (v % dj if dj > 0 else v) != 0:
                        raise ValueError("action not well defined on the quotient")
            action.append(red)
        self.action = tuple(action)


def solve_rows(m, v):
    """Some integer x with x @ m = v, or None; the rows of ``m`` may be
    linearly dependent.  With u*m = h in Hermite form, back substitution on
    the nonzero rows of h gives y with y @ h = v, and x = y @ u."""
    h, u = hnf(m)
    rest, y = list(v), [0] * m.rows
    for i, row in enumerate(h.data):
        j = next((j for j, x in enumerate(row) if x), None)
        if j is None:
            break
        y[i], r = divmod(rest[j], row[j])
        if r:
            return None
        rest = [a - y[i] * b for a, b in zip(rest, row)]
    return None if any(rest) else apply_row(y, u)


def quotient_with_action(lattice, sub, mats):
    """lattice/sub as an ActedGroup: the endomorphisms that the ambient
    matrices ``mats``, which must stabilize both lattices, induce.
    ``lattice`` is a Lattice or the _RowSolver of an orbit lattice; its
    basis rows are the generators."""
    if any(lattice.coords_of(row) is None for row in sub.basis.data):
        raise ValueError("not a sublattice")
    if action_coordinates(sub, mats) is None:
        raise ValueError("action does not stabilize the subgroup of relations")
    induced = []
    for g in mats:
        rows = [lattice.coords_of(apply_row(row, g)) for row in lattice.basis.data]
        if any(r is None for r in rows):
            raise ValueError("action does not stabilize the lattice")
        induced.append(IntMatrix(rows, cols=lattice.rank))
    return ActedGroup(lattice.rank, [lattice.coords_of(row) for row in sub.basis.data], induced)


class GroupHom:
    """A homomorphism between FgAbelianGroups, given on SNF generators.

    ``images[i]`` is the image (an element of ``target``) of the i-th reduced
    generator of ``source``; relations must map to zero.
    """

    def __init__(self, source, target, images):
        images = tuple(tuple(img) for img in images)
        if len(images) != source.rank:
            raise ValueError("one image per source generator required")
        for d, img in zip(source.invariant_factors, images):
            if d > 0 and any(scale(target, img, d)):
                raise ValueError("homomorphism not well defined")
        self.source, self.target, self.images = source, target, images

    def preimage(self, element):
        """Some source element mapping to ``element``, or None: a solution of
        the images, stacked over the target's moduli, as an integer system."""
        m = IntMatrix(list(self.images) + relations(self.target), cols=self.target.rank)
        sol = solve_rows(m, element)
        return None if sol is None else reduce_reduced(self.source, sol[: self.source.rank])


def subquotient(group, lat_rows):
    """The subgroup of ``group`` spanned (mod relations) by the rows
    ``lat_rows`` of its reduced coordinates, as (subgroup, inclusion)."""
    k = group.rank
    mod_rows = relations(group)
    span = Lattice(k, list(lat_rows) + mod_rows)
    sub = FgAbelianGroup(span.rank, [span.coords_of(tuple(row)) for row in mod_rows])
    images = []
    for idx in range(sub.rank):
        amb = apply_row(sub.lift((0,) * idx + (1,) + (0,) * (sub.rank - idx - 1)), span.basis)
        images.append(reduce_reduced(group, amb))
    return sub, GroupHom(sub, group, images)


def group_invariants(group):
    """The fixed points of an ActedGroup as (subgroup, inclusion)."""
    k = group.rank
    if k == 0:
        sub = FgAbelianGroup(0, [])
        return sub, GroupHom(sub, group, [])
    ident = IntMatrix.identity(k)
    blocks = [m - ident for m in group.action]
    stacked = IntMatrix([sum((list(m.data[i]) for m in blocks), []) for i in range(k)])
    count = len(blocks)
    target = Lattice(
        k * count,
        [[0] * (i * k) + r + [0] * ((count - 1 - i) * k) for i in range(count) for r in relations(group)],
    )
    return subquotient(group, preimage_lattice(stacked, target))


def center_invariants_by_group(rd, galois):
    """(module, fixed subgroup, inclusion): the center characters P/Q with
    one endomorphism per group element, and their invariants."""
    mod = quotient_with_action(rd.weight_lattice, rd.root_lattice, list(galois.matrices))
    return (mod,) + group_invariants(mod)


def norm_problems_by_group(t0, mod, incl):
    """The norm diagnostics of a real character, read through the group
    route: the norm of each generator of ``mod`` is the row of the sum of
    its endomorphisms, pulled back through ``incl``."""
    if len(mod.action) <= 1:
        return []
    problems = []
    norm = [[sum(m.data[i][j] for m in mod.action) for j in range(mod.rank)] for i in range(mod.rank)]
    for j, row in enumerate(norm):
        pre = incl.preimage(reduce_reduced(mod, row))
        if pre is None:
            problems.append("a norm element does not lie in the fixed points")
        elif t0.evaluate(pre) != 0:
            problems.append("character does not vanish on the norm of generator %d" % (j + 1,))
    return problems


# -- finite abelian groups element by element ---------------------------------


def group_elements(group):
    """Every element of a finite FgAbelianGroup, in its reduced coordinates."""
    if group.order() == 0:
        raise ValueError("infinite group")
    return list(product(*[range(d) for d in group.invariant_factors]))


def element_order(group, a):
    """The least k >= 1 with k*a = 0 in a finite FgAbelianGroup."""
    k = 1
    while any(scale(group, a, k)):
        k += 1
    return k


def hom_apply(hom, element):
    """The image of ``element`` under a GroupHom: the sum of its generator images."""
    total = [0] * hom.target.rank
    for x, img in zip(element, hom.images):
        total = [t + x * y for t, y in zip(total, img)]
    return reduce_reduced(hom.target, total)


def hom_kernel(hom):
    """The kernel of a GroupHom as (subgroup, inclusion into its source)."""
    m = IntMatrix(hom.images, cols=hom.target.rank)
    rows = preimage_lattice(m, Lattice(hom.target.rank, relations(hom.target)))
    return subquotient(hom.source, rows)


# -- degree-2 cohomology of cyclic actions --------------------------------------


def is_cyclic(galois):
    """True for the supported cyclic images: the trivial group, Z/2 and Z/3."""
    return len(galois.matrices) in (1, 2, 3)


def norm_rows(module):
    """Rows of a -> sum of g(a) over the group elements (reduced coordinates)."""
    k = module.rank
    return [
        [sum(m.data[i][j] for m in module.action) for j in range(k)] for i in range(k)
    ]


def norm_subgroup(module, galois):
    """Image of the norm of a cyclic action, as (subgroup, inclusion hom).

    The norm sums over every group element, so a non-faithful action (for
    example a trivial action of Z/2) still gets the full norm (doubling in
    that example).
    """
    if not is_cyclic(galois):
        raise ValueError("norms are defined for cyclic groups only")
    return subquotient(module, norm_rows(module))


def h2_cyclic(module, galois):
    """H^2 of a cyclic group as fixed points modulo norms (Tate's hat-H^0).

    Returns (h2, class_map) where class_map is a GroupHom from the fixed
    subgroup onto H^2.  Cyclic-group cohomology is 2-periodic, so this is
    genuine H^2 for the supported orders; the trivial group yields the
    trivial group.
    """
    if not is_cyclic(galois):
        raise ValueError("H^2 is computed for cyclic groups only")
    inv, incl = group_invariants(module)
    if len(galois.matrices) == 1:
        triv = FgAbelianGroup(0, [])
        return triv, GroupHom(inv, triv, [() for _ in range(inv.rank)])
    norms = []
    for row in norm_rows(module):
        pre = incl.preimage(reduce_reduced(module, row))
        if pre is None:
            raise ValueError("norm image is not fixed; inconsistent action")
        norms.append(list(pre))
    h2 = FgAbelianGroup(inv.rank, norms + relations(inv))
    images = [h2.from_ambient(tuple(int(i == j) for i in range(inv.rank))) for j in range(inv.rank)]
    return h2, GroupHom(inv, h2, images)


def build_cyclic_module(moduli, sigma_images, order):
    """ActedGroup ⊕Z/d carrying the cyclic action generated by the images.

    The generator need only have the right order modulo the relations, so the
    per-element matrices are integer powers; the returned GaloisAction is the
    abstract-group tag (its own matrices are identities).
    """
    from spherical_models import GaloisAction

    k = len(moduli)
    rel = [
        [moduli[j] if i == j else 0 for i in range(k)] for j in range(k) if moduli[j]
    ]
    sigma = IntMatrix([list(img) for img in sigma_images])
    mats = [IntMatrix.identity(k)]
    for _ in range(order - 1):
        mats.append(mats[-1] * sigma)
    if order == 1:
        galois = GaloisAction.trivial(k)
    else:
        galois = GaloisAction("cyclic%d" % order, [IntMatrix.identity(k)])
    return ActedGroup(k, rel, mats), galois


def lifts(action, group=None):
    """Every lift of a stable action on color images to the colors, the
    reference that ``stabilizing_lift`` reads one of off a fan.

    A lift assigns to each generator a bijection of colors covering that
    generator's permutation of the images; a fiber of size two contributes
    an independent binary choice per generator.  Enumeration order:
    generator first, fibers in key order, sorted pairing before the swap.
    With ``group``, a name of ``galoismodule._GROUPS``, only the Γ-actions
    are kept: the lifts on which every relator acts as the identity.
    """
    per_generator_choices = []
    for perm in action.stable().perms:
        fiber_options = []
        for key, src in action.fibers.items():
            dst = action.fibers[perm[key]]
            if len(src) == 1:
                fiber_options.append([((src[0], dst[0]),)])
            else:
                a, b = src
                c, d = dst
                fiber_options.append([((a, c), (b, d)), ((a, d), (b, c))])
        per_generator_choices.append(
            [tuple(sorted(sum(combo, ()))) for combo in product(*fiber_options)]
        )
    out = [ColorLift(tuple(maps)) for maps in product(*per_generator_choices)]
    return out if group is None else [lift for lift in out if is_gamma_action(lift, group)]


def is_gamma_action(lift, group):
    """Does every relator of ``group`` (a name of ``galoismodule._GROUPS``)
    act on the colors as the identity under ``lift``?"""
    letters, _, relators = _GROUPS[group]
    maps = {letter: lift.mapping(k) for k, letter in enumerate(letters)}
    for word in relators:
        for color in maps[word[0]]:
            image = color
            for letter in word:
                image = maps[letter][image]
            if image != color:
                return False
    return True


def all_color_lifts_by_filter(datum, galois):
    """Lifts found by filtering every permutation tuple of the colors."""
    from spherical_models.spherical import orbit_action

    action = orbit_action(datum, galois).stable()
    fibers, perms = action.fibers, action.perms
    color_fiber = {}
    for key, ids in fibers.items():
        for cid in ids:
            color_fiber[cid] = key
    ids = sorted(color_fiber)
    out = set()
    candidates = []
    for perm in perms:
        good = []
        for images in permutations(ids):
            mapping = dict(zip(ids, images))
            if all(color_fiber[mapping[c]] == perm[color_fiber[c]] for c in ids):
                good.append(tuple(sorted(mapping.items())))
        candidates.append(good)
    for combo in product(*candidates):
        out.add(tuple(combo))
    return out


def _norm_ineq(coeffs, rhs, strict):
    """Scale an inequality to integer coefficients with content 1."""
    den = 1
    for c in list(coeffs) + [rhs]:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    r = int(rhs * den)
    g = 0
    for c in ints + [r]:
        g = gcd(g, abs(c))
    if g > 1:
        ints = [c // g for c in ints]
        r = r // g
    return (tuple(ints), r, strict)


def fraction_feasible(n, eqs=(), ge=(), gt=()):
    """Rational feasibility of a.x = b, a.x >= b, a.x > b by Fraction arithmetic.

    Gauss-Jordan substitution of the equalities with Fraction pivots, then
    Fourier-Motzkin on the inequalities, all checked at the very end.
    """
    eqs = [([Fraction(c) for c in a], Fraction(b)) for a, b in eqs]
    rows = [([Fraction(c) for c in a], Fraction(b), False) for a, b in ge]
    rows += [([Fraction(c) for c in a], Fraction(b), True) for a, b in gt]

    pivots = []
    for e in range(len(eqs)):
        a, b = eqs[e]
        col = next((j for j in range(n) if a[j] != 0 and j not in [p[1] for p in pivots]), None)
        if col is None:
            if b != 0 and all(c == 0 for c in a):
                return False
            continue
        inv = 1 / a[col]
        a = [c * inv for c in a]
        b = b * inv
        eqs[e] = (a, b)
        for e2 in range(len(eqs)):
            if e2 != e and eqs[e2][0][col] != 0:
                f = eqs[e2][0][col]
                eqs[e2] = (
                    [c2 - f * c1 for c2, c1 in zip(eqs[e2][0], a)],
                    eqs[e2][1] - f * b,
                )
        pivots.append((e, col))
    for a, b in eqs:
        if all(c == 0 for c in a) and b != 0:
            return False
    for e, col in pivots:
        a, b = eqs[e]
        new_rows = []
        for c, r, s in rows:
            f = c[col]
            if f != 0:
                c = [ci - f * ai for ci, ai in zip(c, a)]
                r = r - f * b
            new_rows.append((c, r, s))
        rows = new_rows

    live = [j for j in range(n) if j not in [p[1] for p in pivots]]
    system = set()
    for c, r, s in rows:
        system.add(_norm_ineq([Fraction(c[j]) for j in live], Fraction(r), s))

    for _ in range(len(live)):
        pos, neg, rest = [], [], []
        for coeffs, r, s in system:
            c = coeffs[0]
            if c > 0:
                pos.append((coeffs, r, s))
            elif c < 0:
                neg.append((coeffs, r, s))
            else:
                rest.append((coeffs[1:], r, s))
        new_system = set(_norm_ineq([Fraction(c) for c in cs], Fraction(r), s) for cs, r, s in rest)
        for cp, rp, sp in pos:
            for cn, rn, sn in neg:
                w1, w2 = -cn[0], cp[0]
                comb = [Fraction(w1 * a + w2 * b) for a, b in zip(cp[1:], cn[1:])]
                rhs = Fraction(w1 * rp + w2 * rn)
                new_system.add(_norm_ineq(comb, rhs, sp or sn))
        system = new_system
        # a row without variables is decided now; a false one stays false
        if any(not any(c) and (r > 0 or (s and r == 0)) for c, r, s in system):
            return False
    for coeffs, r, s in system:
        if (s and not 0 > r) or (not s and not 0 >= r):
            return False
    return True


def fraction_cone_member(v, generators):
    """Is v a nonnegative combination of the generators (Fraction FM)?"""
    gens = [tuple(Fraction(x) for x in g) for g in generators]
    v = tuple(Fraction(x) for x in v)
    if not gens:
        return all(x == 0 for x in v)
    m = len(gens)
    eqs = [([g[j] for g in gens], v[j]) for j in range(len(v))]
    ge = [([1 if i == k else 0 for i in range(m)], 0) for k in range(m)]
    return fraction_feasible(m, eqs=eqs, ge=ge)


def _fraction_coordinates(basis, vectors):
    """Coordinates in the linearly independent rows ``basis`` of each vector
    of their span, by Gauss-Jordan elimination in Fraction arithmetic; None
    when ``basis`` is dependent."""
    r = len(basis)
    columns = list(basis) + list(vectors)
    rows = [[c[j] for c in columns] for j in range(len(columns[0]))] if columns else []
    for col in range(r):
        piv = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for i in range(len(rows)):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [[rows[i][r + j] for i in range(r)] for j in range(len(vectors))]


def fraction_pointed(generators):
    """No generator is 0 and the cone holds no line (Caratheodory).

    A cone of nonzero generators holds a line iff the negative of some
    generator g lies in it.  By Caratheodory, -g is then a nonnegative
    combination of a linearly independent subset, which extends with zero
    coefficients to a basis B of the span drawn from the generators; so g
    has no positive coordinate in B.  That is one Fraction elimination per
    subset of rank-many generators, at most C(m, rank) for m generators,
    with no inequality eliminated.
    """
    gens = [tuple(Fraction(x) for x in g) for g in generators]
    if any(all(x == 0 for x in g) for g in gens):
        return False
    for basis in combinations(gens, fraction_rank(gens)):
        coords = _fraction_coordinates(basis, gens)
        if coords is not None and any(all(x <= 0 for x in c) for c in coords):
            return False
    return True


def fraction_relative_interior_point_satisfies(rays, inequalities):
    """Some strictly positive combination x of the rays has a.x <= 0 for all a."""
    rays = [tuple(Fraction(x) for x in r) for r in rays]
    if not rays:
        return True
    m = len(rays)
    ge = [([1 if i == k else 0 for i in range(m)], 1) for k in range(m)]
    for a in inequalities:
        ge.append(([-sum(Fraction(x) * y for x, y in zip(a, r)) for r in rays], 0))
    return fraction_feasible(m, ge=ge)


def fraction_extreme_rays(generators):
    """Primitive sorted extreme rays of a strictly convex cone, or None if not strictly convex.

    A primitive generator is extreme iff it is not in the cone of the other
    distinct primitive generators.
    """
    rays = []
    for g in generators:
        g = [Fraction(x) for x in g]
        den = 1
        for x in g:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in g]
        content = 0
        for x in ints:
            content = gcd(content, abs(x))
        if content:
            p = tuple(x // content for x in ints)
            if p not in rays:
                rays.append(p)
    if len(rays) > 1 and not fraction_pointed(rays):
        return None
    return tuple(sorted(r for r in rays if not fraction_cone_member(r, [x for x in rays if x != r])))


# -- fraction-free integer Fourier-Motzkin ------------------------------------


def _integer_row(values):
    """A rational row times the lcm of its denominators, as a list of ints."""
    den = 1
    for x in values:
        den = den * x.denominator // gcd(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in values]


def _pivot_out(row, pivot_row, p, col):
    """p * row - row[col] * pivot_row (p > 0), which clears column col."""
    f = row[col]
    return [p * x - f * y for x, y in zip(row, pivot_row)]


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


def feasible(n, eqs=(), ge=(), gt=()):
    """Is there a rational x in QQ^n with a.x = b, a.x >= b, a.x > b as given?

    Constraints are (coeff_tuple, rhs) pairs with int or Fraction entries.
    Each is scaled once to an integer row.  Equalities are eliminated first
    by fraction-free Gaussian elimination with a positive pivot, so
    substituting into an inequality never flips it; then Fourier-Motzkin
    eliminates one variable at a time on rows of content 1, and strictness
    propagates through combinations.
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


def fm_pointed(generators):
    """No generator is 0 and the negative of none lies in the cone (integer FM).

    Each membership test eliminates the equalities first, so FM runs on
    only len(generators) - rank free coefficients.
    """
    gens = [tuple(g) for g in generators]
    if any(all(x == 0 for x in g) for g in gens):
        return False
    return not any(cone_member(tuple(-x for x in g), gens) for g in gens)


def _distinct_primitive(generators):
    rays = []
    for g in generators:
        ints = _integer_row([Fraction(x) for x in g])
        content = gcd(*ints)
        if content:
            p = tuple(x // content for x in ints)
            if p not in rays:
                rays.append(p)
    return rays


def fm_extreme_rays(generators):
    """Primitive sorted extreme rays of a strictly convex cone, or None if not
    strictly convex: a generator is dropped iff it lies in the cone of the
    others kept so far (integer FM)."""
    rays = _distinct_primitive(generators)
    if not fm_pointed(rays):
        return None
    keep = list(rays)
    for r in rays:
        others = [x for x in keep if x != r]
        if others and cone_member(r, others):
            keep = others
    return tuple(sorted(keep))


def fm_relative_interior_point_satisfies(rays, inequalities):
    """Some strictly positive combination x of the rays has a.x <= 0 for all a (integer FM)."""
    if not rays:
        return True
    m = len(rays)
    ge = [([1 if i == k else 0 for i in range(m)], 1) for k in range(m)]
    for a in inequalities:
        ge.append(([-sum(Fraction(x) * y for x, y in zip(a, r)) for r in rays], 0))
    return feasible(m, ge=ge)


def fraction_rank(rows):
    """Rank over QQ by Gauss-Jordan elimination in Fraction arithmetic."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _fraction_inverse(rows):
    """Inverse of a square rational matrix by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [r[n:] for r in aug]


def all_element_matrices(datum, galois):
    """Every element matrix of the Galois image, extended by the identity on the
    central torus of the datum (entry i belongs to group element i)."""
    t, n = datum.torus_rank, datum.rd.rank
    return [
        IntMatrix(
            [list(m.data[i]) + [0] * t for i in range(n)]
            + [[0] * n + [int(i == j) for j in range(t)] for i in range(t)]
        )
        for m in galois.matrices
    ]


def all_element_aut_character_lattices(datum, galois):
    """(xa, xa_ker) with one induced endomorphism per group element."""
    sc, n = datum.sigma_sc, datum.sigma_n
    mats = all_element_matrices(datum, galois)
    ambient = datum.ambient_dim
    return (
        quotient_with_action(datum.lattice, Lattice(ambient, n), mats),
        quotient_with_action(datum.lattice, Lattice(ambient, sc), mats),
    )


def br_vanishing_test(t0, phi_star):
    """True iff the Brauer character t0 vanishes on the image of ``phi_star``.

    ``phi_star`` is a GroupHom into the source of t0 (the fixed points of the
    character module); by linearity it suffices to test the generator images.
    With the identity hom this degenerates to "t0 is the zero character".
    """
    if phi_star.target.invariant_factors != t0.source.invariant_factors:
        raise ValueError("homomorphism does not land in the character's source")
    return all(t0.evaluate(img) == 0 for img in phi_star.images)


def kappa_on_invariants(datum, characters, local):
    """The map from fixed automorphism characters to fixed center characters.

    ``characters`` is one of the groups of all_element_aut_character_lattices,
    carrying the action of every group element.  The orbit lattice sits
    inside the weight lattice, so classes of orbit weights modulo the doubled
    spherical roots push to classes modulo the root lattice; restricting to
    fixed points gives the hom whose vanishing under ``local.t0`` (a
    LocalCharacter) is the local existence condition.  This is the group
    route the engine's one lattice test replaced.
    """
    xa_inv, xa_incl = group_invariants(characters)
    images = []
    for img in xa_incl.images:
        coords = characters.lift(img)  # coordinates in the orbit-lattice basis
        ambient = apply_row(coords, datum.lattice.basis)
        images.append(local.class_of(ambient[: datum.rd.rank]))
    return GroupHom(xa_inv, local.inv, images)


def _fraction_restriction(datum, mat):
    """Rows: the Fraction coordinates, in the chosen basis, of each basis row
    moved by ``mat``, by projecting onto the row space of the basis B
    (v B^T (B B^T)^-1), with the check that the projection recovers the row.
    None when some moved row leaves the rational span of the basis."""
    basis = [list(r) for r in datum.basis.data]
    gram_inv = _fraction_inverse([[sum(a * b for a, b in zip(r, s)) for s in basis] for r in basis])
    rows = []
    for r in basis:
        v = naive_apply_row(r, mat.data, mat.cols)
        dots = [sum(a * b for a, b in zip(v, s)) for s in basis]
        coords = [sum(d * g[j] for d, g in zip(dots, gram_inv)) for j in range(len(basis))]
        if tuple(sum(c * s[j] for c, s in zip(coords, basis)) for j in range(mat.cols)) != v:
            return None
        rows.append(coords)
    return rows


def _fraction_moved_image(image, r_inv, perm):
    rho, sig = image
    return (
        tuple(sum((a * Fraction(x) for a, x in zip(row, rho)), Fraction(0)) for row in r_inv),
        frozenset(perm[i] for i in sig),
    )


def fraction_omega_perms(datum, galois):
    """Per generator, each color image (rho, sigma_set) moved in Fraction arithmetic.

    The generator's restriction R to the chosen basis is inverted over QQ, and
    a functional moves to R^-1 rho; moving sets follow the node permutation.
    Returns, per generator, a dict from image to moved image (which need not
    be an image: then the action does not preserve the colors).
    """
    from spherical_models.rootdata import node_permutation

    mats = all_element_matrices(datum, galois)
    images = {(c.rho, c.sigma_set) for c in datum.colors}
    out = []
    for gi in galois.generators:
        r_inv = _fraction_inverse(_fraction_restriction(datum, mats[gi]))
        perm = node_permutation(datum.rd, galois.matrices[gi])
        out.append({image: _fraction_moved_image(image, r_inv, perm) for image in images})
    return out


def set_based_unstable_generator(datum, galois):
    """The first generator that moves the invariants, or None, checked set by set.

    Per generator, in Fraction arithmetic: it permutes the simple roots; it
    maps the orbit lattice into itself (each moved basis row lies in the
    rational span with integer coordinates); it preserves the spherical-root
    set; and it preserves the set of one-color images and the set of
    two-color images, each compared as a whole.
    """
    n = datum.rd.rank
    simple = [tuple(datum.rd.simple_root(i)) for i in range(1, n + 1)]
    mats = all_element_matrices(datum, galois)
    counts = {}
    for c in datum.colors:
        counts[(c.rho, c.sigma_set)] = counts.get((c.rho, c.sigma_set), 0) + 1
    by_size = [{image for image, k in counts.items() if k == size} for size in (1, 2)]
    for k, gi in enumerate(galois.generators):
        g, m = galois.matrices[gi], mats[gi]
        moved_simple = [naive_apply_row(s, g.data, n) for s in simple]
        if sorted(moved_simple) != sorted(simple):
            return k
        perm = {i + 1: simple.index(v) + 1 for i, v in enumerate(moved_simple)}
        restriction = _fraction_restriction(datum, m)
        if restriction is None or any(Fraction(x).denominator != 1 for r in restriction for x in r):
            return k
        if {naive_apply_row(s, m.data, m.cols) for s in datum.sigma} != set(datum.sigma):
            return k
        r_inv = _fraction_inverse(restriction)
        for images in by_size:
            if {_fraction_moved_image(i, r_inv, perm) for i in images} != images:
                return k
    return None


# -- epsilon coordinates (types B, C, D) ----------------------------------------


def _epsilon_basis_matrix(t):
    """Rows are the epsilon-coordinate vectors of the fundamental weights."""
    n = t.rank
    half = Fraction(1, 2)
    unit = [tuple(Fraction(int(k < i)) for k in range(n)) for i in range(1, n + 1)]
    if t.family == "B":
        return unit[: n - 1] + [(half,) * n]
    if t.family == "C":
        return unit
    if t.family == "D":
        return unit[: n - 2] + [(half,) * (n - 1) + (-half,), (half,) * n]
    raise ValueError("epsilon coordinates are defined for types B, C, D only")


def epsilon_coordinates(t, v):
    """Exact epsilon coordinates of a weight-coordinate vector (types B/C/D)."""
    rows = _epsilon_basis_matrix(t)
    if len(v) != t.rank:
        raise ValueError("dimension mismatch")
    return tuple(sum((Fraction(x) * row[k] for x, row in zip(v, rows)), Fraction(0)) for k in range(t.rank))


def in_epsilon_lattice(t, v):
    """True iff the weight-coordinate vector v has integral epsilon coordinates."""
    return all(x.denominator == 1 for x in epsilon_coordinates(t, v))


def weight_coordinates_from_epsilon(t, eps):
    """Weight coordinates of an epsilon-coordinate vector (types B/C/D), in Fraction
    arithmetic: eps times the inverse of the epsilon basis of the fundamental weights."""
    inv = _fraction_inverse(_epsilon_basis_matrix(t))
    return tuple(sum(Fraction(e) * row[i] for e, row in zip(eps, inv)) for i in range(t.rank))


def diagram_automorphisms_by_search(t):
    """Every node permutation preserving the Cartan matrix, by backtracking over
    the image of each node in turn; identity first, then in sorted order."""
    from spherical_models.rootdata import DiagramAutomorphism, cartan_matrix

    c = cartan_matrix(t).data
    n = t.rank
    found = []

    def extend(partial):
        i = len(partial)
        if i == n:
            found.append(tuple(partial))
            return
        for img in range(n):
            if img in partial or c[i][i] != c[img][img]:
                continue
            if all(c[j][i] == c[partial[j]][img] and c[i][j] == c[img][partial[j]] for j in range(i)):
                partial.append(img)
                extend(partial)
                partial.pop()

    extend([])
    found.sort(key=lambda p: (p != tuple(range(n)), p))
    return [DiagramAutomorphism(p) for p in found]


# -- the routes a warm decision replaced ---------------------------------------
#
# The engine reads the fixed points of a lattice from the coordinates of the
# action in its basis, tests a character on generators by one integer dot
# product, checks documents with closures compiled from cli.SCHEMA and
# writes the verdict JSON directly.  The routes it took before live here.


def fixed_sublattice_by_ambient(lattice, mats, modulo=None):
    """The points x of ``lattice`` with x g - x in ``modulo`` for every g, from
    the ambient matrices: the coefficient rows c with c (B g - B) in
    ``modulo``, all g side by side against a blockwise target, for B the
    canonical basis.  The matrices must stabilize both lattices."""
    if isinstance(lattice, int):
        lattice = Lattice.full(lattice)
    n = lattice.ambient_rank
    if action_coordinates(lattice, mats) is None:
        raise ValueError("action does not stabilize the lattice")
    if modulo is not None and action_coordinates(modulo, mats) is None:
        raise ValueError("action does not stabilize the subgroup of relations")
    b = lattice.basis
    if not mats or b.rows == 0:
        return Lattice(n, b.data)
    diffs = [[[x - y for x, y in zip(moved, row)] for moved, row in zip((b * g).data, b.data)] for g in mats]
    stacked = IntMatrix([sum((d[i] for d in diffs), []) for i in range(b.rows)])
    target = None
    if modulo is not None:
        count = len(mats)
        target = Lattice(n * count, [
            [0] * (i * n) + list(r) + [0] * ((count - 1 - i) * n)
            for i in range(count) for r in modulo.basis.data
        ])
    return Lattice(n, [apply_row(c, b) for c in preimage_lattice(stacked, target)])


def first_failing_row_by_class_of(local, lattice, mats, modulo=None):
    """The first canonical basis row of the points of ``lattice`` fixed modulo
    ``modulo`` whose center class, read by ``local.class_of`` from its weight
    coordinates, ``local.t0`` does not kill; None when it kills them all."""
    rank = local.fixed.ambient_rank
    rows = fixed_sublattice_by_ambient(lattice, mats, modulo).basis.data
    return next((r for r in rows if local.t0.evaluate(local.class_of(r[:rank]))), None)


def shape_error_by_walk(value, shape):
    """(path suffix, message) for the first misfit of ``value`` to a shape of
    cli.SCHEMA, or None, by walking the shape recursively on every call."""
    from spherical_models.cli import Required

    def required(alt):
        return [key for key, sub in alt.items() if type(sub) is Required]

    if shape is int:
        if type(value) is int:
            return None
        return "", "expected an integer, got %s" % json.dumps(value, default=repr)
    if shape is str:
        return None if type(value) is str else ("", "expected a string")
    if shape is bool:
        return None if type(value) is bool else ("", "expected true or false")
    if shape is object:
        return None
    if shape is list:
        return None if isinstance(value, (list, tuple)) else ("", "expected a list")
    if isinstance(shape, tuple):
        if value in shape:
            return None
        fits = [
            alt for alt in shape
            if alt is list and isinstance(value, list) or (
                isinstance(alt, dict) and isinstance(value, dict)
                and all(key in value for key in required(alt))
            )
        ]
        if len(fits) == 1:
            return shape_error_by_walk(value, fits[0])
        words = [
            "null" if alt is None else "a list" if alt is list
            else 'an object with "%s"' % '", "'.join(required(alt)) if isinstance(alt, dict)
            else json.dumps(alt)
            for alt in shape
        ]
        return "", "expected %s or %s" % (", ".join(words[:-1]), words[-1])
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return "", "expected an object"
        for key, sub in shape.items():
            if type(sub) is Required:
                if key not in value:
                    return "", "missing required key %r" % key
                sub = sub.shape
            if key in value:
                err = shape_error_by_walk(value[key], sub)
                if err is not None:
                    return ".%s%s" % (key, err[0]), err[1]
        return None
    (item,) = shape
    if not isinstance(value, (list, tuple)):
        of = " of integers" if item is int else " of integer rows" if item == [int] else ""
        return "", "expected a list" + of
    for k, x in enumerate(value):
        err = shape_error_by_walk(x, item)
        if err is not None:
            return "[%d]%s" % (k, err[0]), err[1]
    return None


def verdict_json_by_encoder(doc):
    """The verdict JSON as the json encoder writes it: sorted keys, indent 2."""
    return json.dumps(doc, sort_keys=True, indent=2)
