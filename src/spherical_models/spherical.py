"""Combinatorial invariants of spherical homogeneous spaces.

A datum is the weight lattice of the open orbit (with a chosen basis inside
the ambient weight coordinates), the spherical roots, and the colors with
their valuation functionals and moving simple roots.  From these the engine
derives the one- and two-fiber color images, the doubled spherical roots
that present the character groups of the equivariant automorphism group and
of its color-fixing subgroup, Galois stability, lifts of the Galois action
from color images to colors, and the quasi-affine cover datum.

Functionals on the weight lattice of the orbit are exact rational row
vectors in the coordinates dual to the chosen basis; half-integral values
are first class.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian

from .lattice import (
    GroupHom,
    IntMatrix,
    Lattice,
    _unimodular_inverse,
    apply_row,
    solve_row,
)
from .polyhedra import DIM_CAP, strictly_convex
from .rootdata import node_permutation

MAX_COLORS = 16


@dataclass(frozen=True)
class Color:
    """A color: its valuation functional and the simple roots moving it."""

    id: str
    rho: tuple
    sigma_set: frozenset

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(Fraction(x) for x in self.rho))
        object.__setattr__(self, "sigma_set", frozenset(int(i) for i in self.sigma_set))


@dataclass(frozen=True)
class OmegaElement:
    """An element of the image of colors under (rho, sigma), with fiber size."""

    rho: tuple
    sigma_set: frozenset
    multiplicity: int


@dataclass(frozen=True)
class ColorLift:
    """A lift of the Galois action on color images to the colors themselves.

    One permutation of color ids per Galois generator, each compatible with
    the induced permutation of the (rho, sigma) images.  The permutations are
    stored as sorted (source, image) pairs.
    """

    generator_maps: tuple

    def mapping(self, gen_index):
        return dict(self.generator_maps[gen_index])

    def apply(self, gen_index, color_id):
        return self.mapping(gen_index)[color_id]

    def is_identity(self):
        return all(a == b for gmap in self.generator_maps for a, b in gmap)


class SphericalDatum:
    """Spherical-orbit invariants over a fixed based root datum.

    ``basis`` rows are the chosen basis of the orbit weight lattice, written
    in ambient weight coordinates (optionally extended by ``torus_rank``
    central torus coordinates).  ``sigma`` rows are spherical roots in the
    same ambient coordinates; each must lie in the root lattice and in the
    orbit lattice.  ``sigma234`` flags (indices into sigma) mark the roots
    that double in the normalizer computation; they are input data, never
    inferred.
    """

    __slots__ = ("rd", "basis", "sigma", "colors", "sigma234", "torus_rank", "lattice")

    def __init__(self, rd, basis, sigma, colors, sigma234=(), torus_rank=0):
        self.rd = rd
        self.torus_rank = int(torus_rank)
        ambient = rd.rank + self.torus_rank
        basis = IntMatrix([list(r) for r in basis], cols=ambient)
        if basis.cols != ambient:
            raise ValueError("basis rows must have the ambient length %d" % ambient)
        self.lattice = Lattice(ambient, basis.data)
        if self.lattice.rank != basis.rows:
            raise ValueError("basis rows are not linearly independent")
        self.basis = basis
        sigma = tuple(tuple(int(x) for x in s) for s in sigma)
        root_lat = rd.root_lattice
        for s in sigma:
            if len(s) != ambient:
                raise ValueError("spherical root has wrong length")
            if any(s[rd.rank :]):
                raise ValueError("spherical roots have no central-torus component")
            if not root_lat.member(s[: rd.rank]):
                raise ValueError("spherical root %r is not in the root lattice" % (s,))
            if not self.lattice.member(s):
                raise ValueError("spherical root %r is not in the orbit lattice" % (s,))
        if sigma:
            sig_lat = Lattice(ambient, sigma)
            if sig_lat.rank != len(sigma):
                raise ValueError("spherical roots are not linearly independent")
        self.sigma = sigma
        colors = tuple(colors)
        seen = set()
        for c in colors:
            if c.id in seen:
                raise ValueError("duplicate color id %r" % (c.id,))
            seen.add(c.id)
            if len(c.rho) != basis.rows:
                raise ValueError("functional of %s has wrong length" % c.id)
            if not c.sigma_set <= set(range(1, rd.rank + 1)):
                raise ValueError("moving set of %s mentions unknown nodes" % c.id)
        if len(colors) > MAX_COLORS:
            raise ValueError("more than %d colors is out of scope" % MAX_COLORS)
        self.colors = colors
        sigma234 = frozenset(int(i) for i in sigma234)
        if not sigma234 <= set(range(len(sigma))):
            raise ValueError("doubling flags must index the spherical roots")
        self.sigma234 = sigma234
        self._validate_moving_sets()

    # -- construction-time structure checks --------------------------------

    def _validate_moving_sets(self):
        simple_in_sigma = {
            i for i in range(1, self.rd.rank + 1) if self._simple_root_vec(i) in self.sigma
        }
        for i in range(1, self.rd.rank + 1):
            moved = self.moved_colors(i)
            if len(moved) > 2:
                raise ValueError("more than two colors moved by node %d" % i)
            if (len(moved) == 2) != (i in simple_in_sigma):
                raise ValueError(
                    "node %d moves %d colors, inconsistent with the spherical roots"
                    % (i, len(moved))
                )

    def _simple_root_vec(self, i):
        return tuple(self.rd.simple_root(i)) + (0,) * self.torus_rank

    @property
    def ambient_dim(self):
        return self.rd.rank + self.torus_rank

    @property
    def rank(self):
        return self.basis.rows

    def moved_colors(self, node):
        return tuple(c for c in self.colors if node in c.sigma_set)

    def coords_in_basis(self, v):
        """Integer coordinates of an ambient vector in the chosen basis."""
        return solve_row(self.basis, tuple(v))

    def valuation_cone_inequalities(self):
        """Rows a with the valuation cone = {v : a . v <= 0 for all rows}.

        In coordinates dual to the chosen basis, the row for a spherical
        root sigma is its coordinate vector in the chosen basis.
        """
        rows = []
        for s in self.sigma:
            c = self.coords_in_basis(s)
            if c is None:
                raise ValueError("spherical root outside the lattice")
            rows.append(tuple(Fraction(x) for x in c))
        return tuple(rows)

    def to_dict(self):
        doc = {
            "root_datum": str(self.rd.type),
            "X": [list(r) for r in self.basis.data],
            "sigma": [list(s) for s in self.sigma],
            "colors": [
                {
                    "id": c.id,
                    "rho": [_fmt_fraction(x) for x in c.rho],
                    "sigma_set": sorted(c.sigma_set),
                }
                for c in self.colors
            ],
            "sigma234": sorted(self.sigma234),
        }
        if self.torus_rank:
            doc["torus_rank"] = self.torus_rank
        return doc

    @classmethod
    def from_dict(cls, rd, doc):
        colors = [
            Color(
                str(c["id"]),
                tuple(Fraction(str(x)) for x in c["rho"]),
                frozenset(c["sigma_set"]),
            )
            for c in doc.get("colors", [])
        ]
        return cls(
            rd,
            doc["X"],
            doc.get("sigma", []),
            colors,
            sigma234=doc.get("sigma234", []),
            torus_rank=doc.get("torus_rank", 0),
        )


def _fmt_fraction(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def omega_sets(datum):
    """Split the color image into one-preimage and two-preimage parts."""
    fibers = {}
    for c in datum.colors:
        fibers.setdefault((c.rho, c.sigma_set), []).append(c.id)
    omega1, omega2 = [], []
    for (rho, sig), ids in sorted(fibers.items(), key=lambda kv: (sorted(kv[0][1]), kv[0][0])):
        if len(ids) > 2:
            raise ValueError("three colors share the same image: %s" % ", ".join(sorted(ids)))
        elem = OmegaElement(rho, sig, len(ids))
        (omega1 if len(ids) == 1 else omega2).append(elem)
    return tuple(omega1), tuple(omega2)


def sigma_two(datum):
    """Spherical roots that are simple and whose two colors share a functional."""
    out = []
    for idx, s in enumerate(datum.sigma):
        node = _node_of_simple_root(datum, s)
        if node is None:
            continue
        moved = datum.moved_colors(node)
        if len(moved) != 2:
            raise ValueError(
                "simple spherical root at node %d must move exactly two colors" % node
            )
        if moved[0].rho == moved[1].rho:
            out.append(s)
    return tuple(out)


def _node_of_simple_root(datum, s):
    for i in range(1, datum.rd.rank + 1):
        if s == datum._simple_root_vec(i):
            return i
    return None


def sigma_variants(datum):
    """The two doubled root sets presenting the automorphism character groups.

    The first doubles only the flagged roots; the second also doubles the
    simple roots with colinear color pairs.  The flags may not overlap the
    latter set.
    """
    s2 = set(sigma_two(datum))
    flagged = {datum.sigma[i] for i in datum.sigma234}
    if flagged & s2:
        raise ValueError("doubling flags overlap the colinear-color simple roots")
    sc, n = [], []
    for s in datum.sigma:
        sc.append(_double(s) if s in flagged else s)
        n.append(_double(s) if (s in flagged or s in s2) else s)
    return tuple(sc), tuple(n)


def _double(v):
    return tuple(2 * x for x in v)


def aut_character_lattices(datum, galois=None):
    """Character groups of the automorphism group and its color-fixing kernel.

    Returns (xa, xa_ker, projection) where xa is the quotient of the orbit
    lattice by the span of the fully doubled roots, xa_ker the quotient by
    the span of the partially doubled ones, and projection the natural
    surjection.  With ``galois`` given, both quotients carry the induced
    action (one endomorphism per group element).
    """
    sc, n = sigma_variants(datum)
    ambient = datum.ambient_dim
    lat = datum.lattice
    span_n = Lattice(ambient, n)
    span_sc = Lattice(ambient, sc)
    if not lat.contains(span_n):
        raise ValueError("doubled spherical roots leave the orbit lattice")
    mats = None
    if galois is not None:
        mats = list(_extended_matrices(datum, galois))
    from .lattice import quotient_group

    xa = quotient_group(lat, span_n, action=mats)
    xa_ker = quotient_group(lat, span_sc, action=mats)
    images = []
    for i in range(xa.rank):
        e = tuple(1 if j == i else 0 for j in range(xa.rank))
        images.append(xa_ker.from_ambient(xa.lift(e)))
    proj = GroupHom(xa, xa_ker, images)
    return xa, xa_ker, proj


def _extended_matrices(datum, galois):
    """Galois matrices extended by the identity on the central-torus block."""
    if galois.n != datum.rd.rank:
        raise ValueError("Galois action lives on the wrong lattice")
    t = datum.torus_rank
    if t == 0:
        return galois.matrices
    out = []
    for m in galois.matrices:
        rows = []
        for i in range(datum.rd.rank):
            rows.append(list(m.data[i]) + [0] * t)
        for i in range(t):
            rows.append([0] * datum.rd.rank + [1 if j == i else 0 for j in range(t)])
        out.append(IntMatrix(rows))
    return tuple(out)


def _restriction_to_basis(datum, mat):
    """Matrix of the action on the orbit lattice in the chosen basis, or None."""
    rows = []
    for r in datum.basis.data:
        c = datum.coords_in_basis(apply_row(r, mat))
        if c is None:
            return None
        rows.append(list(c))
    return IntMatrix(rows)


def _transformed_omega(datum, elem, r_inv, node_perm):
    rho = tuple(
        sum((Fraction(r_inv.data[i][j]) * elem.rho[j] for j in range(len(elem.rho))), Fraction(0))
        for i in range(len(elem.rho))
    )
    sig = frozenset(node_perm[i] for i in elem.sigma_set)
    return OmegaElement(rho, sig, elem.multiplicity)


def invariants_stable(datum, galois, witness=False):
    """Does every Galois generator preserve the combinatorial invariants?

    Checks, per generator: the orbit lattice, the spherical-root set (which
    pins the valuation cone), and both color-image sets, where functionals
    transform contragrediently and moving sets by the node permutation.
    With ``witness=True`` returns None for stable or the offending generator
    index.
    """
    mats = _extended_matrices(datum, galois)
    omega1, omega2 = omega_sets(datum)
    for k, gi in enumerate(galois.generators):
        m = mats[gi]
        moved = Lattice(datum.ambient_dim, [apply_row(r, m) for r in datum.basis.data])
        if moved != datum.lattice:
            return k if witness else False
        if {apply_row(s, m) for s in datum.sigma} != set(datum.sigma):
            return k if witness else False
        node_perm = node_permutation(datum.rd, galois.matrices[gi])
        restriction = _restriction_to_basis(datum, m)
        if node_perm is None or restriction is None:
            return k if witness else False
        r_inv = _unimodular_inverse(restriction)
        if {_transformed_omega(datum, e, r_inv, node_perm) for e in omega1} != set(omega1):
            return k if witness else False
        if {_transformed_omega(datum, e, r_inv, node_perm) for e in omega2} != set(omega2):
            return k if witness else False
    return None if witness else True


def omega_action(datum, galois):
    """Per-generator permutation of the fibers of the color-image map.

    Returns (fibers, perms): ``fibers`` maps a fiber key (rho, sigma_set) to
    its sorted color ids; ``perms[k]`` maps each key to its image key under
    the k-th generator.
    """
    fibers = {}
    for c in datum.colors:
        fibers.setdefault((c.rho, c.sigma_set), []).append(c.id)
    for ids in fibers.values():
        ids.sort()
    mats = _extended_matrices(datum, galois)
    perms = []
    for gi in galois.generators:
        m = mats[gi]
        node_perm = node_permutation(datum.rd, galois.matrices[gi])
        restriction = _restriction_to_basis(datum, m)
        if node_perm is None or restriction is None:
            raise ValueError("action does not preserve the invariants")
        r_inv = _unimodular_inverse(restriction)
        perm = {}
        for (rho, sig) in fibers:
            e = _transformed_omega(datum, OmegaElement(rho, sig, 1), r_inv, node_perm)
            key = (e.rho, e.sigma_set)
            if key not in fibers or len(fibers[key]) != len(fibers[(rho, sig)]):
                raise ValueError("action does not preserve the color images")
            perm[(rho, sig)] = key
        perms.append(perm)
    return fibers, perms


def enumerate_lifts(datum, galois):
    """All lifts of the Galois action on color images to the colors.

    A lift assigns to each generator a bijection of colors covering that
    generator's permutation of the images; fibers of size two contribute an
    independent binary choice per generator.  Enumeration order is
    deterministic: fibers in sorted key order, identity pairing before the
    swap.  The count is the number of fiber-wise bijection systems.
    """
    if len(datum.colors) > MAX_COLORS:
        raise ValueError("more than %d colors is out of scope" % MAX_COLORS)
    if invariants_stable(datum, galois) is not True:
        raise ValueError("the action does not preserve the combinatorial invariants")
    fibers, perms = omega_action(datum, galois)
    keys = sorted(fibers, key=lambda k: (sorted(k[1]), k[0]))
    lifts = []
    per_generator_choices = []
    for perm in perms:
        fiber_options = []
        for key in keys:
            src = fibers[key]
            dst = fibers[perm[key]]
            if len(src) == 1:
                fiber_options.append([((src[0], dst[0]),)])
            else:
                a, b = src
                c, d = dst
                fiber_options.append([((a, c), (b, d)), ((a, d), (b, c))])
        per_generator_choices.append(
            [tuple(sorted(sum(combo, ()))) for combo in _cartesian(*fiber_options)]
        )
    for assignment in _cartesian(*per_generator_choices):
        lifts.append(ColorLift(tuple(assignment)))
    return lifts


def quasiaffine_test(datum):
    """True iff no functional vanishes and they span a strictly convex cone."""
    rhos = [c.rho for c in datum.colors]
    if any(all(x == 0 for x in rho) for rho in rhos):
        return False
    if datum.rank > DIM_CAP:
        raise ValueError("orbit lattice rank exceeds the supported cap")
    return strictly_convex(rhos)


def quasiaffine_cover(datum, q=1):
    """The cover datum over the group extended by one torus factor per color.

    Adjoins, for each color, the weight that is q (doubled for colors moved
    only inside half the spherical roots) times the sum of the fundamental
    weights it moves, tagged by a fresh torus coordinate.  The returned
    datum's functionals take the old values on the old lattice, q on their
    own new weight and 0 on the others.  The defining case conditions are
    re-verified on the result, and the weight-monoid inequalities cutting
    out the regular functions are returned alongside.
    """
    q = int(q)
    if q < 1:
        raise ValueError("the stretching integer must be positive")
    rd = datum.rd
    old_ambient = datum.ambient_dim
    ncol = len(datum.colors)
    ambient = old_ambient + ncol
    half_sigma_nodes = {
        i
        for i in range(1, rd.rank + 1)
        if _double(datum._simple_root_vec(i)) in datum.sigma
    }
    rows = [list(r) + [0] * ncol for r in datum.basis.data]
    for k, c in enumerate(datum.colors):
        r_d = 2 if c.sigma_set and c.sigma_set <= half_sigma_nodes else 1
        lam = [0] * ambient
        for i in c.sigma_set:
            lam[i - 1] = q * r_d
        lam[old_ambient + k] = 1
        rows.append(lam)
    new_rank = len(rows)
    new_colors = []
    for k, c in enumerate(datum.colors):
        rho = list(c.rho) + [Fraction(0)] * ncol
        rho[datum.rank + k] = Fraction(q)
        new_colors.append(Color(c.id, tuple(rho), c.sigma_set))
    new_sigma = [tuple(s) + (0,) * ncol for s in datum.sigma]
    cover = SphericalDatum(
        rd,
        rows,
        new_sigma,
        new_colors,
        sigma234=datum.sigma234,
        torus_rank=datum.torus_rank + ncol,
    )
    problems = _check_cover_cases(cover)
    if problems:
        raise ValueError(
            "cover datum fails the color-functional case conditions: "
            + "; ".join("case (%d) at node %d" % (case, node) for case, node in problems)
        )
    # quasi-affineness: the functionals are linearly independent by the
    # block-triangular q entries, so none vanish and the cone is strictly
    # convex; verified by an exact rank computation (no dimension cap)
    if new_colors and _rational_rank([c.rho for c in new_colors]) != len(new_colors):
        raise ValueError("cover datum is not quasi-affine")
    inequalities = tuple(c.rho for c in new_colors)
    return cover, inequalities


def _rational_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / Fraction(rows[rank][col])
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _check_cover_cases(datum):
    """The four defining case conditions on color functionals, per node."""
    problems = []
    for i in range(1, datum.rd.rank + 1):
        moved = datum.moved_colors(i)
        coroot = tuple(
            Fraction(r[i - 1]) for r in datum.basis.data
        )  # <basis_j, alpha_i^vee>
        doubled = _double(datum._simple_root_vec(i)) in datum.sigma
        if len(moved) == 2:
            total = tuple(a + b for a, b in zip(moved[0].rho, moved[1].rho))
            if total != coroot:
                problems.append((1, i))
        elif len(moved) == 1:
            expect = (
                tuple(x / 2 for x in coroot) if doubled else coroot
            )
            if moved[0].rho != expect:
                problems.append((2 if doubled else 3, i))
        else:
            if any(coroot):
                problems.append((4, i))
    return problems
