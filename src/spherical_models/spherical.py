"""Combinatorial invariants of spherical homogeneous spaces.

A datum is the weight lattice of the open orbit (with a chosen basis inside
the ambient weight coordinates), the spherical roots, and the colors with
their valuation functionals and moving simple roots.  From these the engine
derives the one- and two-fiber color images, the doubled spherical roots
that present the character groups of the equivariant automorphism group and
of its color-fixing subgroup, Galois stability, lifts of the Galois action
from color images to colors, and the quasi-affine cover datum.

Functionals on the weight lattice of the orbit are exact rational row
vectors in the coordinates dual to the chosen basis, with an ``int`` for
each integral entry and a ``Fraction`` only for a proper fraction (equal
values compare and hash the same either way); half-integral values are
first class.  The Galois action moves them as integer numerators over one
common denominator per datum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian
from math import lcm
from operator import mul

from .lattice import (
    GroupHom,
    IntMatrix,
    Lattice,
    _RowSolver,
    _unimodular_inverse,
    apply_row,
    quotient_group,
    solve_row,
)
from .polyhedra import DIM_CAP, linearly_independent, strictly_convex
from .rootdata import node_permutation

MAX_COLORS = 16


@dataclass(frozen=True)
class Color:
    """A color: its valuation functional and the simple roots moving it."""

    id: str
    rho: tuple
    sigma_set: frozenset

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(map(_exact_rational, self.rho)))
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

    # the integer entries of a problem document (see check_integer_entries)
    INTEGER_ENTRIES = {
        "X": [[int]],
        "sigma": [[int]],
        "sigma234": [int],
        "torus_rank": int,
        "colors": [{"sigma_set": [int]}],
    }

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
            rows.append(tuple(c))
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
        check_integer_entries(doc, cls.INTEGER_ENTRIES)
        colors = [
            Color(
                str(c["id"]),
                tuple(map(_json_rational, c["rho"])),
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


def check_integer_entries(doc, shape, path=""):
    """Raise ValueError at the first entry of ``doc`` that does not fit ``shape``.

    A shape is ``int`` (a JSON integer), ``[item]`` (a list of items) or
    ``{key: shape}`` (an object; absent keys are not checked).  Strings and
    booleans are refused rather than coerced, so the exact kernels only ever
    see integers.
    """
    err = _shape_error(doc, shape)
    if err is not None:
        raise ValueError("%s%s: %s" % (path, err[0], err[1]))


def _shape_error(value, shape):
    """(path suffix, message) for the first misfit in ``value``, or None."""
    if shape is int:
        if type(value) is int:  # no booleans, no strings
            return None
        return "", "expected an integer, got %s" % json.dumps(value, default=repr)
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return "", "expected an object"
        for key, sub in shape.items():
            if key in value:
                err = _shape_error(value[key], sub)
                if err is not None:
                    return ".%s%s" % (key, err[0]), err[1]
        return None
    (item,) = shape
    if not isinstance(value, (list, tuple)):
        of = " of integers" if item is int else " of integer rows" if item == [int] else ""
        return "", "expected a list" + of
    if item is int and all(type(x) is int for x in value):
        return None  # the common case, without a call per entry
    for k, x in enumerate(value):
        err = _shape_error(x, item)
        if err is not None:
            return "[%d]%s" % (k, err[0]), err[1]
    return None


def _exact_rational(x):
    """``x`` as an int when it is integral, otherwise as a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _json_rational(x):
    """A rational entry of a problem document: an int as it is, an integral
    string as an int, else its "p/q" string as a Fraction; ValueError if none."""
    if type(x) is str and (x[1:] if x[:1] in "+-" else x).isdecimal():
        return int(x)  # exactly the strings Fraction reads as [sign]digits
    try:
        return x if type(x) is int else Fraction(str(x))
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (x,)) from None


def _fmt_fraction(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


def _fibers(datum):
    """The sorted color ids over each color image (rho, sigma_set).

    Images come in the order of their sorted moving sets, then functionals;
    three colors over one image are refused.
    """
    fibers = {}
    for c in datum.colors:
        fibers.setdefault((c.rho, c.sigma_set), []).append(c.id)
    out = {}
    for key in sorted(fibers, key=lambda k: (sorted(k[1]), k[0])):
        ids = tuple(sorted(fibers[key]))
        if len(ids) > 2:
            raise ValueError("three colors share the same image: %s" % ", ".join(ids))
        out[key] = ids
    return out


def omega_sets(datum):
    """Split the color image into one-preimage and two-preimage parts."""
    elems = [OmegaElement(rho, sig, len(ids)) for (rho, sig), ids in _fibers(datum).items()]
    return (
        tuple(e for e in elems if e.multiplicity == 1),
        tuple(e for e in elems if e.multiplicity == 2),
    )


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
    action, one endomorphism per Galois generator: a quotient stable under
    the generators is stable under the group, with the same fixed points.
    """
    sc, n = sigma_variants(datum)
    mats = None if galois is None else _extended_matrices(datum, galois)
    xa = _doubled_quotient(datum, n, mats)
    xa_ker = _doubled_quotient(datum, sc, mats)
    images = []
    for i in range(xa.rank):
        e = tuple(1 if j == i else 0 for j in range(xa.rank))
        images.append(xa_ker.from_ambient(xa.lift(e)))
    proj = GroupHom(xa, xa_ker, images)
    return xa, xa_ker, proj


def _aut_characters(datum, galois):
    """The first group of aut_character_lattices alone, with its Galois action."""
    return _doubled_quotient(datum, sigma_variants(datum)[1], _extended_matrices(datum, galois))


def _doubled_quotient(datum, roots, mats):
    """The orbit lattice modulo the span of ``roots``, with the induced action."""
    return quotient_group(datum.lattice, Lattice(datum.ambient_dim, roots), action=mats)


def _extended_matrices(datum, galois):
    """The Galois generator matrices, extended by the identity on the central torus.

    Entry k belongs to the k-th generator.
    """
    if galois.n != datum.rd.rank:
        raise ValueError("Galois action lives on the wrong lattice")
    t, n = datum.torus_rank, datum.rd.rank
    if t == 0:
        return galois.generator_matrices()
    torus = [[0] * n + [int(i == j) for j in range(t)] for i in range(t)]
    return tuple(
        IntMatrix([list(row) + [0] * t for row in m.data] + torus)
        for m in galois.generator_matrices()
    )


def _restriction_to_basis(datum, mat):
    """Matrix of the action on the orbit lattice in the chosen basis, or None."""
    solver = _RowSolver(datum.basis)
    rows = []
    for r in datum.basis.data:
        c = solver.solve(apply_row(r, mat))
        if c is None:
            return None
        rows.append(c)
    return IntMatrix(rows, cols=datum.rank)


@dataclass(frozen=True, eq=False)
class OrbitAction:
    """How the Galois generators move the combinatorial invariants of an orbit.

    ``unstable`` is the index of the first generator that moves them, or
    None.  For a stable action, ``fibers`` maps each color image
    (rho, sigma_set) to its sorted color ids, ``perms[k]`` maps each image
    to its image under the k-th generator, and ``r_invs[k]`` is the inverse
    of that generator's restriction to the orbit lattice in the chosen
    basis: it moves functionals and rays of the dual space contragrediently.
    """

    unstable: object
    fibers: dict
    perms: tuple = ()
    r_invs: tuple = ()

    def stable(self):
        """The value itself; ValueError if the action moves the invariants."""
        if self.unstable is not None:
            raise ValueError(
                "the action does not preserve the combinatorial invariants: generator %d "
                "moves the simple roots, the orbit lattice, the spherical roots or the "
                "color images" % (self.unstable + 1)
            )
        return self

    def lifts(self):
        """All lifts of the action on color images to the colors.

        A lift assigns to each generator a bijection of colors covering that
        generator's permutation of the images; fibers of size two contribute
        an independent binary choice per generator.  Enumeration order is
        deterministic: fibers in key order, identity pairing before the
        swap.  The count is the number of fiber-wise bijection systems.
        """
        per_generator_choices = []
        for perm in self.stable().perms:
            fiber_options = []
            for key, src in self.fibers.items():
                dst = self.fibers[perm[key]]
                if len(src) == 1:
                    fiber_options.append([((src[0], dst[0]),)])
                else:
                    a, b = src
                    c, d = dst
                    fiber_options.append([((a, c), (b, d)), ((a, d), (b, c))])
            per_generator_choices.append(
                [tuple(sorted(sum(combo, ()))) for combo in _cartesian(*fiber_options)]
            )
        return [ColorLift(tuple(a)) for a in _cartesian(*per_generator_choices)]


def orbit_action(datum, galois):
    """The Galois action on the invariants of an orbit, derived in one pass.

    Per generator: the permutation of the simple-root nodes, which moves the
    moving sets, and the restriction to the orbit lattice, whose inverse
    moves the functionals contragrediently (a generator has finite order,
    so into is onto).  Each color image is moved once, its functional as
    integer numerators over one common denominator of all functionals (a
    unimodular change of coordinates moves the numerators exactly as it
    moves the functionals).  A generator is unstable when
    it does not permute the simple roots, does not map the orbit lattice
    into itself, moves the spherical-root set (which pins the valuation
    cone), or sends a color image to a non-image or to a fiber of another
    size; the moved-image map is injective, so the last two say exactly
    that the one- and two-color image sets are preserved.
    """
    mats = _extended_matrices(datum, galois)
    fibers = _fibers(datum)
    den = lcm(*(x.denominator for rho, _ in fibers for x in rho))
    images = {
        (rho, sig): (tuple(x.numerator * (den // x.denominator) for x in rho), sig)
        for rho, sig in fibers
    }
    key_of = {image: key for key, image in images.items()}
    sigma = set(datum.sigma)
    perms, r_invs = [], []
    for k, (g, m) in enumerate(zip(galois.generator_matrices(), mats)):
        node_perm = node_permutation(datum.rd, g)
        restriction = _restriction_to_basis(datum, m)
        if node_perm is None or restriction is None or {apply_row(s, m) for s in sigma} != sigma:
            return OrbitAction(k, fibers)
        r_inv = _unimodular_inverse(restriction)
        perm = {}
        for key, (nums, sig) in images.items():
            moved = tuple(sum(map(mul, row, nums)) for row in r_inv.data)
            dst = key_of.get((moved, frozenset(node_perm[i] for i in sig)))
            if dst is None or len(fibers[dst]) != len(fibers[key]):
                return OrbitAction(k, fibers)
            perm[key] = dst
        perms.append(perm)
        r_invs.append(r_inv)
    return OrbitAction(None, fibers, tuple(perms), tuple(r_invs))


def invariants_stable(datum, galois, witness=False):
    """Does every Galois generator preserve the combinatorial invariants?

    See orbit_action.  With ``witness=True`` returns None for stable or the
    offending generator index.
    """
    k = orbit_action(datum, galois).unstable
    return k if witness else k is None


def omega_action(datum, galois):
    """Per-generator permutation of the fibers of the color-image map.

    Returns (fibers, perms) of the orbit_action; refuses an action that
    moves the invariants.
    """
    action = orbit_action(datum, galois).stable()
    return action.fibers, action.perms


def enumerate_lifts(datum, galois):
    """All lifts of the Galois action on color images to the colors (see
    OrbitAction.lifts); refuses an action that moves the invariants."""
    return orbit_action(datum, galois).lifts()


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
        rho = list(c.rho) + [0] * ncol
        rho[datum.rank + k] = q
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
    if not linearly_independent([c.rho for c in new_colors]):
        raise ValueError("cover datum is not quasi-affine")
    inequalities = tuple(c.rho for c in new_colors)
    return cover, inequalities


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
