"""Combinatorial invariants of spherical homogeneous spaces.

A datum is the weight lattice of the open orbit (with a chosen basis inside
the ambient weight coordinates), the spherical roots, and the colors with
their valuation functionals and moving simple roots.  From these the engine
derives the one- and two-fiber color images, the doubled spherical roots
that present the character groups of the equivariant automorphism group and
of its color-fixing subgroup, Galois stability, and lifts of the Galois
action from color images to colors.

Functionals on the weight lattice of the orbit are exact rational row
vectors in the coordinates dual to the chosen basis, with an ``int`` for
each integral entry and a ``Fraction`` only for a proper fraction (equal
values compare and hash the same either way); half-integral values are
first class.  The Galois action moves them as integer numerators over one
common denominator per datum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian
from math import lcm
from operator import mul

from .lattice import (
    IntMatrix,
    Lattice,
    _RowSolver,
    _matrix,
    _unimodular_inverse,
    apply_row,
    quotient_group,
)
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
class ColorLift:
    """A lift of the Galois action on color images to the colors themselves.

    One permutation of color ids per Galois generator, each compatible with
    the induced permutation of the (rho, sigma) images.  The permutations are
    stored as sorted (source, image) pairs.
    """

    generator_maps: tuple

    def mapping(self, gen_index):
        return dict(self.generator_maps[gen_index])


class SphericalDatum:
    """Spherical-orbit invariants over a fixed based root datum.

    ``basis`` rows are the chosen basis of the orbit weight lattice, written
    in ambient weight coordinates (optionally extended by ``torus_rank``
    central torus coordinates).  ``sigma`` rows are spherical roots in the
    same ambient coordinates; each must lie in the root lattice and in the
    orbit lattice.  ``sigma234`` flags (indices into sigma) mark the roots
    that double in the normalizer computation; they are input data, never
    inferred.

    The constructor is the one place where a datum is checked and its
    combinatorics derived; ValueError on invalid data.  Derived attributes:

    - ``valuation_rows``: the coordinates of each spherical root in the
      chosen basis; the valuation cone is {v : a . v <= 0 for each row a}.
    - ``fibers``: the sorted color ids over each color image (rho,
      sigma_set), images in the order of their sorted moving sets, then
      functionals; at most two colors share an image.
    - ``sigma_two``: the simple spherical roots whose two colors share a
      functional, in the order of ``sigma``.
    - ``sigma_sc`` and ``sigma_n``: the doubled root sets presenting the
      automorphism character groups.  The first doubles only the flagged
      roots, the second also ``sigma_two``; the flags may not overlap
      ``sigma_two``.
    """

    __slots__ = (
        "rd", "basis", "sigma", "colors", "sigma234", "torus_rank", "lattice",
        "valuation_rows", "fibers", "sigma_two", "sigma_sc", "sigma_n",
    )

    def __init__(self, rd, basis, sigma, colors, sigma234=(), torus_rank=0):
        colors = tuple(colors)
        if len(colors) > MAX_COLORS:
            raise ValueError("more than %d colors is out of scope" % MAX_COLORS)
        self.rd = rd
        self.torus_rank = int(torus_rank)
        if self.torus_rank < 0:
            raise ValueError("torus_rank must be at least 0, got %d" % self.torus_rank)
        ambient = rd.rank + self.torus_rank
        basis = IntMatrix([list(r) for r in basis], cols=ambient)
        if basis.cols != ambient:
            raise ValueError("basis rows must have the ambient length %d" % ambient)
        self.lattice = _RowSolver(basis)
        if self.lattice.rank != basis.rows:
            raise ValueError("basis rows are not linearly independent")
        self.basis = basis
        sigma = tuple(tuple(int(x) for x in s) for s in sigma)
        root_lat = rd.root_lattice
        rows = []
        for s in sigma:
            if len(s) != ambient:
                raise ValueError("spherical root has wrong length")
            if any(s[rd.rank :]):
                raise ValueError("spherical roots have no central-torus component")
            if not root_lat.member(s[: rd.rank]):
                raise ValueError("spherical root %r is not in the root lattice" % (s,))
            coords = self.lattice.solve(s)
            if coords is None:
                raise ValueError("spherical root %r is not in the orbit lattice" % (s,))
            rows.append(coords)
        if sigma:
            sig_lat = Lattice(ambient, sigma)
            if sig_lat.rank != len(sigma):
                raise ValueError("spherical roots are not linearly independent")
        self.sigma = sigma
        self.valuation_rows = tuple(rows)
        seen = set()
        for c in colors:
            if c.id in seen:
                raise ValueError("duplicate color id %r" % (c.id,))
            seen.add(c.id)
            if len(c.rho) != basis.rows:
                raise ValueError("functional of %s has wrong length" % c.id)
            if not c.sigma_set <= set(range(1, rd.rank + 1)):
                raise ValueError("moving set of %s mentions unknown nodes" % c.id)
        self.colors = colors
        sigma234 = frozenset(int(i) for i in sigma234)
        if not sigma234 <= set(range(len(sigma))):
            raise ValueError("doubling flags must index the spherical roots")
        self.sigma234 = sigma234
        # a node moves two colors exactly when its simple root is spherical
        torus = (0,) * self.torus_rank
        simple = {tuple(rd.simple_root(i)) + torus: i for i in range(1, rd.rank + 1)}
        root_at = {simple[s]: s for s in sigma if s in simple}
        two = set()
        for i in range(1, rd.rank + 1):
            moved = [c for c in colors if i in c.sigma_set]
            if len(moved) > 2:
                raise ValueError("more than two colors moved by node %d" % i)
            if (len(moved) == 2) != (i in root_at):
                raise ValueError(
                    "node %d moves %d colors, inconsistent with the spherical roots"
                    % (i, len(moved))
                )
            if i in root_at and moved[0].rho == moved[1].rho:
                two.add(root_at[i])
        self.fibers = _fibers(colors)
        self.sigma_two = tuple(s for s in sigma if s in two)
        flagged = {sigma[i] for i in sigma234}
        if flagged & two:
            raise ValueError("doubling flags overlap the colinear-color simple roots")
        self.sigma_sc = tuple(_double(s) if s in flagged else s for s in sigma)
        self.sigma_n = tuple(_double(s) if s in flagged or s in two else s for s in sigma)

    @property
    def ambient_dim(self):
        return self.rd.rank + self.torus_rank

    @property
    def rank(self):
        return self.basis.rows

    def to_dict(self):
        doc = {
            "root_datum": str(self.rd.type),
            "X": [list(r) for r in self.basis.data],
            "sigma": [list(s) for s in self.sigma],
            "colors": [
                {
                    "id": c.id,
                    "rho": [str(x) for x in c.rho],
                    "sigma_set": sorted(c.sigma_set),
                }
                for c in self.colors
            ],
            "sigma234": sorted(self.sigma234),
        }
        if self.torus_rank:
            doc["torus_rank"] = self.torus_rank
        return doc


def _exact_rational(x):
    """The one reader of exact rationals: ``x`` as an int when it is integral,
    otherwise as a reduced Fraction.  An int is kept, a ``"[sign]digits"``
    string becomes an int, and any other value but a Fraction is read through
    its string as Fraction reads a ``"p/q"`` string; ValueError if it is none."""
    if type(x) is int:
        return x
    if type(x) is str and (x[1:] if x[:1] in "+-" else x).isdecimal():
        return int(x)  # exactly the strings Fraction reads as [sign]digits
    if not isinstance(x, Fraction):
        try:
            x = Fraction(str(x))
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (x,)) from None
    return x.numerator if x.denominator == 1 else x


def _fibers(colors):
    """The sorted color ids over each color image (rho, sigma_set), as
    ``SphericalDatum.fibers`` describes; three colors over one image are
    refused."""
    fibers = {}
    for c in colors:
        fibers.setdefault((c.rho, c.sigma_set), []).append(c.id)
    out = {}
    for key in sorted(fibers, key=lambda k: (sorted(k[1]), k[0])):
        ids = tuple(sorted(fibers[key]))
        if len(ids) > 2:
            raise ValueError("three colors share the same image: %s" % ", ".join(ids))
        out[key] = ids
    return out


def _double(v):
    return tuple(2 * x for x in v)


def aut_character_lattices(datum):
    """Character groups of the automorphism group and its color-fixing kernel.

    Returns (xa, xa_ker) where xa is the quotient of the orbit lattice by the
    span of the fully doubled roots and xa_ker the quotient by the span of
    the partially doubled ones.
    """
    return _doubled_quotient(datum, datum.sigma_n), _doubled_quotient(datum, datum.sigma_sc)


def _doubled_quotient(datum, roots):
    """The orbit lattice modulo the span of ``roots``."""
    return quotient_group(datum.lattice, Lattice(datum.ambient_dim, roots))


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
    """Matrix of the action on the orbit lattice in the chosen basis, or None.

    Row i holds the coordinates of basis row i moved by ``mat``; None when
    some moved row leaves the lattice.
    """
    rows = []
    for row in datum.basis.data:
        c = datum.lattice.solve(apply_row(row, mat))
        if c is None:
            return None
        rows.append(c)
    return _matrix(rows, datum.basis.rows)


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

    The doubling flags are determined by the subgroup, so an action that
    preserves everything else must preserve them too: ValueError, naming the
    generator, when a stable action moves the flagged roots.
    """
    mats = _extended_matrices(datum, galois)
    fibers = datum.fibers
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
    flagged = {datum.sigma[i] for i in datum.sigma234}
    for k, m in enumerate(mats):
        if {apply_row(s, m) for s in flagged} != flagged:
            raise ValueError("generator %d moves the doubling flags (sigma234)" % (k + 1))
    return OrbitAction(None, fibers, tuple(perms), tuple(r_invs))
