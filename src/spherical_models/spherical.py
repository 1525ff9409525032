"""Combinatorial invariants of spherical homogeneous spaces.

A datum is the weight lattice of the open orbit (with a chosen basis inside
the ambient weight coordinates), the spherical roots, and the colors with
their valuation functionals and moving simple roots.  From these the engine
derives the one- and two-fiber color images, the doubled spherical roots
that present the character groups of the equivariant automorphism group and
of its color-fixing subgroup, and Galois stability.  A fan reads its lift
of the Galois action to the colors off itself (``stabilizing_lift``).

A color's functional restricts a valuation to the weight lattice of the
orbit, so it is an integer row vector in the coordinates dual to the chosen
basis; a proper fraction is refused.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul
from typing import NamedTuple

from .lattice import (
    IntMatrix,
    Lattice,
    _PermutationMatrix,
    _RowSolver,
    _matrix,
    _unimodular_inverse,
    action_coordinates,
    apply_row,
    integers,
    quotient_group,
    read_rational,
)
from .rootdata import MAX_RANK, node_permutation, simple_nodes


class Color(namedtuple("Color", "id rho sigma_set")):
    """A color: its integral valuation functional and the simple roots moving it."""

    __slots__ = ()

    def __new__(cls, id, rho, sigma_set):
        rho = tuple(map(read_rational, rho))
        if any(type(x) is not int for x in rho):
            raise ValueError("functional of %s is not integral" % id)
        return tuple.__new__(cls, (id, rho, frozenset(integers(sigma_set))))


class ColorLift(NamedTuple):
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

    - ``lattice``: the orbit lattice read in the chosen basis (_RowSolver).
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
        self.rd = rd
        (self.torus_rank,) = integers((torus_rank,))
        if self.torus_rank < 0:
            raise ValueError("torus_rank must be at least 0, got %d" % self.torus_rank)
        if self.torus_rank > MAX_RANK:
            raise ValueError("torus_rank must be at most %d, got %d" % (MAX_RANK, self.torus_rank))
        ambient = rd.rank + self.torus_rank
        basis = IntMatrix(basis, cols=ambient)
        if basis.cols != ambient:
            raise ValueError("basis rows must have the ambient length %d" % ambient)
        # more rows than coordinates are dependent: refused before the
        # solver, whose transform has rows x rows entries
        self.lattice = _RowSolver(basis) if basis.rows <= ambient else None
        if self.lattice is None or self.lattice.rank != basis.rows:
            raise ValueError("basis rows are not linearly independent")
        self.basis = basis
        sigma = tuple(map(integers, sigma))
        root_lat = rd.root_lattice
        rows = []
        for s in sigma:
            if len(s) != ambient:
                raise ValueError("spherical root has wrong length")
            if any(s[rd.rank :]):
                raise ValueError("spherical roots have no central-torus component")
            if not root_lat.member(s[: rd.rank]):
                raise ValueError("spherical root %r is not in the root lattice" % (s,))
            coords = self.lattice.coords_of(s)
            if coords is None:
                raise ValueError("spherical root %r is not in the orbit lattice" % (s,))
            rows.append(coords)
        if sigma:
            sig_lat = Lattice(ambient, sigma)
            if sig_lat.rank != len(sigma):
                raise ValueError("spherical roots are not linearly independent")
        self.sigma = sigma
        self.valuation_rows = tuple(rows)
        seen, fibers = set(), {}
        moved_by = {i: [] for i in range(1, rd.rank + 1)}  # the colors each node moves, in order
        for c in colors:
            if c.id in seen:
                raise ValueError("duplicate color id %r" % (c.id,))
            seen.add(c.id)
            if len(c.rho) != basis.rows:
                raise ValueError("functional of %s has wrong length" % c.id)
            if not moved_by.keys() >= c.sigma_set:
                raise ValueError("moving set of %s mentions unknown nodes" % c.id)
            for i in c.sigma_set:
                moved_by[i].append(c)
            fibers.setdefault((c.rho, c.sigma_set), []).append(c.id)
        self.colors = colors
        sigma234 = frozenset(integers(sigma234))
        if not sigma234 <= set(range(len(sigma))):
            raise ValueError("doubling flags must index the spherical roots")
        self.sigma234 = sigma234
        # a node moves two colors exactly when its simple root is spherical
        # (the central-torus coordinates of a spherical root are zero)
        node_of = simple_nodes(rd)
        root_at = {node_of[s[: rd.rank]]: s for s in sigma if s[: rd.rank] in node_of}
        two = set()
        for i, moved in moved_by.items():
            if len(moved) > 2:
                raise ValueError("more than two colors moved by node %d" % i)
            if (len(moved) == 2) != (i in root_at):
                raise ValueError(
                    "node %d moves %d colors, inconsistent with the spherical roots"
                    % (i, len(moved))
                )
            if i in root_at and moved[0].rho == moved[1].rho:
                two.add(root_at[i])
        self.fibers = {}
        for key in sorted(fibers, key=lambda k: (sorted(k[1]), k[0])):
            ids = self.fibers[key] = tuple(sorted(fibers[key]))
            if len(ids) > 2:
                raise ValueError("three colors share the same image: %s" % ", ".join(ids))
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
        _PermutationMatrix(m._src + tuple(range(n, n + t))) if m._src is not None
        else IntMatrix([list(row) + [0] * t for row in m.data] + torus)
        for m in galois.generator_matrices()
    )


class OrbitAction(NamedTuple):
    """How the Galois generators move the combinatorial invariants of an orbit.

    ``unstable`` is the index of the first generator that moves them, or
    None.  For a stable action, ``fibers`` maps each color image
    (rho, sigma_set) to its sorted color ids, ``perms[k]`` maps each image
    to its image under the k-th generator, ``restrictions[k]`` is the matrix
    of that generator on the orbit lattice in the chosen basis, as
    action_coordinates gives it, and ``r_invs[k]`` is its inverse: it moves
    functionals and rays of the dual space contragrediently.  A lift to the
    colors maps each fiber onto its image's (``stabilizing_lift``).
    """

    unstable: int | None
    fibers: dict
    perms: tuple = ()
    restrictions: tuple = ()
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


def orbit_action(datum, galois):
    """The Galois action on the invariants of an orbit, derived in one pass.

    Per generator: the permutation of the simple-root nodes, which moves the
    moving sets, and the restriction to the orbit lattice in the chosen
    basis (action_coordinates on ``datum.lattice``, kept for the cohomology
    test), whose inverse moves the functionals contragrediently (a
    generator has finite order, so into is onto).  Each color image is
    moved once, its integral functional by that inverse.  A generator
    is unstable when it does not permute the simple roots, does not map the
    orbit lattice into itself, moves the spherical-root set (which pins the
    valuation cone), or sends a color image to a non-image or to a fiber of
    another size; the moved-image map is injective, so the last two say
    exactly that the one- and two-color image sets are preserved.

    The doubling flags are determined by the subgroup, so an action that
    preserves everything else must preserve them too: ValueError, naming the
    generator, when a stable action moves the flagged roots.
    """
    mats = _extended_matrices(datum, galois)
    fibers = datum.fibers
    sigma = set(datum.sigma)
    perms, restrictions, r_invs = [], [], []
    for k, (g, m) in enumerate(zip(galois.generator_matrices(), mats)):
        node_perm = node_permutation(datum.rd, g)
        restriction = action_coordinates(datum.lattice, (m,))
        if node_perm is None or restriction is None or {apply_row(s, m) for s in sigma} != sigma:
            return OrbitAction(k, fibers)
        r_inv = _unimodular_inverse(_matrix(restriction[0], datum.rank))
        perm = {}
        for (rho, sig), ids in fibers.items():
            moved = tuple(sum(map(mul, row, rho)) for row in r_inv.data)
            dst = (moved, frozenset(node_perm[i] for i in sig))
            if len(fibers.get(dst, ())) != len(ids):
                return OrbitAction(k, fibers)
            perm[(rho, sig)] = dst
        perms.append(perm)
        restrictions.append(restriction[0])
        r_invs.append(r_inv)
    flagged = {datum.sigma[i] for i in datum.sigma234}
    for k, m in enumerate(mats):
        if {apply_row(s, m) for s in flagged} != flagged:
            raise ValueError("generator %d moves the doubling flags (sigma234)" % (k + 1))
    return OrbitAction(None, fibers, tuple(perms), tuple(restrictions), tuple(r_invs))
