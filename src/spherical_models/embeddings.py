"""Colored cones and fans in the dual space of the orbit weight lattice.

A colored cone is a set of ray generators in Hom(orbit lattice, QQ)
together with a set of color ids whose functionals are adjoined to the
cone.  Ray entries are exact rationals, an ``int`` when integral and a
``Fraction`` otherwise, like the color functionals.  Canonical form is the
sorted primitive extreme rays of the merged cone, by integer double
description, plus the sorted color ids: equal colored cones are equal keys.
Fans are given by their maximal colored cones; face closure is not
validated (stability testing only needs equality of colored cones), but
strict convexity, distinctness, containment of color functionals, and
"relative interior meets the valuation cone" are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .polyhedra import (
    DIM_CAP,
    extreme_rays,
    relative_interior_point_satisfies,
)
from .spherical import _exact_rational


@dataclass(frozen=True)
class ColoredCone:
    """A strictly convex cone with colors, in canonical form after cone_canonicalize."""

    rays: tuple
    colors: frozenset

    def __post_init__(self):
        object.__setattr__(
            self, "rays", tuple(tuple(map(_exact_rational, r)) for r in self.rays)
        )
        object.__setattr__(self, "colors", frozenset(str(c) for c in self.colors))

    def key(self):
        return (self.rays, tuple(sorted(self.colors)))


def cone_canonicalize(cone, datum):
    """Canonical form: primitive integer extreme rays of cone(rays + color functionals).

    Rejects generators whose length is not the orbit rank, non-strictly-convex
    cones and colors with zero functional.
    """
    for r in cone.rays:
        if len(r) != datum.rank:
            raise ValueError("a generator has length %d, not the orbit rank %d" % (len(r), datum.rank))
    by_id = {c.id: c for c in datum.colors}
    gens = list(cone.rays)
    for cid in sorted(cone.colors):
        if cid not in by_id:
            raise ValueError("unknown color id %r" % (cid,))
        rho = by_id[cid].rho
        if all(x == 0 for x in rho):
            raise ValueError("color %s has zero functional" % cid)
        gens.append(rho)
    if datum.rank > DIM_CAP:
        raise ValueError("dual space dimension exceeds the supported cap")
    rays = extreme_rays(gens)
    return ColoredCone(rays, cone.colors)


class ColoredFan:
    """Maximal colored cones of an embedding, canonicalized and distinct.

    Each cone's relative interior must meet the valuation cone of the datum.

    ``keys`` holds the canonical key of every maximal cone, with the rays
    as integer tuples (canonical rays are primitive integer vectors).
    """

    __slots__ = ("cones", "datum", "keys")

    def __init__(self, cones, datum):
        canon = []
        seen = set()
        for c in cones:
            cc = cone_canonicalize(c, datum)
            if cc.key() in seen:
                raise ValueError("duplicate maximal colored cone")
            seen.add(cc.key())
            canon.append(cc)
        self.cones = tuple(canon)
        self.datum = datum
        self.keys = frozenset(seen)
        for cc in self.cones:
            if not relative_interior_point_satisfies(cc.rays, datum.valuation_rows):
                raise ValueError("a maximal cone's relative interior misses the valuation cone")

    def to_dict(self):
        return [
            {
                "generators": [[str(x) for x in r] for r in c.rays],
                "colors": sorted(c.colors),
            }
            for c in self.cones
        ]


def fan_stable(fan, action, lift):
    """Is the fan stable under every generator, with the chosen color lift?

    ``action`` is the ``orbit_action`` of the fan's datum; an action that
    does not preserve the invariants is refused.  For each generator the
    image of every maximal colored cone (rays moved contragrediently by
    ``action.r_invs[k]``, colors moved by the lift) must again be a maximal
    cone of the fan.

    The image of a canonical cone is already canonical, so it is moved, not
    recomputed: the inverse restriction is unimodular and sends the
    primitive extreme rays to the primitive extreme rays of the image, and
    since the lift covers the action on color images, each moved color's
    functional is the moved old one and lies in the moved cone.
    """
    action = action.stable()
    _check_lift_covers_omega(action, lift)
    for k, r_inv in enumerate(action.r_invs):
        gmap = lift.mapping(k)
        if any(_moved_key(key, r_inv.data, gmap) not in fan.keys for key in fan.keys):
            return False
    return True


def _moved_key(key, rows, gmap):
    """Canonical key of the image of a canonical colored cone (see fan_stable)."""
    rays, colors = key
    moved = sorted(tuple(sum(map(mul, row, r)) for row in rows) for r in rays)
    return (tuple(moved), tuple(sorted(gmap[c] for c in colors)))


def _check_lift_covers_omega(action, lift):
    color_fiber = {cid: key for key, ids in action.fibers.items() for cid in ids}
    if len(lift.generator_maps) != len(action.perms):
        raise ValueError("lift has the wrong number of generator maps")
    for k, perm in enumerate(action.perms):
        gmap = lift.mapping(k)
        if set(gmap) != set(color_fiber) or set(gmap.values()) != set(color_fiber):
            raise ValueError("lift is not a permutation of the colors")
        for cid, img in gmap.items():
            if color_fiber[img] != perm[color_fiber[cid]]:
                raise ValueError("lift does not cover the action on color images")


def stabilizing_lift(fan, action):
    """First lift (in ``action.lifts()`` order) making the fan stable, or None.

    ``action`` is the ``orbit_action`` of the fan's datum; an action that
    does not preserve the invariants is refused.
    """
    return next((lift for lift in action.lifts() if fan_stable(fan, action, lift)), None)
