"""Colored cones and fans in the dual space of the orbit weight lattice.

A colored cone is a set of ray generators in Hom(orbit lattice, QQ)
together with a set of color ids whose functionals are adjoined to the
cone.  A generator is read as exact rationals and held as the primitive
integer vector on its ray; color functionals are integral.  Canonical form is the
sorted primitive extreme rays of the merged cone, by integer double
description, plus the sorted color ids: equal colored cones are equal keys.
Fans are given by their maximal colored cones; face closure is not
validated (stability testing only needs equality of colored cones), but
strict convexity, distinct rays, containment of color functionals, and
"relative interior meets the valuation cone" are checked.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm
from operator import mul

from .lattice import read_rational
from .polyhedra import (
    DIM_CAP,
    GENERATOR_CAP,
    extreme_rays,
    primitive,
    relative_interior_point_satisfies,
)
from .spherical import ColorLift


class ColoredCone(namedtuple("ColoredCone", "rays colors")):
    """A strictly convex cone with colors, in canonical form after cone_canonicalize."""

    __slots__ = ()

    def __new__(cls, rays, colors):
        return tuple.__new__(cls, (tuple(map(_integer_ray, rays)), frozenset(str(c) for c in colors)))

    def key(self):
        return (self.rays, tuple(sorted(self.colors)))


def _integer_ray(generator):
    """The primitive integer vector on the ray of a generator read by
    read_rational: a positive scaling moves no cone."""
    row = [(x, 1) if type(x) is int else x for x in map(read_rational, generator)]
    den = lcm(*(q for _, q in row))
    return primitive([p * (den // q) for p, q in row])


def cone_canonicalize(cone, datum):
    """Canonical form: primitive integer extreme rays of cone(rays + color functionals).

    Rejects generators whose length is not the orbit rank, non-strictly-convex
    cones, colors with zero functional and more than GENERATOR_CAP generators
    and colors.
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
    if len(gens) > GENERATOR_CAP:
        raise ValueError("a cone has %d generators and colors, more than %d" % (len(gens), GENERATOR_CAP))
    return ColoredCone._make((extreme_rays(gens), cone.colors))


class ColoredFan:
    """Maximal colored cones of an embedding, canonicalized and distinct.

    Each cone's relative interior must meet the valuation cone of the datum;
    two cones with the same rays would meet it at the same points.

    ``keys`` holds the canonical key of every maximal cone, with the rays
    as integer tuples (canonical rays are primitive integer vectors).
    """

    __slots__ = ("cones", "datum", "keys")

    def __init__(self, cones, datum):
        canon, seen, seen_rays = [], set(), set()
        for c in cones:
            cc = cone_canonicalize(c, datum)
            if cc.key() in seen:
                raise ValueError("duplicate maximal colored cone")
            if cc.rays in seen_rays:
                raise ValueError("two maximal colored cones have the same rays")
            seen.add(cc.key())
            seen_rays.add(cc.rays)
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
    return (_moved_rays(rays, rows), tuple(sorted(gmap[c] for c in colors)))


def _moved_rays(rays, rows):
    return tuple(sorted(tuple(sum(map(mul, row, r)) for row in rows) for r in rays))


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
    """The color lift making the fan stable, read off the fan, or None.

    ``action`` is the ``orbit_action`` of the fan's datum (an unstable one is
    refused).  Rays name maximal cones, so the k-th generator must send a cone
    C to the cone C' with C's rays moved by ``action.r_invs[k]``, and a fiber
    with one color in C that color to its image fiber's color in C'.  Other
    fibers keep the sorted pairing.  One ``fan_stable`` check decides (two
    cones may force a fiber differently).  This is the first stabilizing lift
    of the fiber-wise enumeration, sorted pairing first, and a Γ-action: a
    relator fixes every ray, so every cone and every forced color.
    """
    action = action.stable()
    colors_at = dict(fan.keys)
    maps = []
    for r_inv, perm in zip(action.r_invs, action.perms):
        gmap = {}
        for key, src in action.fibers.items():
            gmap.update(zip(src, action.fibers[perm[key]]))
        for rays, colors in colors_at.items():
            image = colors_at.get(_moved_rays(rays, r_inv.data))
            if image is None:
                return None
            for key, src in action.fibers.items():
                if len(src) == 2 and (src[0] in colors) != (src[1] in colors):
                    (a, b), (c, d) = src, action.fibers[perm[key]]
                    gmap[a], gmap[b] = (d, c) if (a in colors) != (c in image) else (c, d)
        maps.append(tuple(sorted(gmap.items())))
    lift = ColorLift(tuple(maps))
    return lift if fan_stable(fan, action, lift) else None
