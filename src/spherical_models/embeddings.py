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
optionally "relative interior meets the valuation cone" are checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import mul

from .polyhedra import (
    DIM_CAP,
    extreme_rays,
    relative_interior_point_satisfies,
)
from .spherical import (
    _exact_rational,
    _fmt_fraction,
    _json_rational,
    orbit_action,
)


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

    Rejects non-strictly-convex cones and colors with zero functional.
    """
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

    ``keys`` holds the canonical key of every maximal cone, with the rays
    as integer tuples (canonical rays are primitive integer vectors).
    """

    __slots__ = ("cones", "datum", "keys")

    def __init__(self, cones, datum, check_valuation_cone=False):
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
        if check_valuation_cone:
            vrows = datum.valuation_cone_inequalities()
            for cc in self.cones:
                if not relative_interior_point_satisfies(cc.rays, vrows):
                    raise ValueError(
                        "a maximal cone's relative interior misses the valuation cone"
                    )

    def contains(self, cone):
        return cone.key() in self.keys

    def to_dict(self):
        return [
            {
                "generators": [[_fmt_fraction(x) for x in r] for r in c.rays],
                "colors": sorted(c.colors),
            }
            for c in self.cones
        ]

    @classmethod
    def from_dict(cls, doc, datum, check_valuation_cone=False):
        cones = [
            ColoredCone(
                tuple(tuple(map(_json_rational, r)) for r in entry["generators"]),
                frozenset(entry.get("colors", [])),
            )
            for entry in doc
        ]
        return cls(cones, datum, check_valuation_cone=check_valuation_cone)


@dataclass(frozen=True)
class FanGaloisData:
    """A stable Galois action on the dual space together with a chosen color lift.

    ``action`` is the ``orbit_action`` of the datum.  ``v_matrices[k]`` acts
    on ray coordinates for the k-th generator; it is the transpose of the
    inverse restriction ``action.r_invs[k]``.  Neither depends on the lift,
    so a search over lifts builds once and swaps the lift in with
    ``dataclasses.replace``.
    """

    lift: object
    v_matrices: tuple
    action: object = field(compare=False, repr=False)

    @classmethod
    def build(cls, datum, galois, lift):
        """Check that the action preserves the invariants, then derive its data."""
        return cls.of(orbit_action(datum, galois), lift)

    @classmethod
    def of(cls, action, lift):
        """build, from the ``orbit_action`` of the datum."""
        return cls(lift, tuple(r.transpose() for r in action.stable().r_invs), action)

    def apply_ray(self, k, ray):
        return tuple(
            _exact_rational(sum(map(mul, ray, col))) for col in zip(*self.v_matrices[k].data)
        )


def fan_stable(fan, datum, fan_galois):
    """Is the fan stable under every generator, with the chosen color lift?

    For each generator the image of every maximal colored cone (rays moved
    contragrediently, colors moved by the lift) must again be a maximal cone
    of the fan.  ``fan_galois`` must come from ``FanGaloisData.build`` on
    ``datum``, which rejects actions that do not preserve the invariants.

    The image of a canonical cone is already canonical, so it is moved, not
    recomputed: v is unimodular and sends the primitive extreme rays to the
    primitive extreme rays of the image, and since the lift covers the
    action on color images, each moved color's functional is v of the old
    one and lies in the moved cone.
    """
    _check_lift_covers_omega(fan_galois)
    for k, v in enumerate(fan_galois.v_matrices):
        gmap = fan_galois.lift.mapping(k)
        if any(_moved_key(key, v, gmap) not in fan.keys for key in fan.keys):
            return False
    return True


def _moved_key(key, v, gmap):
    """Canonical key of the image of a canonical colored cone (see fan_stable)."""
    rays, colors = key
    v_cols = tuple(zip(*v.data))
    moved = sorted(tuple(sum(map(mul, col, r)) for col in v_cols) for r in rays)
    return (tuple(moved), tuple(sorted(gmap[c] for c in colors)))


def _check_lift_covers_omega(fan_galois):
    action = fan_galois.action
    color_fiber = {cid: key for key, ids in action.fibers.items() for cid in ids}
    lift = fan_galois.lift
    if len(lift.generator_maps) != len(action.perms):
        raise ValueError("lift has the wrong number of generator maps")
    for k, perm in enumerate(action.perms):
        gmap = lift.mapping(k)
        if set(gmap) != set(color_fiber) or set(gmap.values()) != set(color_fiber):
            raise ValueError("lift is not a permutation of the colors")
        for cid, img in gmap.items():
            if color_fiber[img] != perm[color_fiber[cid]]:
                raise ValueError("lift does not cover the action on color images")


def exists_stabilizing_lift(fan, datum, galois):
    """First lift (in enumeration order) making the fan stable, or None.

    Refuses an action that does not preserve the invariants.
    """
    return stabilizing_lift(fan, datum, orbit_action(datum, galois))


def stabilizing_lift(fan, datum, action):
    """exists_stabilizing_lift, from the ``orbit_action`` of the datum.

    The lift-independent data are built once per search and the lifts come
    from the same value (SphericalDatum already caps the number of colors).
    """
    base = FanGaloisData.of(action, None)
    stable = (lift for lift in action.lifts() if fan_stable(fan, datum, replace(base, lift=lift)))
    return next(stable, None)
