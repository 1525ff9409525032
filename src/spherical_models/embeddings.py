"""Colored cones and fans in the dual space of the orbit weight lattice.

A colored cone is a set of ray generators in Hom(orbit lattice, QQ)
together with a set of color ids whose functionals are adjoined to the
cone.  Canonical form is the sorted tuple of primitive integer extreme rays
of the merged cone plus the sorted color ids, so equality of colored cones
is structural equality.  Fans are given by their maximal colored cones;
face closure is not validated (stability testing only needs equality of
colored cones), but strict convexity, distinctness, containment of color
functionals, and optionally "relative interior meets the valuation cone"
are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import _unimodular_inverse
from .polyhedra import (
    DIM_CAP,
    extreme_rays,
    relative_interior_point_satisfies,
)
from .spherical import _fmt_fraction, enumerate_lifts, invariants_stable, omega_action


@dataclass(frozen=True)
class ColoredCone:
    """A strictly convex cone with colors, in canonical form after cone_canonicalize."""

    rays: tuple
    colors: frozenset

    def __post_init__(self):
        object.__setattr__(
            self, "rays", tuple(tuple(Fraction(x) for x in r) for r in self.rays)
        )
        object.__setattr__(self, "colors", frozenset(str(c) for c in self.colors))

    def key(self):
        return (self.rays, tuple(sorted(self.colors)))


def cone_canonicalize(cone, datum):
    """Canonical form: primitive integer extreme rays of cone(rays + color functionals).

    Rejects non-strictly-convex cones and colors with zero functional.
    """
    by_id = {c.id: c for c in datum.colors}
    gens = [tuple(Fraction(x) for x in r) for r in cone.rays]
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
    """Maximal colored cones of an embedding, canonicalized and distinct."""

    __slots__ = ("cones", "datum")

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
        if check_valuation_cone:
            vrows = datum.valuation_cone_inequalities()
            for cc in self.cones:
                if not relative_interior_point_satisfies(cc.rays, vrows):
                    raise ValueError(
                        "a maximal cone's relative interior misses the valuation cone"
                    )

    def contains(self, cone):
        return cone.key() in {c.key() for c in self.cones}

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
                tuple(tuple(Fraction(str(x)) for x in r) for r in entry["generators"]),
                frozenset(entry.get("colors", [])),
            )
            for entry in doc
        ]
        return cls(cones, datum, check_valuation_cone=check_valuation_cone)


@dataclass(frozen=True)
class FanGaloisData:
    """A Galois action on the dual space together with a chosen color lift.

    ``v_matrices[k]`` acts on ray coordinates for the k-th generator; it is
    the inverse transpose of the generator's restriction to the orbit
    lattice in the chosen basis, which is verified at construction.
    """

    galois: object
    lift: object
    v_matrices: tuple

    @classmethod
    def build(cls, datum, galois, lift):
        from .spherical import _extended_matrices, _restriction_to_basis

        mats = _extended_matrices(datum, galois)
        v_mats = []
        for gi in galois.generators:
            r = _restriction_to_basis(datum, mats[gi])
            if r is None:
                raise ValueError("action does not stabilize the orbit lattice")
            v_mats.append(_unimodular_inverse(r).transpose())
        return cls(galois, lift, tuple(v_mats))

    def apply_ray(self, k, ray):
        m = self.v_matrices[k]
        return tuple(
            sum((Fraction(m.data[j][i]) * ray[j] for j in range(m.rows)), Fraction(0))
            for i in range(m.cols)
        )


def fan_stable(fan, datum, fan_galois):
    """Is the fan stable under every generator, with the chosen color lift?

    For each generator the image of every maximal colored cone (rays moved
    contragrediently, colors moved by the lift) must again be a maximal cone
    of the fan.
    """
    galois = fan_galois.galois
    if invariants_stable(datum, galois) is not True:
        raise ValueError("the action does not preserve the combinatorial invariants")
    _check_lift_covers_omega(datum, galois, fan_galois.lift)
    for k in range(len(galois.generators)):
        gmap = fan_galois.lift.mapping(k)
        for cone in fan.cones:
            moved = ColoredCone(
                tuple(fan_galois.apply_ray(k, r) for r in cone.rays),
                frozenset(gmap[c] for c in cone.colors),
            )
            if not fan.contains(cone_canonicalize(moved, datum)):
                return False
    return True


def _check_lift_covers_omega(datum, galois, lift):
    fibers, perms = omega_action(datum, galois)
    color_fiber = {}
    for key, ids in fibers.items():
        for cid in ids:
            color_fiber[cid] = key
    if len(lift.generator_maps) != len(galois.generators):
        raise ValueError("lift has the wrong number of generator maps")
    for k, perm in enumerate(perms):
        gmap = lift.mapping(k)
        if set(gmap) != set(color_fiber) or set(gmap.values()) != set(color_fiber):
            raise ValueError("lift is not a permutation of the colors")
        for cid, img in gmap.items():
            if color_fiber[img] != perm[color_fiber[cid]]:
                raise ValueError("lift does not cover the action on color images")


def exists_stabilizing_lift(fan, datum, galois):
    """First lift (in enumeration order) making the fan stable, or None."""
    for lift in enumerate_lifts(datum, galois):
        fg = FanGaloisData.build(datum, galois, lift)
        if fan_stable(fan, datum, fg):
            return lift
    return None
