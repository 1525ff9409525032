"""Colored fans: when the Galois image can be made to stabilize one.

Two stories.  A two-cone fan in rank two whose cones are swapped by the
outer action (no lift can help, since the underlying cones already move),
and a one-cone fan in rank three whose colors fix the lift of the action to
the colors: it is read off the fan, and the straight swap of the colors
moves the colored cone.
"""

from fractions import Fraction as F

from spherical_models import (
    Color,
    ColoredCone,
    ColoredFan,
    REAL,
    SphericalDatum,
    TitsClassSpec,
    based_root_datum,
    catalog_lookup,
    decide_embedding,
    diagram_automorphism_group,
    fan_stable,
    galois_from_permutations,
    orbit_action,
    stabilizing_lift,
)
from spherical_models.spherical import ColorLift

# --- rank two: the product of two projective spaces ---------------------------
rd2 = based_root_datum("A2")
orbit = SphericalDatum(
    rd2,
    basis=[[1, 0], [0, 1]],
    sigma=[(1, 1)],
    colors=[
        Color("D1", (F(1), F(0)), frozenset({1})),
        Color("D2", (F(0), F(1)), frozenset({2})),
    ],
)
fan = ColoredFan(
    [
        ColoredCone(((1, -1), (-1, 0)), frozenset()),
        ColoredCone(((-1, 0),), frozenset({"D2"})),
    ],
    orbit,
)
flip = diagram_automorphism_group(rd2.type)[1]
outer = galois_from_permutations(rd2, [flip])
print("two-cone fan, outer action: stabilizing lift =",
      stabilizing_lift(fan, orbit_action(orbit, outer)))
v = decide_embedding(fan, orbit, outer, TitsClassSpec.zero(), REAL)
print("embedding verdict:", "exists" if v.exists else "no model")

# --- rank three: one maximal colored cone, its colors fix the lift ------------
rd6 = based_root_datum("A5")
a1, a5 = rd6.simple_root(1), rd6.simple_root(5)
orbit6 = SphericalDatum(
    rd6,
    basis=[list(a1), [0, 0, 1, 0, 0], list(a5)],
    sigma=[tuple(a1), tuple(a5)],
    colors=[
        Color("D1+", (F(1), F(0), F(0)), frozenset({1})),
        Color("D1-", (F(1), F(0), F(0)), frozenset({1})),
        Color("D5+", (F(0), F(0), F(1)), frozenset({5})),
        Color("D5-", (F(0), F(0), F(1)), frozenset({5})),
        Color("D2", (F(-1), F(0), F(0)), frozenset({2})),
        Color("D4", (F(0), F(0), F(-1)), frozenset({4})),
    ],
)
fan6 = ColoredFan(
    [ColoredCone(((-1, 1, -1),), frozenset({"D1+", "D5-"}))],
    orbit6,
)
outer6 = galois_from_permutations(rd6, [diagram_automorphism_group(rd6.type)[1]])

print("\none-cone fan in rank three; lifts of the outer action to the colors:")
action6 = orbit_action(orbit6, outer6)
# the cone holds D1+ of the fiber {D1+, D1-} and D5- of its image {D5+, D5-},
# so D1+ must go to D5-: the lift is read off the fan, no lift is enumerated
read = stabilizing_lift(fan6, action6)
straight = ColorLift((tuple(sorted(
    [("D1+", "D5+"), ("D1-", "D5-"), ("D5+", "D1+"), ("D5-", "D1-"), ("D2", "D4"), ("D4", "D2")]
)),))
for name, lift in (("read off the fan", read), ("straight swap", straight)):
    tag = "stabilizes" if fan_stable(fan6, action6, lift) else "moves the colored cone"
    pairs = ", ".join("%s>%s" % p for p in lift.generator_maps[0] if p[0].startswith("D1"))
    print("  %-17s %-22s %s" % (name, pairs, tag))

print("\nverdicts over the unitary family (signature 6-j, j):")
for j in range(4):
    entry = catalog_lookup("SU(%d,%d)" % (6 - j, j))
    v = decide_embedding(fan6, orbit6, entry.galois, entry.tits, REAL)
    print("  j = %d -> %s" % (j, "exists" if v.exists else "no model"))
