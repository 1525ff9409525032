"""Horospherical pairs: shortcut conditions, uniqueness, and a number field run."""

from spherical_models import (
    GaloisAction,
    HorosphericalDatum,
    LocalSite,
    PADIC,
    REAL,
    TitsClassSpec,
    based_root_datum,
    decide_horospherical,
    decide_number_field,
    diagram_automorphism_group,
    galois_from_permutations,
)
from spherical_models.lattice import IntMatrix, Lattice

# --- the order-two dichotomy in type E7 --------------------------------------
rd7 = based_root_datum("E7")
c2 = GaloisAction("cyclic2", [IntMatrix.identity(7)])
half = TitsClassSpec.from_values(["1/2"])

h_full = HorosphericalDatum(rd7, [], Lattice.full(7).basis.data)
h_root = HorosphericalDatum(rd7, [], rd7.root_lattice.basis.data)
v1 = decide_horospherical(h_full, c2, half, REAL)
v2 = decide_horospherical(h_root, c2, half, REAL)
print("E7, nonzero class, M = full weight lattice ->", "exists" if v1.exists else "no model")
print("E7, nonzero class, M = root lattice        ->", "exists" if v2.exists else "no model")
print("  shortcut used:", [r.get("rule") for r in v2.reasons if r["condition"] == "cohomology"][0])
print("  uniqueness:", v2.uniqueness_note)

# --- the index-two sublattice over the rationals ------------------------------
rd = based_root_datum("A5")
flip = diagram_automorphism_group(rd.type)[1]
outer = galois_from_permutations(rd, [flip])
m = Lattice(5, [[2 if i == j else 0 for j in range(5)] for i in range(5)]).sum(rd.root_lattice)

sites = [
    LocalSite("inf", REAL, outer, ("1/2",)),       # the real place carries the obstruction
    LocalSite("p2", PADIC, outer, ("1/2",)),       # an inert prime with a nonzero class
    LocalSite("p5", PADIC, GaloisAction.trivial(5), None),  # a split prime: no condition
]

print("\nnumber-field run for the pair (no roots removed, M = 2P + Q):")
v = decide_number_field(HorosphericalDatum(rd, [], m.basis.data), outer, sites)
for r in v.reasons:
    print("  %-12s %s" % (r["condition"], "ok" if r["ok"] else "FAIL"))
print("verdict:", "exists" if v.exists else "no model")

print("\nsame sites with M = the full weight lattice:")
v = decide_number_field(HorosphericalDatum(rd, [], Lattice.full(5).basis.data), outer, sites)
print("verdict:", "exists" if v.exists else "no model",
      "(the fixed part of the full lattice maps onto the order-2 class)")
