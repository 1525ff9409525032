"""Root data tables: centers, diagram symmetries, the center classes of weights."""

from spherical_models import GaloisAction, based_root_datum, diagram_automorphism_group
from spherical_models.decision import TitsClassSpec, center_invariants, resolve_local_character
from spherical_models.galoismodule import PADIC
from spherical_models.rootdata import SimpleType

print("Center character groups by type (their order is the determinant of the Cartan matrix):")
for label in ["A1", "A5", "B4", "C3", "D4", "D5", "E6", "E7", "E8", "F4", "G2"]:
    rd = based_root_datum(label)
    g = center_invariants(rd, GaloisAction.trivial(rd.rank))[0]
    print("  %-3s order=%d  P/Q = %s" % (label, g.order(), g))

print("\nDiagram symmetry groups:")
for label in ["A5", "D4", "D5", "E6", "B3"]:
    autos = diagram_automorphism_group(SimpleType.parse(label))
    print("  %-3s order %d: %s" % (label, len(autos), [a.one_line() for a in autos]))

rd = based_root_datum("D6")
local = resolve_local_character(rd, GaloisAction.trivial(6), TitsClassSpec.zero(), PADIC)
print("\nCenter classes of weights on D6 (P/Q = %s):" % local.mod)
for name, w in [("omega_1", (1, 0, 0, 0, 0, 0)), ("omega_5", (0, 0, 0, 0, 1, 0)),
                ("omega_6", (0, 0, 0, 0, 0, 1)), ("alpha_1", rd.simple_root(1))]:
    print("  %-8s %s" % (name, local.class_of(w)))
print("  (a nonzero character kills exactly one of the three nonzero classes;")
print("   the *4/*5 shortcut asks that M lie in Q + Zw for the weight w it kills)")
