"""Brauer characters of the fixed center classes, and the norm check.

Over a local field, a degree-2 class of a finite multiplicative group is
the same information as a homomorphism from the fixed character classes to
QQ/ZZ.  The engine stores only that homomorphism.  Over the reals the
Galois group has order 2 and H^2 is the fixed classes modulo the norms
a + g(a), so a character is a class exactly when its values are
half-integral and it kills every norm; ``validate_br_character`` checks
both, and p-adically every character is a class.
"""

from spherical_models import (
    GaloisAction,
    all_characters,
    based_root_datum,
    diagram_automorphism_group,
    galois_from_permutations,
)
from spherical_models.decision import TitsClassSpec, center_invariants, resolve_local_character
from spherical_models.galoismodule import PADIC, REAL, validate_br_character
from spherical_models.rootdata import diagram_flip


def show(label, name, galois):
    rd = based_root_datum(label)
    mod, inv, incl = center_invariants(rd, galois)
    print("%s, %s: center characters %s, fixed classes %s generated by %s"
          % (label, name, mod, inv, [list(img) for img in incl.images]))
    for t0 in all_characters(inv):
        problems = validate_br_character(t0, REAL, embedding=incl)
        print("  values [%s] over the reals: %s"
              % (", ".join(map(str, t0.values)), "; ".join(problems) or "valid"))


a5 = based_root_datum("A5")
outer = galois_from_permutations(a5, [diagram_flip(a5.type)])
# complex conjugation acting trivially (a split form): the norms are the doubles
identity = diagram_automorphism_group(a5.type)[0]
show("A5", "trivial order-2 action", galois_from_permutations(a5, [identity], "cyclic2"))
print("  (the two valid characters are those of H^2 = Z/2: +-1 inside the sixth roots)\n")

# the outer action inverts the center characters: the norms vanish
show("A5", "inverting order-2 action", outer)
print()

# on D4 the flip swaps the two spin classes, whose sum is the fixed class:
# every fixed class is a norm, so H^2 = 0 and only the zero character is valid
d4 = based_root_datum("D4")
show("D4", "flip", galois_from_permutations(d4, [diagram_flip(d4.type)]))

# the decisions read a character through resolve_local_character, which
# refuses an invalid one and returns a LocalCharacter for a valid one
local = resolve_local_character(a5, outer, TitsClassSpec.from_values(["1/2"]), REAL)
omega3 = local.class_of((0, 0, 1, 0, 0))
print("\nA5 outer, character 1/2: omega_3 has class %s, on which it is %s"
      % (omega3, local.t0.evaluate(omega3)))
try:
    resolve_local_character(a5, GaloisAction.trivial(5), TitsClassSpec.from_values(["1/3"]), REAL)
except ValueError as e:
    print("value 1/3 over the reals:", e)
third = resolve_local_character(a5, GaloisAction.trivial(5), TitsClassSpec.from_values(["1/3"]), PADIC)
print("value 1/3 p-adically: valid, of order", third.t0.order())
