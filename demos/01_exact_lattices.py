"""Exact integer lattices: normal forms, quotients, fixed points.

Everything in the engine reduces to integer linear algebra done exactly.
This script walks through the primitives on the rank-5 weight lattice of
the special linear group of degree six.
"""

from spherical_models import based_root_datum, diagram_automorphism_group, galois_from_permutations
from spherical_models.lattice import (
    IntMatrix,
    Lattice,
    fixed_sublattice,
    group_invariants,
    hnf,
    quotient_group,
    snf,
)

rd = based_root_datum("A5")
print("Cartan matrix of A5:")
for row in rd.cartan.data:
    print("   ", row)

d, p, q = snf(rd.cartan)
print("\nSmith normal form diagonal:", [d.data[i][i] for i in range(5)])
print("so the center characters P/Q form:", quotient_group(rd.weight_lattice, rd.root_lattice))

m = IntMatrix([[4], [6]])
h, u = hnf(m)
print("\nHermite form of the column (4, 6):", h.data, " (gcd pivot, transform checks:", u * m == h, ")")

flip = diagram_automorphism_group(rd.type)[1]
galois = galois_from_permutations(rd, [flip])
print("\nThe diagram flip acts on weights; fixed weight sublattice:")
fixed = fixed_sublattice(5, list(galois.matrices))
for row in fixed.basis.data:
    print("   ", row)

pq = quotient_group(rd.weight_lattice, rd.root_lattice, action=list(galois.matrices))
inv, incl = group_invariants(pq)
print("\nFixed center classes under the flip:", inv, "generated by the class", incl.images[0])
print("(the classes 0 and 3 in Z/6, exactly the 2-torsion)")

doubled = Lattice(5, [[2 if i == j else 0 for j in range(5)] for i in range(5)])
m_lat = doubled.sum(rd.root_lattice)
print("\nThe index-two sublattice 2P + Q has fixed part equal to the fixed part of Q:",
      fixed_sublattice(m_lat, list(galois.matrices)) == fixed_sublattice(rd.root_lattice, list(galois.matrices)))
