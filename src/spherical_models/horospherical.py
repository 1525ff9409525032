"""Horospherical data: a set of simple roots and a sublattice orthogonal to them.

A pair (I, M) with I a set of simple-root nodes and M a subgroup of the
weight lattice pairing to zero with every coroot from I classifies a
horospherical subgroup up to conjugacy.  M is stored exactly as given (no
silent saturation); the only structural requirement is the orthogonality.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import Lattice, apply_row
from .rootdata import node_permutation
from .spherical import Color, SphericalDatum


class HorosphericalDatum:
    __slots__ = ("rd", "I", "M")

    def __init__(self, rd, nodes, m_rows):
        self.rd = rd
        self.I = frozenset(int(i) for i in nodes)
        if not self.I <= set(range(1, rd.rank + 1)):
            raise ValueError("node set mentions unknown simple roots")
        self.M = Lattice(rd.rank, [list(r) for r in m_rows])

    def validate(self):
        """Orthogonality violations, one (node, basis_row) pair per failure."""
        out = []
        for row in self.M.basis.data:
            for i in sorted(self.I):
                if self.rd.coroot_pairing(row, i) != 0:
                    out.append((i, tuple(row)))
        return out

    def stable(self, galois):
        """True iff every generator fixes I setwise and maps M onto M."""
        for gi in galois.generators:
            m = galois.matrices[gi]
            perm = node_permutation(self.rd, m)
            if perm is None or {perm[i] for i in self.I} != self.I:
                return False
            moved = Lattice(self.rd.rank, [apply_row(r, m) for r in self.M.basis.data])
            if moved != self.M:
                return False
        return True

    def to_spherical(self):
        """The combinatorial invariants of the corresponding open orbit.

        The orbit lattice is M, there are no spherical roots, and each simple
        root outside I contributes one color whose functional is the coroot
        restricted to M (written in the canonical basis of M).
        """
        if self.validate():
            raise ValueError("datum violates the coroot-orthogonality condition")
        colors = []
        for i in sorted(set(range(1, self.rd.rank + 1)) - self.I):
            rho = tuple(Fraction(row[i - 1]) for row in self.M.basis.data)
            colors.append(Color("D(a%d)" % i, rho, frozenset({i})))
        return SphericalDatum(self.rd, self.M.basis.data, [], colors)

    def to_dict(self):
        return {
            "root_datum": str(self.rd.type),
            "I": sorted(self.I),
            "M": [list(r) for r in self.M.basis.data],
        }

    @classmethod
    def from_dict(cls, rd, doc):
        return cls(rd, doc.get("I", []), doc.get("M", []))
