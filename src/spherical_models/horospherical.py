"""Horospherical data: a set of simple roots and a sublattice orthogonal to them.

A pair (I, M) with I a set of simple-root nodes and M a subgroup of the
weight lattice pairing to zero with every coroot from I classifies a
horospherical subgroup up to conjugacy.  M is stored exactly as given (no
silent saturation); the only structural requirement is the orthogonality,
which the constructor checks.
"""

from __future__ import annotations

from .lattice import Lattice, stabilizes
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
        bad = [
            "node %d pairs with %r" % (i, list(row))
            for row in self.M.basis.data
            for i in sorted(self.I)
            if row[i - 1] != 0  # <row, alpha_i^vee>
        ]
        if bad:
            raise ValueError("invalid horospherical datum: " + "; ".join(bad))

    def stable(self, galois):
        """True iff every generator fixes I setwise and maps M onto M.

        A generator has finite order, so mapping M into M is mapping it onto M.
        """
        mats = galois.generator_matrices()
        for m in mats:
            perm = node_permutation(self.rd, m)
            if perm is None or {perm[i] for i in self.I} != self.I:
                return False
        return stabilizes(self.M, mats)

    def to_spherical(self):
        """The combinatorial invariants of the corresponding open orbit.

        The orbit lattice is M, there are no spherical roots, and each simple
        root outside I contributes one color whose functional is the coroot
        restricted to M (written in the canonical basis of M).
        """
        colors = []
        for i in sorted(set(range(1, self.rd.rank + 1)) - self.I):
            rho = tuple(row[i - 1] for row in self.M.basis.data)
            colors.append(Color("D(a%d)" % i, rho, frozenset({i})))
        return SphericalDatum(self.rd, self.M.basis.data, [], colors)

    def to_dict(self):
        return {
            "root_datum": str(self.rd.type),
            "I": sorted(self.I),
            "M": [list(r) for r in self.M.basis.data],
        }
