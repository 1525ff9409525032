"""Horospherical data: a set of simple roots and a sublattice orthogonal to them.

A pair (I, M) with I a set of simple-root nodes and M a subgroup of the
weight lattice pairing to zero with every coroot from I classifies a
horospherical subgroup up to conjugacy.  M is stored exactly as given (no
silent saturation); the only structural requirement is the orthogonality,
which the constructor checks.
"""

from __future__ import annotations

from collections import namedtuple

from .lattice import Lattice, action_coordinates, integers
from .rootdata import node_permutation
from .spherical import Color, SphericalDatum


class HorosphericalDatum(namedtuple("HorosphericalDatum", "rd I M")):
    __slots__ = ()

    def __new__(cls, rd, nodes, m_rows):
        nodes = frozenset(integers(nodes))
        if not nodes <= set(range(1, rd.rank + 1)):
            raise ValueError("node set mentions unknown simple roots")
        m = Lattice(rd.rank, m_rows)
        bad = [
            "node %d pairs with %r" % (i, list(row))
            for row in m.basis.data
            for i in sorted(nodes)
            if row[i - 1] != 0  # <row, alpha_i^vee>
        ]
        if bad:
            raise ValueError("invalid horospherical datum: " + "; ".join(bad))
        return tuple.__new__(cls, (rd, nodes, m))

    def stable(self, galois):
        """True iff every generator fixes I setwise and maps M onto M.

        A generator has finite order, so mapping M into M is mapping it onto M.
        """
        return self.action(galois) is not None

    def action(self, galois):
        """The generator matrices on M in its canonical basis, as
        lattice.action_coordinates gives them, or None when the pair is not
        stable.  Computed on each call: a decision that reads it twice keeps
        it."""
        mats = galois.generator_matrices()
        perms = [node_permutation(self.rd, m) for m in mats]
        if all(p is not None and {p[i] for i in self.I} == self.I for p in perms):
            return action_coordinates(self.M, mats)
        return None

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
