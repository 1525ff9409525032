"""Horospherical data: a set of simple roots and a sublattice orthogonal to them.

A pair (I, M) with I a set of simple-root nodes and M a subgroup of the
weight lattice pairing to zero with every coroot from I classifies a
horospherical subgroup up to conjugacy.  M is stored exactly as given (no
silent saturation); the only structural requirement is the orthogonality,
which the constructor checks.
"""

from __future__ import annotations

from .lattice import Lattice, action_coordinates, fixed_generators
from .rootdata import node_permutation
from .spherical import Color, SphericalDatum


class HorosphericalDatum:
    __slots__ = ("rd", "I", "M", "_actions", "_fixed")

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
        # per Galois image, what action() and fixed_points() derived
        self._actions, self._fixed = {}, {}

    def stable(self, galois):
        """True iff every generator fixes I setwise and maps M onto M.

        A generator has finite order, so mapping M into M is mapping it onto M.
        """
        return self.action(galois) is not None

    def action(self, galois):
        """The generator matrices on M in its canonical basis, as
        lattice.action_coordinates gives them, or None when the pair is not
        stable.  Each image is checked once per datum."""
        if galois not in self._actions:
            mats = galois.generator_matrices()
            perms = [node_permutation(self.rd, m) for m in mats]
            keeps_i = all(p is not None and {p[i] for i in self.I} == self.I for p in perms)
            self._actions[galois] = action_coordinates(self.M, mats) if keeps_i else None
        return self._actions[galois]

    def fixed_points(self, galois):
        """Generating rows, not canonical, of the points of M that the image
        fixes; the pair must be stable under it.  Once per image and datum."""
        if galois not in self._fixed:
            self._fixed[galois] = fixed_generators(self.M, self.action(galois))
        return self._fixed[galois]

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
