"""Based root data of the simple types, in the simply connected normalization.

The internal coordinate system is always fundamental-weight coordinates: the
weight lattice P is ZZ^n, the pairing with the i-th simple coroot reads off
the i-th coordinate, and the j-th simple root is the j-th column of the
Cartan matrix.  Bourbaki numbering throughout.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

from .lattice import IntMatrix, Lattice, _PermutationMatrix, apply_row

_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "F": 4, "G": 2}

# No type of higher rank is accepted: the exact kernels grow at least
# cubically with the rank, so far beyond it a problem never finishes.
MAX_RANK = 64


class SimpleType(namedtuple("SimpleType", "family rank")):
    """A simple type label such as A5 or D4.

    C2 is accepted and normalized to the synonymous B2.  C_n for n >= 3 keeps
    its own family letter.  Ranks above MAX_RANK are refused.
    """

    __slots__ = ()

    def __new__(cls, family, rank):
        if family not in _FAMILIES:
            raise ValueError("unknown family %r" % (family,))
        if family == "E":
            if rank not in (6, 7, 8):
                raise ValueError("rank of E must be 6, 7 or 8")
        elif family in ("F", "G"):
            if rank != _MIN_RANK[family]:
                raise ValueError("invalid rank for %s" % family)
        elif rank < _MIN_RANK[family]:
            raise ValueError("rank too small for family %s" % family)
        elif rank > MAX_RANK:
            raise ValueError("rank %d exceeds the supported maximum %d" % (rank, MAX_RANK))
        return tuple.__new__(cls, ("B" if family == "C" and rank == 2 else family, rank))

    @classmethod
    def parse(cls, label):
        label = label.strip()
        if not label or label[0].upper() not in _FAMILIES or not label[1:].isdigit():
            raise ValueError("cannot parse type label %r" % (label,))
        return cls(label[0].upper(), int(label[1:]))

    def __str__(self):
        return "%s%d" % (self.family, self.rank)


@lru_cache(maxsize=None)
def cartan_matrix(t: SimpleType) -> IntMatrix:
    """Cartan matrix in Bourbaki numbering; entry (i, j) is <alpha_j, alpha_i^vee>."""
    n = t.rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2

    def bond(i, j):  # simply laced edge between nodes i, j (0-based)
        a[i][j] = a[j][i] = -1

    fam = t.family
    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if fam == "B" and n >= 2:
            a[n - 1][n - 2] = -2  # <alpha_{n-1}, alpha_n^vee>, alpha_n short
        if fam == "C" and n >= 3:
            a[n - 2][n - 1] = -2  # <alpha_n, alpha_{n-1}^vee>, alpha_n long
    elif fam == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif fam == "E":
        # chain 1-3-4-5-...-n with node 2 attached to node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for x, y in zip(chain, chain[1:]):
            bond(x, y)
        bond(1, 3)
    elif fam == "F":
        bond(0, 1)
        bond(2, 3)
        a[1][2] = -2
        a[2][1] = -1
    elif fam == "G":
        a[0][1] = -1
        a[1][0] = -3
    return IntMatrix(a)


class BasedRootDatum(NamedTuple):
    """Weight/root lattices of the simply connected group of a simple type.

    P is ZZ^rank in fundamental-weight coordinates; Q is the column lattice
    of the Cartan matrix.  The pairing <chi, alpha_i^vee> is chi[i-1].
    """

    type: SimpleType

    @property
    def rank(self):
        return self.type.rank

    @property
    def cartan(self):
        return cartan_matrix(self.type)

    @property
    def weight_lattice(self):
        return _weight_lattice(self.type)

    @property
    def root_lattice(self):
        return _root_lattice(self.type)

    def simple_root(self, i):
        """The i-th simple root (1-based) as a weight-coordinate vector."""
        return self.cartan.col(i - 1)


@lru_cache(maxsize=None)
def _weight_lattice(t: SimpleType) -> Lattice:
    return Lattice.full(t.rank)


@lru_cache(maxsize=None)
def simple_nodes(rd: BasedRootDatum) -> dict:
    """The 1-based node of each simple root, keyed by its weight coordinates."""
    return {rd.simple_root(i): i for i in range(1, rd.rank + 1)}


@lru_cache(maxsize=None)
def _root_lattice(t: SimpleType) -> Lattice:
    c = cartan_matrix(t)
    return Lattice(t.rank, [c.col(j) for j in range(t.rank)])


def based_root_datum(label) -> BasedRootDatum:
    t = label if isinstance(label, SimpleType) else SimpleType.parse(label)
    return BasedRootDatum(t)


class DiagramAutomorphism(NamedTuple):
    """A permutation of the simple-root nodes preserving the Cartan matrix.

    ``permutation`` maps 0-based node index i to its image; exposed node
    labels are 1-based everywhere else.
    """

    permutation: tuple

    def image(self, i):
        """Image of the 1-based node i."""
        return self.permutation[i - 1] + 1

    def compose(self, other):
        return DiagramAutomorphism(
            tuple(self.permutation[j] for j in other.permutation)
        )

    def is_identity(self):
        return all(p == i for i, p in enumerate(self.permutation))

    def order(self):
        k, cur = 1, self
        while not cur.is_identity():
            cur = cur.compose(self)
            k += 1
        return k

    def one_line(self):
        """One-line notation on 1-based nodes, e.g. (5, 4, 3, 2, 1)."""
        return tuple(p + 1 for p in self.permutation)


def diagram_automorphism_group(t: SimpleType):
    """All node permutations preserving the Cartan matrix, identity first.

    Read off the classification (Bourbaki, Plates I-IX): the reversal of
    A_n for n >= 2, the swap of the last two nodes of D_n (all of S3 on
    nodes 1, 3, 4 for D4), the reversal (6, 2, 5, 4, 3, 1) of E6, and the
    identity alone for every other type.  The result is closed under
    composition; after the identity it is in sorted order.
    """
    n = t.rank
    identity = tuple(range(n))
    if t.family == "A" and n >= 2:
        perms = {identity[::-1]}
    elif t.family == "D" and n == 4:
        perms = {(a, 1, b, c) for a, b, c in permutations((0, 2, 3))}
    elif t.family == "D":
        perms = {identity[:-2] + (n - 1, n - 2)}
    elif t.family == "E" and n == 6:
        perms = {(5, 1, 4, 3, 2, 0)}
    else:
        perms = set()
    return [DiagramAutomorphism(p) for p in [identity] + sorted(perms - {identity})]


def diagram_flip(t: SimpleType):
    """The first order-2 diagram automorphism of ``t``, or None when there is none."""
    return next((a for a in diagram_automorphism_group(t) if a.order() == 2), None)


def star_action_matrix(rd: BasedRootDatum, a: DiagramAutomorphism) -> IntMatrix:
    """Matrix of the induced action on weight coordinates (rows are images).

    The automorphism permutes fundamental weights exactly as it permutes the
    simple roots; the matrix therefore permutes coordinates, and it is
    checked to permute the simple roots, so it preserves the root lattice.
    """
    n = rd.rank
    if len(a.permutation) != n:
        raise ValueError("automorphism rank mismatch")
    m = _PermutationMatrix(sorted(range(n), key=a.permutation.__getitem__))
    if sorted(a.permutation) != list(range(n)) or any(
        apply_row(rd.simple_root(j), m) != rd.simple_root(a.image(j)) for j in range(1, n + 1)
    ):
        raise ValueError("permutation does not preserve the Cartan matrix")
    return m


def node_permutation(rd: BasedRootDatum, mat: IntMatrix):
    """Node permutation induced by a star-action matrix, or None.

    Maps each 1-based node to the node whose simple root is the image of its
    simple root; None when ``mat`` does not permute the simple roots.  Each
    (root datum, matrix) is computed once per process; every call returns a
    fresh dict.
    """
    items = _node_permutation(rd, mat)
    return None if items is None else dict(items)


@lru_cache(maxsize=None)
def _node_permutation(rd: BasedRootDatum, mat: IntMatrix):
    nodes = simple_nodes(rd)
    items = tuple((i, nodes.get(apply_row(root, mat))) for root, i in nodes.items())
    return None if any(j is None for _, j in items) else items
