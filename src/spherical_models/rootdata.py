"""Based root data of the simple types, in the simply connected normalization.

The internal coordinate system is always fundamental-weight coordinates: the
weight lattice P is ZZ^n, the pairing with the i-th simple coroot reads off
the i-th coordinate, and the j-th simple root is the j-th column of the
Cartan matrix.  Bourbaki numbering throughout.  Epsilon coordinates for the
classical types B/C/D exist as an exact rational change of basis, used only
where conditions are naturally stated in that basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .lattice import FgAbelianGroup, IntMatrix, Lattice, apply_row, quotient_group

_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "F": 4, "G": 2}


@dataclass(frozen=True)
class SimpleType:
    """A simple type label such as A5 or D4.

    C2 is accepted and normalized to the synonymous B2.  C_n for n >= 3 keeps
    its own family letter.
    """

    family: str
    rank: int

    def __post_init__(self):
        fam, rank = self.family, self.rank
        if fam not in _FAMILIES:
            raise ValueError("unknown family %r" % (fam,))
        if fam == "E":
            if rank not in (6, 7, 8):
                raise ValueError("rank of E must be 6, 7 or 8")
        elif fam in ("F", "G"):
            if rank != _MIN_RANK[fam]:
                raise ValueError("invalid rank for %s" % fam)
        elif rank < _MIN_RANK[fam]:
            raise ValueError("rank too small for family %s" % fam)
        if fam == "C" and rank == 2:
            object.__setattr__(self, "family", "B")

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


@dataclass(frozen=True)
class BasedRootDatum:
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
        return Lattice.full(self.rank)

    @property
    def root_lattice(self):
        return _root_lattice(self.type)

    def simple_root(self, i):
        """The i-th simple root (1-based) as a weight-coordinate vector."""
        return self.cartan.col(i - 1)

    def coroot_pairing(self, chi, i):
        """<chi, alpha_i^vee> for a weight-coordinate vector chi (i 1-based)."""
        return chi[i - 1]


@lru_cache(maxsize=None)
def _root_lattice(t: SimpleType) -> Lattice:
    c = cartan_matrix(t)
    return Lattice(t.rank, [c.col(j) for j in range(t.rank)])


def based_root_datum(label) -> BasedRootDatum:
    t = label if isinstance(label, SimpleType) else SimpleType.parse(label)
    return BasedRootDatum(t)


def center_character_group(t: SimpleType) -> FgAbelianGroup:
    """The character group of the center, P/Q, in SNF presentation."""
    rd = BasedRootDatum(t)
    return quotient_group(rd.weight_lattice, rd.root_lattice)


@dataclass(frozen=True)
class DiagramAutomorphism:
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

    The result is closed under composition (it is the full symmetry group of
    the diagram: trivial, Z/2, or S3 on the D4 fork).
    """
    c = cartan_matrix(t)
    n = t.rank
    found = []

    def extend(partial):
        i = len(partial)
        if i == n:
            found.append(tuple(partial))
            return
        for img in range(n):
            if img in partial:
                continue
            ok = all(
                c.data[j][i] == c.data[partial[j]][img]
                and c.data[i][j] == c.data[img][partial[j]]
                for j in range(i)
            ) and c.data[i][i] == c.data[img][img]
            if ok:
                partial.append(img)
                extend(partial)
                partial.pop()

    extend([])
    autos = [DiagramAutomorphism(p) for p in sorted(found)]
    autos.sort(key=lambda a: (not a.is_identity(), a.permutation))
    return autos


def star_action_matrix(rd: BasedRootDatum, a: DiagramAutomorphism) -> IntMatrix:
    """Matrix of the induced action on weight coordinates (rows are images).

    The automorphism permutes fundamental weights exactly as it permutes the
    simple roots; the matrix therefore permutes coordinates, and it is
    checked to preserve the root lattice.
    """
    n = rd.rank
    if len(a.permutation) != n:
        raise ValueError("automorphism rank mismatch")
    m = IntMatrix(
        [[1 if j == a.permutation[i] else 0 for j in range(n)] for i in range(n)]
    )
    q = rd.root_lattice
    for j in range(1, n + 1):
        img = apply_row(rd.simple_root(j), m)
        if img != rd.simple_root(a.image(j)):
            raise ValueError("permutation does not preserve the Cartan matrix")
        if not q.member(img):
            raise ValueError("action does not preserve the root lattice")
    return m


def node_permutation(rd: BasedRootDatum, mat: IntMatrix):
    """Node permutation induced by a star-action matrix, or None.

    Maps each 1-based node to the node whose simple root is the image of its
    simple root; None when ``mat`` does not permute the simple roots.
    """
    roots = {rd.simple_root(i): i for i in range(1, rd.rank + 1)}
    perm = {}
    for i in range(1, rd.rank + 1):
        j = roots.get(apply_row(rd.simple_root(i), mat))
        if j is None:
            return None
        perm[i] = j
    return perm


@lru_cache(maxsize=None)
def _epsilon_basis_matrix(t: SimpleType):
    """Rows are the epsilon-coordinate vectors of the fundamental weights."""
    n = t.rank
    half = Fraction(1, 2)
    rows = []
    if t.family == "B":
        for i in range(1, n):
            rows.append(tuple(Fraction(1) if k < i else Fraction(0) for k in range(n)))
        rows.append(tuple(half for _ in range(n)))
    elif t.family == "C":
        for i in range(1, n + 1):
            rows.append(tuple(Fraction(1) if k < i else Fraction(0) for k in range(n)))
    elif t.family == "D":
        for i in range(1, n - 1):
            rows.append(tuple(Fraction(1) if k < i else Fraction(0) for k in range(n)))
        rows.append(tuple([half] * (n - 1) + [-half]))
        rows.append(tuple([half] * n))
    else:
        raise ValueError("epsilon coordinates are defined for types B, C, D only")
    return tuple(rows)


def epsilon_coordinates(t: SimpleType, v):
    """Exact epsilon coordinates of a weight-coordinate vector (types B/C/D)."""
    rows = _epsilon_basis_matrix(t)
    n = t.rank
    if len(v) != n:
        raise ValueError("dimension mismatch")
    return tuple(
        sum((Fraction(v[i]) * rows[i][k] for i in range(n)), Fraction(0))
        for k in range(n)
    )


def weight_coordinates_from_epsilon(t: SimpleType, eps):
    """Inverse of epsilon_coordinates, exact; raises if not in the weight lattice."""
    rows = _epsilon_basis_matrix(t)
    n = t.rank
    # solve x @ rows = eps by Gaussian elimination over QQ
    aug = [list(rows[i]) + [Fraction(0)] * n for i in range(n)]
    for i in range(n):
        aug[i][n + i] = Fraction(1)
    col = 0
    pivots = []
    for r in range(n):
        piv = next((i for i in range(r, n) if aug[i][col] != 0), None)
        while piv is None:
            col += 1
            piv = next((i for i in range(r, n) if aug[i][col] != 0), None)
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        col += 1
    # now rows of aug[:, n:] give the inverse transpose bookkeeping
    inv_rows = [row[n:] for row in aug]
    out = tuple(
        sum((Fraction(eps[k]) * inv_rows[k][i] for k in range(n)), Fraction(0))
        for i in range(n)
    )
    return out


def in_epsilon_lattice(t: SimpleType, v):
    """True iff the weight-coordinate vector v lies in the integer span of the epsilon basis."""
    return all(x.denominator == 1 for x in epsilon_coordinates(t, v))
