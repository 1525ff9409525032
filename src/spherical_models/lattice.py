"""Exact integer linear algebra and finitely generated abelian groups.

Everything here is arbitrary-precision integer arithmetic; no floats ever.
Vectors are rows, linear maps act on the right (``v -> v @ M``), and the rows
of a matrix are the images of the standard basis vectors.  Lattices are
sublattices of some ZZ^n, canonically represented by their row-style Hermite
normal form, so lattice equality is just equality of canonical bases.
Finitely generated abelian groups are presented by integer relation matrices
and normalized through Smith normal form; their elements are coordinate
tuples reduced modulo the invariant factors (0 encodes a free ZZ factor).
No group carries an action: the classes of L/S that some matrices fix are
one lattice quotient F/S, with F = fixed_sublattice(L, mats, modulo=S).
A star action, built as a _PermutationMatrix, moves a row by gathering.
Every number of a document enters through ``read_rational``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from math import gcd
from operator import mul

_INT = {int}
_QUOTIENT = re.compile(r"(-?[0-9]+)/([0-9]+)")


def _xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class IntMatrix:
    """An immutable matrix over ZZ; its hash is computed once, when first asked."""

    __slots__ = ("rows", "cols", "data", "_hash")
    _src = None  # the source of each column of a _PermutationMatrix

    def __init__(self, data, cols=None):
        data = tuple(map(integers, data))
        self.rows = len(data)
        self.cols = len(data[0]) if data else (0 if cols is None else cols)
        if any(len(row) != self.cols for row in data):
            raise ValueError("ragged rows")
        self.data, self._hash = data, None

    @classmethod
    def _of(cls, data, cols):
        """A matrix whose rows ``data`` are already int tuples of length ``cols``.

        Internal results (products, normal forms) are integer by construction,
        so they skip the coercion and the shape check of ``__init__``.
        """
        m = object.__new__(cls)
        m.rows, m.cols, m.data, m._hash = len(data), cols, data, None
        return m

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(n):
        """The n x n identity, built once per n (matrices are immutable)."""
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    def col(self, j):
        return tuple(row[j] for row in self.data)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = _columns(other)
        return IntMatrix._of(
            tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in self.data),
            other.cols,
        )

    def __add__(self, other):
        return IntMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        )

    def __sub__(self, other):
        return IntMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        )

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.data)
        return self._hash

    def __repr__(self):
        return "IntMatrix(%r)" % (list(map(list, self.data)),)


class _PermutationMatrix(IntMatrix):
    """The permutation matrix with v @ m = (v[src[0]], v[src[1]], ...): apply_row gathers."""

    __slots__ = ("_src",)

    def __init__(self, src):
        if sorted(src) != list(range(len(src))):
            raise ValueError("not a permutation of 0..%d" % (len(src) - 1))
        super().__init__([[int(s == i) for s in src] for i in range(len(src))], len(src))
        self._src = tuple(src)


def integers(values):
    """``values`` as a tuple of ints, read by int(); ValueError for a float,
    a bool or anything else that int() would change, such as 1.5 or True."""
    values = tuple(values)
    if set(map(type, values)) <= _INT:
        return values
    for x in values:
        if isinstance(x, (bool, float)) or int(x) != x:
            raise ValueError("%r is not an integer" % (x,))
    return tuple(map(int, values))


def _matrix(rows, cols):
    """IntMatrix of the int lists ``rows`` from an exact kernel."""
    return IntMatrix._of(tuple(map(tuple, rows)), cols)


def _columns(m):
    """The columns of ``m`` as tuples (all empty when ``m`` has no rows)."""
    return tuple(zip(*m.data)) if m.rows else ((),) * m.cols


def apply_row(v, m):
    """Image of the row vector ``v`` under the matrix ``m`` (v @ m)."""
    if len(v) != m.rows:
        raise ValueError("dimension mismatch")
    if m._src is not None:
        return tuple(map(v.__getitem__, m._src))
    return tuple(sum(map(mul, v, col)) for col in _columns(m))


def _combine(rows, i, k, f):
    """rows[i] -= f * rows[k]."""
    rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]


def _hnf_in_place(a, cols, u=None):
    """Bring the rows ``a`` (lists of ints) to row-style HNF, in place.

    Returns the pivot column of each nonzero row; those rows come first, in
    pivot order, and the zero rows follow.  When ``u`` (a list of rows) is
    given, every row operation on ``a`` is applied to it as well, so starting
    from the identity it ends as the unimodular transform.
    """
    rows = len(a)
    pivots = []
    r = 0
    for col in range(cols):
        if r == rows:
            break
        # gcd out the entries at/below row r in this column
        piv = next((i for i in range(r, rows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            if u is not None:
                u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, rows):
            q = a[i][col]
            if not q:
                continue
            p = a[r][col]
            if q % p == 0:
                _combine(a, i, r, q // p)
                if u is not None:
                    _combine(u, i, r, q // p)
                continue
            g, x, y = _xgcd(p, q)
            p_, q_ = p // g, q // g
            # unimodular 2x2 combination of the two rows; it clears a[i][col]
            for m in (a,) if u is None else (a, u):
                top, low = m[r], m[i]
                m[r] = [x * s + y * t for s, t in zip(top, low)]
                m[i] = [p_ * t - q_ * s for s, t in zip(top, low)]
        if a[r][col] < 0:
            a[r] = [-x for x in a[r]]
            if u is not None:
                u[r] = [-x for x in u[r]]
        p = a[r][col]
        for i in range(r):
            f = a[i][col] // p
            if f:
                _combine(a, i, r, f)
                if u is not None:
                    _combine(u, i, r, f)
        pivots.append(col)
        r += 1
    return pivots


def hnf(m):
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular, u*m = h, pivots positive, entries above
    each pivot reduced to [0, pivot), zero rows at the bottom.  The row space
    of h equals the row space of m, so h is the canonical basis of it.
    """
    a, u, _ = _hnf_with_transform(m)
    return _matrix(a, m.cols), _matrix(u, m.rows)


def _hnf_with_transform(m):
    """HNF rows of ``m``, the unimodular transform rows, and the pivots."""
    a = [list(row) for row in m.data]
    u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    pivots = _hnf_in_place(a, m.cols, u)
    return a, u, pivots


def snf(m):
    """Smith normal form: (d, p, q) with p*m*q = d diagonal, d_i | d_{i+1}.

    Pivot selection is by minimal absolute value, which keeps coefficient
    growth tame at the sizes this engine deals with (rank <= 16).
    """
    a = [list(row) for row in m.data]
    rows, cols = m.rows, m.cols
    p = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    q = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, f, k):  # row_i -= f * row_k
        for j in range(cols):
            a[i][j] -= f * a[k][j]
        for j in range(rows):
            p[i][j] -= f * p[k][j]

    def col_op(j, f, k):  # col_j -= f * col_k
        for i in range(rows):
            a[i][j] -= f * a[i][k]
        for i in range(cols):
            q[i][j] -= f * q[i][k]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        p[i], p[k] = p[k], p[i]

    def swap_cols(j, k):
        for i in range(rows):
            a[i][j], a[i][k] = a[i][k], a[i][j]
        for i in range(cols):
            q[i][j], q[i][k] = q[i][k], q[i][j]

    t = 0
    while True:
        # locate the nonzero entry of minimal absolute value in a[t:, t:]
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    f = a[i][t] // a[t][t]
                    row_op(i, f, t)
                    if a[i][t]:  # remainder became the smaller pivot
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    f = a[t][j] // a[t][t]
                    col_op(j, f, t)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            culprit = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_op(t, -1, culprit)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            p[t] = [-x for x in p[t]]
        t += 1
        if t == min(rows, cols):
            break
    return _matrix(a, cols), _matrix(p, rows), _matrix(q, cols)


def kernel_basis(m):
    """Basis (list of rows) of {x : x @ m = 0}; the kernel is saturated."""
    h, u = hnf(m)
    return [u.data[i] for i in range(m.rows) if not any(h.data[i])]


def preimage_lattice(m, target):
    """Basis of the lattice {x in ZZ^r : x @ m lies in ``target``}.

    ``m`` is r x s and ``target`` a Lattice in ZZ^s (or None for {0}).
    """
    r = m.rows
    if target is None or target.basis.rows == 0:
        return kernel_basis(m)
    stacked = IntMatrix(list(m.data) + [[-x for x in row] for row in target.basis.data])
    ker = kernel_basis(stacked)
    return [row[:r] for row in ker]


class Lattice:
    """A sublattice of ZZ^n, stored by its canonical (HNF) basis; hashed once."""

    __slots__ = ("ambient_rank", "basis", "pivots", "_hash")

    def __init__(self, ambient_rank, rows=()):
        rows = list(map(integers, rows))  # the elimination replaces rows, never edits one
        for r in rows:
            if len(r) != ambient_rank:
                raise ValueError("row length != ambient rank")
        pivots = _hnf_in_place(rows, ambient_rank)
        self.ambient_rank = ambient_rank
        self.basis = _matrix(rows[: len(pivots)], ambient_rank)
        # the pivot column of each basis row
        self.pivots, self._hash = tuple(pivots), None

    @classmethod
    def full(cls, n):
        return cls(n, IntMatrix.identity(n).data)

    @property
    def rank(self):
        return self.basis.rows

    def member(self, v):
        return self.coords_of(v) is not None

    def coords_of(self, v):
        """Integer coordinates of v in the canonical basis, or None."""
        if len(v) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        # back substitution on the HNF pivot structure; a basis row vanishes
        # before its pivot, so each update starts there
        rest = list(v)
        coeffs = []
        for row, j in zip(self.basis.data, self.pivots):
            c, r = divmod(rest[j], row[j])
            if r:
                return None
            coeffs.append(c)
            if c:
                rest[j:] = [x - c * y for x, y in zip(rest[j:], row[j:])]
        if any(rest):
            return None
        return tuple(coeffs)

    def contains(self, other):
        return all(self.member(row) for row in other.basis.data)

    def sum(self, other):
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient mismatch")
        return Lattice(self.ambient_rank, list(self.basis.data) + list(other.basis.data))

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient_rank == other.ambient_rank
            and self.basis == other.basis
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ambient_rank, self.basis))
        return self._hash

    def __repr__(self):
        return "Lattice(%d, %r)" % (self.ambient_rank, list(map(list, self.basis.data)))


class _RowSolver:
    """The row lattice of one fixed m, read in the rows of m (not a Lattice:
    ``basis`` is m).  ``coords_of(v)`` is an x with x @ m = v, or None; it
    is unique when ``rank`` is m.rows.  With u*m = h in HNF, the pivot rows
    of h are the canonical basis, which gives y with y @ h = v, and
    x = y @ u; only the pivot rows of h and u are kept.
    """

    __slots__ = ("ambient_rank", "basis", "rank", "_canonical", "_u")

    def __init__(self, m):
        a, u, pivots = _hnf_with_transform(m)
        k = len(pivots)
        canonical = self._canonical = object.__new__(Lattice)  # h is already canonical
        canonical.ambient_rank, canonical.pivots, canonical._hash = m.cols, tuple(pivots), None
        canonical.basis = _matrix(a[:k], m.cols)
        self.ambient_rank, self.basis, self.rank = m.cols, m, k
        self._u = _matrix(u[:k], m.rows)

    def coords_of(self, v):
        y = self._canonical.coords_of(v)
        return None if y is None else apply_row(y, self._u)


def action_coordinates(lattice, mats):
    """The matrix of each of ``mats`` on ``lattice`` in its basis, or None
    when one of them does not map the lattice into itself.

    The basis is the canonical one of a Lattice, the rows of a _RowSolver.
    Row i of a matrix holds the coordinates of b_i g, for b_i the i-th basis
    row; finding them is the stability test.
    """
    out = []
    for g in mats:
        rows = []
        for row in lattice.basis.data:
            c = lattice.coords_of(apply_row(row, g))
            if c is None:
                return None
            rows.append(c)
        out.append(rows)
    return out


def fixed_generators(lattice, action, modulo=None):
    """Generating rows, not canonical, of the points x of ``lattice`` with
    x g - x in ``modulo`` for each g, the fixed points when ``modulo`` is None.

    ``action`` holds the matrices of the g on the lattice, as
    action_coordinates gives them, and they must stabilize ``modulo``.  With
    x = c B for B the basis they are written in, x g - x = c (A_g - I) B, so
    the condition reads in coordinates: c (A_g - I) lies in the part of
    ``modulo`` inside the lattice, written in the same coordinates.
    """
    b = lattice.basis
    k = b.rows
    if not action or k == 0:
        return b.data
    blocks = [[[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)] for a in action]
    stacked = IntMatrix([sum((blk[i] for blk in blocks), []) for i in range(k)])
    target = None
    if modulo is not None:
        rel = [lattice.coords_of(row) for row in modulo.basis.data]
        if None in rel:  # only the points of modulo inside the lattice are differences
            rel = preimage_lattice(b, modulo)
        target = Lattice(k * len(action), [
            [0] * (i * k) + list(r) + [0] * ((len(action) - 1 - i) * k)
            for i in range(len(action)) for r in rel
        ])
    return [apply_row(c, b) for c in preimage_lattice(stacked, target)]


def fixed_sublattice(lattice, mats, modulo=None):
    """The sublattice of points x of ``lattice`` with x g - x in ``modulo``
    for every matrix g: the fixed points when ``modulo`` is None.

    ``lattice`` may be a Lattice, a _RowSolver or an integer n (meaning all
    of ZZ^n), and ``modulo`` a Lattice in the same ZZ^n.  The matrices must
    stabilize both; that is checked, not assumed.  For a finite group, its
    generator matrices give the same answer as all of its elements: a
    lattice stable under the generators is stable under the group, and a
    point fixed (modulo a stable lattice) by the generators is fixed by the
    group.
    """
    if isinstance(lattice, int):
        lattice = Lattice.full(lattice)
    n = lattice.ambient_rank
    for g in mats:
        if g.rows != n or g.cols != n:
            raise ValueError("action matrix has wrong size")
    action = action_coordinates(lattice, mats)
    if action is None:
        raise ValueError("action does not stabilize the lattice")
    if modulo is not None and action_coordinates(modulo, mats) is None:
        raise ValueError("action does not stabilize the subgroup of relations")
    return Lattice(n, fixed_generators(lattice, action, modulo))


class FgAbelianGroup:
    """A finitely generated abelian group in Smith normal form coordinates.

    Built as ZZ^n modulo the row space of a relation matrix.  Elements are
    tuples in the reduced SNF coordinates: one coordinate per invariant
    factor d (taken mod d when d > 0, a free integer when d == 0); factors
    d == 1 are dropped.
    """

    __slots__ = ("n_gens", "invariant_factors", "_cols", "_lifts")

    def __init__(self, n_gens, relation_rows):
        rel = IntMatrix(relation_rows, cols=n_gens)
        if rel.cols != n_gens:
            raise ValueError("relation width != generator count")
        d, _, q = snf(rel)
        moduli = [d.data[j][j] if j < rel.rows else 0 for j in range(n_gens)]
        keep = [j for j, m in enumerate(moduli) if m != 1]
        self.n_gens = n_gens
        self.invariant_factors = tuple(moduli[j] for j in keep)
        # only the kept SNF coordinates are read: the columns of q that map
        # into them and the rows of q^-1 that lift out of them
        self._cols = tuple(q.col(j) for j in keep)
        q_inv = _unimodular_inverse(q)
        self._lifts = _matrix([q_inv.data[j] for j in keep], n_gens)

    @property
    def rank(self):
        return len(self.invariant_factors)

    def order(self):
        """Group order; 0 means infinite."""
        total = 1
        for d in self.invariant_factors:
            if d == 0:
                return 0
            total *= d
        return total

    def from_ambient(self, x):
        """Class of a vector given in the original generator coordinates."""
        if len(x) != self.n_gens:
            raise ValueError("dimension mismatch")
        out = []
        for col, d in zip(self._cols, self.invariant_factors):
            y = sum(map(mul, x, col))
            out.append(y % d if d else y)
        return tuple(out)

    def lift(self, element):
        """Some preimage in the original generator coordinates."""
        return apply_row(tuple(element), self._lifts)

    def __str__(self):
        """The invariant factors, such as ``Z/2 + Z``, or ``trivial``."""
        return " + ".join("Z" if d == 0 else "Z/%d" % d for d in self.invariant_factors) or "trivial"

    def __repr__(self):
        return "FgAbelianGroup(%s)" % self


def _unimodular_inverse(m):
    """Inverse of a unimodular integer matrix (via HNF, which must be I)."""
    h, u = hnf(m)
    if h != IntMatrix.identity(m.rows):
        raise ValueError("matrix is not unimodular")
    return u


def quotient_group(lattice, sub):
    """The quotient lattice/sub as an FgAbelianGroup.

    Generators are the basis rows of ``lattice`` (a Lattice or a
    _RowSolver); relations are the coordinates of the basis of ``sub`` in
    that basis.  With ``lattice`` the fixed_sublattice of some matrices
    modulo ``sub``, this is the group of the classes of lattice/sub that the
    matrices fix.
    """
    rel = [lattice.coords_of(row) for row in sub.basis.data]
    if None in rel:
        raise ValueError("not a sublattice")
    return FgAbelianGroup(lattice.rank, rel)


class Rational(namedtuple("Rational", "numerator denominator")):
    """p/q in lowest terms with q > 1, written "p/q"."""

    __slots__ = ()

    def __str__(self):
        return "%d/%d" % self


def read_rational(x):
    """The one reader of exact numbers, giving ``rational(p, q)``: an int
    (not a bool), an ASCII string -?[0-9]+ or -?[0-9]+/[0-9]+ with a nonzero
    denominator, or an object with an int numerator and a positive int
    denominator (a Fraction); ValueError for anything else, floats too."""
    if type(x) is int:
        return x
    digits = x[1:] if type(x) is str and x[:1] == "-" else x
    if type(x) is str and digits.isascii() and digits.isdigit():  # on ASCII, isdigit is [0-9]
        return int(x)
    m = _QUOTIENT.fullmatch(x) if type(x) is str else None
    p, q = (int(m[1]), int(m[2])) if m else (getattr(x, "numerator", None), getattr(x, "denominator", None))
    if m and q == 0:
        raise ValueError("zero denominator in %r" % (x,))
    if type(x) is bool or type(p) is not int or type(q) is not int or q < 1:
        raise ValueError("%r is not an integer or a p/q string" % (x,))
    return rational(p, q)


def rational(p, q):
    """p/q for q > 0 in lowest terms: an int when q divides p, else a Rational."""
    g = gcd(p, q)
    return p // g if g == q else Rational(p // g, q // g)
