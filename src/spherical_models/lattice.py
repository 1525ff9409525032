"""Exact integer linear algebra and finitely generated abelian groups.

Everything here is arbitrary-precision integer arithmetic; no floats ever.
Vectors are rows, linear maps act on the right (``v -> v @ M``), and the rows
of a matrix are the images of the standard basis vectors.  Lattices are
sublattices of some ZZ^n, canonically represented by their row-style Hermite
normal form, so lattice equality is just equality of canonical bases.
Finitely generated abelian groups are presented by integer relation matrices
and normalized through Smith normal form; their elements are coordinate
tuples reduced modulo the invariant factors (0 encodes a free ZZ factor).
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul


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
    """An immutable matrix over ZZ."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        data = tuple(tuple(map(int, row)) for row in data)
        self.rows = len(data)
        self.cols = len(data[0]) if data else (0 if cols is None else cols)
        if any(len(row) != self.cols for row in data):
            raise ValueError("ragged rows")
        self.data = data

    @classmethod
    def _of(cls, data, cols):
        """A matrix whose rows ``data`` are already int tuples of length ``cols``.

        Internal results (products, normal forms) are integer by construction,
        so they skip the coercion and the shape check of ``__init__``.
        """
        m = object.__new__(cls)
        m.rows, m.cols, m.data = len(data), cols, data
        return m

    @classmethod
    def identity(cls, n):
        """The n x n identity, built once per n (matrices are immutable)."""
        return _identity(n)

    @classmethod
    def zero(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    def col(self, j):
        return tuple(row[j] for row in self.data)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix([[x * other for x in row] for row in self.data])
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
        return hash(self.data)

    def __repr__(self):
        return "IntMatrix(%r)" % (list(map(list, self.data)),)


@lru_cache(maxsize=None)
def _identity(n):
    return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)


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
    """A sublattice of ZZ^n, stored by its canonical (HNF) basis."""

    __slots__ = ("ambient_rank", "basis", "pivots")

    def __init__(self, ambient_rank, rows=()):
        rows = [list(map(int, r)) for r in rows]
        for r in rows:
            if len(r) != ambient_rank:
                raise ValueError("row length != ambient rank")
        pivots = _hnf_in_place(rows, ambient_rank)
        self.ambient_rank = ambient_rank
        self.basis = _matrix(rows[: len(pivots)], ambient_rank)
        # the pivot column of each basis row
        self.pivots = tuple(pivots)

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
        return hash((self.ambient_rank, self.basis))

    def __repr__(self):
        return "Lattice(%d, %r)" % (self.ambient_rank, list(map(list, self.basis.data)))


class _RowSolver(Lattice):
    """The row lattice of one fixed m, which also solves x @ m = v.

    With u*m = h in HNF, the pivot rows of h are the canonical basis, so
    coords_of gives y with y @ h = v, and x = y @ u; only the pivot rows of
    h and u are kept.
    """

    __slots__ = ("u",)

    def __init__(self, m):
        a, u, pivots = _hnf_with_transform(m)
        k = len(pivots)
        self.ambient_rank = m.cols
        self.basis = _matrix(a[:k], m.cols)
        self.pivots = tuple(pivots)
        self.u = _matrix(u[:k], m.rows)

    def solve(self, v):
        y = self.coords_of(v)
        return None if y is None else apply_row(y, self.u)


def stabilizes(lattice, mats):
    """True iff every matrix maps the lattice into itself."""
    return all(
        lattice.member(apply_row(row, g)) for g in mats for row in lattice.basis.data
    )


def fixed_sublattice(lattice, mats):
    """The sublattice of points of ``lattice`` fixed by every matrix.

    ``lattice`` may be a Lattice or an integer n (meaning all of ZZ^n).  The
    matrices must stabilize the lattice; that is checked, not assumed.  For a
    finite group, its generator matrices give the same answer as all of its
    elements: a lattice stable under the generators is stable under the group,
    and a point fixed by the generators is fixed by the group.
    """
    if isinstance(lattice, int):
        lattice = Lattice.full(lattice)
    n = lattice.ambient_rank
    for g in mats:
        if g.rows != n or g.cols != n:
            raise ValueError("action matrix has wrong size")
    if not stabilizes(lattice, mats):
        raise ValueError("action does not stabilize the lattice")
    if not mats:
        return Lattice(n, lattice.basis.data)
    b = lattice.basis
    if b.rows == 0:
        return Lattice(n)
    # condition on coefficient rows c:  c @ (B g - B) = 0 for all g
    blocks = []
    for g in mats:
        diff = b * g - b
        blocks.append(diff)
    stacked = IntMatrix(
        [sum((list(blk.data[i]) for blk in blocks), []) for i in range(b.rows)]
    )
    coeff_rows = kernel_basis(stacked)
    return Lattice(n, [apply_row(c, b) for c in coeff_rows])


class FgAbelianGroup:
    """A finitely generated abelian group in Smith normal form coordinates.

    Built as ZZ^n modulo the row space of a relation matrix.  Elements are
    tuples in the reduced SNF coordinates: one coordinate per invariant
    factor d (taken mod d when d > 0, a free integer when d == 0); factors
    d == 1 are dropped.  ``action`` optionally carries endomorphism matrices
    (in reduced coordinates) for a group acting on this group.
    """

    __slots__ = (
        "n_gens",
        "q",
        "q_inv",
        "moduli",
        "keep",
        "invariant_factors",
        "action",
    )

    def __init__(self, n_gens, relation_rows, action=None):
        rel = IntMatrix(relation_rows) if relation_rows else IntMatrix.zero(0, n_gens)
        if rel.cols != n_gens:
            raise ValueError("relation width != generator count")
        d, p, q = snf(rel)
        self.n_gens = n_gens
        self.q = q
        self.q_inv = _unimodular_inverse(q)
        moduli = []
        for j in range(n_gens):
            moduli.append(d.data[j][j] if j < rel.rows else 0)
        self.moduli = tuple(moduli)
        self.keep = tuple(j for j, m in enumerate(moduli) if m != 1)
        self.invariant_factors = tuple(moduli[j] for j in self.keep)
        self.action = None
        if action is not None:
            self.action = tuple(self._reduce_endomorphism(m) for m in action)
            for m in self.action:
                self._check_endomorphism(m)

    # -- element plumbing ------------------------------------------------

    @property
    def rank(self):
        return len(self.keep)

    def relations(self):
        """The rows d*e_j of the reduced coordinates, one per finite invariant factor d."""
        k = self.rank
        return [[d if i == j else 0 for i in range(k)] for j, d in enumerate(self.invariant_factors) if d > 0]

    def order(self):
        """Group order; 0 means infinite."""
        total = 1
        for d in self.invariant_factors:
            if d == 0:
                return 0
            total *= d
        return total

    def reduce(self, coords):
        out = []
        for j in self.keep:
            d = self.moduli[j]
            out.append(coords[j] % d if d > 0 else coords[j])
        return tuple(out)

    def from_ambient(self, x):
        """Class of a vector given in the original generator coordinates."""
        if len(x) != self.n_gens:
            raise ValueError("dimension mismatch")
        y = apply_row(tuple(x), self.q)
        return self.reduce(y)

    def lift(self, element):
        """Some preimage in the original generator coordinates."""
        y = [0] * self.n_gens
        for idx, j in enumerate(self.keep):
            y[j] = element[idx]
        return apply_row(tuple(y), self.q_inv)

    def scale(self, a, k):
        return tuple((x * k) % d if d > 0 else x * k for x, d in zip(a, self.invariant_factors))

    def __repr__(self):
        if not self.invariant_factors:
            return "FgAbelianGroup(trivial)"
        parts = ["Z" if d == 0 else "Z/%d" % d for d in self.invariant_factors]
        return "FgAbelianGroup(%s)" % " + ".join(parts)

    # -- induced endomorphisms --------------------------------------------

    def _reduce_endomorphism(self, m):
        """Conjugate an endomorphism on generator coordinates into reduced ones."""
        if m.rows != self.n_gens or m.cols != self.n_gens:
            raise ValueError("endomorphism has wrong size")
        full = self.q_inv * m * self.q
        return IntMatrix([[full.data[i][j] for j in self.keep] for i in self.keep])

    def _check_endomorphism(self, red):
        for i, di in enumerate(self.invariant_factors):
            for j, dj in enumerate(self.invariant_factors):
                v = di * red.data[i][j]
                if dj > 0:
                    if v % dj:
                        raise ValueError("action not well defined on the quotient")
                elif v != 0:
                    raise ValueError("action not well defined on the quotient")

    def reduce_reduced(self, coords):
        return tuple(
            x % d if d > 0 else x for x, d in zip(coords, self.invariant_factors)
        )


def _unimodular_inverse(m):
    """Inverse of a unimodular integer matrix (via HNF, which must be I)."""
    h, u = hnf(m)
    if h != IntMatrix.identity(m.rows):
        raise ValueError("matrix is not unimodular")
    return u


class GroupHom:
    """A homomorphism between FgAbelianGroups, given on SNF generators.

    ``images[i]`` is the image (an element of ``target``) of the i-th reduced
    generator of ``source``.  Well-definedness (relations map to zero) is
    checked at construction.
    """

    __slots__ = ("source", "target", "images", "_solver")

    def __init__(self, source, target, images):
        images = tuple(tuple(img) for img in images)
        if len(images) != source.rank:
            raise ValueError("one image per source generator required")
        for d, img in zip(source.invariant_factors, images):
            if d > 0 and any(target.scale(img, d)):
                raise ValueError("homomorphism not well defined")
        self.source = source
        self.target = target
        self.images = images
        self._solver = None

    def preimage(self, element):
        """Some source element mapping to ``element``, or None.

        The solving matrix (images over the target's moduli) is put in HNF
        on the first call and reused by every later one.
        """
        if self._solver is None:
            m = IntMatrix(list(self.images) + self.target.relations(), cols=self.target.rank)
            self._solver = _RowSolver(m)
        sol = self._solver.solve(element)
        if sol is None:
            return None
        return self.source.reduce_reduced(sol[: self.source.rank])


def quotient_group(lattice, sub, action=None):
    """The quotient lattice/sub as an FgAbelianGroup, with induced action.

    Generators are the canonical basis rows of ``lattice``; relations are the
    coordinates of the basis of ``sub`` in that basis.  Optional ``action`` is
    a list of ambient matrices stabilizing both lattices; the induced
    endomorphisms are verified to be well defined.
    """
    if not lattice.contains(sub):
        raise ValueError("not a sublattice")
    rel = []
    for row in sub.basis.data:
        rel.append(list(lattice.coords_of(row)))
    induced = None
    if action is not None:
        if not stabilizes(sub, action):
            raise ValueError("action does not stabilize the subgroup of relations")
        induced = [_restriction_matrix(lattice.basis, lattice.coords_of, g) for g in action]
        if any(m is None for m in induced):
            raise ValueError("action does not stabilize the lattice")
    return FgAbelianGroup(lattice.rank, rel, action=induced)


def _restriction_matrix(basis, solve, g):
    """The matrix of g on the lattice spanned by the rows of ``basis``, in
    that basis, or None when g does not map the lattice into itself.

    ``solve(w)`` gives the coordinates of w in ``basis`` (None off the
    lattice); row i holds those of basis row i moved by g.
    """
    rows = []
    for row in basis.data:
        c = solve(apply_row(row, g))
        if c is None:
            return None
        rows.append(c)
    return _matrix(rows, basis.rows)


def _subquotient(group, lat_rows):
    """Subgroup of ``group`` spanned (mod relations) by the rows ``lat_rows``.

    The rows live in the reduced coordinate space ZZ^rank of ``group``.
    Returns (subgroup, inclusion hom).
    """
    k = group.rank
    mod_rows = group.relations()
    span = Lattice(k, list(lat_rows) + mod_rows)
    # the moduli lie in the span by construction
    relations = [list(span.coords_of(tuple(row))) for row in mod_rows]
    sub = FgAbelianGroup(span.rank, relations)
    images = []
    for idx in range(sub.rank):
        amb = apply_row(sub.lift((0,) * idx + (1,) + (0,) * (sub.rank - idx - 1)), span.basis)
        images.append(group.reduce_reduced(amb))
    incl = GroupHom(sub, group, images)
    return sub, incl


def group_invariants(group):
    """Fixed points of the action carried by ``group``.

    Returns (subgroup, inclusion GroupHom).  The subgroup is presented in its
    own SNF coordinates; the inclusion records generator images in ``group``.
    """
    if group.action is None:
        raise ValueError("group carries no action")
    k = group.rank
    if k == 0:
        sub = FgAbelianGroup(0, [])
        return sub, GroupHom(sub, group, [])
    blocks = []
    ident = IntMatrix.identity(k)
    for m in group.action:
        blocks.append(m - ident)
    stacked = IntMatrix([sum((list(b.data[i]) for b in blocks), []) for i in range(k)])
    # the relations of the group, once per block
    nblocks, rels = len(blocks), group.relations()
    target = Lattice(
        k * nblocks,
        [[0] * (bi * k) + r + [0] * ((nblocks - 1 - bi) * k) for bi in range(nblocks) for r in rels],
    )
    lat_rows = preimage_lattice(stacked, target)
    return _subquotient(group, lat_rows)
