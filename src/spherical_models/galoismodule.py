"""Finite Galois images acting on lattices, Tate cohomology, Brauer characters.

The engine never touches the profinite Galois group itself; what acts is a
finite quotient (trivial, Z/2, Z/3, or S3, the possible diagram-automorphism
images) through explicit matrices on the weight lattice.  The abstract group
is kept separate from its matrix image because the representation need not
be faithful: a quadratic extension acting trivially on weights still has
nontrivial cohomology.  Degree-2 classes over a local field are never stored
as cocycles: their computational avatar is the Brauer character, a
homomorphism from the fixed-point group of the character module to QQ/ZZ,
which is exactly the data the local vanishing tests consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from math import lcm

from .lattice import (
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    _subquotient,
    apply_row,
    group_invariants,
)
from .rootdata import based_root_datum, star_action_matrix

REAL = "real"
PADIC = "padic"

_GROUP_NAMES = ("trivial", "cyclic2", "cyclic3", "s3")


def _group_table(name):
    """Multiplication table and generator indices of a supported group."""
    if name == "trivial":
        return ((0,),), ()
    if name == "cyclic2":
        return tuple(tuple((i + j) % 2 for j in range(2)) for i in range(2)), (1,)
    if name == "cyclic3":
        return tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3)), (1,)
    if name == "s3":
        # elements as permutations of {0,1,2}: id, r, r^2, s, rs, r^2 s
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)]
        index = {p: i for i, p in enumerate(perms)}

        def compose(p, q):  # p after q
            return tuple(p[q[i]] for i in range(3))

        table = tuple(
            tuple(index[compose(perms[a], perms[b])] for b in range(6)) for a in range(6)
        )
        return table, (1, 3)  # a 3-cycle and a transposition generate
    raise ValueError("unsupported group %r (expected one of %s)" % (name, ", ".join(_GROUP_NAMES)))


class GaloisAction:
    """An abstract finite group with a matrix action on ZZ^n.

    ``group_name`` picks the abstract group; ``generator_matrices`` gives the
    representing matrix of each abstract generator (one for the cyclic
    groups, two for S3: first of order 3, then of order 2).  Matrices for all
    elements are derived by words and the homomorphism property is verified
    against the multiplication table.  Vectors are rows and act on the right,
    so rep(ab) = rep(a) rep(b).  Two actions are equal when they name the same
    abstract group and have the same element matrices, so the trivial group
    and the order-2 group acting trivially stay distinct.
    """

    __slots__ = ("n", "group_name", "mult", "generators", "matrices", "_hash")

    def __init__(self, group_name, generator_matrices, n=None):
        table, gen_idx = _group_table(group_name)
        gens = [m if isinstance(m, IntMatrix) else IntMatrix(m) for m in generator_matrices]
        if len(gens) != len(gen_idx):
            raise ValueError(
                "group %s needs %d generator matrices" % (group_name, len(gen_idx))
            )
        if gens:
            n = gens[0].rows
        if n is None:
            raise ValueError("ambient rank required for the trivial group")
        for g in gens:
            if g.rows != n or g.cols != n:
                raise ValueError("generator matrices must be square of equal size")
        order = len(table)
        mats = [None] * order
        mats[0] = IntMatrix.identity(n)
        frontier = [0]
        while frontier:
            nxt = []
            for e in frontier:
                for gi, gm in zip(gen_idx, gens):
                    e2 = table[e][gi]
                    if mats[e2] is None:
                        mats[e2] = mats[e] * gm
                        nxt.append(e2)
            frontier = nxt
        if any(m is None for m in mats):
            raise ValueError("generators do not generate the group")
        for a in range(order):
            for b in range(order):
                if mats[a] * mats[b] != mats[table[a][b]]:
                    raise ValueError("matrices do not satisfy the group relations")
        self.n = n
        self.group_name = group_name
        self.mult = table
        self.generators = gen_idx
        self.matrices = tuple(mats)
        self._hash = hash((group_name, self.matrices))

    @classmethod
    def trivial(cls, n):
        return cls("trivial", [], n=n)

    @property
    def order(self):
        return len(self.matrices)

    def is_trivial_group(self):
        return self.order == 1

    def is_trivial_action(self):
        """True iff every element acts as the identity; the generators decide it."""
        ident = IntMatrix.identity(self.n)
        return all(m == ident for m in self.generator_matrices())

    def is_cyclic(self):
        return self.order in (1, 2, 3)

    def generator_matrices(self):
        return tuple(self.matrices[i] for i in self.generators)

    def apply(self, i, v):
        return apply_row(tuple(v), self.matrices[i])

    def is_subaction_of(self, other):
        """True iff the image of this action sits inside the image of ``other``."""
        return set(self.matrices).issubset(set(other.matrices))

    def __eq__(self, other):
        return (
            isinstance(other, GaloisAction)
            and self.group_name == other.group_name
            and self.matrices == other.matrices
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "GaloisAction(%s, n=%d)" % (self.group_name, self.n)


def galois_from_permutations(rd, automorphisms, group_name=None):
    """GaloisAction on the weight lattice from diagram automorphisms.

    With one automorphism the group is cyclic of that automorphism's order;
    explicitly passing ``group_name`` allows a non-faithful action such as a
    quadratic extension acting trivially.  Each distinct input is built (and
    its multiplication table checked) once per process.
    """
    return _galois_from_permutations(rd.type, tuple(automorphisms), group_name)


@lru_cache(maxsize=None)
def _galois_from_permutations(t, automorphisms, group_name):
    rd = based_root_datum(t)
    mats = [star_action_matrix(rd, a) for a in automorphisms]
    if group_name is None:
        if not automorphisms:
            group_name = "trivial"
        elif len(automorphisms) == 1:
            group_name = {1: "trivial", 2: "cyclic2", 3: "cyclic3"}.get(
                automorphisms[0].order()
            )
            if group_name is None:
                raise ValueError("single generator of unsupported order")
            if group_name == "trivial":
                mats = []
        else:
            group_name = "s3"
    if group_name == "trivial":
        return GaloisAction.trivial(rd.rank)
    return GaloisAction(group_name, mats)


def module_with_action(lattice, sub, galois):
    """The quotient lattice/sub with one induced endomorphism per group element.

    The returned FgAbelianGroup's ``action`` tuple is aligned with
    ``galois.matrices``; pairing the two is how the cohomology routines
    recover the abstract group structure.
    """
    from .lattice import quotient_group

    return quotient_group(lattice, sub, action=list(galois.matrices))


def _aligned_action(module, galois):
    if module.action is None or len(module.action) != galois.order:
        raise ValueError("module action is not aligned with the group elements")
    return module.action


def _norm_matrix(module, galois):
    """Matrix of a -> sum over all group elements of g(a), reduced coords."""
    mats = _aligned_action(module, galois)
    k = module.rank
    total = IntMatrix.zero(k, k)
    for m in mats:
        total = total + m
    return total


def norm_subgroup(module, galois):
    """Image of the norm endomorphism, as (subgroup, inclusion hom).

    Defined for cyclic groups only; the norm sums over every group element,
    so a non-faithful action (for example a trivial action of Z/2) still gets
    the full norm (doubling in that example).
    """
    if not galois.is_cyclic():
        raise ValueError("norms are defined for cyclic groups only")
    n_mat = _norm_matrix(module, galois)
    return _subquotient(module, list(n_mat.data))


def h2_cyclic(module, galois):
    """H^2 of a cyclic group as fixed points modulo norms (Tate's hat-H^0).

    Returns (h2, class_map) where class_map is a GroupHom from the fixed
    subgroup onto H^2.  Cyclic-group cohomology is 2-periodic, so this is
    genuine H^2 for the supported orders; the trivial group yields the
    trivial group.  Non-cyclic groups are refused: the decision paths only
    ever consult H^2 through Brauer characters at cyclic completions.
    """
    if not galois.is_cyclic():
        raise ValueError("H^2 is computed for cyclic groups only")
    inv, incl = group_invariants(module)
    if galois.is_trivial_group():
        triv = FgAbelianGroup(0, [])
        zero_map = GroupHom(inv, triv, [() for _ in range(inv.rank)])
        return triv, zero_map
    n_mat = _norm_matrix(module, galois)
    norm_rows = []
    for j in range(module.rank):
        e = tuple(1 if i == j else 0 for i in range(module.rank))
        img = module.reduce_reduced(apply_row(e, n_mat))
        pre = incl.preimage(img)
        if pre is None:
            raise ValueError("norm image is not fixed; inconsistent action")
        norm_rows.append(list(pre))
    rel = norm_rows + [list(r) for r in _full_relations(inv)]
    h2 = FgAbelianGroup(inv.rank, rel)
    images = []
    for idx in range(inv.rank):
        e = tuple(1 if i == idx else 0 for i in range(inv.rank))
        images.append(h2.from_ambient(e))
    class_hom = GroupHom(inv, h2, images)
    return h2, class_hom


def _full_relations(group):
    k = group.rank
    return [
        tuple(d if i == j else 0 for i in range(k))
        for j, d in enumerate(group.invariant_factors)
        if d > 0
    ]


@dataclass(frozen=True)
class CohomologyClassRepr:
    """A degree-2 class of a cyclic action, as a fixed point modulo norms.

    Tags the abstract group and the module it belongs to (through the
    invariant factors of the class group); arithmetic is in the quotient.
    """

    group_name: str
    h2: FgAbelianGroup
    element: tuple

    def is_zero(self):
        return all(x == 0 for x in self.element)

    def add(self, other):
        if self.group_name != other.group_name or self.h2.invariant_factors != other.h2.invariant_factors:
            raise ValueError("classes live in different cohomology groups")
        return CohomologyClassRepr(
            self.group_name, self.h2, self.h2.add(self.element, other.element)
        )

    def neg(self):
        return CohomologyClassRepr(self.group_name, self.h2, self.h2.neg(self.element))


def cohomology_class(module, galois, fixed_element):
    """The class of a fixed module element in fixed-points-modulo-norms."""
    h2, class_map = h2_cyclic(module, galois)
    _, incl = group_invariants(module)
    pre = incl.preimage(module.reduce_reduced(fixed_element))
    if pre is None:
        raise ValueError("representative is not a fixed point")
    return CohomologyClassRepr(galois.group_name, h2, class_map.apply(pre))


@dataclass(frozen=True)
class BrCharacter:
    """A homomorphism from a finite abelian group to QQ/ZZ.

    ``values[i]`` is the image of the i-th SNF generator of ``source``,
    stored as a reduced fraction p/q with 0 <= p < q.  This is the lossless
    stand-in for a degree-2 local Galois cohomology class evaluated through
    the cup-product pairing.
    """

    source: FgAbelianGroup
    values: tuple

    def __post_init__(self):
        if self.source.order() == 0:
            raise ValueError("Brauer characters live on finite groups")
        vals = tuple(Fraction(v) % 1 for v in self.values)
        if len(vals) != self.source.rank:
            raise ValueError("one value per SNF generator required")
        for d, v in zip(self.source.invariant_factors, vals):
            if (d * v) % 1 != 0:
                raise ValueError(
                    "value %s is not killed by the generator order %d" % (v, d)
                )
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, source):
        return cls(source, tuple(Fraction(0) for _ in range(source.rank)))

    def evaluate(self, element):
        total = Fraction(0)
        for x, v in zip(element, self.values):
            total += x * v
        return total % 1

    def is_zero(self):
        return all(v == 0 for v in self.values)

    def order(self):
        return lcm(*(v.denominator for v in self.values))

    def serialize(self):
        return ["%d/%d" % (v.numerator, v.denominator) if v else "0" for v in self.values]


def validate_br_character(t0, field_mode, ambient=None, galois=None, embedding=None):
    """Diagnostics for a Brauer character; an empty list means valid.

    ``field_mode`` is REAL or PADIC.  Over the reals the values must lie in
    (1/2)ZZ/ZZ and, when the ambient module (with the order-2 group) and the
    embedding of the character's source into its fixed points are supplied,
    the character must kill every norm a + g(a): that is what makes it a
    genuine character of the Tate quotient.
    """
    problems = []
    if field_mode not in (REAL, PADIC):
        problems.append("unsupported base field: %r" % (field_mode,))
        return problems
    if field_mode == REAL:
        for v in t0.values:
            if (2 * v) % 1 != 0:
                problems.append("value %s not in (1/2)Z/Z" % (v,))
        if ambient is not None and galois is not None:
            if embedding is None:
                raise ValueError("norm check needs the embedding of the source")
            n_mat = _norm_matrix(ambient, galois)
            for j in range(ambient.rank):
                e = tuple(1 if i == j else 0 for i in range(ambient.rank))
                norm = ambient.reduce_reduced(apply_row(e, n_mat))
                pre = embedding.preimage(norm)
                if pre is None:
                    problems.append("a norm element does not lie in the fixed points")
                    continue
                if t0.evaluate(pre) != 0:
                    problems.append(
                        "character does not vanish on the norm of generator %d" % (j + 1,)
                    )
    return problems


def br_vanishing_test(t0, phi_star):
    """True iff t0 vanishes on the image of ``phi_star``.

    ``phi_star`` is a GroupHom into the source of t0 (the fixed points of the
    character module); by linearity it suffices to test the generator images.
    With the identity hom this degenerates to "t0 is the zero character".
    """
    if (
        phi_star.target is not t0.source
        and phi_star.target.invariant_factors != t0.source.invariant_factors
    ):
        raise ValueError("homomorphism does not land in the character's source")
    return all(t0.evaluate(img) == 0 for img in phi_star.images)


def all_characters(group):
    """Every homomorphism group -> QQ/ZZ of a finite group, zero first."""
    if group.order() == 0:
        raise ValueError("infinite group")
    choices = [[Fraction(k, d) for k in range(d)] for d in group.invariant_factors]
    out = [BrCharacter(group, combo) for combo in _cartesian(*choices)]
    out.sort(key=lambda ch: (not ch.is_zero(), ch.values))
    return out
