"""Finite Galois images acting on lattices, and Brauer characters.

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
from functools import lru_cache, reduce
from itertools import product as _cartesian
from math import lcm
from operator import add, mul

from .lattice import FgAbelianGroup, IntMatrix, quotient_group
from .rootdata import based_root_datum, star_action_matrix

REAL = "real"
PADIC = "padic"

# Each supported group by a presentation.  The generators are letters, in
# the order of the generator matrices; the elements are words in them, in
# element order (the identity first, and for S3: 1, r, r^2, s, rs, r^2 s);
# the relators are the words that must act as the identity.
_GROUPS = {
    "trivial": ("", ("",), ()),
    "cyclic2": ("g", ("", "g"), ("gg",)),
    "cyclic3": ("g", ("", "g", "gg"), ("ggg",)),
    "s3": ("rs", ("", "r", "rr", "s", "rs", "rrs"), ("rrr", "ss", "rsrs")),
}


class GaloisAction:
    """An abstract finite group with a matrix action on ZZ^n.

    ``group_name`` picks the abstract group of ``_GROUPS``;
    ``generator_matrices`` gives the representing matrix of each abstract
    generator (one for the cyclic groups, two for S3: first of order 3, then
    of order 2).  The relators are checked on the generator matrices, and
    each element's matrix is the product along its word; by von Dyck's
    theorem this accepts exactly the homomorphisms from the group, faithful
    or not.  Vectors are rows and act on the right, so rep(ab) = rep(a)
    rep(b).  ``generators`` holds the element index of each generator.  Two
    actions are equal when they name the same abstract group and have the
    same element matrices, so the trivial group and the order-2 group acting
    trivially stay distinct.
    """

    __slots__ = ("n", "group_name", "generators", "matrices", "_hash")

    def __init__(self, group_name, generator_matrices, n=None):
        if group_name not in _GROUPS:
            raise ValueError(
                "unsupported group %r (expected one of %s)" % (group_name, ", ".join(_GROUPS))
            )
        letters, words, relators = _GROUPS[group_name]
        gens = [m if isinstance(m, IntMatrix) else IntMatrix(m) for m in generator_matrices]
        if len(gens) != len(letters):
            raise ValueError(
                "group %s needs %d generator matrices" % (group_name, len(letters))
            )
        if gens:
            n = gens[0].rows
        if n is None:
            raise ValueError("ambient rank required for the trivial group")
        for g in gens:
            if g.rows != n or g.cols != n:
                raise ValueError("generator matrices must be square of equal size")
        ident = IntMatrix.identity(n)
        by_letter = dict(zip(letters, gens))

        def rep(word):
            return reduce(mul, map(by_letter.get, word)) if word else ident

        if any(rep(r) != ident for r in relators):
            raise ValueError("matrices do not satisfy the group relations")
        self.n = n
        self.group_name = group_name
        self.generators = tuple(map(words.index, letters))
        self.matrices = tuple(map(rep, words))
        self._hash = hash((group_name, self.matrices))

    @classmethod
    def trivial(cls, n):
        return cls("trivial", [], n=n)

    def is_trivial_action(self):
        """True iff every element acts as the identity; the generators decide it."""
        ident = IntMatrix.identity(self.n)
        return all(m == ident for m in self.generator_matrices())

    def generator_matrices(self):
        return tuple(self.matrices[i] for i in self.generators)

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
    its relators checked) once per process.
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
    ``galois.matrices``; summing it is how the norm check of
    validate_br_character sums over the abstract group.
    """
    return quotient_group(lattice, sub, action=list(galois.matrices))


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


def validate_br_character(t0, field_mode, embedding=None):
    """Diagnostics for a Brauer character; an empty list means valid.

    ``field_mode`` is REAL or PADIC.  Over the reals the values must lie in
    (1/2)ZZ/ZZ and, given the ``embedding`` of the character's source into
    the fixed points of its module, the character must kill every norm, the
    sum of g(a) over the group: that is what makes it a genuine character
    of the Tate quotient.  The module is ``embedding.target``, whose
    ``action`` holds one endomorphism per group element; the norms are
    checked for a group of order 2 or more only.  Under the order-2 group
    acting trivially they are the doubles, which a half-integral character
    kills.
    """
    if field_mode not in (REAL, PADIC):
        return ["unsupported base field: %r" % (field_mode,)]
    if field_mode == PADIC:
        return []
    problems = ["value %s not in (1/2)Z/Z" % (v,) for v in t0.values if (2 * v) % 1 != 0]
    if embedding is not None and len(embedding.target.action) > 1:
        module = embedding.target
        for j, row in enumerate(reduce(add, module.action).data):
            pre = embedding.preimage(module.reduce_reduced(row))
            if pre is None:
                problems.append("a norm element does not lie in the fixed points")
            elif t0.evaluate(pre) != 0:
                problems.append("character does not vanish on the norm of generator %d" % (j + 1,))
    return problems


def all_characters(group):
    """Every homomorphism group -> QQ/ZZ of a finite group, zero first."""
    if group.order() == 0:
        raise ValueError("infinite group")
    choices = [[Fraction(k, d) for k in range(d)] for d in group.invariant_factors]
    out = [BrCharacter(group, combo) for combo in _cartesian(*choices)]
    out.sort(key=lambda ch: (not ch.is_zero(), ch.values))
    return out
