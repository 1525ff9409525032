"""Finite Galois images acting on lattices, and Brauer characters.

The engine never touches the profinite Galois group itself; what acts is a
finite quotient (trivial, Z/2, Z/3, or S3, the possible diagram-automorphism
images) through explicit matrices on the weight lattice.  The abstract group
is kept separate from its matrix image because the representation need not
be faithful: a quadratic extension acting trivially on weights still has
nontrivial cohomology.  Degree-2 classes over a local field are never stored
as cocycles: their computational avatar is the Brauer character, a
homomorphism to QQ/ZZ from the fixed center classes (P/Q)^Γ, which is
exactly the data the local vanishing tests consume.  Those classes are one
lattice quotient F/Q, with F the weights that the Galois image fixes modulo
the roots (``decision.center_invariants``), so no group here carries an
action.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, reduce
from itertools import product as _cartesian
from math import gcd, lcm
from operator import add, mul

from .lattice import IntMatrix, apply_row, rational, read_rational
from .rootdata import star_action_matrix

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

    __slots__ = ("n", "group_name", "generators", "matrices", "_elements", "_hash")

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
        self._elements = frozenset(self.matrices)
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
        return self._elements <= other._elements

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
    return _galois_from_permutations(rd, tuple(automorphisms), group_name)


@lru_cache(maxsize=None)
def _galois_from_permutations(rd, automorphisms, group_name):
    mats = [star_action_matrix(rd, a) for a in automorphisms]
    if group_name is None:
        if not automorphisms:
            group_name = "trivial"
        elif len(automorphisms) == 1:
            # a diagram automorphism has order 1, 2 or 3 (Bourbaki, Plates I-IX)
            group_name = ("trivial", "cyclic2", "cyclic3")[automorphisms[0].order() - 1]
            if group_name == "trivial":
                mats = []
        else:
            group_name = "s3"
    if group_name == "trivial":
        return GaloisAction.trivial(rd.rank)
    return GaloisAction(group_name, mats)


class BrCharacter(namedtuple("BrCharacter", "source residues")):
    """A homomorphism from a finite abelian group to QQ/ZZ.

    The i-th SNF generator of ``source``, of order d_i, goes to k_i/d_i, held
    as the residue ``residues[i]`` = k_i in [0, d_i); the constructor reads
    the images by read_rational, and ``values`` and ``evaluate`` give them
    as rationals of ``fractions``, imported only then.  This is the lossless
    stand-in for a degree-2 local Galois cohomology class evaluated through
    the cup-product pairing.
    """

    __slots__ = ()

    def __new__(cls, source, values):
        if source.order() == 0:
            raise ValueError("Brauer characters live on finite groups")
        vals = [(v, 1) if type(v) is int else v for v in map(read_rational, values)]
        if len(vals) != source.rank:
            raise ValueError("one value per SNF generator required")
        for d, (p, q) in zip(source.invariant_factors, vals):
            if d % q:
                raise ValueError("value %s is not killed by the generator order %d" % (rational(p % q, q), d))
        residues = tuple(d // q * p % d for d, (p, q) in zip(source.invariant_factors, vals))
        return tuple.__new__(cls, (source, residues))

    @classmethod
    def zero(cls, source):
        return cls(source, (0,) * source.rank)

    def scaled(self, element):
        """The image of ``element`` (SNF coordinates) times the order n, an int mod n."""
        n = self.order()
        return sum(x * (k * n // d) for x, k, d in zip(element, self.residues, self.source.invariant_factors)) % n

    def evaluate(self, element):
        """The image of ``element`` as a Fraction in [0, 1)."""
        return sum(map(mul, element, self.values)) % 1

    @property
    def values(self):
        """The images of the SNF generators as Fractions in [0, 1)."""
        from fractions import Fraction
        return tuple(map(Fraction, self.residues, self.source.invariant_factors))

    def is_zero(self):
        return not any(self.residues)

    def order(self):
        return lcm(*(d // gcd(k, d) for k, d in zip(self.residues, self.source.invariant_factors)))


def validate_br_character(t0, field_mode, galois=None, local=None):
    """Diagnostics for a Brauer character; an empty list means valid.

    ``field_mode`` is REAL or PADIC.  Over the reals the values must lie in
    (1/2)ZZ/ZZ and, given the Galois image ``galois`` and the center
    characters ``local`` (a decision.LocalCharacter: the module ``mod`` and
    its ``class_of``), the character must kill every norm: the weight
    lift(e_j) times the sum of the element matrices, read through
    ``class_of``, for each generator e_j of the module.  That is what makes
    it a genuine character of the Tate quotient.  The norms are checked for
    a group of order 2 or more only; under the order-2 group acting
    trivially they are the doubles, which a half-integral character kills.
    """
    if field_mode not in (REAL, PADIC):
        return ["unsupported base field: %r" % (field_mode,)]
    if field_mode == PADIC:
        return []
    factors = t0.source.invariant_factors
    problems = ["value %s not in (1/2)Z/Z" % (rational(k, d),) for k, d in zip(t0.residues, factors) if 2 * k % d]
    if galois is not None and len(galois.matrices) > 1:
        norm = reduce(add, galois.matrices)
        rank = local.mod.rank
        for j in range(rank):
            weight = apply_row(local.mod.lift((0,) * j + (1,) + (0,) * (rank - j - 1)), norm)
            if t0.scaled(local.class_of(weight)):
                problems.append("character does not vanish on the norm of generator %d" % (j + 1,))
    return problems


def all_characters(group):
    """Every homomorphism group -> QQ/ZZ of a finite group, by residues in lexicographic order."""
    if group.order() == 0:
        raise ValueError("infinite group")
    return [BrCharacter._make((group, ks)) for ks in _cartesian(*map(range, group.invariant_factors))]
