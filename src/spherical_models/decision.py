"""Existence verdicts for equivariant models from combinatorial data.

Every decision procedure evaluates two kinds of facts: a stability condition
(the Galois image must preserve the combinatorial data) and a cohomological
condition (the degree-2 obstruction class, handed in as a Brauer character,
must die under the pushforward to the automorphism group).  Over the reals
and p-adic fields the pushforward vanishing is equivalent to the vanishing
of the character on the center classes of one lattice: the points of the
orbit lattice that the Galois generators fix modulo the doubled spherical
roots (the fixed part of M for a horospherical pair).  The character lives
on the fixed center classes (P/Q)^Γ, read the same way: F/Q for F the
weights that the generators fix modulo the roots, so a weight's class is its
coordinates on F taken modulo Q.  Over number fields the horospherical
problem localizes place by place.

Verdicts carry machine-readable reasons, and a verdict's ``exists`` is the
conjunction of their condition bits.

Inner-twist cocycles are never represented; the inputs are the derived
characters, and validation documents that the caller asserts existence of a
form with that Tits datum.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from math import gcd
from operator import mul
from typing import NamedTuple

from .galoismodule import (
    PADIC,
    REAL,
    BrCharacter,
    GaloisAction,
    galois_from_permutations,
    validate_br_character,
)

from .lattice import (
    FgAbelianGroup,
    IntMatrix,
    Lattice,
    apply_row,
    fixed_generators,
    fixed_sublattice,
    preimage_lattice,
    quotient_group,
    read_rational,
)
from .rootdata import (
    DiagramAutomorphism,
    SimpleType,
    based_root_datum,
    diagram_flip,
)
from .embeddings import stabilizing_lift
from .spherical import orbit_action

NUMBER_FIELD = "number_field"


def check_local_mode(mode):
    if mode not in (REAL, PADIC):
        raise ValueError("unsupported base field: %r" % (mode,))
    return mode


class LocalSite(namedtuple("LocalSite", "label mode galois t0_values")):
    """One completion of a number field: its mode, local image, and character.

    ``t0_values`` is None for a site with trivial obstruction (no condition),
    otherwise the value list of the Brauer character on the local fixed
    points of the center characters.
    """

    __slots__ = ()

    def __new__(cls, label, mode, galois, t0_values):
        return tuple.__new__(cls, (label, check_local_mode(mode), galois, t0_values))


class FieldDescriptor(NamedTuple):
    mode: str
    sites: tuple = ()


class TitsClassSpec(NamedTuple):
    """How the obstruction class is given: zero or explicit values.

    Explicit values are aligned with the SNF generators of the fixed-point
    group of the center characters, exactly as printed by the invariants
    report.  A form named in the catalog carries its own spec.
    """

    kind: str = "zero"
    values: tuple = ()

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def from_values(cls, values):
        return cls("values", tuple(map(read_rational, values)))


class Verdict(NamedTuple):
    reasons: tuple
    citations: tuple = ()
    uniqueness_note: str | None = None

    @property
    def exists(self):
        """The conjunction of the reasons' condition bits."""
        return all(r["ok"] for r in self.reasons)

    def to_dict(self):
        doc = {
            "exists": self.exists,
            "reasons": [dict(r) for r in self.reasons],
            "citations": list(self.citations),
        }
        if self.uniqueness_note:
            doc["uniqueness_note"] = self.uniqueness_note
        return doc


def _reason(condition, ok, **extra):
    out = {"condition": condition, "ok": bool(ok)}
    out.update(extra)
    return out


# -- center-character plumbing ---------------------------------------------
#
# Everything derived from the type and the Galois image alone (and, for the
# resolved character, the character) is computed once per process.  The
# caches sit on private helpers: the public names stay plain functions,
# which is what perfbench/tracer.py can wrap and count.


def center_invariants(rd, galois):
    """(module, fixed subgroup, fixed lattice) of the center characters.

    The module is P/Q, the center characters (weights modulo roots).  The
    fixed lattice F holds the weights whose class every Galois generator
    fixes, and the fixed subgroup is (P/Q)^Γ = F/Q.
    """
    return _center_invariants(rd, galois)


@lru_cache(maxsize=None)
def _center_invariants(rd, galois):
    p_lat, q_lat = rd.weight_lattice, rd.root_lattice
    fixed = fixed_sublattice(p_lat, galois.generator_matrices(), q_lat)
    mod = quotient_group(p_lat, q_lat)
    return mod, mod if fixed == p_lat else quotient_group(fixed, q_lat), fixed


class LocalCharacter(NamedTuple):
    """A Tits character ``t0`` on the fixed subgroup ``inv`` = F/Q of the
    center characters ``mod`` = P/Q, with F the lattice ``fixed``."""

    mod: FgAbelianGroup
    inv: FgAbelianGroup
    fixed: Lattice
    t0: BrCharacter

    def class_of(self, weight):
        """The class in ``inv`` of a weight; ValueError if its center class is not fixed."""
        coords = self.fixed.coords_of(weight)
        if coords is None:
            raise ValueError("weight %r has a non-fixed center class" % (list(weight),))
        return self.inv.from_ambient(coords)


def resolve_local_character(rd, galois, tits, mode):
    """The Tits character ``tits`` on the center fixed points, validated.

    The one route from a TitsClassSpec to a BrCharacter.  A bounded cache
    (specs come from documents) keeps each resolved (datum, image, spec,
    mode), a refused one as its message: every call raises ValueError with it.
    """
    local = _resolve_local_character(rd, galois, tits, check_local_mode(mode))
    if type(local) is str:
        raise ValueError(local)
    return local


@lru_cache(maxsize=4096)
def _resolve_local_character(rd, galois, tits, mode):
    """The LocalCharacter of resolve_local_character, or its refusal message."""
    mod, inv, fixed = center_invariants(rd, galois)
    try:
        t0 = BrCharacter.zero(inv) if tits.kind == "zero" else BrCharacter(inv, tits.values)
    except ValueError as e:
        return str(e)
    local = LocalCharacter(mod, inv, fixed, t0)
    problems = validate_br_character(t0, mode, galois, local)
    if problems:
        return "invalid Tits character: " + "; ".join(problems)
    return local


@lru_cache(maxsize=None)
def _kill_test(local):
    """(u, D), integers: ``local.t0`` kills the center class of a weight w
    of F exactly when u . w is 0 modulo D.

    With w = c B for B the canonical basis of F, the class of w is c taken
    modulo Q, so the character's value on it is c . a modulo 1, for a_j its
    value on the class of the j-th basis row.  B is triangular on its pivot
    columns, so back-substitution solves B u = a with u zero off the pivots;
    then u . w = c . a.  All in integers: a is kept times the character's
    order, u as numerators over D, and D grows by what each (positive)
    pivot leaves after cancelling.  Once per character.
    """
    fixed, inv, t0 = local.fixed, local.inv, local.t0
    k, order = fixed.rank, t0.order()
    a_times_order = [t0.scaled(inv.from_ambient((0,) * j + (1,) + (0,) * (k - j - 1))) for j in range(k)]
    d = order
    u = [0] * fixed.ambient_rank
    for row, p, a in reversed(list(zip(fixed.basis.data, fixed.pivots, a_times_order))):
        x = a * (d // order) - sum(map(mul, row[p + 1 :], u[p + 1 :]))
        g = gcd(x, row[p])
        if row[p] != g:
            u = [y * (row[p] // g) for y in u]
            d *= row[p] // g
        u[p] = x // g
    return tuple(y % d for y in u), d


def theta_lattice(rd, galois, t0):
    """Kernel of the character, as a group and as lattices.

    Returns (theta, kernel, theta_p): kernel is the lattice of the points of
    the fixed lattice F whose center class the character kills, theta the
    kernel subgroup kernel/Q of the fixed center characters, and theta_p
    the sublattice of the fixed weights whose center class it kills.  The
    invariants report prints them; no verdict reads them, so nothing is
    cached.
    """
    mod, inv, fixed = center_invariants(rd, galois)
    if t0.source.invariant_factors != inv.invariant_factors:
        raise ValueError("character source does not match the fixed center characters")
    local = LocalCharacter(mod, inv, fixed, t0)
    kernel = _killed_points(local, fixed)
    theta = quotient_group(kernel, rd.root_lattice)
    # the generators fix what the group fixes
    theta_p = _killed_points(local, fixed_sublattice(rd.rank, galois.generator_matrices()))
    return theta, kernel, theta_p


def _killed_points(local, lattice):
    """The sublattice of the points of ``lattice`` (whose center classes are
    fixed) on whose class ``local.t0`` vanishes."""
    vals = [local.t0.scaled(local.class_of(b)) for b in lattice.basis.data]
    rows = preimage_lattice(IntMatrix([[v] for v in vals], cols=1), Lattice(1, [[local.t0.order()]]))
    return Lattice(lattice.ambient_rank, [apply_row(c, lattice.basis) for c in rows])


# -- the decision procedures -------------------------------------------------


def _stability_reason(action):
    witness = action.unstable
    return _reason(
        "invariants-stability",
        witness is None,
        witness=None if witness is None else "generator %d" % (witness + 1,),
    )


def _first_failing_row(local, rows):
    """The first canonical basis row of the lattice L that ``rows`` generate
    whose center class ``local.t0`` does not kill, or None when it kills
    them all.

    L is the points of a lattice that the Galois generators fix modulo some
    lattice, which map onto the fixed classes of the quotient, so their
    center classes are the pushed-forward fixed classes: the weights of an
    orbit lattice modulo its doubled spherical roots, or the fixed part of
    the lattice of a horospherical pair.  Their weight coordinates lie in F
    and come first; central-torus ones follow, and the kill test, which has
    one entry per weight coordinate, does not read them.  The character is
    a homomorphism, so it kills L when it kills the generators, and L's
    canonical basis is built only when some generator fails, unless ``rows`` is L.
    """
    u, d = _kill_test(local)

    def fails(row):
        return sum(map(mul, u, row)) % d

    if isinstance(rows, Lattice):
        return next(filter(fails, rows.basis.data), None)
    if not any(map(fails, rows)):
        return None
    return next(filter(fails, Lattice(len(rows[0]), rows).basis.data))


def _spherical_cohomology(datum, action, local):
    """The cohomology reason of a spherical orbit, under a stable action.

    The Tits character must vanish on the pushed-forward fixed automorphism
    characters; the witness is the center class of the first failing row.
    It reads the generator matrices that ``action``, the orbit_action, found.
    """
    if local.t0.is_zero():
        return _reason("cohomology", True, rule="t0-trivial")
    # the orbit action is stable: it keeps the orbit lattice, the spherical
    # roots, the doubling flags and the color images, so also the simple
    # roots with colinear colors, the set sigma_N and its span
    bad = _first_failing_row(local, fixed_generators(
        datum.lattice, action.restrictions, Lattice(datum.ambient_dim, datum.sigma_n),
    ))
    witness = None if bad is None else list(local.class_of(bad[: datum.rd.rank]))
    return _reason("cohomology", bad is None, rule="generic-theta", witness=witness)


def decide_local_general(datum, galois, tits, mode):
    """Local-field existence test for a spherical homogeneous space.

    The verdict is the conjunction of invariant stability and the vanishing
    of the Tits character on the pushed-forward fixed automorphism
    characters (_spherical_cohomology).
    """
    local = resolve_local_character(datum.rd, galois, tits, mode)
    action = orbit_action(datum, galois)
    reasons = [_stability_reason(action)]
    citations = ["necessary stability of the combinatorial invariants"]
    if not reasons[0]["ok"]:
        return Verdict(tuple(reasons), tuple(citations))
    reasons.append(_spherical_cohomology(datum, action, local))
    citations.append("vanishing of the pushed-forward degree-2 obstruction")
    return Verdict(tuple(reasons), tuple(citations))


@lru_cache(maxsize=None)
def _shortcut_label(rd, galois, local):
    """The tabulated condition, *1 to *5, covering a type, action and character.

    Returns None outside the table.  The label names the rule of a verdict;
    the verdict itself always comes from _first_failing_row.  Once per
    (root datum, image, character).
    """
    fam, n = rd.type.family, rd.type.rank
    trivial = galois.is_trivial_action()
    if local.mod.order() == 2:
        return "*1"
    if not trivial and local.inv.order() == 2 and fam in ("A", "D"):
        return "*2"
    if trivial and (fam == "A" and n >= 2 or fam == "D" and n % 2 == 1):
        return "*3"
    if trivial and fam == "D":
        # the fundamental weights are the basis of the weight lattice
        spins = rd.weight_lattice.basis.data[n - 2 :]
        return "*4" if all(local.t0.scaled(local.class_of(w)) for w in spins) else "*5"
    return None


def _horospherical_fast_path(rd, galois, t0, m_lattice, mod, inv, fixed):
    """The tabulated shortcut conditions for simple types over local fields.

    Returns (label, ok) when the type/action matches the table, else None.
    The labels are *1 through *5, as named by _shortcut_label; the
    evaluation is a direct lattice test, kept as a cross-check of
    _first_failing_row, which decides.
    """
    local = LocalCharacter(mod, inv, fixed, t0)
    label = _shortcut_label(rd, galois, local)
    n = rd.rank
    q_lat = rd.root_lattice
    if label == "*1":
        # A1, B, C, E7: the condition is containment in the root lattice
        return label, q_lat.contains(m_lattice)
    if label == "*2":
        m_fixed = fixed_sublattice(m_lattice, galois.generator_matrices())
        q_fixed = fixed_sublattice(q_lat, galois.generator_matrices())
        return label, q_fixed.contains(m_fixed)
    if label == "*3":
        ell = t0.order()
        target = Lattice(
            n, [[ell if i == j else 0 for j in range(n)] for i in range(n)]
        ).sum(q_lat)
        return label, target.contains(m_lattice)
    if label in ("*4", "*5"):
        # M in Q + Zw for the weight w whose class the character kills: a
        # spin weight (*5), or omega_1 when it kills neither (*4)
        weights = rd.weight_lattice.basis.data
        w = next((s for s in weights[n - 2 :] if not t0.scaled(local.class_of(s))), weights[0])
        return label, q_lat.sum(Lattice(n, [w])).contains(m_lattice)
    return None


def _horospherical_cohomology(rd, galois, local, fixed):
    """(ok, rule, witness) of the cohomology condition of a stable pair.

    For a nonzero character its kernel must contain the center class of
    every fixed point of M, which ``fixed`` generates (rows, or M); the witness
    is the first canonical basis row of the fixed part whose class it does not kill.
    """
    if local.t0.is_zero():
        return True, "t0-trivial", None
    offender = _first_failing_row(local, fixed)
    rule = _shortcut_label(rd, galois, local) or "generic-theta"
    return offender is None, rule, None if offender is None else list(offender)


def decide_horospherical(datum, galois, tits, mode):
    """Local-field existence test for a horospherical homogeneous space.

    Stability of (I, M) first; then, for a nonzero character, the character
    must kill the center class of every fixed point of M.
    When the simple type and action match the tabulated shortcut the reason
    names the matching condition.
    """
    local = resolve_local_character(datum.rd, galois, tits, mode)
    action = datum.action(galois)
    reasons = [_reason("pair-stability", action is not None)]
    citations = ["necessary stability of the horospherical pair"]
    if action is None:
        return Verdict(tuple(reasons), tuple(citations))
    fixed = None if local.t0.is_zero() else fixed_generators(datum.M, action) if action else datum.M
    ok, rule, witness = _horospherical_cohomology(datum.rd, galois, local, fixed)
    extra = {} if ok else {"witness": witness}
    reasons.append(_reason("cohomology", ok, rule=rule, **extra))
    citations.append("fixed part of M inside the character-kernel preimage")
    note = None
    if ok and galois.is_trivial_action():
        note = (
            "unique model: inner form of a split group and a connected "
            "automorphism torus (split torus, vanishing first cohomology)"
        )
    return Verdict(tuple(reasons), tuple(citations), uniqueness_note=note)


def decide_number_field(datum, galois, sites):
    """Local-global test for a horospherical space of a simple group.

    The pair must be stable under the global action, and at every listed
    completion the local condition must hold; sites marked trivial impose
    none.  Each site's image must sit inside the global image, so the pair
    is stable under it as well.  Every site is checked, its label, its image
    and its character, before any reason is given, as the local verdicts
    check theirs; a refused site raises ValueError naming it.  The fixed
    part of M is computed once per distinct site image, and the condition
    once per distinct image and character.
    """
    labels, site_chars = set(), []
    for site in sites:
        if site.label in labels:
            raise ValueError("duplicate site label %r" % (site.label,))
        labels.add(site.label)
        if not site.galois.is_subaction_of(galois):
            raise ValueError(
                "site %s: local image is not contained in the global image" % site.label
            )
        try:
            site_chars.append(None if site.t0_values is None else resolve_local_character(
                datum.rd, site.galois, TitsClassSpec.from_values(site.t0_values), site.mode
            ))
        except ValueError as e:
            raise type(e)("site %s: %s" % (site.label, e)) from None
    action = datum.action(galois)
    reasons = [_reason("pair-stability", action is not None)]
    citations = [
        "necessary stability of the horospherical pair",
        "place-by-place vanishing for simply connected simple groups",
    ]
    if action is None:
        return Verdict(tuple(reasons), tuple(citations))
    # the fixed part of M per site image (the global one's action is known),
    # and one answer per image and character
    fixed, answers = {}, {}
    for site, local in zip(sites, site_chars):
        if local is None:
            reasons.append(_reason("site:%s" % site.label, True, rule="t0-trivial"))
            continue
        g = site.galois
        if (g, local) not in answers:
            if g not in fixed and not local.t0.is_zero():
                act = action if g == galois else datum.action(g)
                fixed[g] = fixed_generators(datum.M, act) if act else datum.M
            answers[g, local] = _horospherical_cohomology(datum.rd, g, local, fixed.get(g))
        ok, rule, witness = answers[g, local]
        witness = None if witness is None else list(witness)
        reasons.append(_reason("site:%s" % site.label, ok, rule=rule, witness=witness))
    return Verdict(tuple(reasons), tuple(citations))


def decide_gu(rd, galois, tits, mode):
    """Existence test for the quotient by a maximal unipotent subgroup.

    Exists exactly when the Tits character is zero; the generic machinery
    reduces to this because the fixed weights surject far enough onto the
    fixed center characters.
    """
    t0 = resolve_local_character(rd, galois, tits, mode).t0
    reasons = (_reason("cohomology", t0.is_zero(), rule="tits-class-vanishes"),)
    return Verdict(reasons, ("triviality of the Tits class",))


def decide_diagonal(deltas):
    """Pure-inner-form test for products acting on a diagonal quotient.

    ``deltas`` holds one marker per non-base factor: the trivial marker (the
    factor is a pure inner form of the base factor) or a nonzero character.
    """
    if not deltas:
        raise ValueError("need at least two factors")
    reasons = []
    for i, d in enumerate(deltas, start=2):
        trivial = d is None or d == "trivial" or (hasattr(d, "is_zero") and d.is_zero())
        reasons.append(
            _reason("factor-%d-pure-inner" % i, trivial)
        )
    return Verdict(tuple(reasons), ("pure-inner-form criterion for diagonal quotients",))


def decide_embedding(fan, datum, galois, tits, mode, quasi_projective=True):
    """Existence test for a spherical embedding over a local field.

    Condition one: some lift of the Galois action to the colors keeps the
    colored fan stable.  Condition two: the cohomological test of the open
    orbit, the same test and witness as decide_local_general.  The
    orbit_action is derived once and serves the stability check, the lift
    search and the cohomology test, which reads its generator matrices on
    the orbit lattice.
    """
    local = resolve_local_character(datum.rd, galois, tits, mode)
    action = orbit_action(datum, galois)
    reasons = [_stability_reason(action)]
    citations = [
        "necessary stability of the combinatorial invariants",
        "stable colored fan under some color lift",
        "vanishing of the pushed-forward degree-2 obstruction",
    ]
    if not reasons[0]["ok"]:
        return Verdict(tuple(reasons), tuple(citations))
    reasons.append(
        _reason(
            "quasi-projectivity",
            True,
            note="asserted by caller" if quasi_projective else "not asserted; result applies to the semilinear-action criterion",
        )
    )
    reasons.append(
        _reason("fan-axioms", True, note="face-closure and support axioms assumed, not validated")
    )
    lift = stabilizing_lift(fan, action)
    reasons.append(
        _reason(
            "fan-stability",
            lift is not None,
            lift=None if lift is None else [list(p) for p in lift.generator_maps],
        )
    )
    reasons.append(_spherical_cohomology(datum, action, local))
    return Verdict(tuple(reasons), tuple(citations))


# -- catalog of literature-backed forms --------------------------------------


class CatalogEntry(NamedTuple):
    name: str
    type: SimpleType
    galois: GaloisAction
    tits: TitsClassSpec
    mode: str
    citation: str

    def to_dict(self):
        return {
            "name": self.name,
            "type": str(self.type),
            "galois": self.galois.group_name,
            "tits": {
                "kind": self.tits.kind,
                "values": [str(v) for v in self.tits.values],
            },
            "mode": self.mode,
            "citation": self.citation,
        }


_TABLE_CITATION = "Tits-algebra tables for the classical real forms"
_SPLIT_CITATION = "split forms have trivial Tits class"
_HALF = ("1/2",)


def _su(p, q):
    n = p + q
    if n < 2:
        return None
    half = n % 2 == 0 and (n // 2 - p) % 2
    return "A%d" % (n - 1), "flip", _HALF if half else (), _TABLE_CITATION


# The built-in families: display name, pattern (matched against the whole
# name; compiled at the first lookup, not at import) and a function from the
# pattern's integers to (type label, Galois image name, t0 values,
# citation), or None outside the family.  All are real forms.
_FAMILIES = (
    ("SU(p,q)", r"SU\((\d+),(\d+)\)", _su),
    ("SU(n)", r"SU\((\d+)\)", lambda n: _su(n, 0)),
    ("SL(n,R)", r"SL\((\d+),R\)",
     lambda n: ("A%d" % (n - 1), "trivial-c2", (), _SPLIT_CITATION) if n >= 2 else None),
    ("SL(m,H)", r"SL\((\d+),H\)",
     lambda m: ("A%d" % (2 * m - 1), "trivial-c2", _HALF, _TABLE_CITATION) if m >= 1 else None),
    ("Sp(2n,R)", r"Sp\((\d+),R\)",
     lambda two_n: ("C%d" % (two_n // 2), "trivial-c2", (), _SPLIT_CITATION)
     if two_n >= 4 and two_n % 2 == 0 else None),
    ("Sp(p,q)", r"Sp\((\d+),(\d+)\)",
     lambda p, q: ("C%d" % (p + q), "trivial-c2", _HALF, _TABLE_CITATION) if p + q >= 2 else None),
    ("SO*(10)", r"SO\*\(10\)", lambda: ("D5", "flip", _HALF, _TABLE_CITATION)),
)

def _named_galois(rd, name):
    """The Galois image a catalog entry names.

    "trivial-c2" is the order-2 group acting trivially; "flip" is the
    order-2 outer action, or trivial-c2 when the diagram has none (the
    Galois group of a real form always has order 2, only the star action may
    degenerate).
    """
    flip = diagram_flip(rd.type) if name == "flip" else None
    if flip is not None:
        return galois_from_permutations(rd, [flip])
    identity = DiagramAutomorphism(tuple(range(rd.rank)))
    return galois_from_permutations(rd, [identity], group_name="cyclic2")


def _catalog_entry(name, label, galois, t0, citation):
    """A built-in catalog entry, a real form.

    Parses the type label (ValueError on a rank over the cap), resolves the
    Galois image by name and makes the Tits spec: zero for an empty ``t0``.
    """
    t = SimpleType.parse(label)
    tits = TitsClassSpec.from_values(t0) if t0 else TitsClassSpec.zero()
    return CatalogEntry(name, t, _named_galois(based_root_datum(t), galois), tits, REAL, citation)


def catalog_lookup(name):
    """A literature-backed form: its type, Galois image, and Tits character.

    Supported names: the built-in families of _FAMILIES, all real forms
    (SU(p,q) and SU(n), SL(n,R), SL(m,H), Sp(2n,R), Sp(p,q), SO*(10)).  A
    form outside them is given by its Tits character values in the
    problem document instead.
    """
    for _, pattern, family in _FAMILIES:
        m = re.fullmatch(pattern, name)
        if m:
            row = family(*map(int, m.groups()))
            if row is not None:
                return _catalog_entry(name, *row)
            break
    raise ValueError("unknown catalog name %r" % (name,))


def catalog_names():
    return [display for display, _, _ in _FAMILIES]


def delta_markers_from_catalog(names):
    """Pure-inner-form markers for factors named by catalog entries.

    The obstruction between a factor and the base factor is the difference
    of their Tits characters; all factors must share type and Galois image.
    Each factor's character is resolved, and so validated, over the reals:
    every catalog form is real.
    """
    entries = [catalog_lookup(n) for n in names]
    base = entries[0]
    for e in entries[1:]:
        if e.type != base.type:
            raise ValueError("factors are models of different groups")
        if set(e.galois.matrices) != set(base.galois.matrices):
            raise ValueError("factors induce different Galois images")
    rd = based_root_datum(base.type)
    chars = []
    for name, e in zip(names, entries):
        try:
            chars.append(resolve_local_character(rd, e.galois, e.tits, REAL).t0)
        except ValueError as err:
            raise ValueError("factor %s: %s" % (name, err)) from None
    markers, base = [], chars[0].residues
    for t_e in chars[1:]:
        diff = tuple((a - b) % d for a, b, d in zip(t_e.residues, base, t_e.source.invariant_factors))
        markers.append("trivial" if not any(diff) else BrCharacter._make((t_e.source, diff)))
    return markers
