"""Existence verdicts for equivariant models from combinatorial data.

Every decision procedure evaluates two kinds of facts: a stability condition
(the Galois image must preserve the combinatorial data) and a cohomological
condition (the degree-2 obstruction class, handed in as a Brauer character,
must die under the pushforward to the automorphism group).  Over the reals
and p-adic fields the pushforward vanishing is equivalent to the vanishing
of the character on explicit fixed-point classes, which is what runs here;
over number fields the horospherical problem localizes place by place.

Verdicts carry machine-readable reasons: replaying the conjunction of the
recorded condition bits reproduces the verdict exactly.

Inner-twist cocycles are never represented; the inputs are the derived
characters, and validation documents that the caller asserts existence of a
form with that Tits datum.  The preimage lattice of the character kernel is
taken inside the fixed points of the weight lattice.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .galoismodule import (
    PADIC,
    REAL,
    BrCharacter,
    GaloisAction,
    br_vanishing_test,
    galois_from_permutations,
    module_with_action,
    validate_br_character,
)

from .lattice import (
    GroupHom,
    IntMatrix,
    Lattice,
    fixed_sublattice,
    group_invariants,
    preimage_lattice,
    _subquotient,
    apply_row,
)
from .rootdata import (
    DiagramAutomorphism,
    SimpleType,
    based_root_datum,
    diagram_flip,
    in_epsilon_lattice,
)
from .embeddings import stabilizing_lift
from .spherical import _aut_characters, orbit_action

NUMBER_FIELD = "number_field"
_LOCAL_MODES = (REAL, PADIC)


class UnsupportedBaseField(ValueError):
    pass


def check_local_mode(mode):
    if mode not in _LOCAL_MODES:
        raise UnsupportedBaseField("unsupported base field: %r" % (mode,))
    return mode


@dataclass(frozen=True)
class LocalSite:
    """One completion of a number field: its mode, local image, and character.

    ``t0_values`` is None for a site with trivial obstruction (no condition),
    otherwise the value list of the Brauer character on the local fixed
    points of the center characters.
    """

    label: str
    mode: str
    galois: GaloisAction
    t0_values: tuple | None

    def __post_init__(self):
        check_local_mode(self.mode)


@dataclass(frozen=True)
class FieldDescriptor:
    mode: str
    sites: tuple = ()

    def __post_init__(self):
        if self.mode == NUMBER_FIELD:
            return
        check_local_mode(self.mode)


@dataclass(frozen=True)
class TitsClassSpec:
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
        return cls("values", tuple(Fraction(str(v)) for v in values))

    def resolve(self, inv_group):
        if self.kind == "zero":
            return BrCharacter.zero(inv_group)
        return BrCharacter(inv_group, self.values)


@dataclass(frozen=True)
class Verdict:
    exists: bool
    reasons: tuple
    citations: tuple = ()
    uniqueness_note: str | None = None

    def to_dict(self):
        doc = {
            "exists": self.exists,
            "reasons": [dict(r) for r in self.reasons],
            "citations": list(self.citations),
        }
        if self.uniqueness_note:
            doc["uniqueness_note"] = self.uniqueness_note
        return doc


def replay(verdict):
    """Recompute the verdict bit from the recorded facts."""
    return all(r["ok"] for r in verdict.reasons if "ok" in r)


def _reason(condition, ok, **extra):
    out = {"condition": condition, "ok": bool(ok)}
    out.update(extra)
    return out


# -- center-character plumbing ---------------------------------------------
#
# Everything derived from the type and the Galois image alone (and, for the
# kernel preimage, the character values) is computed once per process.  The
# caches sit on private helpers: the public names stay plain functions, which
# is what perfbench/tracer.py can wrap and count.


def center_invariants(rd, galois):
    """(module, fixed subgroup, inclusion) for the center characters.

    The module is the center character group (weights mod roots) with the
    Galois action.
    """
    return _center_invariants(rd.type, galois)


@lru_cache(maxsize=None)
def _center_invariants(t, galois):
    rd = based_root_datum(t)
    mod = module_with_action(rd.weight_lattice, rd.root_lattice, galois)
    inv, incl = group_invariants(mod)
    return mod, inv, incl


def resolve_local_character(rd, galois, tits, mode):
    """Resolve and validate a Tits character on the center fixed points.

    Over the reals the Galois group is the order-2 group even when the
    star action is trivial; a trivial abstract group is therefore upgraded
    to the order-2 group acting trivially for the norm-vanishing check.
    """
    check_local_mode(mode)
    mod, inv, incl = center_invariants(rd, galois)
    t0 = tits.resolve(inv)
    val_galois, val_mod = galois, mod
    if mode == REAL and galois.is_trivial_group():
        val_galois = _trivial_c2(rd)
        val_mod = center_invariants(rd, val_galois)[0]
    problems = validate_br_character(
        t0, mode, ambient=val_mod, galois=val_galois, embedding=incl
    )
    if problems:
        raise ValueError("invalid Tits character: " + "; ".join(problems))
    return mod, inv, incl, t0


def theta_lattice(rd, galois, t0):
    """Kernel of the character and its preimage in the fixed weight lattice.

    Returns (theta, theta_embedding, theta_p) where theta is the kernel
    subgroup of the fixed center characters and theta_p the sublattice of
    the fixed weights whose center class the character kills.
    """
    _, inv, _ = center_invariants(rd, galois)
    if t0.source.invariant_factors != inv.invariant_factors:
        raise ValueError("character source does not match the fixed center characters")
    return _theta_lattice(rd.type, galois, t0.values)


@lru_cache(maxsize=None)
def _theta_lattice(t, galois, values):
    rd = based_root_datum(t)
    mod, inv, incl = center_invariants(rd, galois)
    t0 = BrCharacter(inv, values)
    denom = t0.order()
    # kernel inside the fixed subgroup
    col = IntMatrix([[int(v * denom)] for v in t0.values], cols=1)
    rows = preimage_lattice(col, Lattice(1, [[denom]]))
    theta, theta_incl = _subquotient(inv, rows)
    if not t0.is_zero() and theta.order() == inv.order():
        raise ValueError("nonzero character with full kernel; inconsistent data")
    # preimage in the fixed weights (the generators fix what the group fixes)
    p_fixed = fixed_sublattice(rd.rank, galois.generator_matrices())
    vals = []
    for b in p_fixed.basis.data:
        cls = incl.preimage(mod.from_ambient(b))
        if cls is None:
            raise ValueError("fixed weight with non-fixed center class")
        vals.append(int(t0.evaluate(cls) * denom))
    colp = IntMatrix([[v] for v in vals], cols=1)
    coeff_rows = preimage_lattice(colp, Lattice(1, [[denom]]))
    theta_p = Lattice(
        rd.rank, [apply_row(c, p_fixed.basis) for c in coeff_rows]
    )
    return theta, theta_incl, theta_p


def kappa_on_invariants(datum, characters, mod, inv, incl):
    """The map from fixed automorphism characters to fixed center characters.

    ``characters`` is one of the character groups of aut_character_lattices,
    carrying the Galois action: that of the automorphism group, or that of
    its color-fixing subgroup.  The orbit lattice sits inside the weight
    lattice, so classes of orbit weights modulo the doubled spherical roots
    push to classes modulo the root lattice; restricting to fixed points
    gives the hom whose vanishing under the Tits character is the local
    existence condition.
    """
    xa_inv, xa_incl = group_invariants(characters)
    images = []
    for i in range(xa_inv.rank):
        e = tuple(1 if j == i else 0 for j in range(xa_inv.rank))
        coords = characters.lift(xa_incl.apply(e))  # coordinates in the orbit-lattice basis
        ambient = apply_row(coords, datum.lattice.basis)
        weight = ambient[: datum.rd.rank]
        cls = incl.preimage(mod.from_ambient(weight))
        if cls is None:
            raise ValueError("fixed automorphism character with non-fixed center class")
        images.append(cls)
    return GroupHom(xa_inv, inv, images)


# -- the decision procedures -------------------------------------------------


def _stability_reason(action):
    witness = action.unstable
    return _reason(
        "invariants-stability",
        witness is None,
        witness=None if witness is None else "generator %d" % (witness + 1,),
    )


def _kappa_cohomology(datum, galois, t0, mod, inv, incl):
    """The cohomology reason of a spherical orbit.

    The Tits character must vanish on the pushed-forward fixed automorphism
    characters; the witness is the first pushed-forward class on which it
    does not.
    """
    if t0.is_zero():
        return _reason("cohomology", True, rule="t0-trivial")
    kappa = kappa_on_invariants(datum, _aut_characters(datum, galois), mod, inv, incl)
    ok = br_vanishing_test(t0, kappa)
    bad = next((list(img) for img in kappa.images if t0.evaluate(img) != 0), None)
    return _reason("cohomology", ok, rule="generic-theta", witness=bad)


def decide_local_general(datum, galois, tits, mode):
    """Local-field existence test for a spherical homogeneous space.

    The verdict is the conjunction of invariant stability and the vanishing
    of the Tits character on the pushed-forward fixed automorphism
    characters.
    """
    mod, inv, incl, t0 = resolve_local_character(datum.rd, galois, tits, mode)
    reasons = [_stability_reason(orbit_action(datum, galois))]
    citations = ["necessary stability of the combinatorial invariants"]
    if not reasons[0]["ok"]:
        return Verdict(False, tuple(reasons), tuple(citations))
    reasons.append(_kappa_cohomology(datum, galois, t0, mod, inv, incl))
    citations.append("vanishing of the pushed-forward degree-2 obstruction")
    exists = all(r["ok"] for r in reasons)
    return Verdict(exists, tuple(reasons), tuple(citations))


def _fundamental_class(mod, incl, n, k):
    """Fixed center class of the k-th fundamental weight (0-based)."""
    return incl.preimage(mod.from_ambient(tuple(1 if j == k else 0 for j in range(n))))


def _shortcut_label(rd, galois, t0, mod, inv, incl):
    """The tabulated condition, *1 to *5, covering a type, action and character.

    Returns None outside the table.  The label names the rule of a verdict;
    the verdict itself always comes from the kernel-preimage test.
    """
    fam, n = rd.type.family, rd.type.rank
    trivial = galois.is_trivial_action()
    if mod.order() == 2:
        return "*1"
    if not trivial and inv.order() == 2 and fam in ("A", "D"):
        return "*2"
    if trivial and (fam == "A" and n >= 2 or fam == "D" and n % 2 == 1):
        return "*3"
    if trivial and fam == "D":
        spins = [t0.evaluate(_fundamental_class(mod, incl, n, k)) for k in (n - 2, n - 1)]
        return "*4" if all(spins) else "*5"
    return None


def _horospherical_fast_path(rd, galois, t0, m_lattice, mod, inv, incl):
    """The tabulated shortcut conditions for simple types over local fields.

    Returns (label, ok) when the type/action matches the table, else None.
    The labels are *1 through *5, as named by _shortcut_label; the
    evaluation is a direct lattice test, kept as a cross-check of the
    kernel-preimage test that decides.
    """
    label = _shortcut_label(rd, galois, t0, mod, inv, incl)
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
    if label == "*4":
        return label, all(in_epsilon_lattice(rd.type, row) for row in m_lattice.basis.data)
    if label == "*5":
        # the spin weight the character kills
        keep = n - 1 if t0.evaluate(_fundamental_class(mod, incl, n, n - 2)) == 0 else n
        gen = tuple(1 if k == keep - 1 else 0 for k in range(n))
        return label, q_lat.sum(Lattice(n, [gen])).contains(m_lattice)
    return None


def _horospherical_cohomology(datum, galois, t0, mod, inv, incl):
    """(ok, rule, witness) of the cohomology condition of a stable pair.

    For a nonzero character the fixed sublattice of M must lie inside the
    preimage of the character kernel; the witness is the first basis row of
    the fixed part outside it.
    """
    if t0.is_zero():
        return True, "t0-trivial", None
    theta_p = theta_lattice(datum.rd, galois, t0)[2]
    m_fixed = fixed_sublattice(datum.M, galois.generator_matrices())
    offender = next((list(r) for r in m_fixed.basis.data if not theta_p.member(r)), None)
    rule = _shortcut_label(datum.rd, galois, t0, mod, inv, incl) or "generic-theta"
    return offender is None, rule, offender


def decide_horospherical(datum, galois, tits, mode):
    """Local-field existence test for a horospherical homogeneous space.

    Stability of (I, M) first; then, for a nonzero character, the fixed
    sublattice of M must land inside the preimage of the character kernel.
    When the simple type and action match the tabulated shortcut the reason
    names the matching condition.
    """
    bad = datum.validate()
    if bad:
        raise ValueError(
            "invalid horospherical datum: "
            + "; ".join("node %d pairs with %r" % (i, list(r)) for i, r in bad)
        )
    mod, inv, incl, t0 = resolve_local_character(datum.rd, galois, tits, mode)
    stable = datum.stable(galois)
    reasons = [_reason("pair-stability", stable)]
    citations = ["necessary stability of the horospherical pair"]
    if not stable:
        return Verdict(False, tuple(reasons), tuple(citations))
    ok, rule, witness = _horospherical_cohomology(datum, galois, t0, mod, inv, incl)
    extra = {} if ok else {"witness": witness}
    reasons.append(_reason("cohomology", ok, rule=rule, **extra))
    citations.append("fixed part of M inside the character-kernel preimage")
    exists = all(r["ok"] for r in reasons)
    note = None
    if exists and galois.is_trivial_action():
        note = (
            "unique model: inner form of a split group and a connected "
            "automorphism torus (split torus, vanishing first cohomology)"
        )
    return Verdict(exists, tuple(reasons), tuple(citations), uniqueness_note=note)


def decide_number_field(datum, galois, sites):
    """Local-global test for a horospherical space of a simple group.

    The pair must be stable under the global action, and at every listed
    completion the local condition must hold; sites marked trivial impose
    none.  Each site's image must sit inside the global image, so the pair
    is stable under it as well.
    """
    if datum.validate():
        raise ValueError("invalid horospherical datum")
    stable = datum.stable(galois)
    reasons = [_reason("pair-stability", stable)]
    citations = [
        "necessary stability of the horospherical pair",
        "place-by-place vanishing for simply connected simple groups",
    ]
    if not stable:
        return Verdict(False, tuple(reasons), tuple(citations))
    for site in sites:
        if not site.galois.is_subaction_of(galois):
            raise ValueError(
                "site %s: local image is not contained in the global image" % site.label
            )
        if site.t0_values is None:
            reasons.append(
                _reason("site:%s" % site.label, True, rule="t0-trivial")
            )
            continue
        tits = TitsClassSpec.from_values(site.t0_values)
        mod, inv, incl, t0 = resolve_local_character(datum.rd, site.galois, tits, site.mode)
        ok, rule, witness = _horospherical_cohomology(datum, site.galois, t0, mod, inv, incl)
        reasons.append(_reason("site:%s" % site.label, ok, rule=rule, witness=witness))
    exists = all(r["ok"] for r in reasons)
    return Verdict(exists, tuple(reasons), tuple(citations))


def decide_gu(rd, galois, tits, mode):
    """Existence test for the quotient by a maximal unipotent subgroup.

    Exists exactly when the Tits character is zero; the generic machinery
    reduces to this because the fixed weights surject far enough onto the
    fixed center characters.
    """
    mod, inv, incl, t0 = resolve_local_character(rd, galois, tits, mode)
    ok = t0.is_zero()
    reasons = (
        _reason("cohomology", ok, rule="tits-class-vanishes"),
    )
    return Verdict(
        ok,
        reasons,
        ("triviality of the Tits class",),
    )


def decide_diagonal(n, deltas):
    """Pure-inner-form test for products acting on a diagonal quotient.

    ``deltas`` holds one marker per non-base factor: the trivial marker (the
    factor is a pure inner form of the base factor) or a nonzero character.
    """
    if n < 2:
        raise ValueError("need at least two factors")
    if len(deltas) != n - 1:
        raise ValueError("need one marker per non-base factor")
    reasons = []
    for i, d in enumerate(deltas, start=2):
        trivial = d is None or d == "trivial" or (hasattr(d, "is_zero") and d.is_zero())
        reasons.append(
            _reason("factor-%d-pure-inner" % i, trivial)
        )
    exists = all(r["ok"] for r in reasons)
    return Verdict(exists, tuple(reasons), ("pure-inner-form criterion for diagonal quotients",))


def decide_embedding(fan, datum, galois, tits, mode, quasi_projective=True):
    """Existence test for a spherical embedding over a local field.

    Condition one: some lift of the Galois action to the colors keeps the
    colored fan stable.  Condition two: the cohomological test of the open
    orbit, the same test and witness as decide_local_general.  The
    orbit_action is derived once and serves both the stability check and the
    lift search.
    """
    mod, inv, incl, t0 = resolve_local_character(datum.rd, galois, tits, mode)
    action = orbit_action(datum, galois)
    reasons = [_stability_reason(action)]
    citations = [
        "necessary stability of the combinatorial invariants",
        "stable colored fan under some color lift",
        "vanishing of the pushed-forward degree-2 obstruction",
    ]
    if not reasons[0]["ok"]:
        return Verdict(False, tuple(reasons), tuple(citations))
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
    lift = stabilizing_lift(fan, datum, action)
    reasons.append(
        _reason(
            "fan-stability",
            lift is not None,
            lift=None if lift is None else [list(p) for p in lift.generator_maps],
        )
    )
    reasons.append(_kappa_cohomology(datum, galois, t0, mod, inv, incl))
    exists = all(r["ok"] for r in reasons)
    return Verdict(exists, tuple(reasons), tuple(citations))


# -- catalog of literature-backed forms --------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
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


_SU_RE = re.compile(r"^SU\((\d+)(?:,(\d+))?\)$")
_SL_R_RE = re.compile(r"^SL\((\d+),R\)$")
_SL_H_RE = re.compile(r"^SL\((\d+),H\)$")
_SP_R_RE = re.compile(r"^Sp\((\d+),R\)$")
_SP_PQ_RE = re.compile(r"^Sp\((\d+),(\d+)\)$")

_TABLE_CITATION = "Tits-algebra tables for the classical real forms"


def _flip_action(rd):
    """The order-2 outer action when the diagram has one, else trivial C2.

    Catalog entries are real forms, where the Galois group is always of
    order 2; only the star action may degenerate.
    """
    flip = diagram_flip(rd.type)
    if flip is None:
        return _trivial_c2(rd)
    return galois_from_permutations(rd, [flip])


def _trivial_c2(rd):
    identity = DiagramAutomorphism(tuple(range(rd.rank)))
    return galois_from_permutations(rd, [identity], group_name="cyclic2")


def catalog_lookup(name):
    """A literature-backed form: its type, Galois image, and Tits character.

    Supported names: SU(p,q) and SU(n) over the reals, SL(n,R), SL(m,H),
    Sp(2n,R), Sp(p,q), SO*(10), plus any entries loaded from the files named
    by the SPHERICAL_MODELS_CATALOG environment variable.
    """
    ext = _extension_entries()
    if name in ext:
        return ext[name]
    m = _SU_RE.match(name)
    if m:
        p = int(m.group(1))
        q = int(m.group(2)) if m.group(2) is not None else 0
        n = p + q
        if n < 2:
            raise KeyError("unknown catalog name %r" % (name,))
        t = SimpleType("A", n - 1)
        rd = based_root_datum(t)
        galois = _flip_action(rd)
        if n % 2 == 1:
            tits = TitsClassSpec.zero()
        else:
            half = (n // 2 - p) % 2
            tits = (
                TitsClassSpec.from_values([Fraction(1, 2)])
                if half
                else TitsClassSpec.zero()
            )
        return CatalogEntry(name, t, galois, tits, REAL, _TABLE_CITATION)
    m = _SL_R_RE.match(name)
    if m:
        n = int(m.group(1))
        if n < 2:
            raise KeyError("unknown catalog name %r" % (name,))
        t = SimpleType("A", n - 1)
        rd = based_root_datum(t)
        return CatalogEntry(
            name, t, _trivial_c2(rd), TitsClassSpec.zero(), REAL,
            "split forms have trivial Tits class",
        )
    m = _SL_H_RE.match(name)
    if m:
        mm = int(m.group(1))
        if mm < 1:
            raise KeyError("unknown catalog name %r" % (name,))
        t = SimpleType("A", 2 * mm - 1)
        rd = based_root_datum(t)
        return CatalogEntry(
            name, t, _trivial_c2(rd),
            TitsClassSpec.from_values([Fraction(1, 2)]), REAL, _TABLE_CITATION,
        )
    m = _SP_R_RE.match(name)
    if m:
        two_n = int(m.group(1))
        if two_n < 4 or two_n % 2:
            raise KeyError("unknown catalog name %r" % (name,))
        t = SimpleType("C", two_n // 2)
        rd = based_root_datum(t)
        return CatalogEntry(
            name, t, _trivial_c2(rd), TitsClassSpec.zero(), REAL,
            "split forms have trivial Tits class",
        )
    m = _SP_PQ_RE.match(name)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        if p + q < 2:
            raise KeyError("unknown catalog name %r" % (name,))
        t = SimpleType("C", p + q)
        rd = based_root_datum(t)
        return CatalogEntry(
            name, t, _trivial_c2(rd),
            TitsClassSpec.from_values([Fraction(1, 2)]), REAL, _TABLE_CITATION,
        )
    if name == "SO*(10)":
        t = SimpleType("D", 5)
        rd = based_root_datum(t)
        return CatalogEntry(
            name, t, _flip_action(rd),
            TitsClassSpec.from_values([Fraction(1, 2)]), REAL, _TABLE_CITATION,
        )
    raise KeyError("unknown catalog name %r" % (name,))


def catalog_names():
    names = ["SU(p,q)", "SU(n)", "SL(n,R)", "SL(m,H)", "Sp(2n,R)", "Sp(p,q)", "SO*(10)"]
    return names + sorted(_extension_entries())


def _extension_entries():
    """The entries of the catalog files named by SPHERICAL_MODELS_CATALOG.

    A file that cannot be read, is not a JSON object, or holds an entry
    without a "type" raises ValueError naming the file and the fault.
    """
    paths = os.environ.get("SPHERICAL_MODELS_CATALOG", "")
    out = {}
    for path in paths.split(os.pathsep):
        if not path:
            continue
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except OSError as e:
            raise ValueError("catalog file %s: cannot read (%s)" % (path, e)) from None
        except ValueError as e:
            raise ValueError("catalog file %s: not valid JSON (%s)" % (path, e)) from None
        if not isinstance(doc, dict):
            raise ValueError("catalog file %s: must be an object mapping names to entries" % path)
        for name, entry in doc.items():
            if not isinstance(entry, dict) or not isinstance(entry.get("type"), str):
                raise ValueError('catalog file %s: entry %s has no "type" label' % (path, name))
            t = SimpleType.parse(entry["type"])
            rd = based_root_datum(t)
            gname = entry.get("galois", "trivial")
            if gname == "trivial":
                galois = galois_from_permutations(rd, [])
            elif gname == "flip":
                galois = _flip_action(rd)
            elif gname == "trivial-c2":
                galois = _trivial_c2(rd)
            else:
                raise ValueError("catalog file %s: entry %s has unknown galois %r" % (path, name, gname))
            vals = entry.get("t0", [])
            tits = TitsClassSpec.from_values(vals) if vals else TitsClassSpec.zero()
            out[name] = CatalogEntry(
                name, t, galois, tits, entry.get("mode", REAL),
                entry.get("citation", "user-supplied catalog extension"),
            )
    return out


def delta_markers_from_catalog(names):
    """Pure-inner-form markers for factors named by catalog entries.

    The obstruction between a factor and the base factor is the difference
    of their Tits characters; all factors must share type and Galois image.
    """
    entries = [catalog_lookup(n) for n in names]
    base = entries[0]
    markers = []
    for e in entries[1:]:
        if e.type != base.type:
            raise ValueError("factors are models of different groups")
        if set(e.galois.matrices) != set(base.galois.matrices):
            raise ValueError("factors induce different Galois images")
        rd = based_root_datum(e.type)
        mod, inv, incl = center_invariants(rd, e.galois)
        t_base = base.tits.resolve(inv)
        t_e = e.tits.resolve(inv)
        diff = tuple((a - b) % 1 for a, b in zip(t_e.values, t_base.values))
        markers.append("trivial" if all(v == 0 for v in diff) else BrCharacter(inv, diff))
    return markers
