"""Command-line front end: problem files in, verdicts and invariants out.

Problem files are JSON documents with integers and "p/q" strings only (never
floats).  Exit codes: 0 when the model exists, 1 when it does not, 2 on any
input or validation error, 3 on an internal error (a fault of the engine, so
never read as a verdict), so shell pipelines can branch on the verdict.
`load_problem` checks a document once, against its kind's entry of
`SCHEMA` and the few rules that are not types, before any mathematics runs;
the readers after it trust that check.  The schema is documented in the
README; `invariants` prints the canonical
presentations (including the fixed center characters) that Tits-character
value lists refer to.
"""

from __future__ import annotations

import argparse
import json
import sys

from .decision import (
    NUMBER_FIELD,
    FieldDescriptor,
    LocalSite,
    TitsClassSpec,
    catalog_lookup,
    catalog_names,
    decide_diagonal,
    decide_embedding,
    decide_gu,
    decide_horospherical,
    decide_local_general,
    decide_number_field,
    delta_markers_from_catalog,
    resolve_local_character,
    theta_lattice,
    _resolve_sites,
)
from .embeddings import ColoredCone, ColoredFan
from .galoismodule import _GROUPS, PADIC, REAL, galois_from_permutations
from .horospherical import HorosphericalDatum
from .lattice import apply_row
from .rootdata import (
    DiagramAutomorphism,
    based_root_datum,
    diagram_flip,
)
from .spherical import (
    Color,
    SphericalDatum,
    aut_character_lattices,
    orbit_action,
)


class Required:
    """The shape of an object key that must be present (see SCHEMA)."""

    __slots__ = ("shape",)

    def __init__(self, shape):
        self.shape = shape


# One shape per kind of problem document, checked by load_problem before any
# mathematics runs.  A shape is ``int``, ``str`` or ``bool`` (that JSON type,
# never coerced, so the exact kernels only ever see integers), ``object``
# (any value), ``list`` (a list whose entries are read later, such as
# rationals), ``[item]`` (a list of items), ``{key: shape}`` (an object;
# absent keys are not checked unless their shape is ``Required``), or a tuple
# of alternatives: strings and ``None`` stand for those literals, and an
# object alternative is told from another by its required keys (an object
# with the required keys of two alternatives fits neither).
_GALOIS = (
    "trivial",
    "flip",
    {"group": Required(tuple(_GROUPS)), "generators": [[int]]},
)
_COMMON = {
    "root_datum": Required(str),
    "galois": _GALOIS,
    "field": Required({
        "mode": Required(object),  # its values are a rule of load_problem
        "sites": [{"mode": Required((REAL, PADIC)), "galois": _GALOIS, "t0": ("trivial", None, list),
                   "label": str}],
    }),
    "tits": ("zero", "trivial", None, {"catalog": Required(str)}, {"values": Required(list)}),
}
_SPHERICAL = dict(
    _COMMON,
    X=Required([[int]]),
    sigma=[[int]],
    sigma234=[int],
    torus_rank=int,
    colors=[{"id": Required(object), "rho": Required(list), "sigma_set": Required([int])}],
)
SCHEMA = {
    "horospherical": dict(_COMMON, I=[int], M=Required([[int]])),
    "spherical": _SPHERICAL,
    # color ids are compared as strings
    "embedding": dict(_SPHERICAL, fan=Required([{"generators": Required([list]), "colors": list}]),
                      quasi_projective=bool),
    "gu": _COMMON,
    "diagonal": {"factors": [str], "deltas": [("trivial", "nontrivial", None)]},
}
KINDS = tuple(SCHEMA)


def _shape_error(value, shape):
    """(path suffix, message) for the first misfit of ``value`` to ``shape``, or None."""
    if shape is int:
        if type(value) is int:  # no booleans, no strings
            return None
        return "", "expected an integer, got %s" % json.dumps(value, default=repr)
    if shape is str:
        return None if type(value) is str else ("", "expected a string")
    if shape is bool:
        return None if type(value) is bool else ("", "expected true or false")
    if shape is object:
        return None
    if shape is list:
        return None if isinstance(value, (list, tuple)) else ("", "expected a list")
    if isinstance(shape, tuple):
        if value in shape:  # a JSON value equals no alternative but a literal
            return None
        fits = [
            alt for alt in shape
            if alt is list and isinstance(value, list) or (
                isinstance(alt, dict) and isinstance(value, dict)
                and all(key in value for key in _required(alt))
            )
        ]
        if len(fits) == 1:
            return _shape_error(value, fits[0])
        words = [
            "null" if alt is None else "a list" if alt is list
            else 'an object with "%s"' % '", "'.join(_required(alt)) if isinstance(alt, dict)
            else json.dumps(alt)
            for alt in shape
        ]
        return "", "expected %s or %s" % (", ".join(words[:-1]), words[-1])
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return "", "expected an object"
        for key, sub in shape.items():
            if type(sub) is Required:
                if key not in value:
                    return "", "missing required key %r" % key
                sub = sub.shape
            if key in value:
                err = _shape_error(value[key], sub)
                if err is not None:
                    return ".%s%s" % (key, err[0]), err[1]
        return None
    (item,) = shape
    if not isinstance(value, (list, tuple)):
        of = " of integers" if item is int else " of integer rows" if item == [int] else ""
        return "", "expected a list" + of
    if item is int and all(type(x) is int for x in value):
        return None  # the common case, without a call per entry
    for k, x in enumerate(value):
        err = _shape_error(x, item)
        if err is not None:
            return "[%d]%s" % (k, err[0]), err[1]
    return None


def _required(shape):
    return [key for key, sub in shape.items() if type(sub) is Required]


class ProblemError(ValueError):
    """Input-file problem with a location-tagged message."""


def _fail(path, msg):
    raise ProblemError("%s: %s" % (path, msg))


def _need(doc, key, path):
    if key not in doc:
        _fail(path, "missing required key %r" % key)
    return doc[key]


def _parse_galois(entry, rd, path):
    if entry == "trivial":
        return galois_from_permutations(rd, [])
    if entry == "flip":
        flip = diagram_flip(rd.type)
        if flip is None:
            _fail(path, "type %s has no order-2 diagram automorphism" % rd.type)
        return galois_from_permutations(rd, [flip])
    group = entry["group"]
    autos = []
    for k, one_line in enumerate(entry.get("generators", [])):
        if sorted(one_line) != list(range(1, rd.rank + 1)):
            _fail(path, "generator %d is not a permutation of 1..%d" % (k + 1, rd.rank))
        if group == "trivial" and one_line != sorted(one_line):
            _fail(path, "generator %d of the trivial group is not the identity" % (k + 1))
        autos.append(DiagramAutomorphism(tuple(i - 1 for i in one_line)))
    if group == "trivial":
        return galois_from_permutations(rd, [])
    try:
        return galois_from_permutations(rd, autos, group_name=group)
    except ValueError as e:
        _fail(path, str(e))


def _parse_tits(entry, rd, path):
    if entry in (None, "zero", "trivial"):
        return TitsClassSpec.zero()
    if "catalog" in entry:
        name = entry["catalog"]
        try:
            form = catalog_lookup(name)
        except ValueError as e:
            _fail(path, str(e))
        if form.type != rd.type:
            _fail(path, "catalog entry %s is a form of %s, not of %s" % (name, form.type, rd.type))
        return form.tits
    try:
        return TitsClassSpec.from_values(entry["values"])
    except ValueError as e:
        _fail(path, "bad character value: %s" % e)


def _parse_field(entry, rd, global_galois, path):
    if entry["mode"] != NUMBER_FIELD:
        return FieldDescriptor(entry["mode"])
    sites = []
    for k, s in enumerate(entry.get("sites", [])):
        spath = "%s.sites[%d]" % (path, k)
        sg = _parse_galois(s.get("galois", "trivial"), rd, spath + ".galois")
        if not sg.is_subaction_of(global_galois):
            _fail(spath, "site image is not contained in the global image")
        t0 = s.get("t0")
        try:
            values = None if t0 in ("trivial", None) else TitsClassSpec.from_values(t0).values
        except ValueError as e:
            _fail(spath + ".t0", "bad character value: %s" % e)
        label = s.get("label", "v%d" % k)
        if any(site.label == label for site in sites):
            _fail(spath + ".label", "duplicate site label %r" % label)
        sites.append(LocalSite(label, s["mode"], sg, values))
    return FieldDescriptor(NUMBER_FIELD, tuple(sites))


def load_problem(path):
    """The problem document at ``path`` and its kind, checked by _check_problem."""
    def reject_float(literal):
        _fail(path, "float %s is not allowed; write rationals as \"p/q\" strings" % literal)

    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f, parse_float=reject_float, parse_constant=reject_float)
    except OSError as e:
        raise ProblemError("%s: cannot read (%s)" % (path, e))
    except json.JSONDecodeError as e:
        raise ProblemError("%s: not valid JSON (%s)" % (path, e))
    return doc, _check_problem(doc, path)


def _check_problem(doc, path):
    """The kind of a problem document, checked against SCHEMA.

    Besides the shapes, it enforces the rules that are not types: the
    field mode, sites only in a number field, number fields only for the
    horospherical and gu kinds and without a global ``tits``, diagonal
    factors or markers but not both, at least two factors and a non-empty
    list of markers.
    """
    if not isinstance(doc, dict):
        raise ProblemError("%s: document must be an object" % path)
    version = doc.get("version", 1)
    if type(version) is not int or version != 1:
        raise ProblemError("%s: unsupported version %r" % (path, version))
    kind = _need(doc, "kind", path)
    if kind not in KINDS:
        raise ProblemError("%s: unknown kind %r (expected one of %s)" % (path, kind, ", ".join(KINDS)))
    err = _shape_error(doc, SCHEMA[kind])
    if err is not None:
        _fail(path + err[0], err[1])
    if kind == "diagonal":
        if "factors" in doc:
            if "deltas" in doc:
                _fail(path + ".deltas", "give factors or deltas, not both")
            if len(doc["factors"]) < 2:
                _fail(path + ".factors", "factors must be a list of at least two catalog names")
        elif not _need(doc, "deltas", path):
            _fail(path + ".deltas", "deltas must be a list of markers, one per non-base factor")
        return kind
    mode = doc["field"]["mode"]
    if mode not in (REAL, PADIC, NUMBER_FIELD):
        _fail(path + ".field", "unsupported base field: %r" % (mode,))
    if mode != NUMBER_FIELD and "sites" in doc["field"]:
        _fail(path + ".field.sites", "sites are read in number_field mode only")
    if mode == NUMBER_FIELD and kind not in ("horospherical", "gu"):
        _fail(path, "number_field mode is supported for horospherical and gu kinds only")
    if mode == NUMBER_FIELD and "tits" in doc:
        _fail(path + ".tits", "a number_field problem takes its characters from its sites")
    return kind


def _build_common(doc, path):
    """(root datum, Galois image, field, Tits spec) of a non-diagonal problem.

    Every character is resolved here, so a refused one fails at load: a
    local problem's at ``.tits``, a site's at the document, naming the site,
    as ``decide_number_field`` names it.  The decision after it reads the
    resolver's cache.
    """
    try:
        rd = based_root_datum(doc["root_datum"])
    except ValueError as e:
        _fail(path + ".root_datum", str(e))
    galois = _parse_galois(doc.get("galois", "trivial"), rd, path + ".galois")
    field = _parse_field(doc["field"], rd, galois, path + ".field")
    tits = _parse_tits(doc.get("tits"), rd, path + ".tits")
    try:
        if field.mode == NUMBER_FIELD:
            _resolve_sites(rd, galois, field.sites)
        else:
            resolve_local_character(rd, galois, tits, field.mode)
    except ValueError as e:
        _fail(path if field.mode == NUMBER_FIELD else path + ".tits", str(e))
    return rd, galois, field, tits


def _build_payload(doc, rd, kind, path):
    """The datum of a problem: a HorosphericalDatum (the full weight lattice
    for ``gu``), a SphericalDatum, or a (SphericalDatum, ColoredFan) pair."""
    if kind == "gu":
        return HorosphericalDatum(rd, [], rd.weight_lattice.basis.data)
    if kind == "horospherical":
        try:
            return HorosphericalDatum(rd, doc.get("I", []), doc["M"])
        except ValueError as e:
            _fail(path, str(e))
    try:
        colors = [
            Color(str(c["id"]), c["rho"], c["sigma_set"])
            for c in doc.get("colors", [])
        ]
        datum = SphericalDatum(
            rd, doc["X"], doc.get("sigma", []), colors,
            sigma234=doc.get("sigma234", []), torus_rank=doc.get("torus_rank", 0),
        )
    except ValueError as e:
        _fail(path, "bad spherical datum: %s" % e)
    if kind == "spherical":
        return datum
    try:
        cones = [
            ColoredCone(entry["generators"], entry.get("colors", ()))
            for entry in doc["fan"]
        ]
        fan = ColoredFan(cones, datum)
    except ValueError as e:
        _fail(path + ".fan", str(e))
    return datum, fan


def _diagonal_markers(doc, path):
    """The markers of a diagonal problem; a refused factor fails at ``.factors``."""
    if "factors" not in doc:
        return doc["deltas"]
    try:
        return delta_markers_from_catalog(doc["factors"])
    except ValueError as e:
        _fail(path + ".factors", str(e))


def run_decide(doc, path):
    kind = doc["kind"]
    if kind == "diagonal":
        return decide_diagonal(_diagonal_markers(doc, path))
    rd, galois, field, tits = _build_common(doc, path)
    payload = _build_payload(doc, rd, kind, path)
    try:
        if field.mode == NUMBER_FIELD:  # horospherical or gu, as load_problem checked
            return decide_number_field(payload, galois, list(field.sites))
        if kind == "horospherical":
            return decide_horospherical(payload, galois, tits, field.mode)
        if kind == "gu":
            return decide_gu(rd, galois, tits, field.mode)
        if kind == "spherical":
            return decide_local_general(payload, galois, tits, field.mode)
        datum, fan = payload
        return decide_embedding(
            fan, datum, galois, tits, field.mode,
            quasi_projective=doc.get("quasi_projective", True),
        )
    except ValueError as e:
        _fail(path, str(e))


# -- reports -----------------------------------------------------------------


def _fmt_group(g):
    if not g.invariant_factors:
        return "trivial"
    return " + ".join("Z" if d == 0 else "Z/%d" % d for d in g.invariant_factors)


def _fmt_vec(v):
    return "(" + ", ".join(str(x) for x in v) + ")"


def invariants_report(doc, path):
    kind = doc["kind"]
    if kind == "diagonal":
        _diagonal_markers(doc, path)
        return ["kind: diagonal", "nothing to derive (markers are input data)"]
    rd, galois, field, tits = _build_common(doc, path)
    lines = []
    lines.append("kind: %s" % kind)
    lines.append("root datum: %s" % rd.type)
    lines.append("galois group: %s" % galois.group_name)
    local_mode = field.mode if field.mode in (REAL, PADIC) else REAL
    mod, inv, fixed, t0 = resolve_local_character(rd, galois, tits, local_mode)
    lines.append("center characters P/Q: %s" % _fmt_group(mod))
    lines.append("fixed center characters (P/Q)^G: %s" % _fmt_group(inv))
    for i in range(inv.rank):
        gen = apply_row(inv.lift((0,) * i + (1,) + (0,) * (inv.rank - i - 1)), fixed.basis)
        lines.append("  generator %d image in P/Q: %s" % (i + 1, _fmt_vec(mod.from_ambient(gen))))
    lines.append("tits character values: [%s]" % ", ".join(map(str, t0.values)))
    if not t0.is_zero():
        theta, _, theta_p = theta_lattice(rd, galois, t0)
        lines.append("character kernel: %s" % _fmt_group(theta))
        lines.append("kernel preimage in fixed weights, basis:")
        for r in theta_p.basis.data:
            lines.append("  %s" % _fmt_vec(r))
    if kind in ("horospherical", "gu"):
        h = _build_payload(doc, rd, kind, path)
        if kind == "horospherical":
            lines.append("I: %s" % sorted(h.I))
            lines.append("M basis:")
            for r in h.M.basis.data:
                lines.append("  %s" % _fmt_vec(r))
            lines.append("derived orbit datum: one color per simple root outside I")
        try:
            datum = h.to_spherical()
        except ValueError as e:
            _fail(path, str(e))
    elif kind == "spherical":
        datum = _build_payload(doc, rd, kind, path)
    else:
        datum, fan = _build_payload(doc, rd, kind, path)
        lines.append("fan (canonical maximal colored cones):")
        for c in fan.cones:
            lines.append(
                "  rays %s colors {%s}"
                % (
                    " ".join(_fmt_vec(r) for r in c.rays),
                    ", ".join(sorted(c.colors)),
                )
            )
    if kind in ("spherical", "embedding"):
        try:
            orbit_action(datum, galois)  # refuses moved doubling flags, as decide does
        except ValueError as e:
            _fail(path, str(e))
    lines.append("orbit lattice rank: %d" % datum.rank)
    for r in datum.basis.data:
        lines.append("  basis %s" % _fmt_vec(r))
    for label, roots in (
        ("spherical roots", datum.sigma),
        ("colinear-color simple roots", datum.sigma_two),
        ("sigma_sc", datum.sigma_sc),
        ("sigma_N", datum.sigma_n),
    ):
        lines.append("%s: %s" % (label, "; ".join(_fmt_vec(s) for s in roots) or "none"))
    for size in (1, 2):  # the color images over one color, then over two
        images = [key for key, ids in datum.fibers.items() if len(ids) == size]
        lines.append("omega%d (%d):" % (size, len(images)))
        for rho, sigma_set in images:
            lines.append("  rho %s moves %s" % (_fmt_vec(rho), sorted(sigma_set)))
    xa, xa_ker = aut_character_lattices(datum)
    lines.append("X*(A) = X/<sigma_N>: %s" % _fmt_group(xa))
    lines.append("X*(A^ker) = X/<sigma_sc>: %s" % _fmt_group(xa_ker))
    return lines


# -- commands ----------------------------------------------------------------


def _internal_error(e):
    """Exit 3 for a fault of the engine: 1 would read as "does not exist"."""
    print("internal error: %r" % (e,), file=sys.stderr)
    return 3


def cmd_decide(args):
    try:
        doc, kind = load_problem(args.path)
        verdict = run_decide(doc, args.path)
    except ProblemError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        return _internal_error(e)
    if args.json:
        print(json.dumps(verdict.to_dict(), sort_keys=True, indent=2))
    else:
        print("exists" if verdict.exists else "does not exist")
        if verdict.uniqueness_note:
            print("note: %s" % verdict.uniqueness_note)
    if args.explain and not args.json:
        for r in verdict.reasons:
            extras = {
                k: v for k, v in r.items() if k not in ("condition", "ok") and v is not None
            }
            suffix = (" " + json.dumps(extras, sort_keys=True)) if extras else ""
            print("  [%s] %s%s" % ("ok" if r["ok"] else "FAIL", r["condition"], suffix))
        for c in verdict.citations:
            print("  via: %s" % c)
    return 0 if verdict.exists else 1


def cmd_invariants(args):
    try:
        doc, kind = load_problem(args.path)
        lines = invariants_report(doc, args.path)
    except ProblemError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        return _internal_error(e)
    for line in lines:
        print(line)
    return 0


def cmd_catalog(args):
    try:
        if args.action == "list":
            lines = catalog_names()
        else:
            lines = [json.dumps(catalog_lookup(args.name).to_dict(), sort_keys=True, indent=2)]
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        return _internal_error(e)
    for line in lines:
        print(line)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sphmodels",
        description="decide existence of equivariant models from combinatorial data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide a problem file (exit 0 exists / 1 not / 2 error / 3 internal)")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="print the verdict as JSON")
    p.add_argument("--explain", action="store_true", help="print each condition with its witness")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("invariants", help="print the derived invariants of a problem file")
    p.add_argument("path")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("catalog", help="list or show literature-backed forms")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.name:
        parser.error("catalog show requires a name")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
