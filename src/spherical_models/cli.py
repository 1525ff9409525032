"""Command-line front end: problem files in, verdicts and invariants out.

Problem files are JSON documents with integers and "p/q" strings only (never
floats).  Exit codes: 0 when the model exists, 1 when it does not, 2 on any
input or validation error, 3 on an internal error (a fault of the engine, so
never read as a verdict), so shell pipelines can branch on the verdict.
The schema is documented in the README; `invariants` prints the canonical
presentations (including the fixed center characters) that Tits-character
value lists refer to.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .decision import (
    NUMBER_FIELD,
    FieldDescriptor,
    LocalSite,
    TitsClassSpec,
    UnsupportedBaseField,
    catalog_lookup,
    catalog_names,
    center_invariants,
    decide_diagonal,
    decide_embedding,
    decide_gu,
    decide_horospherical,
    decide_local_general,
    decide_number_field,
    delta_markers_from_catalog,
    resolve_local_character,
    theta_lattice,
)
from .embeddings import ColoredFan
from .galoismodule import PADIC, REAL, galois_from_permutations
from .horospherical import HorosphericalDatum
from .lattice import Lattice
from .rootdata import (
    DiagramAutomorphism,
    based_root_datum,
    diagram_flip,
)
from .spherical import (
    SphericalDatum,
    aut_character_lattices,
    check_integer_entries,
    omega_sets,
    sigma_two,
    sigma_variants,
)

KINDS = ("horospherical", "spherical", "embedding", "gu", "diagonal")


class ProblemError(ValueError):
    """Input-file problem with a location-tagged message."""


def _fail(path, msg):
    raise ProblemError("%s: %s" % (path, msg))


def _need(doc, key, path):
    if key not in doc:
        _fail(path, "missing required key %r" % key)
    return doc[key]


# the datum class whose integer entries each kind reads
_DATUM_CLASS = {
    "horospherical": HorosphericalDatum,
    "spherical": SphericalDatum,
    "embedding": SphericalDatum,
}


def _check_integers(doc, kind, path):
    """Refuse strings and booleans where ``kind`` reads integers."""
    if kind in _DATUM_CLASS:
        try:
            check_integer_entries(doc, _DATUM_CLASS[kind].INTEGER_ENTRIES, path)
        except ValueError as e:
            raise ProblemError(str(e))


def _parse_galois(entry, rd, path):
    if entry == "trivial":
        return galois_from_permutations(rd, [])
    if entry == "flip":
        flip = diagram_flip(rd.type)
        if flip is None:
            _fail(path, "type %s has no order-2 diagram automorphism" % rd.type)
        return galois_from_permutations(rd, [flip])
    if not isinstance(entry, dict):
        _fail(path, "galois must be 'trivial', 'flip', or an object")
    group = _need(entry, "group", path)
    gens = entry.get("generators", [])
    if group == "trivial":
        return galois_from_permutations(rd, [])
    autos = []
    try:
        check_integer_entries(entry, {"generators": [[int]]}, path)
    except ValueError as e:
        raise ProblemError(str(e))
    for k, one_line in enumerate(gens):
        if sorted(one_line) != list(range(1, rd.rank + 1)):
            _fail(path, "generator %d is not a permutation of 1..%d" % (k + 1, rd.rank))
        autos.append(DiagramAutomorphism(tuple(i - 1 for i in one_line)))
    try:
        return galois_from_permutations(rd, autos, group_name=str(group))
    except ValueError as e:
        _fail(path, str(e))


def _parse_tits(entry, rd, path):
    if entry is None or entry == "zero" or entry == "trivial":
        return TitsClassSpec.zero()
    if isinstance(entry, dict):
        if "catalog" in entry:
            name = str(entry["catalog"])
            try:
                form = catalog_lookup(name)
            except KeyError as e:
                _fail(path, e.args[0])
            except ValueError as e:
                _fail(path, str(e))
            if form.type != rd.type:
                _fail(path, "catalog entry %s is a form of %s, not of %s" % (name, form.type, rd.type))
            return form.tits
        if "values" in entry:
            try:
                return TitsClassSpec.from_values([Fraction(str(v)) for v in entry["values"]])
            except (ValueError, ZeroDivisionError) as e:
                _fail(path, "bad character value: %s" % e)
    _fail(path, "tits must be 'zero', {'values': [...]}, or {'catalog': name}")


def _parse_field(entry, rd, global_galois, path):
    if not isinstance(entry, dict):
        _fail(path, "field must be an object with a 'mode'")
    mode = _need(entry, "mode", path)
    if mode in (REAL, PADIC):
        return FieldDescriptor(mode)
    if mode != NUMBER_FIELD:
        _fail(path, "unsupported base field: %r" % (mode,))
    sites = []
    for k, s in enumerate(entry.get("sites", [])):
        spath = "%s.sites[%d]" % (path, k)
        label = str(s.get("label", "v%d" % k))
        smode = _need(s, "mode", spath)
        if smode not in (REAL, PADIC):
            _fail(spath, "unsupported base field: %r" % (smode,))
        sg = _parse_galois(s.get("galois", "trivial"), rd, spath + ".galois")
        if not sg.is_subaction_of(global_galois):
            _fail(spath, "site image is not contained in the global image")
        t0 = s.get("t0", "trivial")
        if t0 in ("trivial", None):
            values = None
        elif isinstance(t0, list):
            values = tuple(str(v) for v in t0)
        else:
            _fail(spath + ".t0", "t0 must be 'trivial' or a list of character values")
        sites.append(LocalSite(label, smode, sg, values))
    return FieldDescriptor(NUMBER_FIELD, tuple(sites))


def load_problem(path):
    def reject_float(literal):
        _fail(path, "float %s is not allowed; write rationals as \"p/q\" strings" % literal)

    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f, parse_float=reject_float, parse_constant=reject_float)
    except OSError as e:
        raise ProblemError("%s: cannot read (%s)" % (path, e))
    except json.JSONDecodeError as e:
        raise ProblemError("%s: not valid JSON (%s)" % (path, e))
    if not isinstance(doc, dict):
        raise ProblemError("%s: document must be an object" % path)
    if doc.get("version", 1) != 1:
        raise ProblemError("%s: unsupported version %r" % (path, doc.get("version")))
    kind = _need(doc, "kind", path)
    if kind not in KINDS:
        raise ProblemError("%s: unknown kind %r (expected one of %s)" % (path, kind, ", ".join(KINDS)))
    _check_integers(doc, kind, path)
    return doc, kind


def _build_common(doc, path):
    kind = doc["kind"]
    if kind == "diagonal":
        return None, None, None, None
    label = _need(doc, "root_datum", path)
    try:
        rd = based_root_datum(str(label))
    except ValueError as e:
        _fail(path + ".root_datum", str(e))
    galois = _parse_galois(doc.get("galois", "trivial"), rd, path + ".galois")
    field = _parse_field(_need(doc, "field", path), rd, galois, path + ".field")
    tits = _parse_tits(doc.get("tits", "zero"), rd, path + ".tits")
    return rd, galois, field, tits


def _build_payload(doc, rd, kind, path):
    if kind == "horospherical":
        # load_problem checked that I and M are lists of integers
        nodes, rows = doc.get("I", []), _need(doc, "M", path)
        try:
            return HorosphericalDatum(rd, nodes, rows)
        except (TypeError, ValueError) as e:
            _fail(path, str(e))
    if kind in ("spherical", "embedding"):
        try:
            datum = SphericalDatum.from_dict(rd, doc)
        except (KeyError, ValueError) as e:
            _fail(path, "bad spherical datum: %s" % e)
        if kind == "spherical":
            return datum
        try:
            fan = ColoredFan.from_dict(
                _need(doc, "fan", path), datum,
                check_valuation_cone=bool(doc.get("check_valuation_cone", False)),
            )
        except (KeyError, ValueError) as e:
            _fail(path + ".fan", str(e))
        return datum, fan
    if kind == "gu":
        return None
    raise AssertionError(kind)


def run_decide(doc, path):
    kind = doc["kind"]
    if kind == "diagonal":
        if "factors" in doc:
            try:
                markers = delta_markers_from_catalog([str(x) for x in doc["factors"]])
            except (KeyError, ValueError) as e:
                _fail(path + ".factors", str(e))
            n = len(doc["factors"])
        else:
            deltas = _need(doc, "deltas", path)
            if not isinstance(deltas, list):
                _fail(path + ".deltas", "deltas must be a list of markers")
            markers = [
                "trivial" if d in ("trivial", None) else d for d in deltas
            ]
            n = len(markers) + 1
        return decide_diagonal(n, markers)
    rd, galois, field, tits = _build_common(doc, path)
    payload = _build_payload(doc, rd, kind, path)
    try:
        if field.mode == NUMBER_FIELD:
            if kind == "horospherical":
                return decide_number_field(payload, galois, list(field.sites))
            if kind == "gu":
                full = Lattice.full(rd.rank)
                datum = HorosphericalDatum(rd, [], full.basis.data)
                return decide_number_field(datum, galois, list(field.sites))
            _fail(path, "number_field mode is supported for horospherical and gu kinds only")
        if kind == "horospherical":
            return decide_horospherical(payload, galois, tits, field.mode)
        if kind == "gu":
            return decide_gu(rd, galois, tits, field.mode)
        if kind == "spherical":
            return decide_local_general(payload, galois, tits, field.mode)
        if kind == "embedding":
            datum, fan = payload
            return decide_embedding(
                fan, datum, galois, tits, field.mode,
                quasi_projective=bool(doc.get("quasi_projective", True)),
            )
    except UnsupportedBaseField as e:
        _fail(path + ".field", str(e))
    except ValueError as e:
        _fail(path, str(e))
    raise AssertionError(kind)


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
        return ["kind: diagonal", "nothing to derive (markers are input data)"]
    rd, galois, field, tits = _build_common(doc, path)
    lines = []
    lines.append("kind: %s" % kind)
    lines.append("root datum: %s" % rd.type)
    lines.append("galois group: %s" % galois.group_name)
    mod, inv, incl = center_invariants(rd, galois)
    lines.append("center characters P/Q: %s" % _fmt_group(mod))
    lines.append("fixed center characters (P/Q)^G: %s" % _fmt_group(inv))
    for i in range(inv.rank):
        e = tuple(1 if j == i else 0 for j in range(inv.rank))
        lines.append("  generator %d image in P/Q: %s" % (i + 1, _fmt_vec(incl.apply(e))))
    local_mode = field.mode if field.mode in (REAL, PADIC) else REAL
    t0 = None
    try:
        _, _, _, t0 = resolve_local_character(rd, galois, tits, local_mode)
    except (ValueError, UnsupportedBaseField):
        pass
    if t0 is not None:
        lines.append("tits character values: [%s]" % ", ".join(t0.serialize()))
        if not t0.is_zero():
            theta, _, theta_p = theta_lattice(rd, galois, t0)
            lines.append("character kernel: %s" % _fmt_group(theta))
            lines.append("kernel preimage in fixed weights, basis:")
            for r in theta_p.basis.data:
                lines.append("  %s" % _fmt_vec(r))
    datum = None
    if kind == "horospherical":
        h = _build_payload(doc, rd, kind, path)
        lines.append("I: %s" % sorted(h.I))
        lines.append("M basis:")
        for r in h.M.basis.data:
            lines.append("  %s" % _fmt_vec(r))
        try:
            datum = h.to_spherical()
        except ValueError as e:
            _fail(path, str(e))
        lines.append("derived orbit datum: one color per simple root outside I")
    elif kind == "spherical":
        datum = _build_payload(doc, rd, kind, path)
    elif kind == "embedding":
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
    elif kind == "gu":
        datum = HorosphericalDatum(rd, [], Lattice.full(rd.rank).basis.data).to_spherical()
    if datum is not None:
        lines.append("orbit lattice rank: %d" % datum.rank)
        for r in datum.basis.data:
            lines.append("  basis %s" % _fmt_vec(r))
        lines.append("spherical roots: %s" % ("; ".join(_fmt_vec(s) for s in datum.sigma) or "none"))
        s2 = sigma_two(datum)
        lines.append("colinear-color simple roots: %s" % ("; ".join(_fmt_vec(s) for s in s2) or "none"))
        sc, n = sigma_variants(datum)
        lines.append("sigma_sc: %s" % ("; ".join(_fmt_vec(s) for s in sc) or "none"))
        lines.append("sigma_N: %s" % ("; ".join(_fmt_vec(s) for s in n) or "none"))
        o1, o2 = omega_sets(datum)
        lines.append("omega1 (%d):" % len(o1))
        for e in o1:
            lines.append("  rho %s moves %s" % (_fmt_vec(e.rho), sorted(e.sigma_set)))
        lines.append("omega2 (%d):" % len(o2))
        for e in o2:
            lines.append("  rho %s moves %s" % (_fmt_vec(e.rho), sorted(e.sigma_set)))
        xa, xa_ker, _ = aut_character_lattices(datum)
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
    except (KeyError, ValueError) as e:
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
