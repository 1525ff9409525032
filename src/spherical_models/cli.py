"""Command-line front end: problem files in, verdicts and invariants out.

Problem files are JSON documents with integers and "p/q" strings only (never
floats).  Exit codes: 0 when the model exists, 1 when it does not, 2 on any
input or validation error, 3 on an internal error (a fault of the engine, so
never read as a verdict), so shell pipelines can branch on the verdict.
`load_problem` checks a document once, against its kind's entry of
`SCHEMA` and the few rules that are not types, before any mathematics runs;
the readers after it trust that check.  `_load` then builds the problem's
objects and decides it, once, for both commands: `decide` prints the
verdict, and `invariants` prints from the built objects the canonical
presentations (including the fixed center characters) that Tits-character
value lists refer to, so it refuses exactly what `decide` refuses.  The
schema is documented in the README.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

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
)
from .embeddings import ColoredCone, ColoredFan
from .galoismodule import _GROUPS, PADIC, REAL, galois_from_permutations
from .horospherical import HorosphericalDatum
from .lattice import apply_row, rational
from .rootdata import (
    DiagramAutomorphism,
    based_root_datum,
    diagram_flip,
)
from .spherical import Color, SphericalDatum, aut_character_lattices


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
# the bound on a document's colors, which bounds the color-lift search
MAX_COLORS = 16


_INT = {int}
# each type that is a shape: what fits it, and the message for a misfit
_TYPES = {
    int: (lambda value: type(value) is int,  # no booleans, no strings
          lambda value: "expected an integer, got %s" % json.dumps(value, default=repr)),
    str: (lambda value: type(value) is str, lambda value: "expected a string"),
    bool: (lambda value: type(value) is bool, lambda value: "expected true or false"),
    object: (lambda value: True, None),
    list: (lambda value: isinstance(value, (list, tuple)), lambda value: "expected a list"),
}


def _compile(shape):
    """A checker of values against ``shape``: it returns (path suffix,
    message) for the first misfit, or None.  Each shape is walked once, here,
    so a document's check runs only closures."""
    if isinstance(shape, type):
        fits, misfit = _TYPES[shape]

        def check(value):
            return None if fits(value) else ("", misfit(value))
    elif isinstance(shape, tuple):
        check = _compile_alternatives(shape)
    elif isinstance(shape, dict):
        fields = [
            (key, type(sub) is Required, _compile(sub.shape if type(sub) is Required else sub))
            for key, sub in shape.items()
        ]

        def check(value):
            if not isinstance(value, dict):
                return "", "expected an object"
            for key, required, sub in fields:
                if key in value:
                    err = sub(value[key])
                    if err is not None:
                        return ".%s%s" % (key, err[0]), err[1]
                elif required:
                    return "", "missing required key %r" % key
            return None
    else:
        (item,) = shape
        of = " of integers" if item is int else " of integer rows" if item == [int] else ""
        sub = _compile(item)

        def check(value):
            if not isinstance(value, (list, tuple)):
                return "", "expected a list" + of
            if item is int and set(map(type, value)) <= _INT:
                return None  # the common case, without a call per entry
            for k, x in enumerate(value):
                err = sub(x)
                if err is not None:
                    return "[%d]%s" % (k, err[0]), err[1]
            return None
    return check


def _compile_alternatives(shape):
    """The checker of a tuple of alternatives (see SCHEMA)."""
    # a JSON value equals no alternative but a literal
    literals = [alt for alt in shape if alt is None or type(alt) is str]
    takes_list = list in shape
    objects = [(_required(alt), _compile(alt)) for alt in shape if isinstance(alt, dict)]
    words = [
        "null" if alt is None else "a list" if alt is list
        else 'an object with "%s"' % '", "'.join(_required(alt)) if isinstance(alt, dict)
        else json.dumps(alt)
        for alt in shape
    ]
    misfit = ("", "expected %s or %s" % (", ".join(words[:-1]), words[-1]))

    def check(value):
        if value in literals:
            return None
        fits = []
        if takes_list and isinstance(value, list):
            fits.append(None)
        if isinstance(value, dict):
            fits += [sub for keys, sub in objects if all(key in value for key in keys)]
        if len(fits) != 1:
            return misfit
        return None if fits[0] is None else fits[0](value)
    return check


def _required(shape):
    return [key for key, sub in shape.items() if type(sub) is Required]


# the checker of each kind's shape
_CHECKS = {kind: _compile(shape) for kind, shape in SCHEMA.items()}


class ProblemError(ValueError):
    """Input-file problem with a location-tagged message."""


def _fail(path, msg):
    raise ProblemError("%s: %s" % (path, msg))


def _need(doc, key, path):
    if key not in doc:
        _fail(path, "missing required key %r" % key)
    return doc[key]


# The type-level parses, each once per label or (type, entry).  The caches
# are bounded because labels and entries come from documents.
@lru_cache(maxsize=256)
def _root_datum(label):
    return based_root_datum(label)


def _parse_galois(entry, rd, path):
    if type(entry) is not str:
        entry = (entry["group"], tuple(map(tuple, entry.get("generators", []))))
    galois = _galois_entry(rd, entry)
    if type(galois) is str:
        _fail(path, galois)
    return galois


@lru_cache(maxsize=256)
def _galois_entry(rd, entry):
    """The Galois image that a document's entry names, or the refusal
    message: "trivial", "flip" or a (group, generators) pair."""
    if entry == "trivial":
        return galois_from_permutations(rd, [])
    if entry == "flip":
        flip = diagram_flip(rd.type)
        if flip is None:
            return "type %s has no order-2 diagram automorphism" % (rd.type,)
        return galois_from_permutations(rd, [flip])
    group, generators = entry
    autos = []
    for k, one_line in enumerate(generators):
        if sorted(one_line) != list(range(1, rd.rank + 1)):
            return "generator %d is not a permutation of 1..%d" % (k + 1, rd.rank)
        if group == "trivial" and one_line != tuple(sorted(one_line)):
            return "generator %d of the trivial group is not the identity" % (k + 1)
        autos.append(DiagramAutomorphism(tuple(i - 1 for i in one_line)))
    if group == "trivial":
        return galois_from_permutations(rd, [])
    try:
        return galois_from_permutations(rd, autos, group_name=group)
    except ValueError as e:
        return str(e)


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
    sites, labels = [], set()
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
        if label in labels:
            _fail(spath + ".label", "duplicate site label %r" % label)
        labels.add(label)
        sites.append(LocalSite(label, s["mode"], sg, values))
    return FieldDescriptor(NUMBER_FIELD, tuple(sites))


class _FloatLiteral(Exception):
    """A float or a NaN/Infinity constant in a problem document (its literal)."""


def _reject_float(literal):
    raise _FloatLiteral(literal)


# the one decoder of problem documents
_DECODER = json.JSONDecoder(parse_float=_reject_float, parse_constant=_reject_float)


def load_problem(path):
    """The problem document at ``path`` and its kind, checked by _check_problem."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except OSError as e:
        raise ProblemError("%s: cannot read (%s)" % (path, e))
    except _FloatLiteral as e:
        _fail(path, "float %s is not allowed; write rationals as \"p/q\" strings" % e.args)
    except (ValueError, RecursionError) as e:  # also a huge integer, deep nesting, bad UTF-8
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
    err = _CHECKS[kind](doc)
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

    A local problem's character is resolved here, so a refused one fails at
    ``.tits`` before the payload is read; the decision after it reads the
    resolver's cache.  A number field's site characters are resolved once,
    by ``decide_number_field``, which names a refused site.
    """
    try:
        rd = _root_datum(doc["root_datum"])
    except ValueError as e:
        _fail(path + ".root_datum", str(e))
    galois = _parse_galois(doc.get("galois", "trivial"), rd, path + ".galois")
    field = _parse_field(doc["field"], rd, galois, path + ".field")
    tits = _parse_tits(doc.get("tits"), rd, path + ".tits")
    if field.mode != NUMBER_FIELD:
        try:
            resolve_local_character(rd, galois, tits, field.mode)
        except ValueError as e:
            _fail(path + ".tits", str(e))
    return rd, galois, field, tits


def _build_payload(doc, rd, kind, path):
    """The datum of a problem: a HorosphericalDatum (the full weight lattice
    for ``gu``), a SphericalDatum, or a (SphericalDatum, ColoredFan) pair.

    A document with more than MAX_COLORS colors is refused here."""
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
        if len(colors) > MAX_COLORS:
            raise ValueError("more than %d colors is out of scope" % MAX_COLORS)
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


def _load(doc, path):
    """(verdict, built) of a checked document, for ``decide`` and ``invariants``.

    ``built`` is (root datum, Galois image, field, Tits spec, payload), or
    None for a diagonal problem.  Every refusal, of the data or of the
    decision, fails here with exit 2 at a path of the document.
    """
    kind = doc["kind"]
    if kind == "diagonal":
        markers = doc.get("deltas")
        if "factors" in doc:
            try:
                markers = delta_markers_from_catalog(doc["factors"])
            except ValueError as e:
                _fail(path + ".factors", str(e))
        return decide_diagonal(markers), None
    rd, galois, field, tits = _build_common(doc, path)
    payload = _build_payload(doc, rd, kind, path)
    try:
        if field.mode == NUMBER_FIELD:  # horospherical or gu, as load_problem checked
            verdict = decide_number_field(payload, galois, list(field.sites))
        elif kind == "horospherical":
            verdict = decide_horospherical(payload, galois, tits, field.mode)
        elif kind == "gu":
            verdict = decide_gu(rd, galois, tits, field.mode)
        elif kind == "spherical":
            verdict = decide_local_general(payload, galois, tits, field.mode)
        else:
            datum, fan = payload
            verdict = decide_embedding(
                fan, datum, galois, tits, field.mode,
                quasi_projective=doc.get("quasi_projective", True),
            )
    except ValueError as e:
        _fail(path, str(e))
    return verdict, (rd, galois, field, tits, payload)


def run_decide(doc, path):
    return _load(doc, path)[0]


# -- reports -----------------------------------------------------------------


def _fmt_vec(v):
    return "(" + ", ".join(str(x) for x in v) + ")"


def invariants_report(doc, path):
    """The report lines of what ``_load`` built for the decision."""
    _, built = _load(doc, path)
    if built is None:
        return ["kind: diagonal", "nothing to derive (markers are input data)"]
    rd, galois, field, tits, payload = built
    kind = doc["kind"]
    lines = []
    lines.append("kind: %s" % kind)
    lines.append("root datum: %s" % (rd.type,))
    lines.append("galois group: %s" % galois.group_name)
    # a number field's global character is zero, which every image admits over the reals
    local_mode = REAL if field.mode == NUMBER_FIELD else field.mode
    mod, inv, fixed, t0 = resolve_local_character(rd, galois, tits, local_mode)
    lines.append("center characters P/Q: %s" % mod)
    lines.append("fixed center characters (P/Q)^G: %s" % inv)
    for i in range(inv.rank):
        gen = apply_row(inv.lift((0,) * i + (1,) + (0,) * (inv.rank - i - 1)), fixed.basis)
        lines.append("  generator %d image in P/Q: %s" % (i + 1, _fmt_vec(mod.from_ambient(gen))))
    values = map(str, map(rational, t0.residues, inv.invariant_factors))
    lines.append("tits character values: [%s]" % ", ".join(values))
    if not t0.is_zero():
        theta, _, theta_p = theta_lattice(rd, galois, t0)
        lines.append("character kernel: %s" % theta)
        lines.append("kernel preimage in fixed weights, basis:")
        for r in theta_p.basis.data:
            lines.append("  %s" % _fmt_vec(r))
    if kind == "spherical":
        datum = payload
    elif kind == "embedding":
        datum, fan = payload
        lines.append("fan (canonical maximal colored cones):")
        for c in fan.cones:
            lines.append(
                "  rays %s colors {%s}"
                % (
                    " ".join(_fmt_vec(r) for r in c.rays),
                    ", ".join(sorted(c.colors)),
                )
            )
    else:
        if kind == "horospherical":
            lines.append("I: %s" % sorted(payload.I))
            lines.append("M basis:")
            for r in payload.M.basis.data:
                lines.append("  %s" % _fmt_vec(r))
            lines.append("derived orbit datum: one color per simple root outside I")
        datum = payload.to_spherical()
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
    lines.append("X*(A) = X/<sigma_N>: %s" % xa)
    lines.append("X*(A^ker) = X/<sigma_sc>: %s" % xa_ker)
    return lines


# -- commands ----------------------------------------------------------------


def _dumps(value, newline="\n"):
    """``json.dumps(value, sort_keys=True, indent=2)`` of a verdict's values:
    strings, integers, booleans, None, lists and objects with string keys.

    The json encoder takes its pure-Python path whenever it indents; this
    writes the same bytes directly.  ``newline`` is the line break with the
    indentation of the current level.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_quote(k) + ": " + _dumps(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


def _internal_error(e):
    """Exit 3 for a fault of the engine: 1 would read as "does not exist"."""
    print("internal error: %r" % (e,), file=sys.stderr)
    return 3


def _print(lines, code):
    """Print ``lines`` and return the exit code ``code``, also when the reader
    of stdout is gone: stdout then points at os.devnull, so that the final
    flush of the interpreter cannot fail again."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


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
        lines = [_dumps(verdict.to_dict())]
    else:
        lines = ["exists" if verdict.exists else "does not exist"]
        if verdict.uniqueness_note:
            lines.append("note: %s" % verdict.uniqueness_note)
    if args.explain and not args.json:
        for r in verdict.reasons:
            extras = {
                k: v for k, v in r.items() if k not in ("condition", "ok") and v is not None
            }
            suffix = (" " + json.dumps(extras, sort_keys=True)) if extras else ""
            lines.append("  [%s] %s%s" % ("ok" if r["ok"] else "FAIL", r["condition"], suffix))
        lines += ["  via: %s" % c for c in verdict.citations]
    return _print(lines, 0 if verdict.exists else 1)


def cmd_invariants(args):
    try:
        doc, kind = load_problem(args.path)
        lines = invariants_report(doc, args.path)
    except ProblemError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        return _internal_error(e)
    return _print(lines, 0)


def cmd_catalog(args):
    try:
        if args.action == "list":
            lines = catalog_names()
        else:
            lines = [_dumps(catalog_lookup(args.name).to_dict())]
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:
        return _internal_error(e)
    return _print(lines, 0)


@lru_cache(maxsize=None)
def _parser():
    """The command-line parser, built at the first ``main`` call, not at import."""
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
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "show" and not args.name:
        parser.error("catalog show requires a name")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
