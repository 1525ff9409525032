"""A mutated valid document is decided or refused cleanly, never crashed on.

Each example starts from a valid document (a demo problem or one of a slice
of each benchmark corpus) and applies one mutation: a value of the wrong
type, a missing or an unknown key, ``"1/0"``, a proper fraction in place of
a number, a number spelled outside the grammar ``-?[0-9]+`` and
``-?[0-9]+/[0-9]+`` (``BAD_SPELLINGS``), a 5,000-digit integer, deep
nesting, or a value at a bound or one past it (``MAX_RANK``, ``MAX_COLORS``,
``GENERATOR_CAP`` and the bounds of ``torus_rank``).  The document is
written to a file and run through ``decide --json``, ``decide --explain``
and ``invariants`` as ``conftest.command_outputs`` runs them, so the
decoder's refusals count too.  Then:

- no command exits 3, which would be a fault of the engine;
- a refusal (exit 2) names a path that exists in the document;
- ``decide`` and ``invariants`` refuse the same documents with the same line;
- ``decide --explain`` exits as ``decide --json`` does;
- a bad spelling in place of a number exits 2, and when the document was
  decided before, at a path that leads to the spelling.

Run as a script, the property runs with a larger example count:

    PYTHONPATH=src python tests/test_schema_mutations.py 20000
"""

import copy
import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_WORKLOADS, command_outputs, load_corpus
from spherical_models.cli import MAX_COLORS
from spherical_models.polyhedra import GENERATOR_CAP
from spherical_models.rootdata import MAX_RANK

ROOT = Path(__file__).resolve().parent.parent
CORPUS_SLICE = range(0, 2000, 20)
EXAMPLES = 800
COMMANDS = (("decide", "--json"), ("decide", "--explain"), ("invariants",))
# a value that json.dumps writes as a string and the mutation replaces by
# raw text, for the values json.dumps cannot write
RAW = "\x00raw\x00"
REFUSAL = re.compile(r"error: <path>((?:\.\w+|\[\d+\])*): ")


@lru_cache(maxsize=None)
def valid_documents():
    docs = [json.loads(p.read_text()) for p in sorted((ROOT / "demos" / "problems").glob("*.json"))]
    corpus = load_corpus()
    return docs + [corpus.problem(w, k) for w in CORPUS_WORKLOADS for k in CORPUS_SLICE]


def _nodes(value, at=()):
    """The path of every value inside ``value``, itself first."""
    yield at
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _nodes(sub, at + (key,))
    elif isinstance(value, list):
        for k, sub in enumerate(value):
            yield from _nodes(sub, at + (k,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _replaced(doc, path, value):
    """A copy of ``doc`` with ``value`` at the non-empty ``path``."""
    doc = copy.deepcopy(doc)
    _at(doc, path[:-1])[path[-1]] = value
    return doc


_OTHER_TYPES = (0, "x", [], {}, True, None, "1/2")
# strings that read as numbers to a lenient parser, not to the README grammar
BAD_SPELLINGS = ("0.5", "1e1", "2.0", "1_0", "\u0663", " 3 ", "+1", "1/-2")


def _mutations(data, doc):
    """(document, raw text or None, name) for one mutation of ``doc``; the
    raw text stands for each RAW string of the document.  The name of a bad
    spelling is ("bad-spelling", its path), or "bad-spelling" when the
    document holds no number."""
    inner = list(_nodes(doc))[1:]
    objects = [p for p in _nodes(doc) if isinstance(_at(doc, p), dict)]
    name = data.draw(st.sampled_from(
        ["wrong-type", "missing-key", "unknown-key", "zero-denominator", "proper-fraction", "bad-spelling",
         "huge-integer", "deep-nesting", "bound"]
    ))
    if name == "wrong-type":
        path = data.draw(st.sampled_from(inner))
        old = _at(doc, path)
        new = data.draw(st.sampled_from([v for v in _OTHER_TYPES if type(v) is not type(old)]))
        return _replaced(doc, path, new), None, name
    if name in ("missing-key", "unknown-key"):
        path = data.draw(st.sampled_from([p for p in objects if _at(doc, p)] if name == "missing-key" else objects))
        doc = copy.deepcopy(doc)
        target = _at(doc, path)
        if name == "missing-key":
            del target[data.draw(st.sampled_from(sorted(target)))]
        else:
            target["extra"] = 1
        return doc, None, name
    if name == "zero-denominator":
        return _replaced(doc, data.draw(st.sampled_from(inner)), "1/0"), None, name
    if name == "proper-fraction":
        numbers = [p for p in inner if _is_number(_at(doc, p))]
        return _replaced(doc, data.draw(st.sampled_from(numbers or inner)), "1/2"), None, name
    if name == "bad-spelling":
        # a color id is a name, whatever it spells
        numbers = [p for p in inner if _is_number(_at(doc, p)) and p[-1] != "id"]
        path = data.draw(st.sampled_from(numbers or inner))
        spelling = data.draw(st.sampled_from(BAD_SPELLINGS))
        return _replaced(doc, path, spelling), None, (name, path) if numbers else name
    if name == "huge-integer":
        return _replaced(doc, data.draw(st.sampled_from(inner)), RAW), "9" * 5000, name
    if name == "deep-nesting":
        path = data.draw(st.sampled_from(inner))
        depth = data.draw(st.sampled_from((50, 100000)))
        if depth == 50:
            nested = []
            for _ in range(depth):
                nested = [nested]
            return _replaced(doc, path, nested), None, name
        return _replaced(doc, path, RAW), "[" * depth + "]" * depth, name
    return _bound(data, doc) + (name,)


def _bound(data, doc):
    """A value at one of the bounds, or one past it."""
    d = data.draw(st.sampled_from((-1, 0, 1)))
    bounds = ["torus_rank_low", "torus_rank_high"]
    if "root_datum" in doc:
        bounds.append("rank")
    if "colors" in doc and len(doc["colors"]) < MAX_COLORS - 1:
        bounds.append("colors")
    if doc.get("fan"):
        bounds.append("generators")
    bound = data.draw(st.sampled_from(bounds))
    doc = copy.deepcopy(doc)
    if bound == "torus_rank_low":
        doc["torus_rank"] = d
    elif bound == "torus_rank_high":
        doc["torus_rank"] = MAX_RANK + d
    elif bound == "rank":
        family = doc["root_datum"][0]
        doc["root_datum"] = "%s%d" % (family if family in "ABCD" else "A", MAX_RANK + d)
    elif bound == "colors":
        r = len(doc["X"])
        doc["colors"] += [
            {"id": "extra%d" % k, "rho": [str(k + 1)] + ["0"] * (r - 1), "sigma_set": []}
            for k in range(MAX_COLORS + d - len(doc["colors"]))
        ]
    else:
        cone = doc["fan"][data.draw(st.integers(0, len(doc["fan"]) - 1))]
        first = cone["generators"][0]
        pad = GENERATOR_CAP + d - len(cone["generators"]) - len(cone.get("colors", ()))
        # positive multiples of a generator: the same ray, more generators
        cone["generators"] += [[_times(k + 2, x) for x in first] for k in range(max(pad, 0))]
    return doc, None


def _is_number(value):
    return type(value) is int or type(value) is str and re.fullmatch(r"[-+]?\d+(/\d+)?", value) is not None


def _times(n, x):
    return str(n * Fraction(x)) if type(x) is str else n * x


def _suffix(path):
    """The path tuple as the ".key" and "[k]" steps that a refusal prints."""
    return "".join("[%d]" % step if type(step) is int else ".%s" % step for step in path)


@lru_cache(maxsize=None)
def _decided(text):
    """Does ``decide --json`` decide the document ``text`` (exit 0 or 1)?"""
    with tempfile.TemporaryDirectory() as directory:
        (code, _, _), = command_outputs(text, os.path.join(directory, "problem.json"), COMMANDS[:1])
    return code in (0, 1)


def _exists(doc, suffix):
    """Does the path ``suffix`` (".key" and "[k]" steps) name a value of ``doc``?"""
    for key, index in re.findall(r"\.(\w+)|\[(\d+)\]", suffix):
        if key:
            if not isinstance(doc, dict) or key not in doc:
                return False
            doc = doc[key]
        else:
            if not isinstance(doc, list) or int(index) >= len(doc):
                return False
            doc = doc[int(index)]
    return True


def mutation_property(examples):
    """The property, run on ``examples`` mutated documents."""

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def check(data):
        original = data.draw(st.sampled_from(valid_documents()))
        doc, raw, name = _mutations(data, original)
        text = json.dumps(doc)
        if raw is not None:
            text = text.replace(json.dumps(RAW), raw)
        with tempfile.TemporaryDirectory() as directory:
            runs = command_outputs(text, os.path.join(directory, "problem.json"), COMMANDS)
        (code, _, err), (explain_code, _, _), (report_code, _, report_err) = runs
        assert 3 not in (code, explain_code, report_code), (name, runs)
        assert explain_code == code, (name, runs)
        assert (code == 2) == (report_code == 2), (name, runs)
        if code == 2:
            assert err == report_err and err.count("\n") == 1, (name, runs)
            where = REFUSAL.match(err)
            assert where is not None and _exists(doc, where.group(1)), (name, err)
        if type(name) is tuple:
            assert code == 2, (name, runs)
            if _decided(json.dumps(original)):
                at, where = _suffix(name[1]), where.group(1)
                assert at == where or at.startswith((where + ".", where + "[")), (name, err)

    return check


test_mutated_documents_are_refused_cleanly = mutation_property(EXAMPLES)


if __name__ == "__main__":
    mutation_property(int(sys.argv[1]) if len(sys.argv) > 1 else 20000)()
    print("ok")
