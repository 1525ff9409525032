"""A verdict does not depend on how its document presents the orbit.

A spherical or embedding document writes the orbit lattice by a basis X,
the colors by ids in a list, and the fan as lists of cones and generators.
Another basis U X, for U unimodular, with each functional and fan generator
v replaced by U v (v a column), keeps every pairing; renaming and permuting
the colors and reordering the cones and their generators change nothing
either.  On the spherical and embedding demos and the first period of
the ``embed_fans`` corpus, each moved document must get the same reasons
(condition bits, rules, notes and witnesses; the cohomology witness is a
center class), and a color lift, when the verdict has one, must be a
stabilizing lift of the moved fan.  The moved functionals run through the
integer transport of ``orbit_action``.  Run as a script, the property runs
with a larger example count:

    PYTHONPATH=src python tests/test_presentation_invariance.py 20000
"""

import json
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_corpus
from spherical_models import fan_stable, orbit_action
from spherical_models.cli import ProblemError, _check_problem, _load
from spherical_models.spherical import ColorLift

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = 500


@lru_cache(maxsize=None)
def decided_documents():
    """(document, verdict) of each spherical and embedding demo and corpus
    problem of that period that the engine decides."""
    docs = [json.loads(p.read_text()) for p in sorted((ROOT / "demos" / "problems").glob("*.json"))]
    corpus = load_corpus()
    # one period of the corpus's strata: each family on each type once
    docs += [corpus.problem("embed_fans", k) for k in range(len(corpus.EMBED_STRATA))]
    out = []
    for doc in docs:
        if doc["kind"] not in ("spherical", "embedding"):
            continue
        try:
            _check_problem(doc, "doc")
            out.append((doc, _load(doc, "doc")[0]))
        except ProblemError:
            continue
    return out


@st.composite
def unimodular(draw, k):
    """A k x k integer matrix of determinant +-1: elementary row moves on
    the identity, then a permutation of the rows and a sign on each."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    for _ in range(draw(st.integers(0, 4)) if pairs else 0):
        i, j = draw(st.sampled_from(pairs))
        c = draw(st.integers(-2, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    u = draw(st.permutations(u))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
    return [[s * x for x in row] for s, row in zip(signs, u)]


def moved_document(doc, u, names, color_order, cone_order, generator_orders):
    """``doc`` with basis U X, functionals and generators U v, the colors
    renamed by ``names`` and listed in ``color_order``, the cones listed in
    ``cone_order`` and the generators of the i-th in ``generator_orders[i]``."""

    def times_u(v):
        return [str(sum(a * Fraction(x) for a, x in zip(row, v))) for row in u]

    x = doc["X"]
    moved = dict(doc, X=[[sum(a * r[j] for a, r in zip(row, x)) for j in range(len(x[0]))] for row in u])
    colors = doc.get("colors", [])
    moved["colors"] = [
        dict(colors[i], id=names[str(colors[i]["id"])], rho=times_u(colors[i]["rho"])) for i in color_order
    ]
    if "fan" in doc:
        cones = []
        for i in cone_order:
            cone = dict(doc["fan"][i])
            cone["generators"] = [times_u(cone["generators"][j]) for j in generator_orders[i]]
            if "colors" in cone:
                cone["colors"] = [names[str(c)] for c in cone["colors"]]
            cones.append(cone)
        moved["fan"] = cones
    return moved


def _without_lift(reason):
    return {key: value for key, value in reason.items() if key != "lift"}


def invariance_property(examples):
    """The property, run on ``examples`` moved documents."""

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def check(data):
        doc, before = data.draw(st.sampled_from(decided_documents()))
        u = data.draw(unimodular(len(doc["X"])))
        ids = [str(c["id"]) for c in doc.get("colors", [])]
        fresh = data.draw(st.permutations(["K%02d" % i for i in range(len(ids))]))
        color_order = data.draw(st.permutations(range(len(ids))))
        fan = doc.get("fan", [])
        cone_order = data.draw(st.permutations(range(len(fan))))
        generator_orders = [data.draw(st.permutations(range(len(c["generators"])))) for c in fan]
        moved = moved_document(doc, u, dict(zip(ids, fresh)), color_order, cone_order, generator_orders)

        after, (_, galois, _, _, payload) = _load(moved, "moved")
        assert after.exists == before.exists
        assert [_without_lift(r) for r in after.reasons] == [_without_lift(r) for r in before.reasons]
        for reason in after.reasons:
            if reason.get("lift") is not None:
                datum, fan = payload
                lift = ColorLift(tuple(map(tuple, reason["lift"])))
                assert fan_stable(fan, orbit_action(datum, galois), lift)

    return check


test_a_verdict_does_not_depend_on_the_presentation = invariance_property(EXAMPLES)


if __name__ == "__main__":
    invariance_property(int(sys.argv[1]) if len(sys.argv) > 1 else 20000)()
    print("ok")
