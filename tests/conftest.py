import argparse
import contextlib
import importlib.util
import io
import json
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import settings

# A failing property prints a blob that @reproduce_failure replays locally.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")

# When a property fails, hypothesis's pytest plugin imports its patch writer,
# which imports libcst, whose mypy_extensions warns DeprecationWarning.  Under
# filterwarnings = error that warning is an INTERNALERROR that ends the test
# run, so no later test is reported.  Import the writer once here, with
# that warning ignored for this import only.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

sys.path.insert(0, str(Path(__file__).parent))

from spherical_models import (
    Color,
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    based_root_datum,
    galois_from_permutations,
)
from spherical_models import cli
from spherical_models.lattice import Lattice
from spherical_models.rootdata import diagram_flip

ROOT = Path(__file__).resolve().parent.parent
CORPUS_WORKLOADS = ("horo_sweep", "embed_fans")
# Each command of the corpus pass, with the prefix of each corpus it runs on:
# the longest prefix that a check of it reads.
CORPUS_COMMANDS = {("decide", "--json"): 2000, ("invariants",): 400, ("decide", "--explain"): 200}


def flip_of(rd):
    return galois_from_permutations(rd, [diagram_flip(rd.type)])


@pytest.fixture(scope="session")
def rd_a2():
    return based_root_datum("A2")


@pytest.fixture(scope="session")
def rd_a5():
    return based_root_datum("A5")


@pytest.fixture(scope="session")
def rd_d5():
    return based_root_datum("D5")


@pytest.fixture(scope="session")
def sl3_datum(rd_a2):
    """Open orbit of the quotient by a rank-2 subgroup inside rank-3 (P^3 x P^2 case)."""
    return SphericalDatum(
        rd_a2,
        basis=[[1, 0], [0, 1]],
        sigma=[(1, 1)],
        colors=[
            Color("D1", (F(1), F(0)), frozenset({1})),
            Color("D2", (F(0), F(1)), frozenset({2})),
        ],
    )


@pytest.fixture(scope="session")
def so10_datum(rd_d5):
    """The 8-dimensional quadric orbit datum: X = Z e1, one spherical root 2 e1."""
    return SphericalDatum(
        rd_d5,
        basis=[[1, 0, 0, 0, 0]],
        sigma=[(2, 0, 0, 0, 0)],
        colors=[Color("D", (F(1),), frozenset({1}))],
    )


@pytest.fixture(scope="session")
def sl6_datum(rd_a5):
    a1, a5 = rd_a5.simple_root(1), rd_a5.simple_root(5)
    return SphericalDatum(
        rd_a5,
        basis=[list(a1), [0, 0, 1, 0, 0], list(a5)],
        sigma=[tuple(a1), tuple(a5)],
        colors=[
            Color("D1+", (F(1), F(0), F(0)), frozenset({1})),
            Color("D1-", (F(1), F(0), F(0)), frozenset({1})),
            Color("D5+", (F(0), F(0), F(1)), frozenset({5})),
            Color("D5-", (F(0), F(0), F(1)), frozenset({5})),
            Color("D2", (F(-1), F(0), F(0)), frozenset({2})),
            Color("D4", (F(0), F(0), F(-1)), frozenset({4})),
        ],
    )


@pytest.fixture(scope="session")
def sl6_fan(sl6_datum):
    return ColoredFan(
        [ColoredCone(((-1, 1, -1),), frozenset({"D1+", "D5-"}))],
        sl6_datum,
    )


@pytest.fixture(scope="session")
def sl3_fan(sl3_datum):
    return ColoredFan(
        [
            ColoredCone(((1, -1), (-1, 0)), frozenset()),
            ColoredCone(((-1, 0),), frozenset({"D2"})),
        ],
        sl3_datum,
    )


@pytest.fixture(scope="session")
def m_2p_plus_q(rd_a5):
    doubled = Lattice(5, [[2 if i == j else 0 for j in range(5)] for i in range(5)])
    return doubled.sum(rd_a5.root_lattice)


@pytest.fixture(scope="session")
def galois_a5_flip(rd_a5):
    return flip_of(rd_a5)


@pytest.fixture(scope="session")
def galois_d5_flip(rd_d5):
    return flip_of(rd_d5)


# -- one pass of the commands over the benchmark corpora -------------------


def load_corpus():
    """``perfbench/corpus.py``: each benchmark problem as a pure function of its index."""
    spec = importlib.util.spec_from_file_location("perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Each command as ``cli.main`` parses it; the pass calls the command itself,
# which keeps argparse, most of the cost of ``main``, out of it.
_PARSED = {
    ("decide", "--json"): (cli.cmd_decide, {"json": True, "explain": False}),
    ("decide", "--explain"): (cli.cmd_decide, {"json": False, "explain": True}),
    ("invariants",): (cli.cmd_invariants, {}),
}


def command_outputs(doc, path, commands):
    """(exit code, stdout, stderr) of each command of ``commands`` on ``doc``,
    a document or the text of one, written to ``path``, with the path
    written as ``<path>``."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(doc if type(doc) is str else json.dumps(doc))
    runs = []
    for command in commands:
        func, options = _PARSED[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = func(argparse.Namespace(path=path, **options))
        runs.append((code, out.getvalue().replace(path, "<path>"), err.getvalue().replace(path, "<path>")))
    return runs


@pytest.fixture(scope="session")
def corpus_runs(tmp_path_factory):
    """The commands of CORPUS_COMMANDS, each run once on each document of
    its prefix of each corpus, for every check that reads a corpus.

    ``{workload: [record per index]}``; a record holds the ``doc``, the
    ``runs`` as {command: (exit code, stdout, stderr)} and the ``verdict``
    dict that ``decide --json`` wrote, None when it refused the document.
    """
    corpus = load_corpus()
    path = str(tmp_path_factory.mktemp("corpus") / "problem.json")
    verdicts = []

    def run_decide(doc, at):
        verdict = decide(doc, at)
        verdicts.append(verdict.to_dict())
        return verdict

    decide = cli.run_decide
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_decide", run_decide)
        for workload in CORPUS_WORKLOADS:
            records = out[workload] = []
            for k in range(max(CORPUS_COMMANDS.values())):
                doc = corpus.problem(workload, k)
                commands = [c for c, prefix in CORPUS_COMMANDS.items() if k < prefix]
                del verdicts[:]
                outputs = command_outputs(doc, path, commands)
                # decide --json runs first, so a verdict it wrote comes first
                verdict = verdicts[0] if verdicts and outputs[0][0] in (0, 1) else None
                records.append({"doc": doc, "runs": dict(zip(commands, outputs)), "verdict": verdict})
    return out
