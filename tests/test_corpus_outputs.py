"""The outputs of every command on the first problems of each corpus.

``tests/golden/corpus_outputs.json`` holds, for each of the first ``PREFIX``
problems of each benchmark corpus (``perfbench/corpus.py``, a pure function
of the index), one short sha256 over the exit code, stdout and stderr of
``decide --json``, ``decide --explain`` and ``invariants``, with the path of
the problem file written as ``<path>``.  The digests were recorded once and
are not regenerated from the code under test, so a change that moves any
verdict, witness, report line or error message on these problems fails
here.  A change that means to move them re-records the file, and names the
moved indices, by running this file as a script:

    PYTHONPATH=src python tests/test_corpus_outputs.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from spherical_models.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus_outputs.json"
WORKLOADS = ("horo_sweep", "embed_fans")
PREFIX = 200
COMMANDS = (("decide", "--json"), ("decide", "--explain"), ("invariants",))


def _corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def output_digest(doc, path):
    """The digest of the three commands on ``doc``, written to ``path``."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    runs = []
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, path])
        runs.append([code, out.getvalue().replace(path, "<path>"), err.getvalue().replace(path, "<path>")])
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()[:16]


def corpus_digests(workload, directory):
    corpus = _corpus()
    path = str(Path(directory) / "problem.json")
    return [output_digest(corpus.problem(workload, k), path) for k in range(PREFIX)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corpus_outputs_match_the_goldens(tmp_path, workload):
    want = json.loads(GOLDEN.read_text())[workload]
    assert len(want) == PREFIX
    got = corpus_digests(workload, tmp_path)
    moved = [k for k in range(PREFIX) if got[k] != want[k]]
    assert moved == [], "indices whose outputs moved: %s" % moved


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as directory:
        new = {w: corpus_digests(w, directory) for w in WORKLOADS}
    for w in WORKLOADS:
        moved = [k for k, d in enumerate(new[w]) if k >= len(old.get(w, ())) or old[w][k] != d]
        print("%s: %d moved %s" % (w, len(moved), moved[:50]), file=sys.stderr)
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
