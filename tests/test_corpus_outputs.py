"""The outputs of every command on the first problems of each corpus.

``tests/golden/corpus_outputs.json`` holds, for each of the first ``PREFIX``
problems of each benchmark corpus (``perfbench/corpus.py``, a pure function
of the index), one short sha256 over the exit code, stdout and stderr of
``decide --json``, ``decide --explain`` and ``invariants``, with the path of
the problem file written as ``<path>``.  The digests were recorded once and
are not regenerated from the code under test, so a change that moves any
verdict, witness, report line or error message on these problems fails
here.  The test reads the outputs from the one pass of the commands over
the corpora (``corpus_runs`` in ``conftest.py``).  A change that means to move them re-records the file, and names the
moved indices, by running this file as a script:

    PYTHONPATH=src python tests/test_corpus_outputs.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import CORPUS_WORKLOADS as WORKLOADS
from conftest import command_outputs, load_corpus

GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus_outputs.json"
PREFIX = 200
COMMANDS = (("decide", "--json"), ("decide", "--explain"), ("invariants",))


def output_digest(runs):
    """The digest of the (exit code, stdout, stderr) of the three commands."""
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()[:16]


def corpus_digests(workload, directory):
    corpus = load_corpus()
    path = str(Path(directory) / "problem.json")
    return [output_digest(command_outputs(corpus.problem(workload, k), path, COMMANDS)) for k in range(PREFIX)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corpus_outputs_match_the_goldens(corpus_runs, workload):
    want = json.loads(GOLDEN.read_text())[workload]
    assert len(want) == PREFIX
    got = [output_digest([r["runs"][c] for c in COMMANDS]) for r in corpus_runs[workload][:PREFIX]]
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
