"""Verdicts against the exit codes the benchmark recorded.

The benchmark corpora (``perfbench/corpus.py``) are pure functions of the
index, and ``perfbench/expected/<workload>.json`` holds one code per index:
"0" exists, "1" does not, "2" input error, "-" filtered out.  A change to
the engine that flips any of them is a changed verdict.  On the same
corpora, ``invariants`` must refuse exactly the files ``decide`` refuses.
The corpus checks read the one pass of the commands over the corpora
(``corpus_runs`` in ``conftest.py``).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from conftest import load_corpus as _corpus
from spherical_models import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# the prefix of each corpus decided here, the shorter one the recorder
# decides, and the one both commands run on
PREFIX = 2000
RECORDER_PREFIX = 200
COMMANDS_PREFIX = 400


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _recorded(name):
    with open(PERFBENCH / "expected" / (name + ".json"), encoding="utf-8") as f:
        return json.load(f)


def _code(doc, path):
    # the load-time checks of ``sphmodels decide``, without the file
    try:
        cli._check_problem(doc, path)
        return "0" if cli.run_decide(doc, path).exists else "1"
    except cli.ProblemError:
        return "2"


@pytest.mark.parametrize("workload", ["horo_sweep", "embed_fans"])
def test_corpus_verdicts_match_the_recorded_codes(corpus_runs, workload):
    # the exit code of ``sphmodels decide --json`` on each document
    corpus = _corpus()
    codes = _recorded(workload)["codes"][:PREFIX]
    records = corpus_runs[workload]
    assert len(records) >= PREFIX
    mismatches = []
    for k, want in enumerate(codes):
        if want == corpus.SKIP:
            continue
        got = str(records[k]["runs"][("decide", "--json")][0])
        if got != want:
            mismatches.append((k, want, got))
    assert any(c != corpus.SKIP for c in codes)
    assert mismatches == [], "index, recorded, got: %s" % mismatches[:10]


def test_demo_verdicts_match_the_recorded_codes():
    recorded = _recorded("cli_cold")["demos"]
    demos = sorted((ROOT / "demos" / "problems").glob("*.json"))
    assert sorted(p.name for p in demos) == sorted(recorded)
    for path in demos:
        try:
            doc, _ = cli.load_problem(str(path))
        except cli.ProblemError:
            got = "2"
        else:
            got = _code(doc, str(path))
        assert got == recorded[path.name]["code"], path.name


def test_recorder_reaches_the_engine_names_it_imports():
    # perfbench/gen_expected.py decides through private engine names
    # (cli._build_common and _build_payload, decision._horospherical_fast_path,
    # the four fields of LocalCharacter, LocalSite.t0_values); the next
    # re-recording breaks if they change shape
    recorder = _load("perfbench_gen_expected", "gen_expected.py")
    checks = {}
    for workload in ("horo_sweep", "embed_fans"):
        codes = _recorded(workload)["codes"][:RECORDER_PREFIX]
        mismatches, checks[workload] = [], 0
        for k, want in enumerate(codes):
            got, _, _, made = recorder.decide_one(workload, k)
            checks[workload] += made
            if want != recorder.corpus.SKIP and got != want:
                mismatches.append((k, want, got))
        assert mismatches == [], "%s index, recorded, got: %s" % (workload, mismatches[:10])
    assert checks["horo_sweep"] > 0


@pytest.mark.parametrize("workload", ["horo_sweep", "embed_fans"])
def test_invariants_refuses_exactly_what_decide_refuses(corpus_runs, workload):
    # the report builds what the verdict builds: it refuses the same files
    # with the same line, and a file that decide decides it reports
    records = corpus_runs[workload][:COMMANDS_PREFIX]
    assert len(records) == COMMANDS_PREFIX
    refused = 0
    for k, record in enumerate(records):
        code, _, err = record["runs"][("decide", "--json")]
        decided = code, err
        code, _, err = record["runs"][("invariants",)]
        reported = code, err
        if 2 in (decided[0], reported[0]):
            assert reported == decided, k
            refused += 1
        else:
            assert decided[0] in (0, 1) and reported == (0, ""), k
    assert 0 < refused < COMMANDS_PREFIX
