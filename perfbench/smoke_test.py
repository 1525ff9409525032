"""Smoke test of the benchmark itself (about two minutes on two cores).

    python3 perfbench/smoke_test.py

Checks, at a tiny size:

* the corpora regenerate to the digests recorded next to the expected
  verdicts, so the recorded verdicts still describe the generated problems;
* each workload prints every end-to-end metric (``--trace 0``) and every
  per-layer metric (``--trace 1``) named in BENCHMARK.json, with its unit,
  and every verdict checks;
* traced counts repeat exactly across two runs with the same seed;
* ``horo_sweep`` never reaches ``polyhedra`` or ``embeddings``;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import gen_expected  # noqa: E402

SEED = 7


class SmokeFailure(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise SmokeFailure(msg)


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def result_of(proc, what):
    expect(proc.returncode == 0, "%s exited %d: %s" % (what, proc.returncode, proc.stderr[-2000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(sorted(out) == ["attempted", "correct", "failed", "metrics"], "%s: result keys %s" % (what, sorted(out)))
    expect(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, "%s: verdicts failed" % what)
    return out


def check_metrics(out, specs, what):
    got = out["metrics"]
    expect(sorted(got) == sorted(s["name"] for s in specs), "%s: metric names differ" % what)
    for s in specs:
        expect(got[s["name"]]["unit"] == s["unit"], "%s: unit of %s" % (what, s["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    for workload in sorted(corpus.CORPUS_SIZE):
        rec = corpus.load_expected(workload)
        expect(gen_expected.corpus_digest(workload, rec["count"]) == rec["corpus_sha256"],
               "%s: corpus no longer matches the recorded verdicts" % workload)
    print("corpus digests ok")

    for w in bench["workloads"]:
        name = w["name"]
        check_metrics(result_of(run(name, 0), name), bench["end_to_end"], name)
        first = result_of(run(name, 1), name + " traced")
        second = result_of(run(name, 1), name + " traced again")
        check_metrics(first, bench["per_layer"], name + " traced")
        for s in bench["per_layer"]:
            if s["unit"] == "count":
                a, b = first["metrics"][s["name"]]["value"], second["metrics"][s["name"]]["value"]
                expect(a == b, "%s: %s differs between runs (%s vs %s)" % (name, s["name"], a, b))
        if name == "horo_sweep":
            for s in bench["per_layer"]:
                if s["name"].startswith(("polyhedra.", "embeddings.")) and s["unit"] == "count":
                    expect(first["metrics"][s["name"]]["value"] == 0, "horo_sweep reached %s" % s["name"])
        print("%s ok" % name)

    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("horo_sweep", 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(), "bare directory: benchmark did not refuse")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory refused ok")


if __name__ == "__main__":
    try:
        main()
    except SmokeFailure as e:
        sys.exit("smoke test failed: %s" % e)
