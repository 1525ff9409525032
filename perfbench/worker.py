"""One measured process of the decision benchmark (started by run.py).

    worker.py inproc --workload W --seed S --seconds T --trace 0|1 --t-spawn C [--setup-only|--count N]
    worker.py cli    --seed S --seconds T --trace 0|1 --t-spawn C [--setup-only|--count N]
    worker.py cli-child PATH

``inproc`` decides problems in this process, each exactly as ``sphmodels
decide PATH --json`` does after argument parsing (``cli.cmd_decide``: load,
``run_decide``, verdict JSON).  ``cli`` is a closed-loop client that starts
one ``python -m spherical_models.cli decide PATH --json`` per problem, one at
a time.  ``cli-child`` is that command with the layer tracer installed after
import; it reports its span aggregate on stderr.

The worker prints one JSON line: setup time (from ``--t-spawn``, the parent's
``perf_counter`` just before it started this process, to the first timed
decision), the latency of each timed problem in order, failures, peak RSS
and, when traced, span aggregates.  ``--count N`` decides exactly the first
N timed problems, so that several processes can time the same problems.
A traced process installs the tracer after its warm-up slice, so every
traced decision is the process's first decision of that problem.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402

TRACE_MARK = "PERFBENCH_TRACE "
CLI_TIMEOUT_S = 60
CHUNK = 50
# Enough latency samples for ten beyond the 90th percentile.
MIN_SAMPLES = 100


class Checker:
    """Compares exit codes and verdict JSON against the recorded codes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def check(self, label, expected, code, stdout, error=None):
        self.attempted += 1
        problem = error
        if problem is None and code != int(expected):
            problem = "exit code %s, expected %s" % (code, expected)
        if problem is None and expected != corpus.INPUT_ERROR:
            try:
                exists = json.loads(stdout)["exists"]
            except (ValueError, KeyError, TypeError) as e:
                problem = "verdict JSON does not parse: %s" % e
            else:
                if exists is not (expected == corpus.EXISTS):
                    problem = "exists=%r contradicts exit code %s" % (exists, code)
        if problem is not None:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = "%s: %s" % (label, problem)
        return problem is None


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def _install_tracer(cli):
    """Trace every engine layer from here on, including the verdict JSON."""
    import tracer as tracer_mod  # only traced processes load the tracer

    tr = tracer_mod.Tracer()
    tr.install()
    cli.json = tracer_mod.JsonShim(tr)
    return tr


# -- in-process workloads ----------------------------------------------------


def run_inproc(args, workdir):
    record = corpus.load_expected(args.workload)
    expected = record["codes"]
    warmup, timed = corpus.run_order(args.workload, args.seed, record)
    from spherical_models import cli  # the engine import is part of set-up

    checker = Checker()

    def decide(k):
        path = os.path.join(workdir, "%d.json" % k)
        label = "%s[%d]" % (args.workload, k)
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.cmd_decide(argparse.Namespace(path=path, json=True, explain=False))
        except Exception as e:  # an engine crash is a failed decision, not a harness error
            dt = time.perf_counter() - t
            checker.check(label, expected[k], None, "", error="raised %r" % e)
            return dt
        dt = time.perf_counter() - t
        checker.check(label, expected[k], code, out.getvalue())
        return dt

    def prepare(chunk):
        for k in chunk:
            _write(os.path.join(workdir, "%d.json" % k), corpus.problem(args.workload, k))

    prepare(warmup)
    for k in warmup:
        decide(k)
    setup_s = time.perf_counter() - args.t_spawn
    result = {"setup_s": setup_s}
    if args.setup_only:
        return result, checker

    def timed_pass(selected, budget_s, wrap):
        """Decide in order until the budget is spent; the latencies.

        Problem files are written between chunks, outside the timed wall clock.
        """
        lat, wall = [], 0.0
        for start in range(0, len(selected), CHUNK):
            chunk = selected[start : start + CHUNK]
            prepare(chunk)
            t0 = time.perf_counter()
            for k in chunk:
                lat.append(wrap(k))
                if wall + time.perf_counter() - t0 >= budget_s and len(lat) >= MIN_SAMPLES:
                    break
            wall += time.perf_counter() - t0
            if wall >= budget_s and len(lat) >= MIN_SAMPLES:
                break
        return lat

    selected, budget, wrap = timed, args.seconds, decide
    if args.count:
        selected, budget = timed[: args.count], math.inf
    if args.trace:
        tr = _install_tracer(cli)

        def wrap(k):
            with tr.span("bench.decide"):
                return decide(k)

    lat = timed_pass(selected, budget, wrap)
    result.update(latencies=lat, peak_rss_mb=_peak_rss_mb(resource.RUSAGE_SELF))
    if args.trace:
        result.update(spans=tr.aggregate(), counters=tr.counters)
    return result, checker


# -- cold CLI workload -------------------------------------------------------


def run_cli(args, workdir):
    cold = corpus.load_expected("cli_cold")["demos"]
    codes = {w: corpus.load_expected(w)["codes"] for w in ("horo_sweep", "embed_fans")}
    demo_dir = os.path.join(ROOT, "demos", "problems")
    demos = {}
    for name, rec in cold.items():
        path = os.path.join(demo_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                if hashlib.sha256(f.read()).hexdigest() == rec["sha256"]:
                    demos[name] = rec["code"]
    warmup, timed = corpus.cli_order(args.seed, codes["horo_sweep"], codes["embed_fans"], demos)
    checker = Checker()

    def materialize(entry):
        source, key = entry
        if source == "demo":
            return os.path.join(demo_dir, key), demos[key]
        path = os.path.join(workdir, "%s-%d.json" % (source, key))
        _write(path, corpus.problem(source, key))
        return path, codes[source][key]

    def call(entry, traced=False):
        path, expected = materialize(entry)
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), "cli-child", path]
        else:
            cmd = [sys.executable, "-m", "spherical_models.cli", "decide", path, "--json"]
        t = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S, cwd=ROOT)
        dt = time.perf_counter() - t
        checker.check("%s:%s" % entry, expected, proc.returncode, proc.stdout)
        agg = None
        if traced:
            lines = [ln for ln in proc.stderr.splitlines() if ln.startswith(TRACE_MARK)]
            agg = json.loads(lines[-1][len(TRACE_MARK):]) if lines else {}
        return dt, agg

    for entry in warmup:
        call(entry)
    result = {"setup_s": time.perf_counter() - args.t_spawn}
    if args.setup_only:
        return result, checker
    if args.trace:
        from tracer import merge as merge_spans
    lat, total, counters, t0 = [], {}, {}, time.perf_counter()
    for entry in timed[: args.count] if args.count else timed:
        dt, agg = call(entry, traced=bool(args.trace))
        lat.append(dt)
        if agg is not None:
            merge_spans(total, agg.get("spans", {}))
            for key, n in agg.get("counters", {}).items():
                counters[key] = counters.get(key, 0) + n
        elapsed = time.perf_counter() - t0
        if args.count:
            continue
        if elapsed >= args.seconds and len(lat) >= MIN_SAMPLES or elapsed > 6 * args.seconds:
            break
    result.update(latencies=lat, peak_rss_mb=_peak_rss_mb(resource.RUSAGE_CHILDREN))
    if args.trace:
        result.update(spans=total, counters=counters)
    return result, checker


def run_cli_child(path):
    """``sphmodels decide PATH --json`` with the tracer installed after import."""
    from spherical_models import cli

    tr = _install_tracer(cli)
    with tr.span("bench.decide"):
        code = cli.main(["decide", path, "--json"])
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARK + json.dumps({"spans": tr.aggregate(), "counters": tr.counters}) + "\n")
    return code


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "cli-child":
        sys.exit(run_cli_child(sys.argv[2]))
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("inproc", "cli"))
    ap.add_argument("--workload", default="cli_cold")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--count", type=int, default=0,
                    help="decide exactly this many timed problems instead of timing --seconds")
    args = ap.parse_args()
    workdir = os.path.join(ROOT, ".perfbench_work", "w%d" % os.getpid())
    os.makedirs(workdir)
    try:
        run = run_inproc if args.mode == "inproc" else run_cli
        result, checker = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(attempted=checker.attempted, failed=checker.failed, first_failure=checker.first_failure)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
