"""Decision benchmark: seeded workloads, verdict checks, end-to-end and layer metrics.

    python3 perfbench/run.py --workload {horo_sweep,embed_fans,cli_cold} \
        --seed N --seconds T --trace {0,1}

Run from the root of a source checkout; it uses ``src/`` directly and
writes only under ``.perfbench_work/``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``.  The line before it is run metadata (ungated).
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("horo_sweep", "embed_fans", "cli_cold")
# The timed problems are decided in REPEATS fresh processes.  Throughput is
# over all of them, and each problem's latency is its median, so a slowdown
# that other tenants of the machine cause in one process is averaged over
# the others.  The first process times --seconds / REPEATS and fixes the
# problems the others decide.  A cold CLI call costs ~30 in-process
# decisions, so cli_cold repeats fewer times.
REPEATS = {"horo_sweep": 3, "embed_fans": 3, "cli_cold": 2}
# Set-up is measured in at least this many separate processes per run (the
# measured processes among them); the median is reported.
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 7
WORKER_TIMEOUT_S = 150
# Decisions in a traced run: a fixed number, so traced counts repeat exactly
# for a seed.
TRACE_DECISIONS = {"horo_sweep": 300, "embed_fans": 600, "cli_cold": 16}

LAYER_METRICS = {
    "lattice": ["hnf", "snf", "Lattice", "group_invariants", "fixed_sublattice"],
    "rootdata": ["BasedRootDatum.root_lattice", "based_root_datum"],
    "galoismodule": ["GaloisAction", "module_with_action", "validate_br_character", "br_vanishing_test"],
    "decision": ["center_invariants", "theta_lattice", "kappa_on_invariants", "kappa_ker_on_invariants"],
    "horospherical": ["HorosphericalDatum.stable"],
    "spherical": ["invariants_stable", "omega_action", "aut_character_lattices", "enumerate_lifts"],
    "embeddings": ["fan_stable", "cone_canonicalize"],
    "polyhedra": ["feasible", "extreme_rays", "cone_member", "strictly_convex"],
    "cli": [],
}
SELF_TIMED = {"lattice.hnf", "lattice.snf", "polyhedra.feasible"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Fixed string hashing keeps set iteration, and so traced counts, repeatable.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, seconds, extra=(), trace=0):
    mode = "cli" if args.workload == "cli_cold" else "inproc"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    cmd += list(extra)
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--t-spawn", repr(t_spawn)], capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S, cwd=ROOT, env=child_env(),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker failed with exit code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_seconds():
    """Median (fresh interpreter importing the CLI) minus (bare interpreter start)."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for cmd, out in (("pass", bare), ("import spherical_models.cli", full)):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", cmd], check=True, cwd=ROOT, env=child_env())
            out.append(time.perf_counter() - t)
    return statistics.median(full) - statistics.median(bare)


def end_to_end(runs, setups):
    """Metrics from processes that decided the same problems (ok_frac added later)."""
    per_problem = list(zip(*(r["latencies"] for r in runs)))
    lat = sorted(statistics.median(per) for per in per_problem)
    cuts = statistics.quantiles(lat, n=100, method="inclusive")
    return {
        "decide_per_s": (len(runs) * len(lat) / sum(map(sum, per_problem)), "1/s"),
        "decide_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "decide_p90_ms": (cuts[89] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
    }


def per_layer(traced, plain, import_s):
    spans, counters = traced["spans"], traced["counters"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
    span = lambda name: spans.get(name, empty)  # noqa: E731
    out = {}
    for layer, names in LAYER_METRICS.items():
        out[layer + ".self_s"] = (
            sum(r["self_s"] for n, r in spans.items() if n.startswith(layer + ".")), "s")
        for name in names:
            full = "%s.%s" % (layer, name)
            short = "%s.%s" % (layer, name.split(".")[-1])
            out[short + ".calls"] = (span(full)["calls"], "count")
            if full in SELF_TIMED:
                out[short + ".self_s"] = (span(full)["self_s"], "s")
    tried = span("embeddings.FanGaloisData.build")["calls"]
    out["polyhedra.feasible.max_s"] = (span("polyhedra.feasible")["max_s"], "s")
    out["decision.center_invariants.per_decision"] = (
        span("decision.center_invariants")["calls"] / len(traced["latencies"]), "ratio")
    out["spherical.lifts_enumerated"] = (counters.get("spherical.lifts_enumerated", 0), "count")
    out["embeddings.lifts_tried"] = (tried, "count")
    out["embeddings.lift_hit_ratio"] = (
        counters.get("embeddings.lift_hits", 0) / tried if tried else 0.0, "ratio")
    out["cli.import_s"] = (import_s, "s")
    out["cli.load_problem.self_s"] = (span("cli.load_problem")["self_s"], "s")
    out["cli.run_decide.self_s"] = (span("cli.run_decide")["self_s"], "s")
    out["cli.serialize_s"] = (span("cli.serialize")["total_s"], "s")
    out["trace.overhead_frac"] = (1.0 - sum(plain["latencies"]) / sum(traced["latencies"]), "frac")
    out["trace.decisions"] = (len(traced["latencies"]), "count")
    return out


def metadata(args, main):
    src_lines = 0
    pkg = os.path.join(SRC, "spherical_models")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                src_lines += sum(1 for _ in f)
    meta = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "src_lines": src_lines,
    }
    if "latencies" in main:
        meta["latency_samples"] = len(main["latencies"])
    if main.get("first_failure"):
        meta["first_failure"] = main["first_failure"]
    return meta


def git_commit():
    """HEAD of the checkout, read from .git without running git; "unknown" if none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "spherical_models", "cli.py")):
        sys.exit("error: no spherical_models sources under %s; run from a source checkout" % SRC)

    if args.trace:
        # Two fresh processes decide the same slice, untraced and traced, so
        # no traced decision meets a problem its process has decided before.
        count = ("--count", str(TRACE_DECISIONS[args.workload]))
        procs = [run_worker(args, args.seconds, count, trace=t) for t in (1, 0)]
        metrics = per_layer(procs[0], procs[1], import_seconds())
    else:
        repeats = REPEATS[args.workload]
        procs = [run_worker(args, args.seconds / repeats)]
        count = str(len(procs[0]["latencies"]))
        procs += [run_worker(args, args.seconds, ("--count", count)) for _ in range(repeats - 1)]
        procs += [run_worker(args, args.seconds, ("--setup-only",)) for _ in range(SETUP_SAMPLES - repeats)]
        metrics = end_to_end(procs[:repeats], [p["setup_s"] for p in procs])
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    if not args.trace:
        metrics["ok_frac"] = (1.0 - failed / attempted, "frac")
    print(json.dumps({"meta": metadata(args, procs[0])}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
