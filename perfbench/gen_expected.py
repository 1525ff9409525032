"""Write the benchmark's tables and expected verdicts (run once per corpus change).

    PYTHONPATH=src python3 perfbench/gen_expected.py

Writes ``perfbench/tables.json`` (diagram actions and nonzero Brauer
characters per type, split by validity per mode) and
``perfbench/expected/{horo_sweep,embed_fans,cli_cold}.json``.  For every
corpus index it decides the problem in-process and records the exit code
only (0 exists, 1 does not, 2 input error), never the reasons, so a change
to the reason payload does not invalidate the record.  It also records a
cost class (the decision time on the recording machine, in steps of
sqrt(2)); runs stratify on it so that every seed draws the same mix of
cheap and expensive problems.  Filters:

* a problem whose canonical form (HNF of M, canonical fan) repeats an
  earlier index is marked "-" and never used;
* in ``embed_fans`` every input error is marked "-", so only valid colored
  fans (checked strictly convex, relative interior meeting the valuation
  cone, face-closed by construction) remain.

Cross-checks made while recording, against routes the engine already has:
the tabulated shortcuts ``*1``-``*5`` against the generic kernel-preimage
test for every local and per-site horospherical decision they cover, and
the kernel-route cross-check inside ``decide_embedding`` (which raises on
disagreement).
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import corpus  # noqa: E402

# Worker processes that decide the corpus; each holds a full engine.
JOBS = 2


def build_tables():
    from spherical_models import TitsClassSpec, all_characters, based_root_datum
    from spherical_models import diagram_automorphism_group, galois_from_permutations
    from spherical_models.decision import center_invariants, resolve_local_character
    from spherical_models.galoismodule import GaloisAction

    out = {}
    for label in corpus.HORO_TYPES:
        rd = based_root_datum(label)
        autos = diagram_automorphism_group(rd.type)
        actions = [("trivial", [])]
        actions += [("cyclic2", [a]) for a in autos if a.order() == 2]
        actions += [("cyclic3", [a]) for a in autos if a.order() == 3]
        if len(autos) == 6:
            three = next(a for a in autos if a.order() == 3)
            two = next(a for a in autos if a.order() == 2)
            actions.append(("s3", [three, two]))
        entry = {"rank": rd.rank, "actions": [], "chars": []}
        for group, gens in actions:
            galois = (
                GaloisAction.trivial(rd.rank)
                if group == "trivial"
                else galois_from_permutations(rd, gens, group_name=group)
            )
            _, inv, _ = center_invariants(rd, galois)
            chars = {}
            for mode in corpus.MODES:
                chars[mode], chars["invalid_" + mode] = [], []
                for ch in all_characters(inv):
                    if ch.is_zero():
                        continue
                    values = [_frac(v) for v in ch.values]
                    try:
                        resolve_local_character(rd, galois, TitsClassSpec.from_values(values), mode)
                        chars[mode].append(values)
                    except ValueError:
                        chars["invalid_" + mode].append(values)
            entry["actions"].append({"group": group, "gens": [list(a.one_line()) for a in gens]})
            entry["chars"].append(chars)
        out[label] = entry
    return {"types": out}


def _frac(v):
    v = Fraction(v)
    return "%d/%d" % (v.numerator, v.denominator) if v.denominator != 1 else str(v.numerator)


def _shortcut_crosscheck(rd, galois, tits, mode, m_lattice):
    """Tabulated shortcut vs the generic kernel-preimage test; 1 if compared."""
    from spherical_models.decision import (
        _horospherical_fast_path,
        resolve_local_character,
        theta_lattice,
    )
    from spherical_models.lattice import fixed_sublattice

    mod, inv, incl, t0 = resolve_local_character(rd, galois, tits, mode)
    if t0.is_zero():
        return 0
    generic = theta_lattice(rd, galois, t0)[2].contains(
        fixed_sublattice(m_lattice, list(galois.matrices))
    )
    fast = _horospherical_fast_path(rd, galois, t0, m_lattice, mod, inv, incl)
    if fast is None:
        return 0
    if fast[1] != generic:
        raise AssertionError("shortcut %s disagrees with the generic test" % fast[0])
    return 1


def cost_class(seconds):
    """One letter per factor sqrt(2) of decision time, from "a" (<= 0.14 ms)."""
    c = int(2 * math.log2(max(seconds, 1e-4) / 1e-4))
    return chr(ord("a") + min(c, 25))


def decide_one(workload, k):
    """(code, cost class, dedupe key, cross-checks made) for corpus index k."""
    from spherical_models import cli
    from spherical_models.decision import NUMBER_FIELD, TitsClassSpec

    doc = corpus.problem(workload, k)
    path = "%s[%d]" % (workload, k)
    t = time.perf_counter()
    try:
        verdict = cli.run_decide(doc, path)
    except cli.ProblemError:
        cost = cost_class(time.perf_counter() - t)
        return corpus.INPUT_ERROR, cost, json.dumps(doc, sort_keys=True), 0
    cost = cost_class(time.perf_counter() - t)
    code = corpus.EXISTS if verdict.exists else corpus.NOT_EXISTS
    checks = 0
    key_doc = dict(doc)
    rd, galois, field, tits = cli._build_common(doc, path)
    if doc["kind"] == "horospherical":
        datum = cli._build_payload(doc, rd, "horospherical", path)
        key_doc["M"] = datum.M.basis.data
        if datum.stable(galois):
            if field.mode == NUMBER_FIELD:
                for site in field.sites:
                    if site.t0_values is not None:
                        checks += _shortcut_crosscheck(
                            rd, site.galois, TitsClassSpec.from_values(site.t0_values),
                            site.mode, datum.M,
                        )
            else:
                checks += _shortcut_crosscheck(rd, galois, tits, field.mode, datum.M)
    elif doc["kind"] == "embedding":
        _, fan = cli._build_payload(doc, rd, "embedding", path)
        key_doc["fan"] = sorted(json.dumps(c, sort_keys=True) for c in fan.to_dict())
        coh = [r for r in verdict.reasons if r["condition"] == "cohomology"]
        checks += int(bool(coh) and coh[0].get("crosscheck") == "kernel-route-agrees")
    return code, cost, json.dumps(key_doc, sort_keys=True), checks


def _decide_range(args):
    workload, start, stop = args
    return [decide_one(workload, k) for k in range(start, stop)]


def corpus_digest(workload, count):
    h = hashlib.sha256()
    for k in range(count):
        h.update(json.dumps(corpus.problem(workload, k), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def record(workload, count):
    chunk = 400
    ranges = [(workload, s, min(s + chunk, count)) for s in range(0, count, chunk)]
    t = time.perf_counter()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(JOBS) as pool:
        results = [r for part in pool.map(_decide_range, ranges) for r in part]
    seen, codes, costs, checks = set(), [], [], 0
    for code, cost, key, n in results:
        costs.append(cost)
        if key in seen or (workload == "embed_fans" and code == corpus.INPUT_ERROR):
            codes.append(corpus.SKIP)
            continue
        seen.add(key)
        codes.append(code)
        checks += n
    doc = {
        "workload": workload,
        "count": count,
        "corpus_sha256": corpus_digest(workload, count),
        "crosschecks": checks,
        "tally": {c: codes.count(c) for c in sorted(set(codes))},
        "codes": "".join(codes),
        "costs": "".join(costs),
    }
    with open(os.path.join(HERE, "expected", workload + ".json"), "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=0)
        f.write("\n")
    print("%s: %d problems in %.1f s, tally %s, %d cross-checks"
          % (workload, count, time.perf_counter() - t, doc["tally"], checks))


def record_demos():
    from spherical_models import cli

    demos = {}
    demo_dir = os.path.join(ROOT, "demos", "problems")
    for name in sorted(os.listdir(demo_dir)):
        path = os.path.join(demo_dir, name)
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        try:
            doc, _ = cli.load_problem(path)
            code = corpus.EXISTS if cli.run_decide(doc, path).exists else corpus.NOT_EXISTS
        except cli.ProblemError:
            code = corpus.INPUT_ERROR
        demos[name] = {"code": code, "sha256": digest}
    with open(os.path.join(HERE, "expected", "cli_cold.json"), "w", encoding="utf-8") as f:
        json.dump({"demos": demos}, f, indent=1, sort_keys=True)
        f.write("\n")
    print("cli_cold demos: %s" % {k: v["code"] for k, v in demos.items()})


def main():
    # Every corpus is built from tables.json, so all are recorded together.
    with open(os.path.join(HERE, "tables.json"), "w", encoding="utf-8") as f:
        json.dump(build_tables(), f, sort_keys=True)
        f.write("\n")
    corpus.tables.cache_clear()
    for workload in sorted(corpus.CORPUS_SIZE):
        record(workload, corpus.CORPUS_SIZE[workload])
    record_demos()


if __name__ == "__main__":
    main()
