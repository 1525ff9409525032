"""Seeded problem corpora for the decision benchmark.

Problem ``k`` of a workload is a pure function of ``(workload, k)`` and of
``tables.json`` (the diagram actions and Brauer characters per simple type,
written once by ``gen_expected.py``).  Nothing here imports the engine, so a
change to the engine cannot change the problems it is asked to decide; the
expected verdicts recorded in ``expected/<workload>.json`` stay valid.

Each index belongs to a stratum (``k % len(strata)``) that fixes its type
and kind.  A run interleaves classes of problems in proportion to their
sizes, so any prefix of a run has the same mix whatever the seed.  The seed
only picks which problems of each class are used and in which order.
"""

from __future__ import annotations

import functools
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))

# Verdict codes stored per index: the exit code of `sphmodels decide`, or
# "-" for an index the generator filtered out (duplicate or invalid fan).
EXISTS, NOT_EXISTS, INPUT_ERROR, SKIP = "0", "1", "2", "-"

RANK8_TYPES = (
    ["A%d" % n for n in range(1, 9)]
    + ["B%d" % n for n in range(2, 9)]
    + ["C%d" % n for n in range(3, 9)]
    + ["D%d" % n for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
LARGE_TYPES = ["A%d" % n for n in range(9, 17)] + ["D%d" % n for n in range(9, 17)]
HORO_TYPES = RANK8_TYPES + LARGE_TYPES

MODES = ("real", "padic")
SL6_COLORS = ("D1+", "D1-", "D5+", "D5-", "D2", "D4")
SL6_FLIP = {"group": "cyclic2", "generators": [[5, 4, 3, 2, 1]]}
MAX_DUAL_DIM = 6
MAX_CONE_GENERATORS = 8

# Horospherical sweep: every type with each of the three kinds of problem.
HORO_STRATA = [(t, kind) for t in HORO_TYPES for kind in ("local", "gu", "number_field")]
# Embeddings: the sl6 datum carries the two-colour fibers and the lift
# search; the horospherical-derived data cover every type of rank <= 8 with
# a many-cone fan, with one cone that has more generators than dimensions
# (the Fourier-Motzkin work, so it gets twice the strata), and as a bare
# open orbit.
EMBED_STRATA = (
    [("sl6", None)] * 24
    + [("horo_fan", t) for t in RANK8_TYPES]
    + [("horo_cone", t) for t in RANK8_TYPES] * 2
    + [("horo_spherical", t) for t in RANK8_TYPES]
)
CORPUS_SIZE = {"horo_sweep": 43200, "embed_fans": 45600}


def strata(workload):
    return HORO_STRATA if workload == "horo_sweep" else EMBED_STRATA


@functools.lru_cache(maxsize=None)
def tables():
    with open(os.path.join(HERE, "tables.json"), encoding="utf-8") as f:
        return json.load(f)


def load_expected(workload):
    with open(os.path.join(HERE, "expected", workload + ".json"), encoding="utf-8") as f:
        return json.load(f)


# -- permutation helpers (0-based nodes; star action permutes coordinates) --


def _perm(one_line):
    return tuple(i - 1 for i in one_line)


def _group_elements(gens, n):
    """All elements of the group generated by node permutations."""
    ident = tuple(range(n))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[i]] for i in range(n))
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(elems)


def _act(v, p):
    """Row vector times the star-action matrix of ``p``: coordinate i moves to p[i]."""
    out = [0] * len(v)
    for i, x in enumerate(v):
        out[p[i]] = x
    return out


def _orbits(gens, n):
    seen, out = set(), []
    for i in range(n):
        if i in seen:
            continue
        orb, todo = {i}, [i]
        while todo:
            j = todo.pop()
            for g in gens:
                if g[j] not in orb:
                    orb.add(g[j])
                    todo.append(g[j])
        out.append(tuple(sorted(orb)))
        seen |= orb
    return out


def _galois_doc(action):
    if action["group"] == "trivial":
        return "trivial"
    return {"group": action["group"], "generators": [list(g) for g in action["gens"]]}


def _character(rng, entry, mode, p_zero, p_invalid):
    """A Tits character spec: zero, a valid nonzero one, or an invalid one."""
    valid, invalid = entry[mode], entry["invalid_" + mode]
    u = rng.random()
    if u < p_zero or not (valid or invalid):
        return "zero"
    if (u < p_zero + p_invalid and invalid) or not valid:
        return {"values": list(rng.choice(invalid))}
    return {"values": list(rng.choice(valid))}


# -- horospherical sweep -----------------------------------------------------


def _random_stable_m(rng, n, elems, orbits):
    """Node set I and rows of a Galois-stable M orthogonal to I.

    Built like acceptance criterion 07: whole node orbits join I, and each
    random vector (zero on I) is added with all its Galois images.
    """
    if rng.random() < 0.15:
        return [], [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    nodes = set()
    for orb in orbits:
        if rng.random() < 0.35:
            nodes |= set(orb)
    rows = []
    for _ in range(rng.randint(1, 3)):
        v = [0 if j in nodes else rng.randint(-3, 3) for j in range(n)]
        for p in elems:
            rows.append(_act(v, p))
    return sorted(i + 1 for i in nodes), rows


def horo_problem(k):
    label, kind = HORO_STRATA[k % len(HORO_STRATA)]
    rng = random.Random("horo_sweep:%d" % k)
    entry = tables()["types"][label]
    n = entry["rank"]
    a_idx = rng.randrange(len(entry["actions"]))
    action = entry["actions"][a_idx]
    gens = [_perm(g) for g in action["gens"]]
    elems = _group_elements(gens, n)
    doc = {"version": 1, "kind": "horospherical", "root_datum": label, "galois": _galois_doc(action)}
    if kind == "gu":
        mode = rng.choice(MODES)
        doc["kind"] = "gu"
        doc["field"] = {"mode": mode}
        doc["tits"] = _character(rng, entry["chars"][a_idx], mode, 0.3, 0.05)
        return doc
    nodes, rows = _random_stable_m(rng, n, elems, _orbits(gens, n))
    if kind == "local":
        mode = rng.choice(MODES)
        doc["field"] = {"mode": mode}
        doc["tits"] = _character(rng, entry["chars"][a_idx], mode, 0.15, 0.05)
    else:
        sites = []
        for s in range(rng.choice((2, 3))):
            mode = rng.choice(MODES)
            s_idx = a_idx if rng.random() < 0.6 else 0
            tits = _character(rng, entry["chars"][s_idx], mode, 0.25, 0.03)
            sites.append({
                "label": "v%d" % s,
                "mode": mode,
                "galois": _galois_doc(entry["actions"][s_idx]),
                "t0": "trivial" if tits == "zero" else tits["values"],
            })
        doc["field"] = {"mode": "number_field", "sites": sites}
    doc["I"] = nodes
    doc["M"] = rows
    return doc


# -- colored fans ------------------------------------------------------------


def _sl6_problem(rng):
    galois = SL6_FLIP if rng.random() < 0.6 else "trivial"
    a_idx = 1 if galois != "trivial" else 0
    mode = rng.choice(MODES)
    u = rng.random()
    if u < 0.35 and mode == "real":
        tits = {"catalog": "SU(%d,%d)" % rng.choice([(6, 0), (5, 1), (4, 2), (3, 3)])}
    else:
        tits = _character(rng, tables()["types"]["A5"]["chars"][a_idx], mode, 0.3, 0.0)
    # Rays lie in the valuation cone {v0 <= 0, v2 <= 0}; colors are adjoined.
    box = [(a, b, c) for a in range(-2, 1) for b in range(-2, 3) for c in range(-2, 1) if (a, b, c) != (0, 0, 0)]
    rays = rng.sample(box, rng.choice((1, 1, 2)))
    colors = rng.sample(SL6_COLORS, rng.choice((0, 1, 2, 2, 3)))
    if galois != "trivial" and rng.random() < 0.7:
        # close the cone under the flip (v0 <-> v2, D1x <-> D5x, D2 <-> D4)
        swap = {"D1+": "D5+", "D1-": "D5-", "D5+": "D1+", "D5-": "D1-", "D2": "D4", "D4": "D2"}
        rays = sorted(set(rays) | {(c, b, a) for a, b, c in rays})
        colors = sorted(set(colors) | {swap[c] for c in colors})
    return {
        "version": 1,
        "kind": "embedding",
        "root_datum": "A5",
        "galois": galois,
        "field": {"mode": mode},
        "tits": tits,
        "X": [[2, -1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, -1, 2]],
        "sigma": [[2, -1, 0, 0, 0], [0, 0, 0, -1, 2]],
        "colors": [
            {"id": "D1+", "rho": ["1", "0", "0"], "sigma_set": [1]},
            {"id": "D1-", "rho": ["1", "0", "0"], "sigma_set": [1]},
            {"id": "D5+", "rho": ["0", "0", "1"], "sigma_set": [5]},
            {"id": "D5-", "rho": ["0", "0", "1"], "sigma_set": [5]},
            {"id": "D2", "rho": ["-1", "0", "0"], "sigma_set": [2]},
            {"id": "D4", "rho": ["0", "0", "-1"], "sigma_set": [4]},
        ],
        "fan": [{"generators": [list(r) for r in rays], "colors": sorted(colors)}],
        "check_valuation_cone": True,
        "quasi_projective": True,
    }


def _orbit_lattice(rng, n, gens, orbits):
    """Rows of a Galois-stable orbit lattice X orthogonal to I, and I.

    Each node orbit either joins I, is left out, or contributes rows: every
    coordinate scaled by d, the orbit sum, or (for a swapped pair) the sum
    and the difference.  The action then permutes the rows up to sign, so
    its contragredient on the dual space is the same signed permutation.
    """
    rows, nodes = [], set()
    for orb in orbits:
        u = rng.random()
        if u < 0.25:
            nodes |= set(orb)
            continue
        if u < 0.45:
            continue
        styles = ["diag", "sum"] + (["pm"] if len(orb) == 2 else [])
        style = rng.choice(styles)
        if style == "diag":
            d = rng.choice((1, 1, 2))
            new = [[d if j == i else 0 for j in range(n)] for i in orb]
        elif style == "sum":
            new = [[1 if j in orb else 0 for j in range(n)]]
        else:
            a, b = orb
            new = [[1 if j in orb else 0 for j in range(n)],
                   [1 if j == a else -1 if j == b else 0 for j in range(n)]]
        if len(rows) + len(new) <= MAX_DUAL_DIM:
            rows += new
    if not rows:
        free = [orb for orb in orbits if not set(orb) & nodes]
        orb = free[0] if free else orbits[0]
        nodes -= set(orb)
        rows = [[1 if j in orb else 0 for j in range(n)]]
    if gens and rng.random() < 0.15:
        # deliberately unstable: one coordinate of a moved orbit on its own
        moved = [orb for orb in orbits if len(orb) > 1 and not set(orb) & nodes]
        if moved and len(rows) < MAX_DUAL_DIM:
            rows.append([1 if j == moved[0][0] else 0 for j in range(n)])
            if any(r == rows[-1] for r in rows[:-1]) or _dependent(rows):
                rows.pop()
    return sorted(nodes), rows


def _dependent(rows):
    """Rational rank test: True if the rows are linearly dependent."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank, cols = 0, len(m[0])
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank < len(rows)


def _signed_row_action(rows, p):
    """For each row index, (image row index, sign), or None if X is not stable."""
    out = []
    for r in rows:
        img = _act(r, p)
        hit = None
        for k, s in enumerate(rows):
            if s == img:
                hit = (k, 1)
            elif [-x for x in s] == img:
                hit = (k, -1)
            if hit:
                break
        if hit is None:
            return None
        out.append(hit)
    return out


def _in_orthant_cone(rho, cone):
    """Is rho in the cone spanned by the signed basis vectors of ``cone``?"""
    return any(rho) and all(x == 0 or (k, 1 if x > 0 else -1) in cone for k, x in enumerate(rho))


def _orthant_fan(rng, rows, colors, actions, perms):
    """Maximal cones spanned by signed dual basis vectors, with colors.

    Cones of signed subsets of one basis meet in the cone of the common
    subset, which is a face of both, and every cone takes exactly the chosen
    colors whose functional it contains; so the fan is face-closed and two
    cones never carry different colors on a common face.
    """
    r = len(rows)
    chosen = [c for c in colors if any(c["rho_int"]) and rng.random() < 0.5]
    cones = set()
    for _ in range(rng.choice((1, 1, 2, 3))):
        coords = rng.sample(range(r), rng.randint(1, min(r, 4)))
        cones.add(frozenset((k, rng.choice((1, -1))) for k in coords))
    if actions and rng.random() < 0.75:
        todo = list(cones)
        while todo:
            cone = todo.pop()
            for act in actions:
                img = frozenset((act[k][0], s * act[k][1]) for k, s in cone)
                if img not in cones:
                    cones.add(img)
                    todo.append(img)
        by_node = {c["node"]: c for c in colors}
        closed = set(c["id"] for c in chosen)
        for c in chosen:
            for p in perms:
                img = by_node.get(p[c["node"] - 1] + 1)
                if img is not None and any(img["rho_int"]):
                    closed.add(img["id"])
        chosen = [c for c in colors if c["id"] in closed]
    maximal = [c for c in cones if not any(c < d for d in cones)]
    out = []
    for cone in sorted(maximal, key=lambda c: sorted(c)):
        cols = [c for c in chosen if _in_orthant_cone(c["rho_int"], cone)]
        while len(cone) + len(cols) > MAX_CONE_GENERATORS:
            chosen.remove(cols.pop())
        out.append(cone)
    fan = []
    for cone in out:
        gens = []
        for k, s in sorted(cone):
            gens.append([s if j == k else 0 for j in range(r)])
        fan.append({
            "generators": gens,
            "colors": sorted(c["id"] for c in chosen if _in_orthant_cone(c["rho_int"], cone)),
        })
    return fan


def _single_cone_fan(rng, rows, colors, actions, perms):
    """One maximal colored cone with more generators than dimensions.

    Rays and color functionals are drawn on the positive side of a random
    functional, so the cone is strictly convex; with a stable orbit lattice
    it is usually closed under the action (which may break convexity, and
    the generator then drops the problem).  A single maximal cone is a
    face-closed fan.
    """
    r = len(rows)
    f = [rng.randint(1, 3) for _ in range(r)]
    positive = [c for c in colors if sum(a * b for a, b in zip(f, c["rho_int"])) > 0]
    chosen = rng.sample(positive, min(len(positive), rng.randint(0, 3)))
    rays = set()
    low = min(r + 2, MAX_CONE_GENERATORS) - len(chosen)
    for _ in range(rng.randint(max(2, low), MAX_CONE_GENERATORS - len(chosen))):
        while True:
            v = tuple(rng.randint(-2, 2) for _ in range(r))
            if sum(a * b for a, b in zip(f, v)) > 0:
                break
        rays.add(v)
    if actions and rng.random() < 0.6:
        by_node = {c["node"]: c for c in colors}
        closed_rays = {tuple(s * v[k] for k, s in _dual_image(act)) for act in actions for v in rays}
        closed_colors = {
            by_node[p[c["node"] - 1] + 1]["id"]
            for p in perms
            for c in chosen
            if p[c["node"] - 1] + 1 in by_node
        }
        if len(closed_rays) + len(closed_colors) <= MAX_CONE_GENERATORS:
            rays = closed_rays
            chosen = [c for c in colors if c["id"] in closed_colors]
    return [{"generators": [list(v) for v in sorted(rays)], "colors": sorted(c["id"] for c in chosen)}]


def _dual_image(act):
    """Coordinate k of the image comes from coordinate src with sign s: [(src, s)]."""
    inv = [None] * len(act)
    for k, (k2, s) in enumerate(act):
        inv[k2] = (k, s)
    return inv


def _horo_datum_problem(rng, label, fan_style):
    entry = tables()["types"][label]
    n = entry["rank"]
    a_idx = rng.randrange(len(entry["actions"]))
    action = entry["actions"][a_idx]
    gens = [_perm(g) for g in action["gens"]]
    nodes, rows = _orbit_lattice(rng, n, gens, _orbits(gens, n))
    colors = []
    for i in range(1, n + 1):
        if i in nodes:
            continue
        rho = [r[i - 1] for r in rows]
        colors.append({"id": "D(a%d)" % i, "node": i, "rho_int": rho})
    mode = rng.choice(MODES)
    doc = {
        "version": 1,
        "kind": "spherical",
        "root_datum": label,
        "galois": _galois_doc(action),
        "field": {"mode": mode},
        "tits": _character(rng, entry["chars"][a_idx], mode, 0.3, 0.0),
        "X": rows,
        "sigma": [],
        "colors": [
            {"id": c["id"], "rho": [str(x) for x in c["rho_int"]], "sigma_set": [c["node"]]}
            for c in colors
        ],
    }
    if fan_style:
        # group elements with their signed action on the rows; none if X is unstable
        perms = _group_elements(gens, n)
        actions = [_signed_row_action(rows, p) for p in perms]
        if any(a is None for a in actions):
            perms, actions = [], []
        doc["kind"] = "embedding"
        make_fan = _orthant_fan if fan_style == "orthant" else _single_cone_fan
        doc["fan"] = make_fan(rng, rows, colors, actions, perms)
    return doc


def embed_problem(k):
    family, label = EMBED_STRATA[k % len(EMBED_STRATA)]
    rng = random.Random("embed_fans:%d" % k)
    if family == "sl6":
        return _sl6_problem(rng)
    fan_style = {"horo_fan": "orthant", "horo_cone": "cone"}.get(family)
    return _horo_datum_problem(rng, label, fan_style)


def problem(workload, k):
    return horo_problem(k) if workload == "horo_sweep" else embed_problem(k)


# -- run order ---------------------------------------------------------------


def run_order(workload, seed, expected):
    """(warm-up, timed) indices: the seed's walk over the corpus.

    The warm-up slice is the first usable problem of every simple type, the
    same for every seed, so set-up does the same work in every run.  The
    timed list interleaves classes of (problem family, recorded cost class)
    in proportion to their sizes (class c's j-th index sits at (j + 1/2) /
    n_c), so a prefix of any length holds the same number of problems of
    each class for every seed, and the corpus's mix of families and of cheap
    and expensive problems however fast the program gets through it.  The
    seed picks which problems of a class fill those places.  No index is
    used twice; filtered indices are never used.
    """
    rng = random.Random("order:%s:%d" % (workload, seed))
    table = strata(workload)
    if workload == "horo_sweep":
        type_of, family = (lambda s: s[0]), (lambda s: s[1])
    else:
        type_of, family = (lambda s: s[1] or "A5"), (lambda s: s[0])
    warmup, classes = {}, {}
    for k, (code, cost) in enumerate(zip(expected["codes"], expected["costs"])):
        if code == SKIP:
            continue
        stratum = table[k % len(table)]
        if type_of(stratum) not in warmup:
            warmup[type_of(stratum)] = k
            continue
        classes.setdefault((family(stratum), cost), []).append(k)
    keyed = []
    for key in sorted(classes):
        lst = classes[key]
        rng.shuffle(lst)
        keyed += [((j + 0.5) / len(lst), key, k) for j, k in enumerate(lst)]
    keyed.sort()
    return sorted(warmup.values()), [k for _, _, k in keyed]


def cli_order(seed, horo_codes, embed_codes, demo_names):
    """(warm-up, timed) files for the cold CLI workload.

    The warm-up is the first usable problem of each corpus, for every seed.
    The timed list holds every demo once, then corpus problems alternating
    between the two corpora.  Entries are (source, key) with source "demo",
    "horo_sweep" or "embed_fans".
    """
    rng = random.Random("order:cli_cold:%d" % seed)
    demos = [("demo", name) for name in sorted(demo_names)]
    rng.shuffle(demos)
    horo = [k for k, c in enumerate(horo_codes) if c != SKIP]
    embed = [k for k, c in enumerate(embed_codes) if c != SKIP]
    warmup = [("horo_sweep", horo.pop(0)), ("embed_fans", embed.pop(0))]
    rng.shuffle(horo)
    rng.shuffle(embed)
    mixed = []
    for h, e in zip(horo[:4000], embed[:4000]):
        mixed += [("horo_sweep", h), ("embed_fans", e)]
    return warmup, demos + mixed
