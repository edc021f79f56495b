"""Output checks made apart from the program.

The change report, the retrain set, the ranking metrics and the answer
scores are recomputed here from the benchmark's own name-triple lists.  The
only program code these checks call is ``load_checkpoint`` to read stored
parameters, and ``object_forward`` to encode one object, as the test suite's
ranking oracle does; sets, filters, ranks and aggregates are computed here.
Every function returns a list of problems, empty when the output is right.
"""
from __future__ import annotations

import json
import math

import numpy as np

NameTriple = tuple[str, str, str]

# Candidates whose recomputed score lies within this distance of the true
# entity's score may rank on either side of it: the program sums the three
# terms of |h + r - t| in another order for head queries.
SCORE_TIE_TOL = 1e-9
# Printed metrics carry 4 decimals, printed answer scores 6.
METRIC_PRINT_TOL = 5e-5 + 1e-12
SCORE_PRINT_TOL = 5e-7 + 1e-12


# -- change report -------------------------------------------------------------


def entity_contexts(triples) -> dict[str, tuple]:
    """Induced subgraph on each entity and its one-hop neighbours, by name:
    (vertex set, set of undirected edges, self-loops as 1-sets)."""
    nbrs: dict[str, set[str]] = {}
    incident: dict[str, list[tuple[str, str]]] = {}
    for h, _, t in triples:
        nbrs.setdefault(h, set())
        nbrs.setdefault(t, set())
        if h != t:
            nbrs[h].add(t)
            nbrs[t].add(h)
        incident.setdefault(h, []).append((h, t))
        if t != h:
            incident.setdefault(t, []).append((h, t))
    out = {}
    for e, around in nbrs.items():
        verts = around | {e}
        edges = {frozenset(pair) for v in verts for pair in incident[v]
                 if pair[0] in verts and pair[1] in verts}
        out[e] = (frozenset(verts), frozenset(edges))
    return out


def relation_contexts(triples) -> dict[str, tuple]:
    """Relation paths of length 1 and 2 alongside each relation, by name:
    (path set, set of path pairs that connect a common entity pair)."""
    out_edges: dict[str, list[tuple[str, str]]] = {}
    links: dict[tuple[str, str], set[str]] = {}
    pairs: dict[str, set[tuple[str, str]]] = {}
    for h, r, t in triples:
        out_edges.setdefault(h, []).append((r, t))
        links.setdefault((h, t), set()).add(r)
        pairs.setdefault(r, set()).add((h, t))
    out = {}
    for r, rpairs in pairs.items():
        verts: set[tuple[str, ...]] = set()
        edges: set[frozenset] = set()
        for a, b in rpairs:
            paths = {(r1,) for r1 in links[(a, b)] if r1 != r}
            for r1, c in out_edges[a]:
                for r2 in links.get((c, b), ()):
                    paths.add((r1, r2))
            verts |= paths
            ordered = sorted(paths)
            for i, p in enumerate(ordered):
                for q in ordered[i + 1:]:
                    edges.add(frozenset((p, q)))
        out[r] = (frozenset(verts), frozenset(edges))
    return out


def expected_diff(old: tuple[NameTriple, ...], new: tuple[NameTriple, ...]) -> dict:
    """The change report that the context definitions give, by brute force."""
    old_set, new_set = set(old), set(new)
    old_e = {x for h, _, t in old for x in (h, t)}
    new_e = {x for h, _, t in new for x in (h, t)}
    old_r = {r for _, r, _ in old}
    new_r = {r for _, r, _ in new}
    changed: set[tuple[str, str]] = set()
    for kind, build in (("entity", entity_contexts), ("relation", relation_contexts)):
        before, after = build(old), build(new)
        changed |= {(kind, name) for name, ctx in after.items()
                    if name in before and before[name] != ctx}
    flag_e = (new_e - old_e) | {n for k, n in changed if k == "entity"}
    flag_r = (new_r - old_r) | {n for k, n in changed if k == "relation"}
    retrain = {t for t in new_set if t[0] in flag_e or t[2] in flag_e or t[1] in flag_r}
    return {
        "added": new_set - old_set, "deleted": old_set - new_set,
        "emerging_entities": new_e - old_e, "emerging_relations": new_r - old_r,
        "removed_entities": old_e - new_e, "removed_relations": old_r - new_r,
        "changed": changed, "retrain": retrain,
    }


def check_diff(stdout: str, want: dict) -> list[str]:
    lines = stdout.splitlines()
    if not lines:
        return ["diff printed nothing"]
    counts = dict(field.split("=", 1) for field in lines[0].split())
    expect_counts = {
        "added_triples": len(want["added"]), "deleted_triples": len(want["deleted"]),
        "emerging_entities": len(want["emerging_entities"]),
        "emerging_relations": len(want["emerging_relations"]),
        "removed_entities": len(want["removed_entities"]),
        "removed_relations": len(want["removed_relations"]),
        "changed_context": len(want["changed"]),
        "retrain_triples": len(want["retrain"]),
    }
    problems = [f"diff {key}={counts.get(key)} expected {value}"
                for key, value in expect_counts.items()
                if counts.get(key) != str(value)]
    emerging_e, emerging_r, changed, retrain = set(), set(), set(), set()
    for line in lines[1:]:
        words = line.split()
        if words[:2] == ["emerging", "entity"]:
            emerging_e.add(words[2])
        elif words[:2] == ["emerging", "relation"]:
            emerging_r.add(words[2])
        elif words[0] == "changed":
            changed.add((words[1], words[2]))
        elif words[0] == "retrain":
            retrain.add(tuple(words[1:4]))
    for label, got, key in (("emerging entities", emerging_e, "emerging_entities"),
                            ("emerging relations", emerging_r, "emerging_relations"),
                            ("changed-context objects", changed, "changed"),
                            ("retrain triples", retrain, "retrain")):
        if got != want[key]:
            missing = sorted(want[key] - got)[:3]
            extra = sorted(got - want[key])[:3]
            problems.append(f"diff {label}: missing {missing} extra {extra}")
    return problems


# -- train ---------------------------------------------------------------------


def check_train(report_path, epochs: int) -> list[str]:
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    losses = report.get("epoch_losses", [])
    problems = []
    if report.get("epochs_run") != epochs or len(losses) != epochs:
        problems.append(f"train ran {report.get('epochs_run')} epochs, asked {epochs}")
    if not all(math.isfinite(x) for x in losses):
        problems.append(f"train losses not finite: {losses}")
    elif epochs >= 2 and not losses[-1] < losses[0]:
        problems.append(f"train loss did not fall: {losses[0]} -> {losses[-1]}")
    return problems


# -- update --------------------------------------------------------------------


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_update_parameters(before, after, movable: set[tuple[str, str]]) -> list[str]:
    """Rows of objects outside ``movable`` and every shared weight must come
    through the update bit for bit."""
    problems = []
    for kind, names_b, names_a, tables in (
            ("entity", before.entity_names, after.entity_names,
             (("ent_know", before.ent_know, after.ent_know),
              ("ent_ctx", before.ent_ctx, after.ent_ctx))),
            ("relation", before.relation_names, after.relation_names,
             (("rel_know", before.rel_know, after.rel_know),
              ("rel_ctx", before.rel_ctx, after.rel_ctx)))):
        old_row = {name: i for i, name in enumerate(names_b)}
        frozen = [(old_row[name], i) for i, name in enumerate(names_a)
                  if name in old_row and (kind, name) not in movable]
        if not frozen:
            continue
        rows_b = np.array([b for b, _ in frozen])
        rows_a = np.array([a for _, a in frozen])
        for label, table_b, table_a in tables:
            moved = np.any(table_b[rows_b].view(np.uint64)
                           != table_a[rows_a].view(np.uint64), axis=1)
            if moved.any():
                problems.append(f"update moved {int(moved.sum())} frozen {label} rows")
    for label, xs, ys in (
            ("entity encoder", before.entity_agcn.weights, after.entity_agcn.weights),
            ("relation encoder", before.relation_agcn.weights, after.relation_agcn.weights),
            ("attention", [before.entity_agcn.attention, before.relation_agcn.attention],
             [after.entity_agcn.attention, after.relation_agcn.attention]),
            ("gates", [before.ent_gate_pre, before.rel_gate_pre],
             [after.ent_gate_pre, after.rel_gate_pre])):
        if len(xs) != len(ys) or not all(_same(x, y) for x, y in zip(xs, ys)):
            problems.append(f"update changed the {label}")
    return problems


def triple_scores(store, snapshot, triples, object_forward) -> list[float]:
    """|h* + r* - t*|_1 of each name triple, encoding through object_forward."""
    table = store.context_table(snapshot)
    stars: dict[tuple[str, int], np.ndarray] = {}

    def star(ref):
        if ref not in stars:
            stars[ref] = object_forward(ref, store, table).star
        return stars[ref]

    out = []
    for h, r, t in triples:
        h_id, r_id, t_id = (snapshot.entity_ids[h], snapshot.relation_ids[r],
                            snapshot.entity_ids[t])
        out.append(float(np.abs(star(("entity", h_id)) + star(("relation", r_id))
                                - star(("entity", t_id))).sum()))
    return out


def check_update_scores(before, after, old_snap, new_snap, triples,
                        object_forward) -> list[str]:
    """Triples outside the retrain set keep their exact score."""
    s_old = triple_scores(before, old_snap, triples, object_forward)
    s_new = triple_scores(after, new_snap, triples, object_forward)
    moved = sum(1 for a, b in zip(s_old, s_new) if a != b)
    if moved:
        return [f"update moved the score of {moved} of {len(triples)} "
                f"triples outside the retrain set"]
    return []


def check_update_report(stdout: str, retrain_count: int) -> list[str]:
    last = stdout.splitlines()[-1] if stdout else ""
    fields = dict(f.split("=", 1) for f in last.split() if "=" in f)
    if fields.get("retrained_triples") != str(retrain_count):
        return [f"update retrained_triples={fields.get('retrained_triples')} "
                f"expected {retrain_count}"]
    return []


# -- eval and answer -------------------------------------------------------------


class Encoded:
    """Joint embeddings of every entity and relation of one snapshot under
    one checkpoint, each encoded on its own through object_forward."""

    def __init__(self, store, snapshot, object_forward):
        table = store.context_table(snapshot)
        self.snapshot = snapshot
        self.entities = np.vstack([
            object_forward(("entity", e), store, table).star
            for e in range(snapshot.num_entities)])
        self.relations = np.vstack([
            object_forward(("relation", r), store, table).star
            for r in range(snapshot.num_relations)])


def _rank_bounds(scores: np.ndarray, true_id: int, excluded: set[int]) -> tuple[int, int]:
    """Optimistic rank of the true entity, lowest and highest, when
    candidates within SCORE_TIE_TOL of its score may go either way."""
    keep = np.ones(scores.shape[0], dtype=bool)
    keep[list(excluded)] = False
    keep[true_id] = False
    s = scores[true_id]
    tol = SCORE_TIE_TOL * max(1.0, abs(s))
    others = scores[keep]
    return 1 + int((others < s - tol).sum()), 1 + int((others < s + tol).sum())


def check_eval(stdout: str, enc: Encoded, train: tuple[NameTriple, ...],
               test: tuple[NameTriple, ...], ks=(1, 3, 10)) -> list[str]:
    snap = enc.snapshot
    e_id, r_id = snap.entity_ids, snap.relation_ids
    tails: dict[tuple[str, str], set[int]] = {}
    heads: dict[tuple[str, str], set[int]] = {}
    for h, r, t in train:
        tails.setdefault((h, r), set()).add(e_id[t])
        heads.setdefault((r, t), set()).add(e_id[h])
    lows, highs = [], []
    ent = enc.entities
    for h, r, t in test:
        hv, rv, tv = ent[e_id[h]], enc.relations[r_id[r]], ent[e_id[t]]
        tail_scores = np.abs((hv + rv)[None, :] - ent).sum(axis=1)
        head_scores = np.abs(ent + rv[None, :] - tv[None, :]).sum(axis=1)
        for scores, true_id, known in ((head_scores, e_id[h], heads[(r, t)]),
                                       (tail_scores, e_id[t], tails[(h, r)])):
            lo, hi = _rank_bounds(scores, true_id, known)
            lows.append(lo)
            highs.append(hi)
    lo, hi = np.array(lows, dtype=float), np.array(highs, dtype=float)
    want = {"mr": (lo.mean(), hi.mean()),
            "mrr": ((1.0 / hi).mean(), (1.0 / lo).mean())}
    for k in ks:
        want[f"hits{k}"] = ((hi <= k).mean(), (lo <= k).mean())
    line = stdout.splitlines()[-1] if stdout else ""
    got = dict(f.split("=", 1) for f in line.split() if "=" in f)
    problems = []
    if got.get("queries") != str(len(lows)) or got.get("skipped") != "0":
        problems.append(f"eval queries={got.get('queries')} skipped={got.get('skipped')}, "
                        f"expected {len(lows)} and 0")
    for key, (low, high) in want.items():
        try:
            value = float(got[key])
        except (KeyError, ValueError):
            problems.append(f"eval printed no {key}")
            continue
        if not low - METRIC_PRINT_TOL <= value <= high + METRIC_PRINT_TOL:
            problems.append(f"eval {key}={value} outside [{low:.6f}, {high:.6f}]")
    return problems


def check_answer(stdout: str, enc: Encoded, head: str, relation: str,
                 k: int) -> list[str]:
    snap = enc.snapshot
    base = enc.entities[snap.entity_ids[head]] + enc.relations[snap.relation_ids[relation]]
    scores = np.abs(base[None, :] - enc.entities).sum(axis=1)
    rows = [line.split() for line in stdout.splitlines()]
    want_rows = min(k, snap.num_entities)
    if len(rows) != want_rows or any(len(row) != 3 for row in rows):
        return [f"answer printed {len(rows)} rows, expected {want_rows}"]
    problems = []
    printed = [float(row[2]) for row in rows]
    if [row[0] for row in rows] != [str(i) for i in range(1, want_rows + 1)]:
        problems.append("answer ranks are not 1..k")
    if any(b < a for a, b in zip(printed, printed[1:])):
        problems.append("answer scores are not ascending")
    listed = set()
    for (_, name, _), value in zip(rows, printed):
        e = snap.entity_ids.get(name)
        if e is None:
            problems.append(f"answer lists unknown entity {name}")
            continue
        listed.add(e)
        if abs(scores[e] - value) > SCORE_PRINT_TOL + SCORE_TIE_TOL * abs(value):
            problems.append(f"answer score of {name} is {value}, recomputed {scores[e]:.9f}")
    kth = max(printed)
    below = [e for e in np.flatnonzero(scores < kth - SCORE_PRINT_TOL) if e not in listed]
    if below:
        problems.append(f"answer left out {len(below)} entities scoring below the k-th")
    return problems
