"""Seeded input generators for the three benchmark workloads.

Every generator takes the run's seed and returns a ``Workload``: a chain of
snapshots (step 0 is trained from scratch, each later step is an online
update of the one before), a test set per step, the answer queries, and the
flags the commands run with.  The same seed always gives the same inputs.
Nothing here imports the package under test, so an edit to the program or to
its tests cannot change what the benchmark feeds it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NameTriple = tuple[str, str, str]

# the same for every workload
CAP = 35            # the program's default context cap
MODEL_SEED = 0
LEARNING_RATE = 0.01
MARGIN = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[tuple[NameTriple, ...], ...]   # train triples of each snapshot
    tests: tuple[tuple[NameTriple, ...], ...]   # test triples of each snapshot
    queries: tuple[tuple[str, str], ...]        # (head, relation) for `answer`
    dim: int
    batch_size: int
    train_epochs: int
    update_epochs: int

    def model_flags(self) -> list[str]:
        """Flags that fix the model; an update must repeat them."""
        return ["--d", str(self.dim), "--cap", str(CAP), "--seed", str(MODEL_SEED)]

    def optimiser_flags(self, epochs: int) -> list[str]:
        # eval_every above the epoch count: no validation pass inside a run
        return ["--lr", repr(LEARNING_RATE), "--batch", str(self.batch_size),
                "--margin", repr(MARGIN), "--max-epochs", str(epochs),
                "--eval-every", str(epochs + 1)]


def random_name_triples(rng: np.random.Generator, n_triples: int,
                        n_entities: int, n_relations: int) -> list[NameTriple]:
    """Distinct uniform random triples over a fixed vocabulary."""
    seen: set[NameTriple] = set()
    out: list[NameTriple] = []
    target = min(n_triples, n_entities * n_entities * n_relations)
    while len(out) < target:
        t = (f"e{rng.integers(n_entities)}", f"r{rng.integers(n_relations)}",
             f"e{rng.integers(n_entities)}")
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _vocabulary(triples) -> tuple[list[str], list[str]]:
    entities = sorted({x for h, _, t in triples for x in (h, t)})
    relations = sorted({r for _, r, _ in triples})
    return entities, relations


def _hub_step(rng: np.random.Generator, cur: list[NameTriple],
              serial: int) -> tuple[list[NameTriple], int]:
    """Delete 5 triples of one hub and attach 95 new entities to 10 hubs.

    Applied once to the seed-42 base graph this is exactly the update of
    the criterion-7 trace in the test suite.
    """
    entities, relations = _vocabulary(cur)
    hubs = [entities[i] for i in rng.choice(len(entities), size=10, replace=False)]
    rels = [relations[i] for i in rng.choice(len(relations), size=8, replace=False)]
    new = list(cur)
    existing = set(new)
    doomed = [t for t in new if t[0] == hubs[0] or t[2] == hubs[0]][:5]
    for t in doomed:
        new.remove(t)
    added, i = 0, serial
    while added < 95:
        cand = (f"new{i}", rels[i % len(rels)], hubs[i % len(hubs)])
        if cand not in existing:
            new.append(cand)
            existing.add(cand)
            added += 1
        i += 1
    return new, i


def _closing_step(rng: np.random.Generator, cur: list[NameTriple], n_close: int,
                  n_random: int, n_delete: int, n_new: int,
                  tag: str) -> list[NameTriple]:
    """A small update of four kinds of change.

    - ``n_close`` triples join two neighbours of one entity that are not yet
      linked, so that entity's induced context changes although it is on
      neither end of the new edge (a second-order change);
    - ``n_random`` triples between existing entities;
    - ``n_delete`` deleted triples;
    - ``n_new`` triples that attach a new entity to an existing one.
    """
    entities, relations = _vocabulary(cur)
    existing = set(cur)
    nbrs: dict[str, set[str]] = {}
    for h, _, t in cur:
        if h != t:
            nbrs.setdefault(h, set()).add(t)
            nbrs.setdefault(t, set()).add(h)
    new = list(cur)
    added: list[NameTriple] = []

    def add(t: NameTriple) -> bool:
        if t in existing:
            return False
        existing.add(t)
        added.append(t)
        return True

    while len(added) < n_close:
        owner = entities[rng.integers(len(entities))]
        around = sorted(nbrs.get(owner, ()))
        if len(around) < 2:
            continue
        u, v = (around[i] for i in rng.choice(len(around), size=2, replace=False))
        if v in nbrs.get(u, ()):
            continue
        if add((u, relations[rng.integers(len(relations))], v)):
            nbrs[u].add(v)
            nbrs[v].add(u)
    while len(added) < n_close + n_random:
        add((entities[rng.integers(len(entities))],
             relations[rng.integers(len(relations))],
             entities[rng.integers(len(entities))]))
    for k in range(n_new):
        anchor = entities[rng.integers(len(entities))]
        add((f"{tag}n{k}", relations[rng.integers(len(relations))], anchor))
    for i in sorted(rng.choice(len(new), size=n_delete, replace=False), reverse=True):
        del new[int(i)]
    return new + added


def _covering_triples(rng: np.random.Generator, n_triples: int, n_entities: int,
                      n_relations: int) -> list[NameTriple]:
    """Random triples in which every one of the n_entities names occurs."""
    out: list[NameTriple] = []
    seen: set[NameTriple] = set()
    order = rng.permutation(n_entities)
    for e in order:
        t = (f"e{e}", f"r{rng.integers(n_relations)}", f"e{rng.integers(n_entities)}")
        if rng.random() < 0.5:
            t = (t[2], t[1], t[0])
        if t not in seen:
            seen.add(t)
            out.append(t)
    while len(out) < n_triples:
        t = (f"e{rng.integers(n_entities)}", f"r{rng.integers(n_relations)}",
             f"e{rng.integers(n_entities)}")
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _test_set(rng: np.random.Generator, triples: list[NameTriple],
              size: int) -> tuple[NameTriple, ...]:
    """Test triples drawn from the snapshot, half of them from (head,
    relation) or (relation, tail) groups with several members, so that the
    filtered ranking removes real candidates."""
    by_hr: dict[tuple[str, str], int] = {}
    by_rt: dict[tuple[str, str], int] = {}
    for h, r, t in triples:
        by_hr[(h, r)] = by_hr.get((h, r), 0) + 1
        by_rt[(r, t)] = by_rt.get((r, t), 0) + 1
    shared = [t for t in triples if by_hr[(t[0], t[1])] > 1 or by_rt[(t[1], t[2])] > 1]
    n_shared = min(len(shared), size // 2)
    picks = [shared[i] for i in rng.choice(len(shared), size=n_shared, replace=False)]
    rest = sorted(set(triples) - set(picks))
    picks += [rest[i] for i in rng.choice(len(rest), size=size - n_shared, replace=False)]
    return tuple(picks)


def _queries(rng: np.random.Generator, steps, count: int) -> tuple[tuple[str, str], ...]:
    """(head, relation) pairs whose objects exist in every step."""
    common = set(steps[0])
    ents = set.intersection(*({x for h, _, t in s for x in (h, t)} for s in steps))
    rels = set.intersection(*({r for _, r, _ in s} for s in steps))
    pool = sorted((h, r) for h, r, _ in common if h in ents and r in rels)
    return tuple(pool[i] for i in rng.choice(len(pool), size=count, replace=False))


def _finish(name: str, seed: int, steps: list[list[NameTriple]], test_size: int,
            n_queries: int, **model) -> Workload:
    side = np.random.default_rng([seed, 1])
    tests = tuple(_test_set(side, s, test_size) for s in steps)
    queries = _queries(side, steps, n_queries)
    return Workload(name=name, steps=tuple(tuple(s) for s in steps), tests=tests,
                    queries=queries, **model)


def scratch_5k(seed: int) -> Workload:
    """Criterion 7's trace: 5,000 triples over 1,000 entities and 400
    relations, then hub updates.  Seed 42 gives the test suite's trace."""
    rng = np.random.default_rng(seed)
    base = random_name_triples(rng, 5000, 1000, 400)
    steps = [base]
    serial = 0
    for _ in range(2):
        nxt, serial = _hub_step(rng, steps[-1], serial)
        steps.append(nxt)
    return _finish("scratch-5k", seed, steps, test_size=100, n_queries=2,
                   dim=16, batch_size=500, train_epochs=2, update_epochs=3)


def dense_contexts(seed: int) -> Workload:
    """Few entities with more neighbours than the cap, few relations that
    share many two-step paths."""
    rng = np.random.default_rng(seed)
    base = random_name_triples(rng, 5000, 200, 10)
    steps = [base]
    for k in range(2):
        steps.append(_closing_step(rng, steps[-1], n_close=2, n_random=10,
                                   n_delete=6, n_new=1, tag=f"d{k}"))
    return _finish("dense-contexts", seed, steps, test_size=100, n_queries=2,
                   dim=32, batch_size=1000, train_epochs=1, update_epochs=1)


def update_stream(seed: int) -> Workload:
    """A wide sparse graph of 10,000 entities and a chain of small updates."""
    rng = np.random.default_rng(seed)
    base = _covering_triples(rng, 10000, 10000, 1000)
    steps = [base]
    for k in range(3):
        steps.append(_closing_step(rng, steps[-1], n_close=3, n_random=6,
                                   n_delete=6, n_new=6, tag=f"s{k}"))
    return _finish("update-stream", seed, steps, test_size=100, n_queries=1,
                   dim=16, batch_size=500, train_epochs=1, update_epochs=2)


WORKLOADS = {
    "scratch-5k": scratch_5k,
    "dense-contexts": dense_contexts,
    "update-stream": update_stream,
}
