#!/usr/bin/env python3
"""Print the make-up of each workload's inputs, as the README records it.

    python3 bench/describe.py --seed 1

Counts come from the benchmark's own generators and oracles, without the
program: uncapped context sizes by kind, contexts above the cap, the share
of each step's triples that an update retrains, and how many distinct
objects a training batch of positives holds per object reference.
"""
from __future__ import annotations

import argparse
import statistics

import numpy as np

import checks
from workloads import CAP, WORKLOADS


def batch_sharing(triples, batch_size: int, rng) -> float:
    """Distinct objects per object reference, over the batches of one
    shuffled pass; each positive refers to three objects."""
    order = rng.permutation(len(triples))
    ratios = []
    for start in range(0, len(triples), batch_size):
        batch = [triples[i] for i in order[start:start + batch_size]]
        distinct = ({("e", h) for h, _, _ in batch} | {("e", t) for _, _, t in batch}
                    | {("r", r) for _, r, _ in batch})
        ratios.append(len(distinct) / (3 * len(batch)))
    return statistics.mean(ratios)


def describe(name: str, seed: int) -> None:
    wl = WORKLOADS[name](seed)
    base = wl.steps[0]
    ent = checks.entity_contexts(base)
    rel = checks.relation_contexts(base)
    ent_sizes = [len(v) for v, _ in ent.values()]
    rel_sizes = [len(v) + 1 for v, _ in rel.values()]   # paths plus the owner
    rng = np.random.default_rng(seed)
    print(f"{name} seed={seed}")
    print(f"  triples={len(base)} entities={len(ent)} relations={len(rel)} "
          f"steps={len(wl.steps) - 1} dim={wl.dim} cap={CAP} batch={wl.batch_size} "
          f"epochs train={wl.train_epochs} update={wl.update_epochs}")
    for kind, sizes in (("entity", ent_sizes), ("relation", rel_sizes)):
        print(f"  {kind} contexts: mean {statistics.mean(sizes):.1f} max {max(sizes)} "
              f"above cap {sum(s > CAP for s in sizes)} of {len(sizes)}")
    print(f"  train batch: {batch_sharing(base, wl.batch_size, rng):.3f} "
          f"distinct objects per reference")
    for i in range(1, len(wl.steps)):
        want = checks.expected_diff(wl.steps[i - 1], wl.steps[i])
        retrain = sorted(want["retrain"])
        print(f"  step {i}: +{len(want['added'])} -{len(want['deleted'])} triples, "
              f"{len(want['emerging_entities'])} emerging entities, "
              f"{len(want['changed'])} changed contexts, retrain {len(retrain)} of "
              f"{len(wl.steps[i])} ({len(retrain) / len(wl.steps[i]):.1%}), "
              f"batch {batch_sharing(retrain, wl.batch_size, rng):.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    for name in [args.workload] if args.workload else WORKLOADS:
        describe(name, args.seed)


if __name__ == "__main__":
    main()
