"""Per-layer spans, recorded from outside the program.

``Tracer.install`` wraps public functions of each module in the namespace
their caller reads them from (``dkge.model.agcn_forward`` is the name
``object_forward`` calls, ``dkge.training.batch_loss`` the one the SGD loop
calls), plus a few methods and the lazily built snapshot indexes.  A wrapper
records a span only while a command scope is open, so the benchmark's own
checks, which call the same functions, leave no spans.  ``remove`` puts every
original back.  A target that a later version of the program no longer has
is skipped, and the metrics that read it report 0.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field

# (module, attribute, span name)
FUNCTIONS = (
    ("dkge.cli", "load_snapshot_dir", "load"),
    ("dkge.kg_store", "load_snapshot_dir", "load"),
    ("dkge.cli", "diff_snapshots", "kg_diff"),
    ("dkge.training", "diff_snapshots", "kg_diff"),
    ("dkge.cli", "changed_context_objects", "full_scan"),
    ("dkge.contexts", "entity_context", "entity_context"),
    ("dkge.contexts", "relation_context", "relation_context"),
    ("dkge.training", "candidate_changed_names", "candidates"),
    ("dkge.model", "agcn_forward", "agcn_forward"),
    ("dkge.model", "agcn_backward", "agcn_backward"),
    ("dkge.agcn", "normalize_adjacency", "normalize"),
    ("dkge.training", "batch_loss", "batch_loss"),
    ("dkge.model", "context_features", "context_features"),
    ("dkge.model", "object_backward", "object_backward"),
    ("dkge.training", "bernoulli_corrupt", "corrupt"),
    ("dkge.training", "GradBuffer", "grad_buffer"),
    ("dkge.cli", "train_online", "train_online"),
    ("dkge.cli", "evaluate", "evaluate"),
    ("dkge.cli", "save_checkpoint", "ckpt_save"),
    ("dkge.cli", "load_checkpoint", "ckpt_load"),
)
# (module, class, method, span name)
METHODS = (
    ("dkge.contexts", "ContextTable", "build_all", "build_all"),
    ("dkge.evaluation", "JointCache", "entities", "encode"),
)
SNAPSHOT_INDEXES = ("neighbor_map", "pair_map", "out_map", "relation_pairs",
                    "linked_pairs")


def _span_info(name, args, kwargs, result):
    """What a span keeps besides its duration."""
    if name in ("index", "encode"):
        return id(args[0])
    if name == "batch_loss":
        return (args[4] if len(args) > 4 else kwargs.get("buffer")) is not None
    if name == "candidates":
        return len(result[0]) + len(result[1])
    if name == "object_backward":
        return args[0].ref
    if name == "evaluate":
        return result.queries
    if name == "train_online":
        return args[1].entity_names, args[1].relation_names
    return None


@dataclass
class Span:
    scope: int
    name: str
    seconds: float
    info: object


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    scope: int | None = None
    _undo: list = field(default_factory=list)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.scope is None:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - t0
            tracer.spans.append(Span(tracer.scope, name, seconds,
                                     _span_info(name, args, kwargs, result)))
            return result
        return traced

    def _patch(self, owner, attr, new):
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def install(self) -> None:
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            if attr in vars(module):
                self._patch(module, attr, self._wrap(name, getattr(module, attr)))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is not None and attr in vars(cls):
                self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))
        snapshot = importlib.import_module("dkge.kg_store").Snapshot
        for attr in SNAPSHOT_INDEXES:
            prop = vars(snapshot).get(attr)
            if isinstance(prop, functools.cached_property):
                wrapped = functools.cached_property(self._wrap("index", prop.func))
                wrapped.__set_name__(snapshot, attr)
                self._patch(snapshot, attr, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


# -- per-layer metrics -------------------------------------------------------


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def layer_metrics(spans: list[Span], commands, rounds: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``rounds`` traced rounds.

    ``commands`` holds the traced commands: objects with ``scope``, ``kind``
    (setup, train, diff, update, eval, answer), ``epoch_seconds`` and, for
    updates, ``movable`` (emerging or changed-context objects by kind and
    name) and ``changed`` (number of changed-context objects).
    """
    by_scope: dict[int, list[Span]] = {}
    for span in spans:
        by_scope.setdefault(span.scope, []).append(span)

    def of(kind):
        return [c for c in commands if c.kind == kind]

    def durations(name):
        return [s.seconds for s in spans if s.name == name]

    def total(scope, name, pred=lambda s: True):
        return sum(s.seconds for s in by_scope.get(scope, ()) if s.name == name and pred(s))

    trains, updates, evals = of("train"), of("update"), of("eval")

    index_sums = []
    for scope_spans in by_scope.values():
        per_snapshot: dict[int, list[float]] = {}
        for s in scope_spans:
            if s.name == "index":
                per_snapshot.setdefault(s.info, []).append(s.seconds)
        index_sums += [sum(v) for v in per_snapshot.values()
                       if len(v) == len(SNAPSHOT_INDEXES)]

    encode_first = []
    for scope_spans in by_scope.values():
        seen = set()
        for s in scope_spans:
            if s.name == "encode" and s.info not in seen:
                seen.add(s.info)
                encode_first.append((s.scope, s.seconds))

    candidates, yields, fixed, backward_total, backward_trainable = [], [], [], 0, 0
    for c in updates:
        counts = [s.info for s in by_scope.get(c.scope, ()) if s.name == "candidates"]
        if counts:
            candidates.append(counts[0])
            yields.append(c.changed / counts[0] if counts[0] else 0.0)
        online = [s for s in by_scope.get(c.scope, ()) if s.name == "train_online"]
        if online:
            fixed.append(online[0].seconds - sum(c.epoch_seconds))
            ent_names, rel_names = online[0].info
            for s in by_scope[c.scope]:
                if s.name == "object_backward":
                    kind, obj = s.info
                    name = (ent_names if kind == "entity" else rel_names)[obj]
                    backward_total += 1
                    backward_trainable += (kind, name) in c.movable

    rank_us = []
    for c in evals:
        queries = [s.info for s in by_scope.get(c.scope, ()) if s.name == "evaluate"]
        if queries and queries[0]:
            encode = sum(sec for scope, sec in encode_first if scope == c.scope)
            rank_us.append((total(c.scope, "evaluate") - encode) / queries[0] * 1e6)

    sgd_rest = []
    for c in trains:
        busy = (total(c.scope, "batch_loss", lambda s: s.info)
                + total(c.scope, "corrupt"))
        if c.epoch_seconds:
            sgd_rest.append((sum(c.epoch_seconds) - busy) / len(c.epoch_seconds))

    def per_train(name, pred=lambda s: True):
        return _median(total(c.scope, name, pred) for c in trains)

    n_forward = sum(1 for s in spans if s.name == "agcn_forward")
    n_backward = sum(1 for s in spans if s.name == "agcn_backward")
    return {
        "kg_store.load_s": _median(durations("load")),
        "kg_store.index_s": _median(index_sums),
        "kg_store.diff_s": _median(durations("kg_diff")),
        "contexts.build_all_s": _median(durations("build_all")),
        "contexts.entity_us": _median(durations("entity_context")) * 1e6,
        "contexts.relation_us": _median(durations("relation_context")) * 1e6,
        "contexts.full_scan_s": _median(durations("full_scan")),
        "contexts.candidates_s": _median(total(c.scope, "candidates") for c in updates),
        "contexts.candidates": _median(candidates),
        "contexts.candidate_yield": _median(yields),
        "agcn.forward_calls": n_forward / rounds,
        "agcn.forward_us": _median(durations("agcn_forward")) * 1e6,
        "agcn.backward_calls": n_backward / rounds,
        "agcn.backward_us": _median(durations("agcn_backward")) * 1e6,
        "agcn.normalize_s": per_train("normalize"),
        "model.batch_loss_s": _median(s.seconds for s in spans
                                      if s.name == "batch_loss" and s.info),
        "model.context_features_s": per_train("context_features"),
        "model.object_backward_s": per_train("object_backward"),
        "model.corrupt_s": per_train("corrupt"),
        "model.grad_buffer_s": _median(total(c.scope, "grad_buffer") for c in updates),
        "training.sgd_rest_s": _median(sgd_rest),
        "training.update_fixed_s": _median(fixed),
        "training.backward_yield": (backward_trainable / backward_total
                                    if backward_total else 0.0),
        "evaluation.encode_s": _median(sec for _, sec in encode_first),
        "evaluation.rank_us": _median(rank_us),
        "checkpoint.save_s": _median(durations("ckpt_save")),
        "checkpoint.load_s": _median(durations("ckpt_load")),
    }
