"""Command-line driver: train, update, eval, answer, diff.

Option precedence is CLI flag > config file > built-in default.  The config
file is flat ``key = value`` text; unknown keys fail fast.  The environment
variable DKGE_CONFIG names a default config path used when --config is
absent.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys

from .checkpoint import load_checkpoint, save_checkpoint
from .contexts import changed_context_objects
from .errors import ConfigError, DkgeError
from .evaluation import (TIE_OPTIMISTIC, TIE_PESSIMISTIC, answer, evaluate,
                         resolve_test_triples)
from .kg_store import TEST_FILE, diff_snapshots, load_snapshot_dir
from .training import (TrainConfig, collect_retrain_set, train_from_scratch,
                       train_online)

logger = logging.getLogger(__name__)

# key -> (type, default); order fixed for the run header
CONFIG_KEYS: dict[str, tuple[type, object]] = {
    "dim": (int, 100),
    "learning_rate": (float, 0.005),
    "batch_size": (int, 500),
    "margin": (float, 10.0),
    "entity_layers": (int, 1),
    "relation_layers": (int, 1),
    "max_epochs": (int, 800),
    "patience": (int, 5),
    "eval_every": (int, 10),
    "seed": (int, 0),
    "cap": (int, 35),
    "max_midpoints": (int, 1000),
    "threads": (int, 0),
    "filter_mode": (str, "train"),
    "tie_mode": (str, TIE_OPTIMISTIC),
}
TRAIN_KEYS = ("dim", "learning_rate", "batch_size", "margin", "entity_layers",
              "relation_layers", "max_epochs", "patience", "eval_every",
              "seed", "cap", "max_midpoints")


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file; '#' starts a comment, blank lines ignored."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            kind = CONFIG_KEYS[key][0]
            try:
                out[key] = kind(value)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{line_no}: bad value for {key}: {value!r}") from exc
    return out


def effective_config(args: argparse.Namespace, inherited: dict | None = None) -> dict:
    """Defaults, then ``inherited`` values, then the config file, then flags."""
    merged = {key: default for key, (_, default) in CONFIG_KEYS.items()}
    merged.update(inherited or {})
    path = getattr(args, "config", None) or os.environ.get("DKGE_CONFIG")
    if path:
        merged.update(parse_config_file(path))
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if merged["filter_mode"] not in ("train", "all"):
        raise ConfigError(f"filter_mode must be train or all, got {merged['filter_mode']!r}")
    if merged["tie_mode"] not in (TIE_OPTIMISTIC, TIE_PESSIMISTIC):
        raise ConfigError(f"tie_mode must be {TIE_OPTIMISTIC} or {TIE_PESSIMISTIC}, "
                          f"got {merged['tie_mode']!r}")
    return merged


def run_header(merged: dict) -> str:
    return "config: " + " ".join(f"{key}={merged[key]}" for key in CONFIG_KEYS)


def train_config(merged: dict) -> TrainConfig:
    return TrainConfig(**{key: merged[key] for key in TRAIN_KEYS})


def resolve_threads(n: int) -> int:
    return n if n >= 1 else (os.cpu_count() or 1)


def _add_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--d", dest="dim", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--batch", dest="batch_size", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--xe", dest="entity_layers", type=int)
    p.add_argument("--xr", dest="relation_layers", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cap", type=int)
    p.add_argument("--max-midpoints", dest="max_midpoints", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--filter-mode", dest="filter_mode", choices=("train", "all"))
    p.add_argument("--tie-mode", dest="tie_mode",
                   choices=(TIE_OPTIMISTIC, TIE_PESSIMISTIC))
    p.add_argument("--log-file", dest="log_file")


def _write_report(report_dict: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_dict, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolved_or_empty(name_triples, snapshot):
    if not name_triples:
        return []
    triples, _ = resolve_test_triples(name_triples, snapshot)
    return triples


def cmd_train(args: argparse.Namespace) -> int:
    merged = effective_config(args)
    print(run_header(merged))
    cfg = train_config(merged)
    sd = load_snapshot_dir(args.snapshot_dir)
    valid = _resolved_or_empty(sd.valid, sd.train)
    with contextlib.ExitStack() as stack:
        log = sys.stdout
        if args.log_file:
            log = stack.enter_context(open(args.log_file, "a", encoding="utf-8"))
        store, report = train_from_scratch(sd.train, valid, cfg, log=log)
    save_checkpoint(store, args.checkpoint_out)
    _write_report(report.to_dict(), args.checkpoint_out + ".report.json")
    print(f"saved checkpoint {args.checkpoint_out} "
          f"epochs={report.epochs_run} seconds={report.seconds:.3f}")
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    # omitted model settings come from the checkpoint; train_online rejects
    # an explicit one that disagrees with it
    store = load_checkpoint(args.checkpoint_in)
    merged = effective_config(args, inherited=store.model_config())
    print(run_header(merged))
    cfg = train_config(merged)
    old_sd = load_snapshot_dir(args.old_dir)
    new_sd = load_snapshot_dir(args.new_dir)
    g_new = new_sd.train
    valid = _resolved_or_empty(new_sd.valid, g_new)
    with contextlib.ExitStack() as stack:
        log = sys.stdout
        if args.log_file:
            log = stack.enter_context(open(args.log_file, "a", encoding="utf-8"))
        store, report = train_online(old_sd.train, g_new, store, valid, cfg, log=log)
    save_checkpoint(store, args.checkpoint_out)
    _write_report(report.to_dict(), args.checkpoint_out + ".report.json")
    print(f"saved checkpoint {args.checkpoint_out} "
          f"retrained_triples={report.retrained_triples} "
          f"updated_parameters={report.updated_parameters} "
          f"frozen_parameters={report.frozen_parameters}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    merged = effective_config(args)
    print(run_header(merged))
    sd = load_snapshot_dir(args.snapshot_dir)
    if sd.test is None:
        raise ConfigError(
            f"no {TEST_FILE} in {args.snapshot_dir}; evaluation needs one")
    store = load_checkpoint(args.checkpoint)
    store.require_snapshot(sd.train)
    if merged["filter_mode"] == "train":
        filter_triples = sd.train.triple_set
    else:
        extra = (_resolved_or_empty(sd.valid, sd.train)
                 + _resolved_or_empty(sd.test, sd.train))
        filter_triples = sd.train.triple_set | set(extra)
    report = evaluate(sd.test, store, sd.train, filter_triples,
                      tie_mode=merged["tie_mode"],
                      threads=resolve_threads(merged["threads"]))
    print(report.format_block())
    if args.report_file:
        _write_report({"mr": report.mr, "mrr": report.mrr,
                       "hits_at": {str(k): v for k, v in report.hits_at.items()},
                       "queries": report.queries, "skipped": report.skipped},
                      args.report_file)
    return 0


def cmd_answer(args: argparse.Namespace) -> int:
    sd = load_snapshot_dir(args.snapshot_dir)
    store = load_checkpoint(args.checkpoint)
    store.require_snapshot(sd.train)
    head = sd.train.entity_id(args.head)
    relation = sd.train.relation_id(args.relation)
    results = answer(head, relation, args.k, store, sd.train)
    for rank, (entity, score) in enumerate(results, start=1):
        print(f"{rank} {sd.train.entity_names[entity]} {score:.6f}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    g_old = load_snapshot_dir(args.old_dir).train
    g_new = load_snapshot_dir(args.new_dir).train
    diff = diff_snapshots(g_old, g_new)
    changed = changed_context_objects(g_old, g_new, diff)
    t_ol = collect_retrain_set(g_new, diff, changed)
    print(f"added_triples={len(diff.added_triples)} "
          f"deleted_triples={len(diff.deleted_triples)} "
          f"emerging_entities={len(diff.emerging_entities)} "
          f"emerging_relations={len(diff.emerging_relations)} "
          f"removed_entities={len(diff.removed_entities)} "
          f"removed_relations={len(diff.removed_relations)} "
          f"changed_context={len(changed)} "
          f"retrain_triples={len(t_ol)}")
    for e in sorted(g_new.entity_names[i] for i in diff.emerging_entities):
        print(f"emerging entity {e}")
    for r in sorted(g_new.relation_names[i] for i in diff.emerging_relations):
        print(f"emerging relation {r}")
    changed_names = sorted(
        (kind, (g_new.entity_names if kind == "entity" else g_new.relation_names)[obj])
        for kind, obj in changed)
    for kind, name in changed_names:
        print(f"changed {kind} {name}")
    for h, r, t in sorted(g_new.triple_names(triple) for triple in t_ol):
        print(f"retrain {h} {r} {t}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkge",
        description="Dynamic knowledge-graph embeddings: joint knowledge and "
                    "context representations with incremental online updates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from scratch on a snapshot")
    p.add_argument("snapshot_dir")
    p.add_argument("checkpoint_out")
    _add_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("update", help="online-update a checkpoint to a new snapshot")
    p.add_argument("old_dir")
    p.add_argument("new_dir")
    p.add_argument("checkpoint_in")
    p.add_argument("checkpoint_out")
    _add_flags(p)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("eval", help="filtered link-prediction metrics on test.txt")
    p.add_argument("snapshot_dir")
    p.add_argument("checkpoint")
    p.add_argument("--report-file", dest="report_file")
    _add_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("answer", help="top-k tail entities for a (head, relation) query")
    p.add_argument("snapshot_dir")
    p.add_argument("checkpoint")
    p.add_argument("head")
    p.add_argument("relation")
    p.add_argument("-k", type=int, default=10)
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("diff", help="compare two snapshots and report the retrain set")
    p.add_argument("old_dir")
    p.add_argument("new_dir")
    p.set_defaults(func=cmd_diff)
    return parser


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s",
                            stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DkgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
