"""Command-line driver: train, update, eval, answer, diff.

Option precedence is CLI flag > config file > built-in default.  The config
file is flat ``key = value`` text; unknown keys fail fast.  The environment
variable DKGE_CONFIG names a default config path used when --config is
absent.

Each command takes flags for the settings it reads and echoes only those:
``train`` and ``update`` the model and optimiser settings, ``eval`` the
ranking settings.  ``eval`` and ``answer`` read the model settings from the
checkpoint alone, and ``eval`` echoes them too.  ``answer`` and ``diff``
take none: the midpoint limit of relation contexts is one constant,
``contexts.MAX_MIDPOINTS``, so ``diff`` finds the changes ``update`` finds
without reading a checkpoint.  The config file is shared, so it may hold any
known key; a command ignores the keys it does not read.  ``update``
refuses an old snapshot whose triples are not the ones the checkpoint was
trained on, and a run whose epoch loss is not finite fails before anything
is saved.  An output path whose directory is missing, or that is a
directory, fails before the command's work, and ``eval`` fails when no
test triple can be scored.  Reports are strict JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .contexts import ENTITY, RELATION, context_changes
from .errors import ConfigError, DkgeError, IntegrityError
from .evaluation import (TIE_OPTIMISTIC, TIE_PESSIMISTIC, answer, evaluate,
                         resolve_test_triples)
from .kg_store import (TEST_FILE, VALID_FILE, SnapshotDir, diff_snapshots, load_snapshot_dir,
                       triple_codes, undecodable_line)
from .training import (TrainConfig, collect_retrain_set, train_from_scratch,
                       train_online)

logger = logging.getLogger(__name__)

# key -> (type, default)
CONFIG_KEYS: dict[str, tuple[type, object]] = {
    **{f.name: (type(f.default), f.default) for f in dataclasses.fields(TrainConfig)},
    "filter_mode": (str, "train"),
    "tie_mode": (str, TIE_OPTIMISTIC),
}
TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig))
# what eval reads besides the checkpoint's model settings
EVAL_KEYS = ("filter_mode", "tie_mode")


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file; '#' starts a comment, blank lines ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}:{undecodable_line(path)}: not UTF-8") from None
    out: dict = {}
    for line_no, raw in enumerate(lines, start=1):
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


def run_header(merged: dict, keys) -> str:
    return "config: " + " ".join(f"{key}={merged[key]}" for key in keys)


def train_config(merged: dict) -> TrainConfig:
    return TrainConfig(**{key: merged[key] for key in TRAIN_KEYS})


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--d", dest="dim", type=int)
    p.add_argument("--xe", dest="entity_layers", type=int)
    p.add_argument("--xr", dest="relation_layers", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--cap", type=int)


def _add_optimiser_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--batch", dest="batch_size", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--log-file", dest="log_file")


def _add_ranking_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--filter-mode", dest="filter_mode", choices=("train", "all"))
    p.add_argument("--tie-mode", dest="tie_mode",
                   choices=(TIE_OPTIMISTIC, TIE_PESSIMISTIC))


def _check_output(path: str) -> None:
    """Fail before a command's work when ``path`` cannot be written: its
    directory must exist and it must not be a directory itself."""
    if os.path.isdir(path):
        raise ConfigError(f"{path}: output path is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"{path}: directory {parent} does not exist")


def _write_report(report_dict: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_dict, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _valid_triples(sd: SnapshotDir) -> list:
    """The id triples of the directory's valid.txt, none without one; a
    warning says so when every triple names an unknown object."""
    if not sd.valid:
        return []
    triples, skipped = resolve_test_triples(sd.valid, sd.train)
    if not triples:
        logger.warning("skipped all %d %s triples: each names an unknown object",
                       skipped, VALID_FILE)
    return triples


def _require_snapshot(store, snapshot, checkpoint: str, snapshot_dir: str) -> None:
    if not store.matches_snapshot(snapshot):
        raise IntegrityError(f"{checkpoint}: parameter store dictionaries do not "
                             f"match the snapshot in {snapshot_dir}")


def _note_full_encode(store, snapshot, checkpoint: str, snapshot_dir: str) -> None:
    # joint_table serves the stored tables only on the snapshot they were
    # encoded on; on any other it encodes every object, which costs time
    if store.stored_joint(snapshot) is None:
        logger.warning("%s holds no joint tables for the triples in %s; "
                       "encoding every entity and relation", checkpoint, snapshot_dir)


def _train_and_save(args: argparse.Namespace, train, *inputs):
    report_path = args.checkpoint_out + ".report.json"
    for path in (args.checkpoint_out, report_path):
        _check_output(path)
    with contextlib.ExitStack() as stack:
        log = sys.stdout
        if args.log_file:
            log = stack.enter_context(open(args.log_file, "a", encoding="utf-8"))
        store, report = train(*inputs, log=log)
    save_checkpoint(store, args.checkpoint_out)
    _write_report(dataclasses.asdict(report), report_path)
    return report


def cmd_train(args: argparse.Namespace) -> int:
    merged = effective_config(args)
    print(run_header(merged, TRAIN_KEYS))
    cfg = train_config(merged)
    sd = load_snapshot_dir(args.snapshot_dir)
    valid = _valid_triples(sd)
    report = _train_and_save(args, train_from_scratch, sd.train, valid, cfg)
    print(f"saved checkpoint {args.checkpoint_out} "
          f"epochs={report.epochs_run} seconds={report.seconds:.3f}")
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    # omitted model settings come from the checkpoint; train_online rejects
    # an explicit one that disagrees with it
    store = load_checkpoint(args.checkpoint_in)
    merged = effective_config(args, inherited=store.model_config())
    print(run_header(merged, TRAIN_KEYS))
    cfg = train_config(merged)
    old_sd = load_snapshot_dir(args.old_dir)
    _require_snapshot(store, old_sd.train, args.checkpoint_in, args.old_dir)
    # joint_digest is the digest of the triples the checkpoint was trained
    # on; an old snapshot with other triples would hide changes or invent them
    if store.joint_digest is not None and store.joint_digest != old_sd.train.digest:
        raise IntegrityError(f"{args.checkpoint_in}: checkpoint was trained on other "
                             f"triples than those in {args.old_dir}")
    new_sd = load_snapshot_dir(args.new_dir)
    g_new = new_sd.train
    valid = _valid_triples(new_sd)
    report = _train_and_save(args, train_online, old_sd.train, g_new, store, valid, cfg)
    print(f"saved checkpoint {args.checkpoint_out} "
          f"retrained_triples={report.retrained_triples} "
          f"updated_parameters={report.updated_parameters} "
          f"frozen_parameters={report.frozen_parameters}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.report_file:
        _check_output(args.report_file)
    # the model settings are the checkpoint's; a config file's are ignored
    store = load_checkpoint(args.checkpoint)
    model = store.model_config()
    merged = {**effective_config(args), **model}
    print(run_header(merged, (*model, *EVAL_KEYS)))
    sd = load_snapshot_dir(args.snapshot_dir)
    if sd.test is None:
        raise ConfigError(
            f"no {TEST_FILE} in {args.snapshot_dir}; evaluation needs one")
    _require_snapshot(store, sd.train, args.checkpoint, args.snapshot_dir)
    _note_full_encode(store, sd.train, args.checkpoint, args.snapshot_dir)
    # resolved once: evaluate and the filter share it, and its one warning
    test, skipped = resolve_test_triples(sd.test, sd.train)
    if not test:
        why = (f"every triple names an unknown object ({skipped} skipped)" if skipped
               else "it holds no triple")
        raise ConfigError(f"{os.path.join(args.snapshot_dir, TEST_FILE)}: "
                          f"nothing to score: {why}")
    known = sd.train.triple_ids
    if merged["filter_mode"] != "train":
        known = np.concatenate((known, sd.train.id_rows(test),
                                sd.train.id_rows(_valid_triples(sd))))
    report = dataclasses.replace(
        evaluate(test, store, sd.train, known, tie_mode=merged["tie_mode"]),
        skipped=skipped)
    print(report.format_block())
    if args.report_file:
        _write_report({"mr": report.mr, "mrr": report.mrr,
                       "hits_at": {str(k): v for k, v in report.hits_at.items()},
                       "queries": report.queries, "skipped": report.skipped},
                      args.report_file)
    return 0


def cmd_answer(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ConfigError(f"-k must be at least 1, got {args.k}")
    sd = load_snapshot_dir(args.snapshot_dir)
    store = load_checkpoint(args.checkpoint)
    _require_snapshot(store, sd.train, args.checkpoint, args.snapshot_dir)
    _note_full_encode(store, sd.train, args.checkpoint, args.snapshot_dir)
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
    changed = context_changes(g_old, g_new, diff)
    t_ol = collect_retrain_set(g_new, diff, changed)
    print(f"added_triples={len(diff.added_triples)} "
          f"deleted_triples={len(diff.deleted_triples)} "
          f"emerging_entities={len(diff.emerging_entities)} "
          f"emerging_relations={len(diff.emerging_relations)} "
          f"removed_entities={len(diff.removed_entities)} "
          f"removed_relations={len(diff.removed_relations)} "
          f"changed_context={len(changed[0]) + len(changed[1])} "
          f"retrain_triples={len(t_ol)}")
    e_names, r_names = g_new.entity_names, g_new.relation_names
    for what, ids, names in (
            (f"emerging {ENTITY}", diff.emerging_entities, e_names),
            (f"emerging {RELATION}", diff.emerging_relations, r_names),
            (f"changed {ENTITY}", changed[0], e_names),
            (f"changed {RELATION}", changed[1], r_names)):
        for name in sorted(names[i] for i in ids):
            print(what, name)
    # name order: names are unique, and the ranks follow str order, so the
    # triple codes of the ranks are distinct and sort as the name triples
    rank = g_new.name_rank
    ranked = np.stack((rank[t_ol[:, 0]], g_new.relation_rank[t_ol[:, 1]], rank[t_ol[:, 2]]),
                      axis=1)
    order = np.argsort(triple_codes(ranked, g_new.num_entities, g_new.num_relations))
    if order.size:
        print("\n".join(f"retrain {e_names[h]} {r_names[r]} {e_names[t]}"
                        for h, r, t in t_ol[order].tolist()))
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
    _add_model_flags(p)
    _add_optimiser_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("update", help="online-update a checkpoint to a new snapshot")
    p.add_argument("old_dir")
    p.add_argument("new_dir")
    p.add_argument("checkpoint_in")
    p.add_argument("checkpoint_out")
    _add_model_flags(p)
    _add_optimiser_flags(p)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("eval", help="filtered link-prediction metrics on test.txt")
    p.add_argument("snapshot_dir")
    p.add_argument("checkpoint")
    p.add_argument("--report-file", dest="report_file")
    p.add_argument("--config", help="flat key = value config file")
    _add_ranking_flags(p)
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
