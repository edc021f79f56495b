"""Command-line behavior: precedence, plumbing, output formats, exit codes."""
import argparse
import contextlib
import io
import json
import pickle
import pickletools
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dkge.agcn
import dkge.contexts
import dkge.kg_store
from dkge.checkpoint import load_checkpoint, save_checkpoint
from dkge.cli import (CONFIG_KEYS, EVAL_KEYS, TRAIN_KEYS, build_parser, main,
                      parse_config_file)
from dkge.contexts import ContextTable, changed_context_objects, entity_context
from dkge.errors import ConfigError
from dkge.kg_store import Snapshot, diff_snapshots, load_snapshot_dir
from dkge.model import forward_triple
from dkge.training import collect_retrain_set

from graphs import (TOY_T1, TOY_T2, random_name_triples, row_triples, split_refs,
                    update_traces, write_snapshot_dir)

FAST_FLAGS = ["--d", "8", "--lr", "0.01", "--batch", "8", "--margin", "2",
              "--max-epochs", "4"]


@pytest.fixture()
def dirs(tmp_path):
    old = tmp_path / "t1"
    new = tmp_path / "t2"
    write_snapshot_dir(old, TOY_T1)
    write_snapshot_dir(new, TOY_T2, test=[("e1", "r1", "e5"), ("e6", "r5", "e3")])
    return tmp_path, old, new


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- config handling ----------------------------------------------------------

def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("dim = 16\nlearning-rate = 0.02  # inline comment\n\n# full line\nmargin=4\n")
    cfg = parse_config_file(p)
    assert cfg == {"dim": 16, "learning_rate": 0.02, "margin": 4.0}


def test_config_file_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("dimension = 16\n")
    with pytest.raises(ConfigError):
        parse_config_file(p)


def test_config_file_not_utf8(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_bytes(b"dim = 16\r\n# \xe9t\xe9\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(p)
    assert str(err.value) == f"{p}:2: not UTF-8"


def test_non_utf8_inputs_end_in_an_error_line(tmp_path, capsys):
    """A train file or a --config file that is not UTF-8 makes ``dkge
    train`` print one error line naming the file and line, not a traceback."""
    snap = tmp_path / "s0"
    write_snapshot_dir(snap, TOY_T1)
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"dim = \xff8\n")
    code, _, err = run(capsys, "train", str(snap), str(tmp_path / "c.pkl"),
                       "--config", str(cfg), *FAST_FLAGS)
    assert (code, err) == (1, f"error: {cfg}:1: not UTF-8\n")
    train = snap / "train.txt"
    train.write_bytes(train.read_bytes() + b"\xff\tr\tb\n")
    code, _, err = run(capsys, "train", str(snap), str(tmp_path / "c.pkl"), *FAST_FLAGS)
    assert (code, err) == (1, f"error: {train}:{len(TOY_T1) + 1}: not UTF-8: "
                              "invalid start byte\n")


def test_config_file_bad_value(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("dim = banana\n")
    with pytest.raises(ConfigError):
        parse_config_file(p)


def test_flag_overrides_file_overrides_default(dirs, capsys):
    tmp, old, _ = dirs
    cfg = tmp / "run.cfg"
    cfg.write_text("dim = 16\nmargin = 4\nmax_epochs = 2\nbatch_size = 8\n"
                   "learning_rate = 0.01\n")
    code, out, _ = run(capsys, "train", str(old), str(tmp / "m.pkl"),
                       "--config", str(cfg), "--d", "20")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("config: ")
    assert "dim=20" in header        # flag beats file
    assert "margin=4.0" in header    # file beats default
    assert "batch_size=8" in header
    assert load_checkpoint(tmp / "m.pkl").dim == 20


def test_each_command_echoes_every_setting_it_takes():
    """A settings flag that a command accepts is a setting it reads, so it
    is in the config line the command prints; ``answer`` and ``diff``
    print none and take none."""
    echoed = {"train": TRAIN_KEYS, "update": TRAIN_KEYS,
              "eval": EVAL_KEYS, "answer": (), "diff": ()}
    exempt = {"--config", "--log-file", "--report-file"}
    others = {"answer": {"-k"}}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(echoed)
    for name, parser in commands.items():
        flags = [a for a in parser._actions if a.option_strings
                 and not isinstance(a, argparse._HelpAction)
                 and not exempt & set(a.option_strings)]
        settings = [a.dest for a in flags if a.dest in CONFIG_KEYS]
        assert sorted(settings) == sorted(echoed[name]), name
        rest = {a.option_strings[0] for a in flags if a.dest not in CONFIG_KEYS}
        assert rest == others.get(name, set()), name


@pytest.mark.parametrize("argv, flag", [
    (("eval", "{old}", "{tmp}/m.pkl", "--lr", "1"), "--lr 1"),
    (("train", "{old}", "{tmp}/m.pkl", "--tie-mode", "pessimistic"),
     "--tie-mode pessimistic"),
    (("train", "{old}", "{tmp}/m.pkl", "--max-midpoints", "2"), "--max-midpoints 2"),
    (("update", "{old}", "{old}", "{tmp}/c.pkl", "{tmp}/m.pkl", "--max-midpoints", "2"),
     "--max-midpoints 2"),
    (("eval", "{old}", "{tmp}/m.pkl", "--max-midpoints", "2"), "--max-midpoints 2"),
    (("diff", "{old}", "{old}", "--checkpoint", "c.pkl"), "--checkpoint c.pkl"),
    *((("eval", "{old}", "{tmp}/m.pkl", "--report-file", "{tmp}/r.json", flag, "3"),
       f"{flag} 3") for flag in ("--d", "--xe", "--xr", "--seed", "--cap")),
], ids=["eval-lr", "train-tie-mode", "train-max-midpoints", "update-max-midpoints",
        "eval-max-midpoints", "diff-checkpoint", "eval-d", "eval-xe", "eval-xr",
        "eval-seed", "eval-cap"])
def test_command_refuses_a_setting_it_does_not_read(dirs, capsys, argv, flag):
    tmp, old, _ = dirs
    with pytest.raises(SystemExit) as exit_:
        main([arg.format(tmp=tmp, old=old) for arg in argv])
    assert exit_.value.code == 2
    assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp / "m.pkl").exists() and not (tmp / "r.json").exists()


def test_env_var_names_default_config(dirs, capsys, monkeypatch):
    tmp, old, _ = dirs
    cfg = tmp / "env.cfg"
    cfg.write_text("dim = 12\nmax_epochs = 2\nbatch_size = 8\nmargin = 2\n"
                   "learning_rate = 0.01\n")
    monkeypatch.setenv("DKGE_CONFIG", str(cfg))
    code, out, _ = run(capsys, "train", str(old), str(tmp / "m.pkl"))
    assert code == 0
    assert "dim=12" in out.splitlines()[0]


# -- train --------------------------------------------------------------------

def test_train_writes_checkpoint_and_report(dirs, capsys):
    tmp, old, _ = dirs
    out_path = tmp / "m.pkl"
    code, out, _ = run(capsys, "train", str(old), str(out_path), *FAST_FLAGS)
    assert code == 0
    # the settings train reads, and no ranking setting
    assert out.splitlines()[0] == (
        "config: dim=8 learning_rate=0.01 batch_size=8 margin=2.0 entity_layers=1 "
        "relation_layers=1 max_epochs=4 patience=5 eval_every=10 seed=0 cap=35")
    store = load_checkpoint(out_path)
    assert store.dim == 8
    report = json.loads((tmp / "m.pkl.report.json").read_text())
    assert report["mode"] == "scratch"
    assert report["epochs_run"] == 4
    assert len(report["epoch_losses"]) == 4
    assert report["negatives_dropped"] == 0
    assert "saved checkpoint" in out


def test_checkpoint_gets_the_mode_of_its_report(dirs, capsys):
    """The checkpoint, though written through a temp file, gets the mode a
    plain open() gives a new file, as the report beside it does."""
    tmp, old, _ = dirs
    assert run(capsys, "train", str(old), str(tmp / "m.pkl"), *FAST_FLAGS)[0] == 0
    modes = {stat.S_IMODE(p.stat().st_mode) for p in (tmp / "m.pkl", tmp / "m.pkl.report.json")}
    assert len(modes) == 1


def test_train_missing_dir_names_path(tmp_path, capsys):
    code, _, err = run(capsys, "train", str(tmp_path / "nope"),
                       str(tmp_path / "m.pkl"), *FAST_FLAGS)
    assert code == 1
    assert "train.txt" in err
    assert "nope" in err


def test_train_progress_goes_to_log_file(dirs, capsys):
    tmp, old, _ = dirs
    log = tmp / "run.log"
    code, out, _ = run(capsys, "train", str(old), str(tmp / "m.pkl"),
                       "--log-file", str(log), *FAST_FLAGS)
    assert code == 0
    assert "epoch=" not in out
    lines = log.read_text().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("epoch=") for line in lines)


# -- update -------------------------------------------------------------------

def test_update_round_trip(dirs, capsys):
    tmp, old, new = dirs
    run(capsys, "train", str(old), str(tmp / "m1.pkl"), *FAST_FLAGS)
    code, out, _ = run(capsys, "update", str(old), str(new),
                       str(tmp / "m1.pkl"), str(tmp / "m2.pkl"), *FAST_FLAGS)
    assert code == 0
    assert "retrained_triples=8" in out
    report = json.loads((tmp / "m2.pkl.report.json").read_text())
    assert report["mode"] == "online"
    assert report["retrained_triples"] == 8
    assert report["updated_parameters"] == 64
    assert report["frozen_parameters"] > 0
    store = load_checkpoint(tmp / "m2.pkl")
    assert "e7" in store.entity_names


def test_update_mismatched_checkpoint_fails(dirs, capsys):
    tmp, old, new = dirs
    run(capsys, "train", str(old), str(tmp / "m1.pkl"), *FAST_FLAGS)
    code, _, err = run(capsys, "update", str(new), str(new),
                       str(tmp / "m1.pkl"), str(tmp / "m2.pkl"), *FAST_FLAGS)
    assert code == 1
    assert "error:" in err


# -- update takes the model settings from the checkpoint ---------------------

CAPPED_MODEL = ["--d", "8", "--cap", "10", "--seed", "3"]
OPTIMISER_FLAGS = ["--lr", "0.01", "--batch", "100", "--margin", "4.0",
                   "--max-epochs", "1"]


@pytest.fixture()
def capped_run(tmp_path, capsys):
    """A model trained with a non-default cap and seed on a 400-triple graph
    whose entity contexts exceed the cap, and that graph plus one triple."""
    rng = np.random.default_rng(400)
    base = random_name_triples(rng, 400, 40, 8)
    have = set(base)
    extra = next(t for t in random_name_triples(rng, 50, 40, 8) if t not in have)
    old, new = tmp_path / "f0", tmp_path / "f1"
    write_snapshot_dir(old, base)
    write_snapshot_dir(new, base + [extra])
    code, _, _ = run(capsys, "train", str(old), str(tmp_path / "c0.pkl"),
                     *CAPPED_MODEL, *OPTIMISER_FLAGS)
    assert code == 0
    return tmp_path, old, new


def test_update_inherits_model_config(capped_run, capsys):
    tmp, old, new = capped_run
    code, out, _ = run(capsys, "update", str(old), str(new), str(tmp / "c0.pkl"),
                       str(tmp / "c1.pkl"), *OPTIMISER_FLAGS)
    assert code == 0
    header = out.splitlines()[0].split()
    assert {"dim=8", "cap=10", "seed=3"} <= set(header)

    g_old = load_snapshot_dir(old).train
    g_new = load_snapshot_dir(new).train
    assert max(len(entity_context(g_old, e).vertices)
               for e in range(g_old.num_entities)) > 10
    diff = diff_snapshots(g_old, g_new)
    retrain = row_triples(collect_retrain_set(
        g_new, diff, split_refs(changed_context_objects(g_old, g_new))))
    before, after = load_checkpoint(tmp / "c0.pkl"), load_checkpoint(tmp / "c1.pkl")
    table_old, table_new = before.context_table(g_old), after.context_table(g_new)
    memo_old, memo_new = {}, {}
    old_names = set(g_old.name_triples())
    stable = [t for t in g_new.triples
              if t not in retrain and g_new.triple_names(t) in old_names]
    assert len(stable) > 100
    for t in stable:
        f_before = forward_triple(g_old.resolve(g_new.triple_names(t)), before,
                                  table_old, memo_old).f
        assert forward_triple(t, after, table_new, memo_new).f == f_before


def test_update_rejects_model_flag_that_disagrees(capped_run, capsys):
    tmp, old, new = capped_run
    code, _, err = run(capsys, "update", str(old), str(new), str(tmp / "c0.pkl"),
                       str(tmp / "c1.pkl"), "--cap", "35", *OPTIMISER_FLAGS)
    assert code == 1
    assert "cap=35" in err and "cap=10" in err
    assert not (tmp / "c1.pkl").exists()


def test_answer_uses_trained_max_midpoints(tmp_path, capsys, caplog, monkeypatch):
    """Relation r has six two-step paths; under a midpoint limit of two,
    training keeps two of them.  Given the checkpoint without its joint
    tables, answer must rebuild r's context the same way and print what
    the trained tables give."""
    triples = [("a", "r", "b")]
    for i in range(6):
        triples += [("a", f"g{i}", f"m{i}"), (f"m{i}", f"h{i}", "b")]
    s, ckpt, bare = tmp_path / "s", tmp_path / "m.pkl", tmp_path / "bare.pkl"
    write_snapshot_dir(s, triples)
    monkeypatch.setattr(dkge.contexts, "MAX_MIDPOINTS", 2)
    assert run(capsys, "train", str(s), str(ckpt), *FAST_FLAGS)[0] == 0

    g = load_snapshot_dir(s).train
    store = load_checkpoint(ckpt)
    assert len(store.context_table(g).relation(g.relation_id("r")).vertices) == 3
    _without_joint_tables(ckpt, bare)
    outputs = []
    for path in (ckpt, bare):
        caplog.clear()
        code, out, _ = run(capsys, "answer", str(s), str(path), "a", "r", "-k", "5")
        assert code == 0
        outputs.append((out, bool(_full_encode_notes(caplog))))
    assert outputs == [(outputs[0][0], False), (outputs[0][0], True)]


# -- eval ---------------------------------------------------------------------

def test_eval_prints_metrics_block(dirs, capsys):
    tmp, old, new = dirs
    run(capsys, "train", str(old), str(tmp / "m1.pkl"), *FAST_FLAGS)
    run(capsys, "update", str(old), str(new), str(tmp / "m1.pkl"),
        str(tmp / "m2.pkl"), *FAST_FLAGS)
    code, out, _ = run(capsys, "eval", str(new), str(tmp / "m2.pkl"),
                       "--report-file", str(tmp / "metrics.json"))
    assert code == 0
    block = [l for l in out.splitlines() if l.startswith("mr=")]
    assert len(block) == 1
    assert re.match(r"^mr=\d+\.\d{4} mrr=\d\.\d{4} hits1=\d\.\d{4} "
                    r"hits3=\d\.\d{4} hits10=\d\.\d{4} queries=4 skipped=0$",
                    block[0])
    metrics = json.loads((tmp / "metrics.json").read_text())
    assert metrics["queries"] == 4


@pytest.mark.parametrize("filter_mode", ["train", "all"])
def test_eval_warns_once_about_unknown_test_triples(tmp_path, capsys, caplog,
                                                    filter_mode):
    snap = tmp_path / "t1"
    write_snapshot_dir(snap, TOY_T1, test=[("e1", "r1", "e5"), ("ghost", "r1", "e5")])
    run(capsys, "train", str(snap), str(tmp_path / "m.pkl"), *FAST_FLAGS)
    caplog.clear()
    code, out, _ = run(capsys, "eval", str(snap), str(tmp_path / "m.pkl"),
                       "--filter-mode", filter_mode)
    assert code == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == ["skipped 1 test triples with unknown objects"]
    assert out.splitlines()[-1].endswith(" queries=2 skipped=1")


def test_eval_with_nothing_to_score_only_fails(tmp_path, capsys, caplog):
    """An all-unknown test.txt gives the one error line and no warning
    about the skipped triples before it."""
    snap = tmp_path / "t1"
    write_snapshot_dir(snap, TOY_T1, test=[("ghost", "r1", "e5"), ("e1", "r9", "e2")])
    run(capsys, "train", str(snap), str(tmp_path / "m.pkl"), *FAST_FLAGS)
    caplog.clear()
    code, _, err = run(capsys, "eval", str(snap), str(tmp_path / "m.pkl"))
    assert code == 1
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {snap / 'test.txt'}: nothing to score: every triple names an unknown "
        f"object (2 skipped)"]
    assert not [r for r in caplog.records
                if r.name == "dkge.evaluation" and r.levelname == "WARNING"]


def test_train_warns_when_no_valid_triple_is_known(tmp_path, capsys, caplog):
    snap = tmp_path / "t1"
    write_snapshot_dir(snap, TOY_T1, valid=[("ghost", "r1", "e5"), ("e1", "r9", "e2")])
    code, _, _ = run(capsys, "train", str(snap), str(tmp_path / "m.pkl"), *FAST_FLAGS)
    assert code == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == ["skipped all 2 valid.txt triples: each names an unknown object"]


def test_eval_header_shows_checkpoint_settings(capped_run, capsys):
    tmp, old, _ = capped_run
    triples = load_snapshot_dir(old).train.name_triples()
    write_snapshot_dir(tmp / "e", triples, test=triples[:1])
    code, out, _ = run(capsys, "eval", str(tmp / "e"), str(tmp / "c0.pkl"))
    assert code == 0
    header = out.splitlines()[0]
    assert header == ("config: dim=8 entity_layers=1 relation_layers=1 cap=10 "
                      "seed=3 filter_mode=train "
                      "tie_mode=optimistic")


def test_eval_ignores_model_settings_in_config(capped_run, capsys, monkeypatch):
    """A config file whose cap differs from the checkpoint's leaves what
    eval and answer print as it is without the file: both read the model
    settings from the checkpoint alone.  The checkpoint holds no joint
    tables, so every context is rebuilt under its cap."""
    tmp, old, _ = capped_run
    triples = load_snapshot_dir(old).train.name_triples()
    write_snapshot_dir(tmp / "e", triples, test=triples[:5])
    _without_joint_tables(tmp / "c0.pkl", tmp / "bare.pkl")
    want = _eval_and_answer(capsys, tmp / "e", tmp / "bare.pkl")
    assert "cap=10" in want[0].splitlines()[0].split()
    cfg = tmp / "model.cfg"
    cfg.write_text("cap = 3\n")
    code, out, _ = run(capsys, "eval", str(tmp / "e"), str(tmp / "bare.pkl"),
                       "--config", str(cfg))
    assert (code, out) == (0, want[0])
    monkeypatch.setenv("DKGE_CONFIG", str(cfg))
    assert _eval_and_answer(capsys, tmp / "e", tmp / "bare.pkl") == want


def test_eval_requires_test_file(dirs, capsys):
    tmp, old, _ = dirs
    run(capsys, "train", str(old), str(tmp / "m1.pkl"), *FAST_FLAGS)
    code, _, err = run(capsys, "eval", str(old), str(tmp / "m1.pkl"))
    assert code == 1
    assert "test.txt" in err


def test_eval_filter_all_mode(dirs, capsys):
    tmp, old, new = dirs
    run(capsys, "train", str(old), str(tmp / "m1.pkl"), *FAST_FLAGS)
    run(capsys, "update", str(old), str(new), str(tmp / "m1.pkl"),
        str(tmp / "m2.pkl"), *FAST_FLAGS)
    code, out, _ = run(capsys, "eval", str(new), str(tmp / "m2.pkl"),
                       "--filter-mode", "all")
    assert code == 0
    assert any(l.startswith("mr=") for l in out.splitlines())


def _without_joint_tables(src, dst):
    store = load_checkpoint(src)
    store.ent_star = store.rel_star = store.joint_snapshot = None
    save_checkpoint(store, dst)


def _eval_and_answer(capsys, snapshot_dir, ckpt):
    outputs = []
    for argv in (["eval", str(snapshot_dir), str(ckpt)],
                 ["answer", str(snapshot_dir), str(ckpt), "e1", "r1", "-k", "5"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outputs.append(out)
    return outputs


def _full_encode_notes(caplog):
    return [r.getMessage() for r in caplog.records if "encoding every" in r.getMessage()]


def test_eval_and_answer_build_no_context(dirs, capsys, caplog, monkeypatch):
    tmp, old, new = dirs
    run(capsys, "train", str(old), str(tmp / "m1.pkl"), *FAST_FLAGS)
    run(capsys, "update", str(old), str(new), str(tmp / "m1.pkl"),
        str(tmp / "m2.pkl"), *FAST_FLAGS)
    _without_joint_tables(tmp / "m2.pkl", tmp / "bare.pkl")
    want = _eval_and_answer(capsys, new, tmp / "bare.pkl")

    def no_context(*args, **kwargs):
        raise AssertionError("built a context")

    monkeypatch.setattr(dkge.contexts, "build_contexts", no_context)
    caplog.clear()
    assert _eval_and_answer(capsys, new, tmp / "m2.pkl") == want
    assert not _full_encode_notes(caplog)
    with pytest.raises(AssertionError, match="built a context"):
        _eval_and_answer(capsys, new, tmp / "bare.pkl")


def test_eval_and_answer_on_other_triples_encode_afresh(dirs, capsys, caplog,
                                                        monkeypatch):
    """Same dictionaries, one more triple: the stored tables belong to
    another graph, so eval and answer encode as a store without them does,
    and each says so in one warning."""
    tmp, old, _ = dirs
    run(capsys, "train", str(old), str(tmp / "m1.pkl"), *FAST_FLAGS)
    other = tmp / "other"
    write_snapshot_dir(other, TOY_T1 + (("e2", "r1", "e4"),),
                       test=[("e1", "r1", "e5"), ("e3", "r4", "e2")])
    _without_joint_tables(tmp / "m1.pkl", tmp / "bare.pkl")
    want = _eval_and_answer(capsys, other, tmp / "bare.pkl")

    built = []
    build = dkge.contexts.build_contexts

    def counted(*args, **kwargs):
        built.extend(args[2].tolist())
        return build(*args, **kwargs)

    monkeypatch.setattr(dkge.contexts, "build_contexts", counted)
    caplog.clear()
    assert _eval_and_answer(capsys, other, tmp / "m1.pkl") == want
    assert built
    assert _full_encode_notes(caplog) == [
        f"{tmp / 'm1.pkl'} holds no joint tables for the triples in {other}; "
        "encoding every entity and relation"] * 2


# -- answer -------------------------------------------------------------------

def test_answer_prints_ranked_lines(dirs, capsys):
    tmp, old, _ = dirs
    run(capsys, "train", str(old), str(tmp / "m1.pkl"), *FAST_FLAGS)
    code, out, _ = run(capsys, "answer", str(old), str(tmp / "m1.pkl"),
                       "e1", "r1", "-k", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for rank, line in enumerate(lines, start=1):
        m = re.match(r"^(\d+) (\S+) (\d+\.\d{6})$", line)
        assert m, line
        assert int(m.group(1)) == rank
    scores = [float(l.split()[2]) for l in lines]
    assert scores == sorted(scores)


def test_answer_unknown_entity(dirs, capsys):
    tmp, old, _ = dirs
    run(capsys, "train", str(old), str(tmp / "m1.pkl"), *FAST_FLAGS)
    code, _, err = run(capsys, "answer", str(old), str(tmp / "m1.pkl"),
                       "ghost", "r1")
    assert code == 1
    assert "ghost" in err


def test_answer_on_corrupt_checkpoint_exits_1(dirs, capsys):
    tmp, old, _ = dirs
    run(capsys, "train", str(old), str(tmp / "m1.pkl"), *FAST_FLAGS)
    data = (tmp / "m1.pkl").read_bytes()
    (tmp / "cut.pkl").write_bytes(data[:len(data) // 2])
    code, out, err = run(capsys, "answer", str(old), str(tmp / "cut.pkl"), "e1", "r1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "cut.pkl" in err


def test_eval_on_short_table_exits_1(dirs, capsys):
    """A checkpoint whose rel_ctx lacks a row fails with the path and the
    key, rather than evaluating with the rows it has."""
    tmp, _, new = dirs
    run(capsys, "train", str(new), str(tmp / "m.pkl"), *FAST_FLAGS)
    payload = pickle.loads((tmp / "m.pkl").read_bytes())
    payload["rel_ctx"] = payload["rel_ctx"][:-1]
    (tmp / "short.pkl").write_bytes(pickle.dumps(payload, protocol=4))
    code, out, err = run(capsys, "eval", str(new), str(tmp / "short.pkl"))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "short.pkl" in err and "rel_ctx" in err


# -- diff ---------------------------------------------------------------------

def test_diff_toy_output(dirs, capsys):
    _, old, new = dirs
    code, out, _ = run(capsys, "diff", str(old), str(new))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("added_triples=2 deleted_triples=0 emerging_entities=1 "
                        "emerging_relations=1 removed_entities=0 "
                        "removed_relations=0 changed_context=4 retrain_triples=8")
    assert "emerging entity e7" in lines
    assert "emerging relation r7" in lines
    assert "changed entity e1" in lines
    assert "changed relation r5" in lines
    assert "retrain e6 r5 e3" in lines


def test_diff_identical_dirs(dirs, capsys):
    _, old, _ = dirs
    code, out, _ = run(capsys, "diff", str(old), str(old))
    assert code == 0
    assert out.splitlines()[0] == (
        "added_triples=0 deleted_triples=0 emerging_entities=0 "
        "emerging_relations=0 removed_entities=0 removed_relations=0 "
        "changed_context=0 retrain_triples=0")


def _diff_changed(out):
    lines = out.splitlines()
    counts = dict(field.split("=") for field in lines[0].split())
    changed = sorted(l for l in lines if l.startswith("changed "))
    retrain = sorted(l for l in lines if l.startswith("retrain "))
    return counts, changed, retrain


def test_diff_and_update_agree_on_truncated_contexts(tmp_path, capsys, monkeypatch):
    """r links (a, b) through five midpoints; under a midpoint limit of two
    r's context does not see the sixth, so neither ``diff`` nor ``update``
    finds r changed, and both retrain the same triples."""
    triples = [("a", "r", "b")]
    for i in range(5):
        triples += [("a", f"g{i}", f"m{i}"), (f"m{i}", f"h{i}", "b")]
    old, new = tmp_path / "s0", tmp_path / "s1"
    write_snapshot_dir(old, triples)
    write_snapshot_dir(new, triples + [("a", "g3", "m9"), ("m9", "h4", "b")])
    c0, c1 = str(tmp_path / "c0.pkl"), str(tmp_path / "c1.pkl")
    monkeypatch.setattr(dkge.contexts, "MAX_MIDPOINTS", 2)
    assert run(capsys, "train", str(old), c0, *FAST_FLAGS)[0] == 0

    code, out, _ = run(capsys, "diff", str(old), str(new))
    assert code == 0
    counts, changed, retrain = _diff_changed(out)
    assert changed == ["changed entity a", "changed entity b"]
    code, _, _ = run(capsys, "update", str(old), str(new), c0, c1, *FAST_FLAGS)
    assert code == 0
    report = json.loads((tmp_path / "c1.pkl.report.json").read_text(encoding="utf-8"))
    assert report["retrained_triples"] == int(counts["retrain_triples"]) == len(retrain)
    # a and b train their knowledge rows, the emerging m9 both rows; d = 8
    assert report["updated_parameters"] == (2 + 2 * 1) * 8

    monkeypatch.undo()
    _, changed, _ = _diff_changed(run(capsys, "diff", str(old), str(new))[1])
    assert "changed relation r" in changed


# file and id order differ from name order, and str order puts "Zé" before
# "a" before "a'" before "b" before "é"
NAME_ORDER_OLD = [("b", "s", "a'"), ("é", "s", "a"), ("Zé", "s", "b"), ("a'", "Ré", "Zé"),
                  ("a", "Ré", "b")]
NAME_ORDER_NEW = [("é", "s", "Zé"), ("Zé", "s", "a"), ("Zé", "Ré", "a'"), ("b", "Ré", "é"),
                  *reversed(NAME_ORDER_OLD[:4])]


def test_diff_matches_oracle_over_update_traces(tmp_path, capsys):
    """Changed objects and retrain lines as the one-object oracle gives them;
    the retrain lines come in the name order of their triples."""
    named = ("names", Snapshot.from_name_triples(NAME_ORDER_OLD),
             Snapshot.from_name_triples(NAME_ORDER_NEW))
    assert sorted(named[2].entity_names) != list(named[2].entity_names)
    for trace, g_old, g_new in (*update_traces(), named):
        old, new = tmp_path / f"{trace}a", tmp_path / f"{trace}b"
        write_snapshot_dir(old, g_old.name_triples())
        write_snapshot_dir(new, g_new.name_triples())
        code, out, _ = run(capsys, "diff", str(old), str(new))
        assert code == 0
        counts, changed, retrain = _diff_changed(out)
        diff = diff_snapshots(g_old, g_new)
        oracle = changed_context_objects(g_old, g_new)
        assert changed == sorted(
            f"changed {kind} "
            f"{(g_new.entity_names if kind == 'entity' else g_new.relation_names)[obj]}"
            for kind, obj in oracle)
        t_ol = collect_retrain_set(g_new, diff, split_refs(oracle))
        assert retrain == sorted("retrain " + " ".join(g_new.triple_names(t)) for t in t_ol)
        assert [line for line in out.splitlines() if line.startswith("retrain ")] == [
            "retrain " + " ".join(names)
            for names in sorted(g_new.triple_names(row) for row in t_ol)]
        assert int(counts["changed_context"]) == len(oracle)
    assert len(retrain) > 3


# ``dkge diff`` of the toy trace, as the commit before it stopped storing
# capped contexts printed it
TOY_DIFF = """\
added_triples=2 deleted_triples=0 emerging_entities=1 emerging_relations=1 \
removed_entities=0 removed_relations=0 changed_context=4 retrain_triples=8
emerging entity e7
emerging relation r7
changed entity e1
changed entity e3
changed entity e6
changed relation r5
retrain e1 r1 e2
retrain e1 r1 e5
retrain e1 r5 e3
retrain e1 r6 e6
retrain e3 r1 e4
retrain e3 r4 e2
retrain e6 r5 e3
retrain e7 r7 e6
"""


def test_diff_builds_no_capped_contexts(dirs, capsys, monkeypatch):
    """``dkge diff`` compares uncapped relation contexts only: it builds no
    entity context, makes no context table, samples no capped copy and
    computes no S entry."""
    _, old, new = dirs

    def refuse(*args, **kwargs):
        raise AssertionError("dkge diff built an entity or a capped context")

    monkeypatch.setattr(dkge.contexts, "_entity_contexts", refuse)
    monkeypatch.setattr(ContextTable, "__init__", refuse)
    monkeypatch.setattr(ContextTable, "_capped", refuse)
    monkeypatch.setattr(dkge.agcn, "normalize_adjacency", refuse)
    code, out, _ = run(capsys, "diff", str(old), str(new))
    assert code == 0
    assert out == TOY_DIFF


# -- determinism --------------------------------------------------------------

def test_cli_runs_are_reproducible(dirs, capsys):
    tmp, old, new = dirs
    run(capsys, "train", str(old), str(tmp / "a1.pkl"), *FAST_FLAGS)
    run(capsys, "train", str(old), str(tmp / "b1.pkl"), *FAST_FLAGS)
    assert (tmp / "a1.pkl").read_bytes() == (tmp / "b1.pkl").read_bytes()
    run(capsys, "update", str(old), str(new), str(tmp / "a1.pkl"),
        str(tmp / "a2.pkl"), *FAST_FLAGS)
    run(capsys, "update", str(old), str(new), str(tmp / "b1.pkl"),
        str(tmp / "b2.pkl"), *FAST_FLAGS)
    assert (tmp / "a2.pkl").read_bytes() == (tmp / "b2.pkl").read_bytes()
    ra = json.loads((tmp / "a2.pkl.report.json").read_text())
    rb = json.loads((tmp / "b2.pkl.report.json").read_text())
    ra.pop("seconds"), rb.pop("seconds")
    assert ra == rb


# -- the checkpoint's snapshot ------------------------------------------------

def _mask(text):
    return re.sub(r"seconds=\d+\.\d+", "seconds=_", text)


@pytest.fixture()
def parsed(monkeypatch):
    """The triple files parsed since the fixture was set up, by name."""
    paths = []
    read = dkge.kg_store._read_columns

    def counted(path, data):
        paths.append(path.name)
        return read(path, data)

    monkeypatch.setattr(dkge.kg_store, "_read_columns", counted)
    return paths


def test_unchanged_train_files_are_not_parsed(dirs, capsys, parsed):
    """``eval`` and ``answer`` on the checkpoint's own snapshot parse no
    train.txt, ``update`` parses only the new one, and an old directory
    with other triples is parsed and refused."""
    tmp, old, new = dirs
    run(capsys, "train", str(old), str(tmp / "m1.pkl"), *FAST_FLAGS)
    assert parsed == ["train.txt"]
    parsed.clear()
    assert run(capsys, "update", str(old), str(new), str(tmp / "m1.pkl"),
               str(tmp / "m2.pkl"), *FAST_FLAGS)[0] == 0
    assert parsed == ["train.txt", "test.txt"]
    parsed.clear()
    _eval_and_answer(capsys, new, tmp / "m2.pkl")
    assert parsed == ["test.txt"] * 2
    parsed.clear()
    code, _, err = run(capsys, "update", str(new), str(new), str(tmp / "m1.pkl"),
                       str(tmp / "m3.pkl"), *FAST_FLAGS)
    assert (code, parsed) == (1, ["train.txt", "test.txt"]) and err.startswith("error: ")


# the toy steps with their rows reordered, keeping every name's first
# occurrence, or with a comment line: the same snapshots from other bytes
def _reordered(triples):
    moved = TOY_T1.index(("e1", "r1", "e2"))
    return (triples[0], triples[moved], *triples[1:moved], *triples[moved + 1:])


def _commented(path):
    text = (path / "train.txt").read_text(encoding="utf-8")
    (path / "train.txt").write_text("# the same triples\n" + text, encoding="utf-8")


@pytest.mark.parametrize("change", ["reordered", "commented"])
def test_other_bytes_take_the_full_parse(dirs, capsys, parsed, change):
    """A train.txt with the checkpoint's triples in other bytes is parsed,
    and ``update``, ``eval`` and ``answer`` print what they print on the
    original file."""
    tmp, old, new = dirs
    other_old, other_new = tmp / "old2", tmp / "new2"
    test = [("e1", "r1", "e5"), ("e6", "r5", "e3")]
    for path, triples, files in ((other_old, TOY_T1, {}), (other_new, TOY_T2, {"test": test})):
        write_snapshot_dir(path, _reordered(triples) if change == "reordered" else triples,
                           **files)
        if change == "commented":
            _commented(path)
    run(capsys, "train", str(old), str(tmp / "m1.pkl"), *FAST_FLAGS)
    outputs = {}
    for old_dir, new_dir in ((old, new), (other_old, other_new)):
        parsed.clear()
        code, out, _ = run(capsys, "update", str(old_dir), str(new), str(tmp / "m1.pkl"),
                           str(tmp / "m2.pkl"), *FAST_FLAGS)
        assert code == 0 and parsed.count("train.txt") == 1 + (old_dir != old)
        outputs.setdefault("update", []).append(
            (_mask(out), (tmp / "m2.pkl").read_bytes()))
        parsed.clear()
        outputs.setdefault("eval, answer", []).append(
            _eval_and_answer(capsys, new_dir, tmp / "m2.pkl"))
        assert parsed.count("train.txt") == 2 * (new_dir != new)
    for what, (want, got) in outputs.items():
        assert got == want, what


def test_duplicate_rows_warn_on_both_paths(tmp_path, capsys, caplog, parsed):
    """A train.txt with a duplicate row logs the same warning whether it
    is parsed or taken from the checkpoint."""
    snap, other = tmp_path / "s", tmp_path / "s2"
    for path in (snap, other):
        write_snapshot_dir(path, TOY_T1 + TOY_T1[:2], test=[("e1", "r1", "e5")])
    _commented(other)
    run(capsys, "train", str(snap), str(tmp_path / "m.pkl"), *FAST_FLAGS)
    warnings = []
    for path in (snap, other):
        caplog.clear()
        parsed.clear()
        _eval_and_answer(capsys, path, tmp_path / "m.pkl")
        assert parsed.count("train.txt") == 2 * (path == other)
        warnings.append([r.getMessage().replace(str(path), "<dir>")
                         for r in caplog.records if "collapsed" in r.getMessage()])
    assert warnings[0] == warnings[1] == ["<dir>/train.txt: collapsed 2 duplicate triples"] * 2


# -- misuse -------------------------------------------------------------------

@pytest.fixture(scope="module")
def misuse_dirs(tmp_path_factory):
    """A checkpoint of toy step 1; toy step 2, which it does not match; toy
    step 1 without (e3, r1, e4), which keeps every name; toy step 1 with a
    scorable, an empty and an all-unknown test file; copies of the
    checkpoint with a NaN row in ``ent_star``, with a stored triple
    repeated in ``triple_ids``, with the flags of the first dtype state set
    and with a first frame of 2**62 bytes; 4,000-line train files with
    one malformed or undecodable line; and a config file setting the
    removed ``max_midpoints``."""
    tmp = tmp_path_factory.mktemp("misuse")
    write_snapshot_dir(tmp / "t1", TOY_T1)
    for name, test in (("t1-test", [("e1", "r1", "e2")]), ("t1-empty-test", []),
                       ("t1-unknown-test", [("e1", "r1", "x9"), ("e1", "r9", "e2")])):
        write_snapshot_dir(tmp / name, TOY_T1, test=test)
    write_snapshot_dir(tmp / "t2", TOY_T2, test=[("e1", "r1", "e5")])
    write_snapshot_dir(tmp / "t1-other", [t for t in TOY_T1 if t != ("e3", "r1", "e4")])
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", str(tmp / "t1"), str(tmp / "m1.pkl"), *FAST_FLAGS]) == 0
    payload = pickle.loads((tmp / "m1.pkl").read_bytes())
    payload["ent_star"][2] = np.nan
    (tmp / "nan.pkl").write_bytes(pickle.dumps(payload, protocol=4))
    payload = pickle.loads((tmp / "m1.pkl").read_bytes())
    payload["triple_ids"] = np.concatenate((payload["triple_ids"], payload["triple_ids"][:1]))
    (tmp / "ids.pkl").write_bytes(pickle.dumps(payload, protocol=4))
    data = bytearray((tmp / "m1.pkl").read_bytes())
    ops = list(pickletools.genops(bytes(data)))
    # the state (3, "<", None, None, None, -1, -1, flags) of the first dtype
    at = next(i for i, (_, arg, _) in enumerate(ops) if arg == "<")
    data[next(ops[i - 1][2] + 1 for i in range(at, len(ops)) if ops[i][0].name == "TUPLE")] = 1
    (tmp / "flags.pkl").write_bytes(data)
    data = bytearray((tmp / "m1.pkl").read_bytes())
    assert ops[1][0].name == "FRAME"
    data[3:11] = (1 << 62).to_bytes(8, "little")
    (tmp / "frame.pkl").write_bytes(data)
    lines = [b"e%d\tr\te%d\n" % (i, i + 1) for i in range(4000)]
    for name, bad_at, bad in (("malformed", 3000, b"e1\tr\n"),
                              ("undecodable", 4000, b"e1\tr\t\xffe2\n")):
        (tmp / name).mkdir()
        (tmp / name / "train.txt").write_bytes(b"".join(lines[:bad_at] + [bad] + lines[bad_at:]))
    (tmp / "empty").mkdir()
    (tmp / "midpoints.cfg").write_text("max_midpoints = 2\n", encoding="utf-8")
    return tmp


@pytest.mark.parametrize("argv, message", [
    (("answer", "{t1}", "{m1}", "e1", "r1", "-k", "0"), "-k must be at least 1, got 0"),
    (("answer", "{t1}", "{m1}", "e1", "r1", "-k", "-2"), "-k must be at least 1, got -2"),
    (("answer", "{t2}", "{m1}", "e1", "r1"),
     "{m1}: parameter store dictionaries do not match the snapshot in {t2}"),
    (("eval", "{t2}", "{m1}"),
     "{m1}: parameter store dictionaries do not match the snapshot in {t2}"),
    (("update", "{t2}", "{t2}", "{m1}", "{tmp}/m2.pkl"),
     "{m1}: parameter store dictionaries do not match the snapshot in {t2}"),
    (("diff", "{t1}", "{tmp}/malformed"),
     "{tmp}/malformed/train.txt:3001: expected 3 tab-separated fields, got 2"),
    (("train", "{tmp}/undecodable", "{tmp}/m3.pkl"),
     "{tmp}/undecodable/train.txt:4001: not UTF-8: invalid start byte"),
    (("answer", "{tmp}/empty", "{m1}", "e1", "r1"),
     "{tmp}/empty/train.txt:0: required training file is missing"),
    (("update", "{tmp}/t1-other", "{t2}", "{m1}", "{tmp}/m2.pkl", *FAST_FLAGS),
     "{m1}: checkpoint was trained on other triples than those in {tmp}/t1-other"),
    (("train", "{t1}", "{tmp}/m3.pkl", "--d", "8", "--lr", "1e6", "--batch", "4",
      "--max-epochs", "30"),
     "training diverged: epoch 5 mean loss is nan at learning rate 1000000.0"),
    (("update", "{t1}", "{t2}", "{tmp}/nan.pkl", "{tmp}/m2.pkl"),
     "{tmp}/nan.pkl: checkpoint ent_star holds a non-finite entry"),
    (("train", "{t1}", "{tmp}/missing/m3.pkl", *FAST_FLAGS),
     "{tmp}/missing/m3.pkl: directory {tmp}/missing does not exist"),
    (("train", "{t1}", "{tmp}/empty", *FAST_FLAGS),
     "{tmp}/empty: output path is a directory"),
    (("update", "{t1}", "{t2}", "{m1}", "{tmp}/empty", *FAST_FLAGS),
     "{tmp}/empty: output path is a directory"),
    (("eval", "{tmp}/t1-test", "{m1}", "--report-file", "{tmp}/missing/r.json"),
     "{tmp}/missing/r.json: directory {tmp}/missing does not exist"),
    (("eval", "{tmp}/t1-empty-test", "{m1}"),
     "{tmp}/t1-empty-test/test.txt: nothing to score: it holds no triple"),
    (("eval", "{tmp}/t1-unknown-test", "{m1}"),
     "{tmp}/t1-unknown-test/test.txt: nothing to score: every triple names an "
     "unknown object (2 skipped)"),
    (("train", "{t1}", "{tmp}/m3.pkl", "--config", "{tmp}/midpoints.cfg"),
     "{tmp}/midpoints.cfg:1: unknown key 'max_midpoints'"),
    (("eval", "{tmp}/t1-test", "{tmp}/ids.pkl"),
     "{tmp}/ids.pkl: checkpoint triple_ids: duplicate triples in snapshot"),
    (("answer", "{t1}", "{tmp}/flags.pkl", "e1", "r1"),
     "{tmp}/flags.pkl: checkpoint ent_know is not a stored array"),
    (("answer", "{t1}", "{tmp}/frame.pkl", "e1", "r1"),
     "{tmp}/frame.pkl: not a readable checkpoint: MemoryError()"),
], ids=["k-zero", "k-negative", "answer-mismatch", "eval-mismatch", "update-mismatch",
        "malformed-line", "non-utf8-byte", "missing-train", "update-wrong-old",
        "train-diverges", "nan-checkpoint", "train-missing-out-dir", "train-out-is-dir",
        "update-out-is-dir", "eval-missing-report-dir", "eval-empty-test",
        "eval-unknown-test", "config-max-midpoints", "eval-repeated-stored-triple",
        "checkpoint-dtype-flags", "checkpoint-frame-too-long"])
def test_misuse_prints_one_error_line(misuse_dirs, capsys, argv, message):
    """A bad invocation exits 1 with one stderr line naming the file or the
    flag, and writes no checkpoint and no report."""
    paths = {"tmp": misuse_dirs, "t1": misuse_dirs / "t1", "t2": misuse_dirs / "t2",
             "m1": misuse_dirs / "m1.pkl"}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, err) == (1, f"error: {message.format(**paths)}\n")
    written = {"m2.pkl", "m3.pkl", "m2.pkl.report.json", "m3.pkl.report.json"}
    assert not written & {p.name for p in misuse_dirs.iterdir()}


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_damaged_checkpoints_end_in_one_error_line(misuse_dirs, data):
    """A checkpoint cut at any length, or with any one byte changed, makes
    ``eval`` and ``answer`` exit 0, or exit 1 with one error line."""
    good = (misuse_dirs / "m1.pkl").read_bytes()
    at = data.draw(st.integers(0, len(good) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        damaged = good[:at]
    else:
        damaged = bytearray(good)
        damaged[at] ^= data.draw(st.integers(1, 255), label="xor")
    path = misuse_dirs / "damaged.pkl"
    path.write_bytes(damaged)
    snap = str(misuse_dirs / "t1-test")
    for argv in (["eval", snap, str(path)], ["answer", snap, str(path), "e1", "r1"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1)
        if code:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert not err.getvalue()
