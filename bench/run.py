#!/usr/bin/env python3
"""Benchmark of the dkge commands on seeded synthetic graph streams.

Run from the root of a dkge checkout:

    python3 bench/run.py --workload scratch-5k --seed 1 --seconds 40 --trace 0

One process runs one workload.  It generates the workload's snapshots from
``--seed``, writes them under ``.bench_work/``, and calls ``dkge.cli.main``
in-process for every command, so interpreter start-up and the numpy import
stay out of every sample.  A round runs ``train`` on step 0 and, for every
later step, ``diff``, ``update``, ``eval`` and one ``answer`` per query.
Rounds repeat while the time allows; every command's output is checked
(see ``checks.py``), and each check is one attempted operation.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced and
traced, and the object holds the per-layer metrics (see ``tracing.py``).
The README next to this file lists the workloads, metrics and reference
figures.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from clock import WINDOW, HostClock, Interval
from tracing import Tracer, layer_metrics
from workloads import CAP, MODEL_SEED, WORKLOADS, Workload, random_name_triples

N_SETUPS = 3               # set-ups per run; setup_s is their median
UPDATE_SCORE_SAMPLE = 64   # unchanged triples whose score an update must keep
ANSWER_K = 10
MB = 2 ** 20

TIMED = ("setup_s", "train_s", "update_s", "diff_s", "eval_s", "answer_s")


@dataclass
class Command:
    kind: str
    scope: int | None
    code: int
    interval: Interval
    stdout: str
    epoch_seconds: list[float]
    movable: set = field(default_factory=set)
    changed: int = 0


def import_program():
    """The dkge package of the checkout in the working directory."""
    src = Path.cwd() / "src"
    if not (src / "dkge" / "__init__.py").is_file():
        sys.exit("bench: no src/dkge in the working directory; "
                 "run from the root of a dkge checkout")
    sys.path.insert(0, str(src))
    import dkge.checkpoint
    import dkge.cli
    import dkge.contexts
    import dkge.kg_store
    import dkge.model
    return dkge


def write_snapshot(path: Path, train, test) -> None:
    path.mkdir(parents=True)
    for fname, triples in (("train.txt", train), ("test.txt", test)):
        with open(path / fname, "w", encoding="utf-8") as fh:
            fh.writelines(f"{h}\t{r}\t{t}\n" for h, r, t in triples)


def fault_trace() -> tuple[list, list]:
    """A fixed 400-triple graph and the same graph plus one triple.

    Independent of ``--seed``: it carries the one known failure, an update
    of a model trained with non-default ``--cap`` and ``--seed`` that
    passes only optimiser flags.
    """
    rng = np.random.default_rng(400)
    base = random_name_triples(rng, 400, 40, 8)
    have = set(base)
    extra = next(t for t in random_name_triples(rng, 50, 40, 8) if t not in have)
    return base, base + [extra]


# the known-failure update passes these flags and no others
FAULT_OPTIMISER = ["--lr", "0.01", "--batch", "100", "--margin", "4.0",
                   "--max-epochs", "1", "--eval-every", "2"]

_SECONDS = re.compile(r"seconds=[0-9.]+")
_EPOCH = re.compile(r"^epoch=\d+ .* seconds=([0-9.]+)$", re.M)


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path, dkge, trace: bool):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.dk = dkge
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.clock = HostClock()
        self.samples: dict[str, list[Interval]] = {m: [] for m in TIMED}
        self.traced_samples: dict[str, list[Interval]] = {m: [] for m in TIMED}
        self.epoch_seconds: list[float] = []
        self.commands: list[Command] = []       # traced commands
        self.scopes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.known_failures = 0
        self.check_seconds = 0.0
        self.reference: dict[tuple, tuple[str, list[str]]] = {}
        self._expected: dict[int, dict] = {}
        self.with_fault = workload.name == "update-stream"

    # -- inputs ------------------------------------------------------------

    def snap(self, i: int) -> str:
        return str(self.work / f"s{i}")

    def ckpt(self, i: int) -> str:
        return str(self.work / f"c{i}.ckpt")

    def prepare(self) -> None:
        for i, (train, test) in enumerate(zip(self.wl.steps, self.wl.tests)):
            write_snapshot(self.work / f"s{i}", train, test)
        if self.with_fault:
            base, new = fault_trace()
            self.fault = (base, new)
            write_snapshot(self.work / "f0", base, ())
            write_snapshot(self.work / "f1", new, ())
            fault_train = ["train", str(self.work / "f0"), str(self.work / "f0.ckpt"),
                           "--cap", "10", "--seed", "3"] + FAULT_OPTIMISER
            with contextlib.redirect_stdout(io.StringIO()):
                self.fault_trained = self.dk.cli.main(fault_train) == 0

    def expected(self, i: int) -> dict:
        """Change report from step i-1 to step i, computed apart from dkge."""
        if i not in self._expected:
            self._expected[i] = checks.expected_diff(self.wl.steps[i - 1], self.wl.steps[i])
        return self._expected[i]

    @staticmethod
    def movable(want: dict) -> set[tuple[str, str]]:
        return ({("entity", n) for n in want["emerging_entities"]}
                | {("relation", n) for n in want["emerging_relations"]}
                | want["changed"])

    # -- running and checking ------------------------------------------------

    def run_command(self, kind: str, argv: list[str], traced: bool) -> Command:
        gc.collect()
        scope = None
        if traced:
            self.scopes += 1
            scope = self.scopes
            self.tracer.scope = scope
        out = io.StringIO()
        try:
            with self.clock.measure() as interval, contextlib.redirect_stdout(out):
                code = self.dk.cli.main(argv)
        except SystemExit as exc:        # argparse rejected the flags
            code = exc.code if isinstance(exc.code, int) else 2
        if traced:
            self.tracer.scope = None
        stdout = out.getvalue()
        cmd = Command(kind, scope, code, interval, stdout,
                      [float(x) for x in _EPOCH.findall(stdout)])
        if traced:
            self.commands.append(cmd)
        return cmd

    def record(self, metric: str, cmd: Command) -> None:
        samples = self.traced_samples if cmd.scope is not None else self.samples
        samples[metric].append(cmd.interval)

    def fingerprint(self, cmd: Command, checkpoint: str | None = None) -> str:
        """Output with wall-clock fields masked, plus the checkpoint bytes."""
        h = hashlib.blake2b(_SECONDS.sub("seconds=", cmd.stdout).encode())
        if checkpoint is not None and Path(checkpoint).is_file():
            h.update(Path(checkpoint).read_bytes())
            with open(checkpoint + ".report.json", encoding="utf-8") as fh:
                report = json.load(fh)
            report.pop("seconds", None)
            h.update(json.dumps(report, sort_keys=True).encode())
        return h.hexdigest()

    def verify(self, key: tuple, cmd: Command, full_check, checkpoint=None,
               known_failure=False) -> None:
        """One attempted operation.  The first round runs the full check;
        later rounds must reproduce the first round's output exactly, as
        reruns with one seed do, and inherit its verdict."""
        t0 = time.perf_counter()
        self.attempted += 1
        if cmd.code != 0:
            problems = [f"exit code {cmd.code}"]
        else:
            fp = self.fingerprint(cmd, checkpoint)
            ref = None if known_failure else self.reference.get(key)
            if ref is None:
                try:
                    problems = full_check()
                except Exception as exc:   # output the check could not read
                    problems = [f"check raised {exc!r}"]
                self.reference[key] = (fp, problems)
            elif ref[0] != fp:
                problems = ["output differs from the first round's"]
            else:
                problems = ref[1]
        if problems:
            self.failed += 1
            self.known_failures += known_failure
            self.problems.append(f"{' '.join(map(str, key))}: {'; '.join(problems)}")
        self.check_seconds += time.perf_counter() - t0

    def load(self, snapshot_dir: str):
        return self.dk.kg_store.load_snapshot_dir(snapshot_dir).train

    def check_update(self, old_dir, new_dir, old_ckpt, new_ckpt, stdout, want,
                     triples) -> list[str]:
        load = self.dk.checkpoint.load_checkpoint
        before, after = load(old_ckpt), load(new_ckpt)
        problems = checks.check_update_report(stdout, len(want["retrain"]))
        problems += checks.check_update_parameters(before, after, self.movable(want))
        problems += checks.check_update_scores(
            before, after, self.load(old_dir), self.load(new_dir), triples,
            self.dk.model.object_forward)
        return problems

    def unchanged_sample(self, i: int) -> list:
        want = self.expected(i)
        stable = sorted((set(self.wl.steps[i - 1]) & set(self.wl.steps[i])) - want["retrain"])
        rng = np.random.default_rng([self.seed, 2, i])
        size = min(UPDATE_SCORE_SAMPLE, len(stable))
        return [stable[j] for j in sorted(rng.choice(len(stable), size=size, replace=False))]

    # -- one round -------------------------------------------------------------

    def setup(self, traced: bool) -> None:
        gc.collect()
        if traced:
            self.scopes += 1
            self.tracer.scope = self.scopes
        with self.clock.measure() as interval:
            sd = self.dk.kg_store.load_snapshot_dir(self.snap(0))
            self.dk.contexts.ContextTable(sd.train, cap=CAP, seed=MODEL_SEED).build_all()
        if traced:
            self.tracer.scope = None
            self.commands.append(Command("setup", self.scopes, 0, interval, "", []))
        self.samples["setup_s"].append(interval)

    def round(self, traced: bool) -> None:
        wl = self.wl
        model = wl.model_flags()
        cmd = self.run_command(
            "train", ["train", self.snap(0), self.ckpt(0)] + model
            + wl.optimiser_flags(wl.train_epochs), traced)
        self.record("train_s", cmd)
        if not traced:
            self.epoch_seconds += cmd.epoch_seconds
        self.verify(("train",), cmd, lambda: checks.check_train(
            self.ckpt(0) + ".report.json", wl.train_epochs), self.ckpt(0))
        encoded = {}
        for i in range(1, len(wl.steps)):
            want = self.expected(i)
            cmd = self.run_command("diff", ["diff", self.snap(i - 1), self.snap(i)], traced)
            self.record("diff_s", cmd)
            self.verify(("diff", i), cmd, lambda: checks.check_diff(cmd.stdout, want))

            cmd = self.run_command(
                "update", ["update", self.snap(i - 1), self.snap(i), self.ckpt(i - 1),
                           self.ckpt(i)] + model + wl.optimiser_flags(wl.update_epochs),
                traced)
            cmd.movable, cmd.changed = self.movable(want), len(want["changed"])
            self.record("update_s", cmd)
            self.verify(("update", i), cmd, lambda: self.check_update(
                self.snap(i - 1), self.snap(i), self.ckpt(i - 1), self.ckpt(i),
                cmd.stdout, want, self.unchanged_sample(i)), self.ckpt(i))

            def encode():
                if i not in encoded:
                    encoded[i] = checks.Encoded(
                        self.dk.checkpoint.load_checkpoint(self.ckpt(i)),
                        self.load(self.snap(i)), self.dk.model.object_forward)
                return encoded[i]

            cmd = self.run_command("eval", ["eval", self.snap(i), self.ckpt(i)], traced)
            self.record("eval_s", cmd)
            self.verify(("eval", i), cmd, lambda: checks.check_eval(
                cmd.stdout, encode(), wl.steps[i], wl.tests[i]))

            for q, (head, relation) in enumerate(wl.queries):
                cmd = self.run_command(
                    "answer", ["answer", self.snap(i), self.ckpt(i), head, relation,
                               "-k", str(ANSWER_K)], traced)
                self.record("answer_s", cmd)
                self.verify(("answer", i, q), cmd, lambda: checks.check_answer(
                    cmd.stdout, encode(), head, relation, ANSWER_K))
            encoded.clear()
        if self.with_fault:
            self.fault_op()

    def fault_op(self) -> None:
        """The one known failure: ``update`` takes cap and seed from its own
        flags instead of the checkpoint, so every context sampled at the
        training run's cap moves and with it the score of every triple."""
        f0, f1 = str(self.work / "f0"), str(self.work / "f1")
        c0, c1 = str(self.work / "f0.ckpt"), str(self.work / "f1.ckpt")
        cmd = self.run_command("fault", ["update", f0, f1, c0, c1]
                               + FAULT_OPTIMISER, traced=False)
        if not self.fault_trained:
            cmd.code = cmd.code or 1
        base, new = self.fault
        want = checks.expected_diff(tuple(base), tuple(new))
        stable = sorted((set(base) & set(new)) - want["retrain"])
        self.verify(("update", "cap/seed from flags"), cmd, lambda: self.check_update(
            f0, f1, c0, c1, cmd.stdout, want, stable), c1, known_failure=True)

    # -- the run -----------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        t_start = time.perf_counter()
        self.clock.start()
        try:
            for _ in range(N_SETUPS):
                self.setup(traced=self.trace)
            rounds, min_rounds, estimate = 0, 2 if self.trace else 1, 0.0
            while rounds < min_rounds or time.perf_counter() - t_start + estimate <= seconds:
                traced = self.trace and rounds % 2 == 1
                if traced:
                    self.tracer.install()
                t0, checked = time.perf_counter(), self.check_seconds
                try:
                    self.round(traced)
                finally:
                    if traced:
                        self.tracer.remove()
                # later rounds check by fingerprint only; plan with the run time
                estimate = time.perf_counter() - t0 - (self.check_seconds - checked)
                rounds += 1
            time.sleep(WINDOW)   # probes after the last command, for its window
        finally:
            self.clock.stop()
        print(f"bench: {self.wl.name} seed={self.seed} rounds={rounds} "
              f"elapsed={time.perf_counter() - t_start:.1f}s "
              f"checks={self.check_seconds:.1f}s", file=sys.stderr)
        for metric, intervals in self.samples.items():
            print(f"bench: {metric} reference "
                  + " ".join(f"{self.clock.reference(iv):.3f}" for iv in intervals)
                  + " wall " + " ".join(f"{self.clock.wall(iv):.3f}" for iv in intervals),
                  file=sys.stderr)
        for line in self.problems:
            print(f"bench: FAILED {line}", file=sys.stderr)
        metrics = self.layer_metrics(rounds // 2) if self.trace else self.e2e_metrics()
        return {
            "correct": self.failed == self.known_failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def median(self, intervals: list[Interval]) -> float:
        return statistics.median(self.clock.reference(iv) for iv in intervals)

    def e2e_metrics(self) -> dict:
        out = {m: {"value": self.median(self.samples[m]), "unit": "s"} for m in TIMED}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        out["peak_rss_mb"] = {"value": peak, "unit": "MB"}
        return out

    def layer_metrics(self, traced_rounds: int) -> dict:
        values = layer_metrics(self.tracer.spans, self.commands, max(1, traced_rounds))
        values["training.epoch_s"] = statistics.median(self.epoch_seconds)
        values["training.retrained_triples"] = statistics.median(
            len(self.expected(i)["retrain"]) for i in range(1, len(self.wl.steps)))
        values["checkpoint.mb"] = Path(self.ckpt(0)).stat().st_size / MB
        for kind in ("train", "update", "eval"):
            traced = self.traced_samples[f"{kind}_s"]
            plain = self.samples[f"{kind}_s"]
            values[f"trace.{kind}_overhead_s"] = self.median(traced) - self.median(plain)
        units = {"_s": "s", "_us": "us", "_calls": "count", "_yield": "ratio",
                 ".mb": "MB", ".candidates": "count", "_triples": "count"}
        return {name: {"value": value,
                       "unit": next(u for suffix, u in units.items() if name.endswith(suffix))}
                for name, value in sorted(values.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    dkge = import_program()
    workload = WORKLOADS[args.workload](args.seed)
    root = Path.cwd() / ".bench_work"
    root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root, prefix=f"{args.workload}-") as tmp:
        bench = Bench(workload, args.seed, Path(tmp), dkge, bool(args.trace))
        bench.prepare()
        result = bench.run(args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
