"""The bench workloads: what one pass runs and how its outputs are checked.

A workload builds its inputs from the workload seed in ``setup`` and hands
the program only the generated task and config.  ``ops`` returns one
pass: a list of ops, each a timed ``run`` and an untimed ``check`` that
raises ``CheckFailed`` on a wrong output and otherwise returns the sha256
digests of the op's artifacts.  The runner compares those digests across
passes, so repeats of one seed, traced or not, must produce the same bytes.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import shutil
from typing import Callable

from magnorm import cli, datagen, diagnostics, metrics, model, objective, simcore

REFERENCE_CONFIG = os.path.join("configs", "reference.json")
KINDS = ("cosine", "dot", "qnorm", "dnorm", "learnable")
CLI_KINDS = ("dot", "dnorm")
# Evaluation cadence that never fires inside a training, so only step 0
# and the final step are evaluated.
NO_PERIODIC_EVAL = 10**9


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


@dataclasses.dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], dict]


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_trainlog(path) -> None:
    rows = _read_csv(path)
    first, last = float(rows[0]["val_ndcg10"]), float(rows[-1]["val_ndcg10"])
    _require(last > first, f"{path}: final val_ndcg10 {last} does not beat step 0 ({first})")


def _cli(*argv) -> Callable[[], tuple]:
    """An op body that runs ``cli.main(argv)`` in-process; it returns the
    exit code and everything the command printed."""

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(argv))
        return code, sink.getvalue()

    return run


class TrainWorkload:
    """Five in-process trainings per pass, one per similarity kind."""

    def __init__(self, root, workdir, seed, epochs, eval_every):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.epochs = epochs
        self.eval_every = eval_every

    def setup(self) -> None:
        cfg = cli.load_config(os.path.join(self.root, REFERENCE_CONFIG))
        self.cfg = cfg
        self.task = datagen.gen_asymmetric(dataclasses.replace(cfg.task, seed=self.seed))
        self.n_train = len(self.task.split_queries("train"))
        self.train_cfgs = {
            kind: model.TrainConfig(
                seed=self.seed,
                loss=objective.LossConfig(kind=simcore.kind_from_name(kind), **cfg.loss_params),
                **{**cfg.train_params, "epochs": self.epochs, "eval_every": self.eval_every},
            )
            for kind in KINDS
        }
        self._encoders()  # encoder init is part of set-up; each pass makes fresh ones

    def _encoders(self) -> dict:
        c = self.cfg
        m = self.task.doc_features.shape[1]
        return {
            kind: model.init_encoder(m, c.enc_hidden, c.enc_dim, c.enc_shared, self.seed)
            for kind in KINDS
        }

    def begin_pass(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)

    def ops(self) -> list:
        encoders = self._encoders()
        return [self._train_op(kind, encoders[kind]) for kind in KINDS]

    def _train_op(self, kind, encoder) -> Op:
        def run():
            return model.train(self.task, encoder, self.train_cfgs[kind])

        def check(result):
            path = os.path.join(self.workdir, f"trainlog_{kind}.csv")
            model.write_trainlog_csv(path, result.log)
            _check_trainlog(path)
            return {f"trainlog_{kind}": sha256_file(path)}

        return Op(f"train:{kind}", run, check)

    def phases(self, medians: dict) -> dict:
        if len(medians) < len(KINDS):
            return {"train_pairs_per_s": (None, "pairs/s")}
        pairs = self.epochs * self.n_train * len(KINDS)
        return {"train_pairs_per_s": (pairs / sum(medians.values()), "pairs/s")}


class CliWorkload:
    """The CLI run in-process: gen, train, eval, diagnose, resume, sweep."""

    def __init__(self, root, workdir, seed, epochs):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.epochs = epochs
        self.out = os.path.join(workdir, "out")
        self.config = os.path.join(workdir, "config.json")

    def setup(self) -> None:
        with open(os.path.join(self.root, REFERENCE_CONFIG)) as fh:
            raw = json.load(fh)
        raw["task"]["seed"] = self.seed
        raw["train"]["epochs"] = self.epochs
        raw["seeds"] = [self.seed]
        self.n_docs = raw["task"]["n_docs"]
        os.makedirs(self.workdir, exist_ok=True)
        with open(self.config, "w") as fh:
            json.dump(raw, fh, indent=1)
        cli.load_config(self.config)

    def begin_pass(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)

    def _path(self, name) -> str:
        return os.path.join(self.out, name)

    def _stem(self, kind) -> str:
        return f"{kind}_{self.seed}"

    def ops(self) -> list:
        common = ("--config", self.config, "--out", self.out)
        ckpt = {k: self._path(f"checkpoint_{self._stem(k)}.json") for k in CLI_KINDS}
        ops = [
            Op("gen", _cli("gen", *common), self._check_gen),
            Op("train", _cli("train", *common, "--kinds", ",".join(CLI_KINDS)), self._check_train),
        ]
        for kind in CLI_KINDS:
            ops.append(
                Op(
                    f"eval:{kind}",
                    _cli("eval", "--checkpoint", ckpt[kind], "--out", self.out, "--split", "test"),
                    functools.partial(self._check_eval, kind),
                )
            )
        diagnose = ["diagnose", "--out", self.out]
        for kind in CLI_KINDS:
            diagnose += ["--checkpoint", ckpt[kind]]
        ops += [
            Op("diagnose", _cli(*diagnose), self._check_diagnose),
            Op("resume", _cli("train", *common, "--resume", ckpt["dot"]), self._check_resume),
            Op(
                "sweep",
                _cli("sweep", *common, "--kinds", ",".join(CLI_KINDS), "--force"),
                self._check_sweep,
            ),
        ]
        return ops

    @staticmethod
    def _exit_ok(result) -> None:
        code, output = result
        _require(code == 0, f"exit code {code}: {output.strip()[-300:]}")

    def _check_gen(self, result) -> dict:
        self._exit_ok(result)
        for name in datagen.TASK_FILES:
            _require(os.path.isfile(self._path(name)), f"gen did not write {name}")
        return {}

    def _trainlog_digests(self) -> dict:
        out = {}
        for kind in CLI_KINDS:
            path = self._path(f"trainlog_{self._stem(kind)}.csv")
            _check_trainlog(path)
            out[f"trainlog_{kind}"] = sha256_file(path)
        return out

    def _check_train(self, result) -> dict:
        self._exit_ok(result)
        return self._trainlog_digests()

    def _run_and_metrics(self, kind) -> dict:
        """Check one run file and its metrics CSV; return their digests."""
        stem = self._stem(kind)
        run_path = self._path(f"run_{stem}_test.txt")
        met_path = self._path(f"metrics_{stem}_test.csv")
        runs = metrics.read_run_file(run_path)
        with open(self._path("splits.json")) as fh:
            n_test = len(json.load(fh)["test"])
        _require(len(runs) == n_test, f"{run_path}: {len(runs)} queries, expected {n_test}")
        for run in runs:
            scores = [s for _, s in run.entries]
            _require(
                len(scores) == self.n_docs, f"{run_path}: {run.query_id} ranks {len(scores)} docs"
            )
            _require(
                all(a >= b for a, b in zip(scores, scores[1:])),
                f"{run_path}: scores increase for {run.query_id}",
            )
        qrels = metrics.read_qrels(self._path("qrels.txt"))
        recomputed = metrics.evaluate_runs(runs, qrels, [("ndcg", 10)])[-1][3]
        written = next(
            r["value"]
            for r in _read_csv(met_path)
            if r["query_id"] == "ALL" and r["metric"] == "ndcg" and r["k"] == "10"
        )
        _require(
            written == f"{recomputed:.10g}",
            f"{met_path}: ndcg@10 {written} != {recomputed:.10g} recomputed from the run file",
        )
        return {f"run_{kind}": sha256_file(run_path), f"metrics_{kind}": sha256_file(met_path)}

    def _check_eval(self, kind, result) -> dict:
        self._exit_ok(result)
        return self._run_and_metrics(kind)

    def _check_diagnose(self, result) -> dict:
        self._exit_ok(result)
        with open(self._path("diagnostics.json")) as fh:
            reports = json.load(fh)
        _require(len(reports) == len(CLI_KINDS), f"diagnose wrote {len(reports)} reports")
        return {}

    def _check_resume(self, result) -> dict:
        self._exit_ok(result)
        stem = self._stem("dot")
        with open(self._path(f"trainlog_{stem}.csv")) as fh:
            original = fh.read().splitlines()
        resumed_path = self._path(f"trainlog_{stem}_resumed.csv")
        with open(resumed_path) as fh:
            resumed = fh.read().splitlines()
        with open(self._path(f"checkpoint_{stem}.json")) as fh:
            step = json.load(fh)["step"]
        tail = [row for row in original[1:] if int(row.split(",")[0]) >= step]
        _require(
            resumed == original[:1] + tail,
            f"resumed trainlog is not the original trainlog from checkpoint step {step} on",
        )
        return {"trainlog_dot_resumed": sha256_file(resumed_path)}

    def _check_sweep(self, result) -> dict:
        self._exit_ok(result)
        rows = _read_csv(self._path("sweep_summary.csv"))
        _require(len(rows) == len(CLI_KINDS), f"sweep summary has {len(rows)} rows")
        for row in rows:
            _require(
                float(row["val_ndcg10"]) > float(row["untrained_val_ndcg10"]),
                f"sweep {row['kind']}: trained val_ndcg10 does not beat untrained",
            )
        digests = self._trainlog_digests()
        for kind in CLI_KINDS:
            digests.update(self._run_and_metrics(kind))
        return digests

    def phases(self, medians: dict) -> dict:
        evals = [medians[f"eval:{k}"] for k in CLI_KINDS if f"eval:{k}" in medians]
        out = {
            "gen_s": medians.get("gen"),
            "cli_train_s": medians.get("train"),
            "eval_s": sum(evals) / len(evals) if evals else None,
            "resume_s": medians.get("resume"),
            "sweep_s": medians.get("sweep"),
        }
        return {name: (value, "s") for name, value in out.items()}


class VerifyWorkload:
    """The property suites: ``magnorm verify`` plus the ranking-equivalence check."""

    def __init__(self, seed, verify_trials, equivalence_trials):
        self.seed = seed
        self.verify_trials = verify_trials
        self.equivalence_trials = equivalence_trials

    def setup(self) -> None:
        self.argv = ["verify", "--trials", str(self.verify_trials), "--seed", str(self.seed)]

    def begin_pass(self) -> None:
        pass

    def ops(self) -> list:
        def check_verify(result):
            code, output = result
            _require(code == 0, f"verify exit code {code}: {output.strip()[-300:]}")
            return {"verify_stdout": hashlib.sha256(output.encode()).hexdigest()}

        def equivalence():
            return diagnostics.verify_ranking_equivalence(
                dim=8, n_docs=16, trials=self.equivalence_trials, seed=self.seed
            )

        def check_equivalence(verdict):
            _require(verdict.all_ok, f"ranking equivalence failed: {verdict.counterexample}")
            return {"equivalence_verdict": hashlib.sha256(repr(verdict).encode()).hexdigest()}

        return [
            Op("verify", _cli(*self.argv), check_verify),
            Op("equivalence", equivalence, check_equivalence),
        ]

    def phases(self, medians: dict) -> dict:
        return {
            "verify_s": (medians.get("verify"), "s"),
            "equivalence_s": (medians.get("equivalence"), "s"),
        }
