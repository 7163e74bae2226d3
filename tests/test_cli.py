"""End-to-end command coverage: exit codes, file contracts, determinism."""

import base64
import builtins
import contextlib
import csv
import errno
import io
import json
import os

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from magnorm import cli, diagnostics, grad, model, simcore
from magnorm.cli import load_config, main
from magnorm.datagen import TASK_FILES, load_task
from magnorm.model import TRAINLOG_HEADER, forward, load_checkpoint


def _write_config(path, out, kinds=("dot", "cosine"), epochs=3, **over):
    cfg = {
        "out": str(out),
        "task": {
            "n_docs": 48,
            "n_queries": 192,
            "feature_dim": 12,
            "n_clusters": 6,
            "hub_fraction": 0.1,
            "hub_multiplicity": 6,
            "noise_sigma": 0.1,
            "seed": 3,
        },
        "encoder": {"hidden": 16, "embed_dim": 8, "shared": False},
        "train": {"lr": 0.01, "epochs": epochs, "batch_size": 32, "eval_every": 4},
        "loss": {"tau": 1.0, "alpha": 20.0},
        "kinds": list(kinds),
        "seeds": [0],
    }
    for key, val in over.items():
        section, _, leaf = key.partition(".")
        cfg[section][leaf] = val
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.delenv("MAGNORM_OUT", raising=False)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json", out)
    return out, cfg


def _trained_dot_readers(out, cfg, capsys):
    """Train dot; return its checkpoint and a run of --resume, eval and diagnose on it (stdout, file bytes)."""
    assert main(["gen", "--config", cfg]) == 0
    assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
    capsys.readouterr()
    ckpt = out / "checkpoint_dot_0.json"
    commands = [["train", "--config", cfg, "--resume", str(ckpt)], ["eval", "--checkpoint", str(ckpt)],
                ["diagnose", "--checkpoint", str(ckpt)]]
    outputs = ["trainlog_dot_0_resumed.csv", "run_dot_0_test.txt", "metrics_dot_0_test.csv", "diagnostics.json"]

    def run():
        for argv in commands:
            assert main([*argv, "--out", str(out), "--force"]) == 0
        return capsys.readouterr().out, [(out / name).read_bytes() for name in outputs]

    return ckpt, run


class TestGen:
    def test_writes_task_files(self, workdir, capsys):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        for name in TASK_FILES:
            assert (out / name).exists()
        assert "48 docs, 192 queries" in capsys.readouterr().out

    def test_refuses_overwrite_then_forces(self, workdir, capsys):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["gen", "--config", cfg]) == 4
        assert "overwrite refusal" in capsys.readouterr().err
        assert main(["gen", "--config", cfg, "--force"]) == 0

    def test_deterministic_bytes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MAGNORM_OUT", raising=False)
        cfg_a = _write_config(tmp_path / "a.json", tmp_path / "a")
        cfg_b = _write_config(tmp_path / "b.json", tmp_path / "b")
        assert main(["gen", "--config", cfg_a]) == 0
        assert main(["gen", "--config", cfg_b]) == 0
        for name in TASK_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_task(self, workdir):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        first = (out / "corpus.jsonl").read_bytes()
        assert main(["gen", "--config", cfg, "--seed", "9", "--force"]) == 0
        assert (out / "corpus.jsonl").read_bytes() != first

    def test_infeasible_spec_exits_two_leaving_no_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("MAGNORM_OUT", raising=False)
        out = tmp_path / "out"
        cfg = _write_config(tmp_path / "cfg.json", out, **{"task.hub_multiplicity": 193})
        assert main(["gen", "--config", cfg]) == 2
        assert "hub_multiplicity" in capsys.readouterr().err
        assert not out.exists()


class TestConfigErrors:
    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"out": "x",\n  "task": }\n')
        assert main(["gen", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"tusk": {}}')
        assert main(["gen", "--config", str(bad)]) == 2
        assert "tusk" in capsys.readouterr().err

    def test_unknown_section_key(self, tmp_path, capsys):
        # loss.lambda is the deleted pair-regression objective's key.
        bad = tmp_path / "bad.json"
        for body, key in (('{"train": {"learning_rate": 0.1}}', "train: learning_rate"),
                          ('{"loss": {"lambda": 0.01}}', "loss: lambda")):
            bad.write_text(body)
            assert main(["gen", "--config", str(bad)]) == 2
            assert f"unknown key(s) in {key}" in capsys.readouterr().err

    def test_bad_kind_name(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kinds": ["euclidean"]}')
        assert main(["gen", "--config", str(bad)]) == 2
        assert "euclidean" in capsys.readouterr().err

    def test_bad_loss_number(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"loss": {"tau": -1.0}}')
        assert main(["gen", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "body, named",
        [
            ('{"encoder": {"shared": "false"}}', "encoder.shared"),
            ('{"encoder": {"shared": 0}}', "encoder.shared"),
            ('{"task": {"n_docs": 512.9}}', "task.n_docs"),
            ('{"task": {"hub_multiplicity": true}}', "task.hub_multiplicity"),
            ('{"train": {"epochs": "3"}}', "train.epochs"),
            ('{"train": {"lr": "0.01"}}', "train.lr"),
            ('{"loss": {"tau": true}}', "loss.tau"),
            ('{"train": {"gamma_lr": false}}', "train.gamma_lr"),
            ('{"task": {"splits": [0.8, 0.1, "0.1"]}}', "task.splits"),
            ('{"task": {"splits": 1.0}}', "task.splits"),
            ('{"seeds": [1.7]}', "seeds"),
            ('{"seeds": [true]}', "seeds"),
            ('{"out": 5}', "out"),
            # Python's json reads NaN and Infinity.  Unchecked, a NaN
            # noise_sigma crashed gen, an infinite tau trained to a flat loss
            # of ln B and exited 0, a NaN alpha exited 5 as a divergence, and
            # an integer no float holds crashed with an OverflowError.
            ('{"task": {"noise_sigma": NaN}}', "task.noise_sigma"),
            ('{"loss": {"tau": Infinity}}', "loss.tau"),
            ('{"loss": {"alpha": NaN}}', "loss.alpha"),
            ('{"task": {"splits": [0.8, NaN, 0.1]}}', "task.splits"),
            pytest.param('{"train": {"lr": 1%s}}' % ("0" * 400), "train.lr", id="lr-past-float-range"),
        ],
    )
    def test_ill_typed_value_exits_two_naming_it(self, tmp_path, capsys, body, named):
        bad = tmp_path / "bad.json"
        bad.write_text(body)
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {named} must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_rates_exit_two(self, tmp_path, capsys):
        # As a negative lr is; a gamma_lr of 0 freezes the gammas and stays valid.
        for key, value in (("weight_decay", -0.01), ("gamma_lr", -0.05)):
            bad = _write_config(tmp_path / "bad.json", tmp_path / "o", **{f"train.{key}": value})
            assert main(["gen", "--config", bad]) == 2
            assert "must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        ok = _write_config(tmp_path / "ok.json", tmp_path / "o", **{"train.gamma_lr": 0})
        assert load_config(ok).train_params["gamma_lr"] == 0.0

    def test_numbers_and_null_where_floats_go(self, tmp_path):
        # Every float or null default, given as a JSON int, trains as a
        # float; ints stay ints, and the sections the checkpoint echoes keep
        # the JSON ints.
        ints = {
            "task": {"hub_fraction": 0, "noise_sigma": 1, "splits": [1, 0, 0]},
            "train": {"lr": 1, "beta1": 0, "beta2": 0, "eps": 1, "weight_decay": 0, "clip_norm": 2, "gamma_lr": 0},
            "loss": {"tau": 2, "alpha": 20},
        }
        defaults = {"task": cli.DEFAULT_TASK, "train": cli.DEFAULT_TRAIN, "loss": cli.DEFAULT_LOSS}
        floats = {(sec, key) for sec, d in defaults.items() for key, v in d.items() if type(v) in (float, type(None))}
        assert floats <= {(sec, key) for sec, d in ints.items() for key in d}
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps(ints))
        cfg = load_config(str(ok))
        taken = {"task": vars(cfg.task), "train": cfg.train_params, "loss": cfg.loss_params}
        for sec, key in floats:
            assert type(taken[sec][key]) is float and taken[sec][key] == ints[sec][key], (sec, key)
            assert type(cfg.sections[sec][key]) is int, (sec, key)
        assert type(cfg.train_params["epochs"]) is int and type(cfg.task.n_docs) is int
        assert cfg.task.splits == (1.0, 0.0, 0.0)
        assert load_config(None).train_params["gamma_lr"] is None

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.json")]) == 3

    def test_non_utf8_config_exits_two_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"magnorm: config error: {bad} is not UTF-8 text")
        assert not (tmp_path / "o").exists()

    def test_reference_file_matches_defaults(self):
        ref = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "reference.json"))
        default = load_config(None)
        assert ref.sections == default.sections
        assert (ref.kinds, ref.seeds) == (default.kinds, default.seeds)


class TestTrain:
    def test_trains_and_writes_artifacts(self, workdir, capsys):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        for tag in ("dot", "cosine"):
            ckpt = out / f"checkpoint_{tag}_0.json"
            tlog = out / f"trainlog_{tag}_0.csv"
            assert ckpt.exists() and tlog.exists()
            assert tlog.read_text().splitlines()[0] == TRAINLOG_HEADER
            _, _, state, echo = load_checkpoint(ckpt)
            assert echo["kind"] == tag and echo["seed"] == 0
            assert state.step >= 0
        assert "selected step" in capsys.readouterr().out

    def test_missing_task_is_io_error(self, workdir, capsys):
        out, cfg = workdir
        assert main(["train", "--config", cfg]) == 3
        assert "I/O failure" in capsys.readouterr().err

    def test_kinds_filter(self, workdir):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        assert (out / "checkpoint_dot_0.json").exists()
        assert not (out / "checkpoint_cosine_0.json").exists()

    def test_bad_kinds_flag(self, workdir):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "euclidean"]) == 2

    @pytest.mark.parametrize("kinds", ["learnable:1,1", "dot,dot", "learnable,learnable:0.3,0.8", "learnablefoo"])
    def test_untrainable_or_clashing_kinds_exit_two(self, workdir, kinds):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", kinds]) == 2
        assert not list(out.glob("checkpoint_*"))

    def test_bad_kinds_flag_exits_two_before_the_task_loads(self, workdir, tmp_path, capsys):
        out, cfg = workdir
        message = "bad similarity kind 'learnable:0.3': learnable takes two gammas"
        assert main(["train", "--config", cfg, "--kinds", "learnable:0.3"]) == 2
        assert message in capsys.readouterr().err
        in_config = _write_config(tmp_path / "kinds.json", out, kinds=["learnable:0.3"])
        assert main(["train", "--config", in_config]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_val_split_exits_two_writing_nothing(self, tmp_path, monkeypatch, capsys):
        # With no val query train used to exit 0, every val_ndcg10 reading 0
        # and the untrained step 0 saved as the selected checkpoint.
        monkeypatch.delenv("MAGNORM_OUT", raising=False)
        out = tmp_path / "out"
        cfg = _write_config(tmp_path / "cfg.json", out, **{"task.splits": [0.9, 0.0, 0.1]})
        assert main(["gen", "--config", cfg]) == 0
        assert json.loads((out / "splits.json").read_text())["val"] == []
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 2
        assert capsys.readouterr().err == (
            "magnorm: config error: val split has no queries; training selects its checkpoint by val_ndcg10\n"
        )
        assert not list(out.glob("checkpoint_*")) and not list(out.glob("trainlog_*"))

    def test_train_query_without_relevant_doc_exits_two(self, workdir, capsys):
        # A train query judged only grade 0 used to crash the first epoch's
        # positive draw with a numpy traceback.
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        qid = json.loads((out / "splits.json").read_text())["train"][0]
        path = out / "qrels.txt"
        lines = [line.split() for line in path.read_text().splitlines()]
        path.write_text("".join(f"{q} 0 {d} {0 if q == qid else g}\n" for q, _, d, g in lines))
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 2
        assert capsys.readouterr().err == (
            f"magnorm: config error: train query {qid!r} has no relevant doc to draw as its positive\n"
        )
        assert not list(out.glob("checkpoint_*"))

    def test_refuses_overwrite(self, workdir):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 4
        assert main(["train", "--config", cfg, "--kinds", "dot", "--force"]) == 0

    def test_resume_reproduces_log_tail(self, workdir, capsys):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        step = load_checkpoint(out / "checkpoint_dot_0.json")[2].step
        assert main(
            ["train", "--config", cfg, "--resume", str(out / "checkpoint_dot_0.json")]
        ) == 0
        full = (out / "trainlog_dot_0.csv").read_text().splitlines()
        resumed = (out / "trainlog_dot_0_resumed.csv").read_text().splitlines()
        expect = [full[0]] + [r for r in full[1:] if int(r.split(",")[0]) >= step]
        assert resumed == expect

    def test_checkpoint_echoing_loss_lambda_still_loads(self, workdir, capsys):
        # Checkpoints written while the config had loss.lambda echo it, in
        # the full loss section of that time.  A config without the key
        # still resumes, evaluates and diagnoses them, with the bytes of
        # the same checkpoint without it.
        out, cfg = workdir
        ckpt, run = _trained_dot_readers(out, cfg, capsys)
        want = run()
        ckpt.write_bytes(_echo("loss", {"tau": 1.0, "alpha": 20.0, "lambda": 0.01})(ckpt.read_bytes()))
        assert load_checkpoint(ckpt)[3]["loss"] == {"tau": 1.0, "alpha": 20.0, "lambda": 0.01}
        assert run() == want

    @pytest.mark.parametrize("rng", [np.random.default_rng(0).bit_generator.state, "garbage"], ids=["pcg64", "garbage"])
    def test_checkpoint_holding_an_rng_key_still_loads(self, workdir, capsys, rng):
        # Checkpoints written while they stored the generator state hold an
        # rng key, a PCG64 state dict.  The seed redraws the data order, so
        # the key is ignored, whatever it holds: --resume, eval and diagnose
        # write the bytes of the same checkpoint without it.
        out, cfg = workdir
        ckpt, run = _trained_dot_readers(out, cfg, capsys)
        want = run()
        ckpt.write_bytes(_set("rng", value=rng)(ckpt.read_bytes()))
        assert json.loads(ckpt.read_text())["rng"] == rng
        assert run() == want

    def test_echo_holds_only_values_off_their_defaults(self, workdir, capsys):
        # Besides kind and seed, the echo holds what differs from its
        # default, so a new key at its default moves no checkpoint byte.  A
        # full echo of every section value, as older checkpoints hold, reads
        # the same: --resume, eval and diagnose write the same bytes.
        out, cfg = workdir
        ckpt, run = _trained_dot_readers(out, cfg, capsys)
        assert json.loads(ckpt.read_text())["config"] == {
            "kind": "dot", "seed": 0,
            "task": {"n_docs": 48, "n_queries": 192, "feature_dim": 12, "n_clusters": 6, "hub_fraction": 0.1,
                     "hub_multiplicity": 6, "seed": 3},
            "encoder": {"hidden": 16, "embed_dim": 8},
            "train": {"epochs": 3, "batch_size": 32, "eval_every": 4},
            "loss": {},
        }
        want = run()
        full = {"kind": "dot", "seed": 0, **load_config(cfg).sections}
        ckpt.write_bytes(_set("config", value=full)(ckpt.read_bytes()))
        assert run() == want

    def test_sparse_echo_resumes_under_a_config_that_spells_every_default(self, workdir, tmp_path, capsys):
        # The echo leaves train.weight_decay out; --config spells it, and every other value, at its default.
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        ckpt = out / "checkpoint_dot_0.json"
        assert "weight_decay" not in json.loads(ckpt.read_text())["config"]["train"]
        spelled = tmp_path / "spelled.json"
        spelled.write_text(json.dumps({"out": str(out), **load_config(cfg).sections}))
        assert main(["train", "--config", str(spelled), "--resume", str(ckpt)]) == 0
        step = load_checkpoint(ckpt)[2].step
        full = (out / "trainlog_dot_0.csv").read_text().splitlines()
        resumed = (out / "trainlog_dot_0_resumed.csv").read_text().splitlines()
        assert resumed == [full[0]] + [r for r in full[1:] if int(r.split(",")[0]) >= step]

    def test_resume_rejects_foreign_checkpoint(self, workdir, tmp_path):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        other_cfg = _write_config(
            tmp_path / "other.json", out, kinds=("dot",), **{"train.lr": 0.002}
        )
        rc = main(["train", "--config", other_cfg, "--resume",
                   str(out / "checkpoint_dot_0.json"), "--force"])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags", [["--kinds", "cosine"], ["--seed", "5"], ["--kinds", "cosine", "--seed", "5"]]
    )
    def test_resume_refuses_kind_and_seed_flags(self, workdir, capsys, flags):
        # The checkpoint names the kind and seed it replays; a flag that
        # asks for another one is refused, not silently ignored.
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--resume", str(out / "checkpoint_dot_0.json"), *flags]) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags if flag.startswith("--"))
        assert not list(out.glob("*_resumed.csv"))

    @pytest.mark.parametrize(
        "over, named",
        [({"train.lr": 0.002}, "train.lr 0.01, --config gives 0.002"),
         ({"loss.tau": 0.5, "train.epochs": 4}, "train.epochs 3, --config gives 4"),
         ({"train.gamma_lr": 0.05, "encoder.hidden": 8}, "encoder.hidden 16, --config gives 8"),
         ({"task.splits": [0.7, 0.2, 0.1]}, "task.splits [0.8, 0.1, 0.1], --config gives [0.7, 0.2, 0.1]")],
        ids=["train-lr", "train-before-loss", "encoder-before-train", "task-default-key"],
    )
    def test_resume_names_the_first_config_key_that_differs(self, workdir, tmp_path, capsys, over, named):
        # The checkpoint continues its own training, so --config must give
        # every section value its echo holds; the first that differs, in
        # task, encoder, train, loss order, is named.
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        other = _write_config(tmp_path / "other.json", out, **over)
        ckpt = out / "checkpoint_dot_0.json"
        capsys.readouterr()
        assert main(["train", "--config", other, "--resume", str(ckpt)]) == 2
        assert capsys.readouterr().err == f"magnorm: config error: {ckpt} was trained with {named}\n"
        assert not list(out.glob("*_resumed.csv"))

    def test_resume_on_a_task_of_another_width_exits_two(self, workdir, tmp_path, capsys):
        # The echo matches --config, but the task files on disk were regenerated wider.
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        assert main(["gen", "--config", _write_config(tmp_path / "wide.json", out, **{"task.feature_dim": 14}),
                     "--force"]) == 0
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--resume", str(out / "checkpoint_dot_0.json")]) == 2
        assert capsys.readouterr().err == "magnorm: config error: the task has 14 features, the encoder takes 12\n"
        assert not list(out.glob("*_resumed.csv"))

    def test_resume_on_a_smaller_regenerated_task_exits_two(self, workdir, tmp_path, capsys):
        # 40 queries leave 32 train queries, one batch an epoch: 3 steps in
        # all, which end before the checkpoint's step.
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        ckpt = out / "checkpoint_dot_0.json"
        step = load_checkpoint(ckpt)[2].step
        assert step > 3
        assert main(["gen", "--config", _write_config(tmp_path / "small.json", out, **{"task.n_queries": 40}),
                     "--force"]) == 0
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--resume", str(ckpt)]) == 2
        assert capsys.readouterr().err == f"magnorm: config error: state step {step} outside [0, 3]\n"
        assert not list(out.glob("*_resumed.csv"))

    def test_resume_checks_checkpoint_echo_and_overwrite_before_the_task(self, workdir, tmp_path, capsys):
        # With a corrupt corpus, each earlier check still answers first: the
        # checkpoint (3), its echo against --config (2), then the overwrite
        # refusal (4); the corpus is named only once all of them pass.
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        ckpt = str(out / "checkpoint_dot_0.json")
        assert main(["train", "--config", cfg, "--resume", ckpt]) == 0
        corpus = out / "corpus.jsonl"
        corpus.write_text(corpus.read_text()[:40])
        bad = out / "bad.json"
        bad.write_text("{")
        other = _write_config(tmp_path / "other.json", out, **{"train.lr": 0.002})
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--resume", str(bad), "--force"]) == 3
        assert main(["train", "--config", other, "--resume", ckpt, "--force"]) == 2
        assert main(["train", "--config", cfg, "--resume", ckpt]) == 4
        assert main(["train", "--config", cfg, "--resume", ckpt, "--force"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"magnorm: corrupt artifact: {bad} ")
        assert err[1].startswith(f"magnorm: config error: {ckpt} was trained with train.lr ")
        assert err[2].startswith("magnorm: overwrite refusal: ")
        assert err[3].startswith(f"magnorm: corrupt artifact: {corpus} ")

    def test_resume_runs_only_the_steps_after_the_checkpoint(self, workdir, capsys, monkeypatch):
        # 154 train queries at batch 32 make 5 batches an epoch, 15 steps.
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "learnable"]) == 0
        ckpt = out / "checkpoint_learnable_0.json"
        step = load_checkpoint(ckpt)[2].step
        real, calls = model.loss_and_grads, []

        def counting(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(model, "loss_and_grads", counting)
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--resume", str(ckpt)]) == 0
        assert len(calls) == 15 - step
        rows = (out / "trainlog_learnable_0_resumed.csv").read_text().splitlines()[1:]
        assert capsys.readouterr().out == f"resumed learnable seed 0 from step {step}: {len(rows)} remaining evals\n"


class TestDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command, kind", [("train", "dot"), ("sweep", "cosine")])
    def test_diverging_loss_exits_five(self, workdir, tmp_path, capsys, command, kind):
        out, _ = workdir
        cfg = _write_config(tmp_path / "div.json", out, **{"loss.alpha": 1e308})
        assert main(["gen", "--config", cfg]) == 0
        assert main([command, "--config", cfg, "--kinds", kind]) == 5
        assert f"numeric divergence: kind {kind} seed 0 at step 0 " in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_scores_exit_five(self, workdir, tmp_path, capsys):
        # The first step leaves finite weights near 1e300 whose dot scores overflow.
        out, _ = workdir
        cfg = _write_config(tmp_path / "big.json", out, kinds=("dot",),
                            **{"encoder.hidden": 0, "train.lr": 1e300, "train.eval_every": 1})
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 5
        assert "numeric divergence: kind dot seed 0: non-finite score" in capsys.readouterr().err

    def test_non_finite_gradient_exits_five(self, workdir, capsys, monkeypatch):
        out, cfg = workdir
        real = model.loss_and_grads
        calls = []

        def inf_at_step_3(*args):
            loss, grad = real(*args)
            calls.append(None)
            if len(calls) == 4:
                grad[0] = np.inf
            return loss, grad

        monkeypatch.setattr(model, "loss_and_grads", inf_at_step_3)
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 5
        assert "kind dot seed 0 at step 3 (gradient norm inf)" in capsys.readouterr().err
        assert not (out / "checkpoint_dot_0.json").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_zero_norm_doc_exits_five(self, workdir, tmp_path, capsys, command):
        # Without a hidden layer an all-zero doc embeds to the zero bias at step 0.
        out, _ = workdir
        cfg = _write_config(tmp_path / "zero.json", out, kinds=("cosine",), **{"encoder.hidden": 0})
        assert main(["gen", "--config", cfg]) == 0
        corpus = out / "corpus.jsonl"
        first, rest = corpus.read_text().split("\n", 1)
        doc = json.loads(first)
        corpus.write_text(json.dumps({**doc, "features": [0.0] * len(doc["features"])}) + "\n" + rest)
        assert main([command, "--config", cfg]) == 5
        assert "zero magnitude: kind cosine seed 0: zero-norm document" in capsys.readouterr().err


class TestEval:
    def _trained(self, workdir):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        return out, cfg, str(out / "checkpoint_dot_0.json")

    def test_writes_run_and_metrics(self, workdir, capsys):
        out, cfg, ckpt = self._trained(workdir)
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "ndcg@10" in stdout and "mrr@10" in stdout
        assert (out / "run_dot_0_test.txt").exists()
        mpath = out / "metrics_dot_0_test.csv"
        rows = list(csv.DictReader(mpath.open()))
        # recall cutoff is clamped to the 48-doc corpus.
        assert {r["metric"] for r in rows} == {"ndcg", "recall", "mrr"}
        assert {r["k"] for r in rows if r["metric"] == "recall"} == {"48"}
        assert any(r["query_id"] == "ALL" for r in rows)

    def test_rerun_is_byte_identical_under_force(self, workdir):
        out, cfg, ckpt = self._trained(workdir)
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out)]) == 0
        first = (out / "metrics_dot_0_test.csv").read_bytes()
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out)]) == 4
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out), "--force"]) == 0
        assert (out / "metrics_dot_0_test.csv").read_bytes() == first

    def test_failed_forced_rewrite_keeps_the_old_files(self, workdir, monkeypatch):
        out, cfg, ckpt = self._trained(workdir)
        argv = ["eval", "--checkpoint", ckpt, "--out", str(out)]
        assert main(argv) == 0
        written = {p: (out / p).read_bytes() for p in os.listdir(out)}
        real_rank_split = cli.rank_split

        def rank_split_unprintable_second_query(*args):
            ranking, norms = real_rank_split(*args)
            ranking.table.query_ids[1] = _Unprintable()
            return ranking, norms

        monkeypatch.setattr(cli, "rank_split", rank_split_unprintable_second_query)
        with pytest.raises(RuntimeError):
            main([*argv, "--force"])
        assert {p: (out / p).read_bytes() for p in os.listdir(out)} == written
        monkeypatch.undo()
        assert main(argv) == 4
        assert main([*argv, "--force"]) == 0
        assert {p: (out / p).read_bytes() for p in os.listdir(out)} == written

    def test_split_and_k_flags(self, workdir):
        out, cfg, ckpt = self._trained(workdir)
        assert main(
            ["eval", "--checkpoint", ckpt, "--out", str(out), "--split", "val", "--k", "5,20,5"]
        ) == 0
        rows = list(csv.DictReader((out / "metrics_dot_0_val.csv").open()))
        assert {r["k"] for r in rows if r["metric"] == "ndcg"} == {"5"}

    def test_bad_k_is_config_error(self, workdir):
        out, cfg, ckpt = self._trained(workdir)
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out), "--k", "10,100"]) == 2
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out), "--k", "a,b,c"]) == 2

    def test_missing_checkpoint_is_io_error(self, workdir):
        out, cfg = workdir
        assert main(["eval", "--checkpoint", str(out / "nope.json"), "--out", str(out)]) == 3

    def test_checks_k_checkpoint_and_overwrite_before_the_task(self, workdir, capsys):
        # With a corrupt corpus, each earlier check still answers first:
        # --k (2), then the checkpoint (3), then the overwrite refusal (4).
        out, cfg, ckpt = self._trained(workdir)
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out)]) == 0
        corpus = out / "corpus.jsonl"
        corpus.write_text(corpus.read_text()[:40])
        bad = out / "bad.json"
        bad.write_text("{")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(bad), "--out", str(out), "--k", "10,100"]) == 2
        assert main(["eval", "--checkpoint", str(bad), "--out", str(out)]) == 3
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out)]) == 4
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out), "--force"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("magnorm: config error: --k expects three")
        assert err[1].startswith(f"magnorm: corrupt artifact: {bad} ")
        assert err[2].startswith("magnorm: overwrite refusal: ")
        assert err[3].startswith(f"magnorm: corrupt artifact: {corpus} ")


class _Unprintable:
    """A query id whose formatting raises, to fail the run-file writer partway through."""

    def __str__(self):
        raise RuntimeError("cannot format")


def _floats(blob) -> np.ndarray:
    return np.frombuffer(base64.b64decode(blob), dtype="<f8").copy()


def _blob(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _edit(change):
    """A corruption that edits the parsed checkpoint payload in place."""
    def corrupt(b):
        payload = json.loads(b)
        change(payload)
        return json.dumps(payload).encode()
    return corrupt


@_edit
def _short_w1(payload):
    payload["weights"]["q.w1"] = _blob(_floats(payload["weights"]["q.w1"])[:2])


@_edit
def _nan_w1(payload):
    w1 = _floats(payload["weights"]["q.w1"])
    w1[0] = float("nan")
    payload["weights"]["q.w1"] = _blob(w1)


@_edit
def _declared_dims(payload):
    # Dims no machine can allocate, with one-entry weights: each weight's
    # size must be checked before anything of the declared shape is built.
    payload["m"] = 10**15
    payload["weights"] = {name: _blob([0.0]) for name in payload["weights"]}


def _moments(edit):
    @_edit
    def corrupt(payload):
        payload["moments"] = _blob(edit(_floats(payload["moments"]).reshape(2, -1)))
    return corrupt


def _set_moment(row, value):
    def edit(moments):
        moments[row, 0] = value
        return moments
    return _moments(edit)


def _set(*path, value):
    @_edit
    def corrupt(payload):
        *parents, leaf = path
        for key in parents:
            payload = payload[key]
        payload[leaf] = value
    return corrupt


def _echo(key, value):
    return _set("config", key, value=value)


@_edit
def _no_format(payload):
    del payload["format"]


class TestCorruptCheckpoint:
    @pytest.mark.parametrize(
        "corrupt",
        [lambda b: b[:300], lambda b: b.replace(b'"step"', b'"stop"'), _short_w1, _nan_w1,
         _echo("kind", "bogus"), _echo("kind", 7), _echo("kind", "learnable:2,2"), _echo("seed", "x"),
         _echo("kind", "learnablefoo"), _declared_dims,
         # The dot checkpoint's moments hold 2 x K floats; learnable's would hold 2 x (K + 2).
         _moments(lambda v: np.pad(v, ((0, 0), (0, 2)))), _moments(lambda v: v[:, :-1]),
         _set_moment(0, float("inf")), _set_moment(1, float("nan")), _set_moment(1, -1e-300),
         _set("moments", value="AAAA*AAAAAAA"), _set("moments", value="AAAAAAAAAAA"),
         _set("weights", "q.b1", value="ÅAAAAAAAAAA="),
         _no_format, _set("format", value=1), _set("format", value=3),
         # 154 train queries at batch 32 make 5 batches an epoch: 3 epochs end at step 15.
         _set("step", value=-1), _set("step", value=16), _set("loss", value=float("inf"))],
        ids=["cut", "no-step", "short-w1", "nan-weight",
             "kind-bogus", "kind-number", "kind-gamma-2", "seed-string", "kind-learnablefoo", "declared-dims",
             "moments-learnable-length", "moments-short", "moments-inf", "moments-nan", "moments-negative-v",
             "blob-stray-char", "blob-bad-padding", "blob-non-ascii",
             "no-format", "format-1", "format-3", "step-negative", "step-past-end", "loss-inf"],
    )
    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_exits_three_naming_the_file(self, workdir, capsys, command, corrupt):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        ckpt = out / "checkpoint_dot_0.json"
        ckpt.write_bytes(corrupt(ckpt.read_bytes()))
        capsys.readouterr()
        if command == "eval":
            assert main(["eval", "--checkpoint", str(ckpt), "--out", str(out)]) == 3
        else:
            assert main(["train", "--config", cfg, "--resume", str(ckpt)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("magnorm: corrupt artifact: " + str(ckpt))

    def test_last_step_of_the_echoed_config_loads(self, workdir):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        ckpt = out / "checkpoint_dot_0.json"
        ckpt.write_bytes(_set("step", value=15)(ckpt.read_bytes()))
        assert load_checkpoint(ckpt)[2].step == 15
        rows = (out / "trainlog_dot_0.csv").read_text().splitlines()
        assert rows[-1].startswith("15,")


@pytest.fixture(scope="module")
def trained_dot(tmp_path_factory):
    """(config path, output directory, checkpoint bytes) of a one-epoch dot training, run once."""
    root = tmp_path_factory.mktemp("trained_dot")
    out = root / "out"
    cfg = _write_config(root / "cfg.json", out, kinds=("dot",), epochs=1)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return cfg, out, (out / "checkpoint_dot_0.json").read_bytes()


@st.composite
def _checkpoint_edit(draw, raw):
    """An edit that cuts checkpoint bytes raw at a byte or replaces one byte.

    Half the positions fall before the base64 blobs, which are nearly all
    the bytes, so the keys, the dims and the config echo are hit as often.
    """
    at = draw(st.one_of(st.integers(0, raw.index(b'"moments"') - 1), st.integers(0, len(raw) - 1)))
    if draw(st.booleans()):
        return lambda raw: raw[:at]
    # Digits often keep the JSON well-formed but change what it says.
    byte = draw(st.one_of(st.sampled_from(b"0123456789"), st.integers(0, 255)))
    return lambda raw: raw[:at] + bytes([byte]) + raw[at + 1:]


class TestCheckpointFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_damaged_checkpoint_exits_with_a_documented_code(self, trained_dot, data):
        # Per example the checkpoint is cut or has one byte replaced; eval,
        # diagnose and train --resume each exit 0-6, and a nonzero exit
        # prints one magnorm: line to stderr and raises nothing.
        cfg, out, raw = trained_dot
        ckpt = out / "checkpoint_dot_0.json"
        ckpt.write_bytes(data.draw(_checkpoint_edit(raw))(raw))
        for name, argv in [("eval", ["eval", "--checkpoint", str(ckpt)]),
                           ("diagnose", ["diagnose", "--checkpoint", str(ckpt)]),
                           ("resume", ["train", "--config", cfg, "--resume", str(ckpt)])]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--out", str(out), "--force"])
            event(f"{name} exit {code}")
            assert code in range(7)
            if code:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("magnorm: "), lines


def _first_line(edit):
    def corrupt(text):
        first, rest = text.split("\n", 1)
        return edit(first) + "\n" + rest
    return corrupt


def _nan_feature(line):
    rec = json.loads(line)
    rec["features"][-1] = float("nan")
    return json.dumps(rec)


def _narrow_rows(text):
    """Every row of a features file with its last feature cut."""
    rows = [json.loads(line) for line in text.splitlines()]
    return "".join(json.dumps({**rec, "features": rec["features"][:-1]}) + "\n" for rec in rows)


def _drop_first_query(text):
    """qrels.txt without any line of its first query."""
    first = text.split()[0]
    return "".join(line + "\n" for line in text.splitlines() if line.split()[0] != first)


def _add_unknown_query(text):
    """qrels.txt plus a judgment for a query that queries.jsonl lacks."""
    return text + f"qZZ 0 {text.split()[2]} 1\n"


class TestCorruptTask:
    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("qrels.txt", _first_line(lambda line: " ".join(line.split()[:3]))),
            ("qrels.txt", _first_line(lambda line: line.rsplit(" ", 1)[0] + " high")),
            ("splits.json", lambda text: text[:200]),
            ("splits.json", lambda text: json.dumps(list(json.loads(text).values()))),
            ("corpus.jsonl", _first_line(lambda line: line[:40])),
            ("corpus.jsonl", _first_line(lambda line: line.replace('"features"', '"feats"'))),
            ("queries.jsonl", _first_line(lambda line: line.replace('"id"', '"qid"'))),
            ("corpus.jsonl", _first_line(lambda line: json.dumps({**json.loads(line), "id": 7}))),
            ("splits.json", lambda text: json.dumps({**json.loads(text), "test": "q1"})),
            ("qrels.txt", _first_line(lambda line: line.replace(line.split()[2], "dZZ"))),
            ("splits.json", lambda text: json.dumps({k: v[1:] for k, v in json.loads(text).items()})),
            ("qrels.txt", _first_line(lambda line: line.rsplit(" ", 1)[0] + " -1")),
            ("qrels.txt", _first_line(lambda line: line.rsplit(" ", 1)[0] + " 1024")),
            ("hubs.json", lambda text: text[:10]),
            ("hubs.json", lambda text: json.dumps({"hubs": json.loads(text)})),
            ("hubs.json", lambda text: json.dumps([7, *json.loads(text)[1:]])),
            ("hubs.json", lambda text: json.dumps(json.loads(text) + json.loads(text)[:1])),
            ("hubs.json", lambda text: json.dumps(json.loads(text) + ["dZZ"])),
            ("corpus.jsonl", _first_line(_nan_feature)),
            ("queries.jsonl", _first_line(_nan_feature)),
            ("queries.jsonl", _narrow_rows),
            ("qrels.txt", _drop_first_query),
            ("qrels.txt", _add_unknown_query),
        ],
        ids=["qrels-3-columns", "qrels-grade", "splits-cut", "splits-list",
             "corpus-cut-line", "corpus-no-features", "queries-no-id",
             "corpus-numeric-id", "splits-string-value", "qrels-unknown-doc",
             "splits-missing-query", "qrels-negative-grade", "qrels-grade-1024",
             "hubs-cut", "hubs-not-list", "hubs-numeric-id", "hubs-repeated-id",
             "hubs-unknown-doc", "corpus-nan-feature", "queries-nan-feature",
             "queries-narrow-rows", "qrels-query-without-line", "qrels-unknown-query"],
    )
    def test_eval_exits_three_naming_the_file(self, workdir, capsys, name, corrupt):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        path = out / name
        path.write_text(corrupt(path.read_text()))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint_dot_0.json"), "--out", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"magnorm: corrupt artifact: {path} ")

    @pytest.mark.parametrize("name", ["corpus.jsonl", "queries.jsonl"])
    @pytest.mark.parametrize("command", ["train", "eval", "diagnose", "sweep"])
    def test_repeated_id_exits_three_writing_nothing(self, workdir, capsys, command, name):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        ckpt = str(out / "checkpoint_dot_0.json")
        if command in ("eval", "diagnose"):
            assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        path = out / name
        text = path.read_text()
        first = text.split("\n", 1)[0]
        path.write_text(text + first + "\n")
        before = sorted(os.listdir(out))
        capsys.readouterr()
        argv = {
            "train": ["train", "--config", cfg, "--force"],
            "eval": ["eval", "--checkpoint", ckpt, "--out", str(out)],
            "diagnose": ["diagnose", "--checkpoint", ckpt, "--out", str(out)],
            "sweep": ["sweep", "--config", cfg, "--force"],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        repeated = json.loads(first)["id"]
        assert len(err) == 1 and err[0].startswith(f"magnorm: corrupt artifact: {path} ")
        assert repr(repeated) in err[0]
        assert sorted(os.listdir(out)) == before


    @pytest.mark.parametrize(
        "corrupt", [_drop_first_query, _add_unknown_query], ids=["query-without-line", "unknown-query"]
    )
    @pytest.mark.parametrize("command", ["train", "diagnose"])
    def test_qrels_disagreeing_on_queries_exits_three_naming_the_id(self, workdir, capsys, command, corrupt):
        # train used to die in relevant_of with a KeyError, diagnose to
        # succeed, and an unknown qrels query to pass unnoticed everywhere;
        # test_eval_exits_three_naming_the_file has both cases for eval.
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        ckpt = str(out / "checkpoint_dot_0.json")
        if command == "diagnose":
            assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        path = out / "qrels.txt"
        text = path.read_text()
        qid = "qZZ" if corrupt is _add_unknown_query else text.split()[0]
        path.write_text(corrupt(text))
        capsys.readouterr()
        argv = {
            "train": ["train", "--config", cfg, "--force"],
            "diagnose": ["diagnose", "--checkpoint", ckpt, "--out", str(out)],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"magnorm: corrupt artifact: {path} ")
        assert repr(qid) in err[0]

    @pytest.mark.parametrize("edit", ["query-in-two-splits", "unknown-query", "unknown-split"])
    def test_bad_splits_exit_three_naming_the_id(self, workdir, capsys, edit):
        # Each used to load: the later split won a query listed under two,
        # a query queries.jsonl lacks was ignored, and the queries of a
        # split named "dev" dropped out of every split.
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        path = out / "splits.json"
        splits = json.loads(path.read_text())
        if edit == "query-in-two-splits":
            named = splits["train"][0]
            splits["val"].append(named)
        elif edit == "unknown-query":
            named = "qZZ"
            splits["test"].append(named)
        else:
            named = "dev"
            splits[named] = [splits["test"].pop()]
        path.write_text(json.dumps(splits))
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"magnorm: corrupt artifact: {path} ")
        assert repr(named) in err[0]
        assert not (out / "checkpoint_dot_0.json").exists()

    @pytest.mark.parametrize("name", ["corpus.jsonl", "queries.jsonl"])
    def test_feature_width_mismatch_exits_three_on_train(self, workdir, capsys, name):
        # Narrow query rows used to crash train with a numpy traceback;
        # corpus rows narrower than the queries' crash the same way.
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        path = out / name
        path.write_text(_narrow_rows(path.read_text()))
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 3
        err = capsys.readouterr().err.splitlines()
        queries = out / "queries.jsonl"
        assert len(err) == 1 and err[0].startswith(f"magnorm: corrupt artifact: {queries} ")
        assert not (out / "checkpoint_dot_0.json").exists()

    def test_featureless_corpus_rows_name_the_corpus(self, workdir, capsys):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        for name in ("corpus.jsonl", "queries.jsonl"):
            path = out / name
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            path.write_text("".join(json.dumps({**rec, "features": []}) + "\n" for rec in rows))
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"magnorm: corrupt artifact: {out / 'corpus.jsonl'} ")


class TestDiagnose:
    def test_report_with_delta_cv_pairing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("MAGNORM_OUT", raising=False)
        out = tmp_path / "out"
        cfg = _write_config(tmp_path / "cfg.json", out, kinds=("dot", "dnorm"))
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        rc = main(
            [
                "diagnose",
                "--checkpoint", str(out / "checkpoint_dot_0.json"),
                "--checkpoint", str(out / "checkpoint_dnorm_0.json"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        by_kind = {r["kind"]: r for r in payload}
        assert "delta_cv" not in by_kind["dot"]
        assert by_kind["dnorm"]["delta_cv"] == pytest.approx(
            by_kind["dnorm"]["query_cv"] / by_kind["dot"]["query_cv"], rel=1e-9
        )
        assert "delta_cv" in capsys.readouterr().out
        header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert header == "split,kind,cohens_d,n_rel,n_irrel,query_cv,doc_cv"

    def test_delta_cv_pairs_each_dnorm_with_the_dot_of_its_seed(self, tmp_path, monkeypatch):
        # The last dot checkpoint given used to pair with the last dnorm one
        # whatever their seeds, and every other dnorm got no delta_cv.
        monkeypatch.delenv("MAGNORM_OUT", raising=False)
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg = _write_config(cfg_path, out, kinds=("dot", "dnorm"))
        cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), "seeds": [0, 1]}))
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0

        def diagnose(*stems):
            argv = ["diagnose", "--out", str(out), "--force"]
            for stem in stems:
                argv += ["--checkpoint", str(out / f"checkpoint_{stem}.json")]
            assert main(argv) == 0
            return json.loads((out / "diagnostics.json").read_text())

        alone = {stem: diagnose(stem)[0] for stem in ("dot_0", "dot_1", "dnorm_0", "dnorm_1")}
        for stems in (("dot_0", "dnorm_0", "dot_1"), ("dot_0", "dnorm_0", "dot_1", "dnorm_1"),
                      ("dnorm_1", "dot_1", "dnorm_0", "dot_0")):
            for stem, report in zip(stems, diagnose(*stems)):
                kind, seed = stem.split("_")
                if kind == "dot":
                    assert report == alone[stem]
                else:
                    assert report.pop("delta_cv") == report["query_cv"] / alone[f"dot_{seed}"]["query_cv"]
                    assert report == alone[stem]
        # A dnorm without a dot of its seed gets none.
        assert "delta_cv" not in diagnose("dot_1", "dnorm_0")[1]

    def test_refuses_overwrite_before_loading_the_task(self, workdir):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        argv = ["diagnose", "--checkpoint", str(out / "checkpoint_dot_0.json"), "--out", str(out)]
        assert main(argv) == 0
        written = (out / "diagnostics.json").read_bytes()
        corpus = out / "corpus.jsonl"
        corpus.write_text(corpus.read_text()[:40])
        assert main(argv) == 4
        assert main([*argv, "--force"]) == 3
        assert (out / "diagnostics.json").read_bytes() == written

    def test_single_checkpoint_has_no_delta(self, workdir):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        assert main(
            ["diagnose", "--checkpoint", str(out / "checkpoint_dot_0.json"), "--out", str(out)]
        ) == 0
        payload = json.loads((out / "diagnostics.json").read_text())
        assert len(payload) == 1 and "delta_cv" not in payload[0]

    def test_refuses_overwrite(self, workdir):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        ckpt = str(out / "checkpoint_dot_0.json")
        assert main(["diagnose", "--checkpoint", ckpt, "--out", str(out)]) == 0
        assert main(["diagnose", "--checkpoint", ckpt, "--out", str(out)]) == 4

    def test_constant_dot_query_tower_exits_six(self, tmp_path, monkeypatch, capsys):
        # Every query embeds to e0, so the dot baseline's query CV is 0 and delta_cv is undefined.
        monkeypatch.delenv("MAGNORM_OUT", raising=False)
        out = tmp_path / "out"
        cfg = _write_config(tmp_path / "cfg.json", out, kinds=("dot", "dnorm"))
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg]) == 0
        dot = out / "checkpoint_dot_0.json"
        payload = json.loads(dot.read_text())
        for name, blob in payload["weights"].items():
            if name.startswith("q."):
                flat = np.zeros_like(_floats(blob))
                flat[0] = name == "q.b2"
                payload["weights"][name] = _blob(flat)
        dot.write_text(json.dumps(payload))
        capsys.readouterr()
        argv = ["diagnose", "--checkpoint", str(dot), "--checkpoint", str(out / "checkpoint_dnorm_0.json")]
        assert main([*argv, "--out", str(out)]) == 6
        assert capsys.readouterr().err == (
            "magnorm: degenerate statistics: baseline query dispersion must be positive\n"
        )
        assert not (out / "diagnostics.json").exists()


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert main(["verify", "--trials", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [
            "ranking-equivalence", "corner-degeneracy", "symmetry",
            "jacobian-spectral", "radial-gradient", "gamma-gradient", "gradcheck",
        ]
        for name in names:
            assert any(line.startswith(name) and "PASS" in line for line in lines)
        assert lines[-1].startswith("all 7 suites passed")

    def test_failing_suite_exits_one(self, monkeypatch, capsys):
        def planted(rng, trials, seed):
            return diagnostics.SuiteResult(0.5, "1e-12", False, "planted residual")

        suites = (("corner-degeneracy", diagnostics.suite_corners), ("planted", planted))
        monkeypatch.setattr(diagnostics, "SUITES", suites)
        assert main(["verify", "--trials", "3"]) == 1
        assert capsys.readouterr().out.splitlines()[2:] == [
            "planted                  5.000e-01  1e-12       FAIL",
            "  planted residual",
            "FAILED: planted",
        ]

    def test_nan_gradient_error_exits_one(self, monkeypatch, capsys):
        real = grad._stack_grad

        def nan_stack_grad(kind, G, S, Q, C, norms=None):
            dQ, dC, *terms = real(kind, G, S, Q, C, norms)
            return dQ * np.nan, dC, *(None if t is None else t * np.nan for t in terms)

        monkeypatch.setattr(grad, "_stack_grad", nan_stack_grad)
        assert main(["verify", "--trials", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "radial-gradient                nan  1e-10       FAIL" in lines
        assert "gamma-gradient                 nan  1e-6        FAIL" in lines
        assert "gradcheck                      nan  1e-6        FAIL" in lines
        assert lines[-1] == "FAILED: radial-gradient, gamma-gradient, gradcheck"

    def test_nan_residuals_exit_one(self, monkeypatch, capsys):
        # NaN qnorm scores of pairs (one score per row) and a NaN projector;
        # each residual is NaN, which max() would have passed over.
        real = simcore.divide_by_norms

        def nan_qnorm_rows(gammas, t, nq, nd):
            s = real(gammas, t, nq, nd)
            return s * np.nan if gammas is simcore.QNORM.gammas and np.ndim(t) == 1 else s

        monkeypatch.setattr(simcore, "divide_by_norms", nan_qnorm_rows)
        monkeypatch.setattr(grad, "tangent_projector", lambda V: np.full(V.shape + V.shape[-1:], np.nan))
        assert main(["verify", "--trials", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "corner-degeneracy              nan  1e-12       FAIL" in lines
        assert "symmetry                       nan  1e-12       FAIL" in lines
        assert "jacobian-spectral              nan  1e-12/1e-9  FAIL" in lines
        assert lines[-1] == "FAILED: corner-degeneracy, symmetry, jacobian-spectral, gradcheck"

    def test_non_finite_probes_fail_their_suites(self, monkeypatch, capsys):
        # With every score NaN, the gamma-gradient and gradcheck probes raise
        # NonFiniteEvaluation: each is its suite's FAIL row, with no
        # tolerance applied, and the suites after it still run.
        real = simcore.divide_by_norms
        monkeypatch.setattr(simcore, "divide_by_norms", lambda g, t, nq, nd: real(g, t, nq, nd) * np.nan)
        assert main(["verify", "--trials", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        # The projector reads no score; the last bits of its residual are the BLAS build's.
        jacobian = lines.pop(6)
        assert jacobian.startswith("jacobian-spectral ") and jacobian.endswith("  1e-12/1e-9  PASS")
        assert lines == [
            "suite                      max_err  tol         status",
            "ranking-equivalence            nan  exact       FAIL",
            "  block from trial 0: non-finite score in ranking for trial 0",
            "corner-degeneracy              nan  1e-12       FAIL",
            "symmetry                       nan  1e-12       FAIL",
            "  cosine/dot asymmetry inf (must be exactly 0)",
            "radial-gradient                nan  1e-10       FAIL",
            "gamma-gradient                 nan  -           FAIL",
            "  non-finite probe at coordinate 0",
            "gradcheck                      nan  -           FAIL",
            "  non-finite probe at coordinate 0",
            "FAILED: ranking-equivalence, corner-degeneracy, symmetry, radial-gradient, gamma-gradient, gradcheck",
        ]

    def test_zero_trials_is_config_error(self, capsys):
        assert main(["verify", "--trials", "0"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        assert "config error: --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "train", "sweep"])
    def test_negative_seed_flag_is_config_error(self, workdir, capsys, command):
        out, cfg = workdir
        if command == "train":
            assert main(["gen", "--config", cfg]) == 0
        before = sorted(out.glob("*"))
        assert main([command, "--config", cfg, "--seed", "-1"]) == 2
        assert "config error: --seed" in capsys.readouterr().err
        assert sorted(out.glob("*")) == before

    @pytest.mark.parametrize(
        "body, named", [('{"seeds": [0, -3]}', "seeds"), ('{"task": {"seed": -3}}', "task.seed")]
    )
    def test_negative_config_seed_is_config_error(self, tmp_path, capsys, body, named):
        bad = tmp_path / "bad.json"
        bad.write_text(body)
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {named} must be" in capsys.readouterr().err


def _assert_relevance_columns(out, rows):
    """pearson and hub_d are relevance_counter over each saved checkpoint's doc norms."""
    task = load_task(str(out))
    for row in rows:
        encoder = load_checkpoint(out / f"checkpoint_{row['kind']}_{row['seed']}.json")[0]
        mags = np.linalg.norm(forward(encoder, task.doc_features, "doc"), axis=1)
        r, d = diagnostics.relevance_counter(mags, task)
        assert (row["pearson"], row["hub_d"]) == (f"{r:.10g}", f"{d:.10g}")


class TestSweep:
    def test_full_pipeline_and_step_matching(self, workdir, capsys):
        out, cfg = workdir
        assert main(["sweep", "--config", cfg]) == 0
        stdout = capsys.readouterr().out
        assert "generated task files" in stdout
        with (out / "sweep_summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["kind"] for r in rows] == ["dot", "cosine"]
        assert list(rows[0])[-2:] == ["pearson", "hub_d"]
        _assert_relevance_columns(out, rows)
        for row in rows:
            assert float(row["val_ndcg10"]) > float(row["untrained_val_ndcg10"])
            assert 0.0 <= float(row["test_ndcg10"]) <= 1.0
        steps = {}
        for tag in ("dot", "cosine"):
            with (out / f"trainlog_{tag}_0.csv").open() as fh:
                steps[tag] = [r["step"] for r in csv.DictReader(fh)]
        assert steps["dot"] == steps["cosine"]

    def test_reuses_existing_task(self, workdir, capsys):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["sweep", "--config", cfg, "--kinds", "dot"]) == 0
        assert "reusing task files" in capsys.readouterr().out
        with (out / "sweep_summary.csv").open() as fh:
            _assert_relevance_columns(out, list(csv.DictReader(fh)))

    def test_clashing_kinds_exit_two_leaving_no_directory(self, workdir):
        out, cfg = workdir
        assert main(["sweep", "--config", cfg, "--kinds", "dot,dot"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("force", [False, True])
    def test_partial_task_dir_exits_three_naming_the_missing_file(self, workdir, capsys, force):
        out, cfg = workdir
        assert main(["gen", "--config", cfg, "--seed", "9"]) == 0
        corpus = (out / "corpus.jsonl").read_bytes()
        (out / "hubs.json").unlink()
        capsys.readouterr()
        argv = ["sweep", "--config", cfg, "--kinds", "dot"] + ["--force"] * force
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "hubs.json" in captured.err and "generated" not in captured.out
        assert (out / "corpus.jsonl").read_bytes() == corpus
        assert not (out / "hubs.json").exists()

    def test_no_hubs_writes_nan_hub_d(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MAGNORM_OUT", raising=False)
        out = tmp_path / "out"
        cfg = _write_config(tmp_path / "cfg.json", out, kinds=("dot",), **{"task.hub_fraction": 0.0})
        assert main(["sweep", "--config", cfg]) == 0
        with (out / "sweep_summary.csv").open() as fh:
            (row,) = csv.DictReader(fh)
        assert row["hub_d"] == "nan"
        assert np.isfinite(float(row["pearson"]))

    def test_scores_the_restored_encoder_as_eval_scores_its_checkpoint(self, workdir, monkeypatch):
        # sweep reads no checkpoint back, and writes the bytes eval writes from one.
        out, cfg = workdir

        def no_read(path):
            raise AssertionError(f"sweep read {path}")

        with monkeypatch.context() as m:
            m.setattr(cli, "load_checkpoint", no_read)
            assert main(["sweep", "--config", cfg, "--kinds", "dot,learnable"]) == 0
        with (out / "sweep_summary.csv").open() as fh:
            summary = list(csv.DictReader(fh))
        for row, stem in zip(summary, ("dot_0", "learnable_0")):
            paths = [out / f"run_{stem}_test.txt", out / f"metrics_{stem}_test.csv"]
            swept = [p.read_bytes() for p in paths]
            ckpt = str(out / f"checkpoint_{stem}.json")
            assert main(["eval", "--config", cfg, "--checkpoint", ckpt, "--force"]) == 0
            assert [p.read_bytes() for p in paths] == swept
            rows = csv.DictReader(paths[1].read_text().splitlines())
            macro = [r["value"] for r in rows if r["query_id"] == "ALL"]
            assert macro == [row["test_ndcg10"], row["test_recall100"], row["test_mrr10"]]

    def test_refuses_overwrite(self, workdir):
        out, cfg = workdir
        assert main(["sweep", "--config", cfg, "--kinds", "dot"]) == 0
        assert main(["sweep", "--config", cfg, "--kinds", "dot"]) == 4


class _DiskFillsUp:
    """A text file with room for `room` characters: the write that overflows
    it stores what fits, then fails as a full disk does."""

    def __init__(self, fh, room):
        self._fh, self._room = fh, room

    def write(self, text):
        if len(text) > self._room:
            self._fh.write(text[: self._room])
            raise OSError(errno.ENOSPC, "No space left on device")
        self._room -= len(text)
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class TestAtomicArtifacts:
    """Every artifact writer replaces its file whole or not at all."""

    @pytest.mark.parametrize(
        "command, name",
        [
            ("gen", "corpus.jsonl"),
            ("gen", "queries.jsonl"),
            ("gen", "qrels.txt"),
            ("gen", "splits.json"),
            ("gen", "hubs.json"),
            ("train", "checkpoint_dot_0.json"),
            ("train", "trainlog_dot_0.csv"),
            ("diagnose", "diagnostics.json"),
            ("diagnose", "diagnostics.csv"),
            ("sweep", "sweep_summary.csv"),
        ],
    )
    def test_a_full_disk_partway_keeps_the_old_file(self, workdir, monkeypatch, command, name):
        out, cfg = workdir
        argv = {
            "gen": ["gen", "--config", cfg],
            "train": ["train", "--config", cfg, "--kinds", "dot"],
            "diagnose": ["diagnose", "--checkpoint", str(out / "checkpoint_dot_0.json"), "--out", str(out)],
            "sweep": ["sweep", "--config", cfg, "--kinds", "dot"],
        }
        for step in {"train": ["gen"], "diagnose": ["gen", "train"]}.get(command, []) + [command]:
            assert main(argv[step]) == 0
        (out / name).write_text("previous\n")
        written = {p: (out / p).read_bytes() for p in os.listdir(out)}
        real_open = builtins.open

        def open_on_a_full_disk(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and os.path.basename(os.fspath(file)).startswith(name):
                return _DiskFillsUp(fh, room=16)
            return fh

        monkeypatch.setattr(builtins, "open", open_on_a_full_disk)
        assert main([*argv[command], "--force"]) == 3
        monkeypatch.undo()
        # The old file is intact, and no temp file is left behind.
        assert {p: (out / p).read_bytes() for p in os.listdir(out)} == written


class TestOutResolution:
    def test_cli_flag_beats_config(self, workdir, tmp_path):
        out, cfg = workdir
        explicit = tmp_path / "explicit"
        assert main(["gen", "--config", cfg, "--out", str(explicit)]) == 0
        assert (explicit / "corpus.jsonl").exists()
        assert not (out / "corpus.jsonl").exists()

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        envdir = tmp_path / "envout"
        monkeypatch.setenv("MAGNORM_OUT", str(envdir))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "task": {
                "n_docs": 16, "n_queries": 32, "feature_dim": 4,
                "n_clusters": 2, "hub_fraction": 0.0,
            },
        }))
        assert main(["gen", "--config", str(cfg)]) == 0
        assert (envdir / "corpus.jsonl").exists()

    @pytest.mark.parametrize("via", ["config", "env"])
    @pytest.mark.parametrize("command", ["eval", "diagnose"])
    def test_eval_and_diagnose_find_the_task_without_out(self, workdir, monkeypatch, command, via):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", "dot"]) == 0
        if via == "config":
            flags = ["--config", cfg]
        else:
            monkeypatch.setenv("MAGNORM_OUT", str(out))
            flags = []
        assert main([command, "--checkpoint", str(out / "checkpoint_dot_0.json"), *flags]) == 0
        written = {"eval": ("run_dot_0_test.txt", "metrics_dot_0_test.csv"),
                   "diagnose": ("diagnostics.json", "diagnostics.csv")}[command]
        assert all((out / name).exists() for name in written)

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as e:
            main(["transmogrify"])
        assert e.value.code == 2


def _sequence(cfg, out) -> list:
    """gen, train, eval, diagnose, resume and sweep over one task directory."""
    ckpt = str(out / "checkpoint_dot_0.json")
    return [
        ["gen", "--config", cfg],
        ["train", "--config", cfg, "--kinds", "dot"],
        ["eval", "--config", cfg, "--checkpoint", ckpt],
        ["diagnose", "--config", cfg, "--checkpoint", ckpt],
        ["train", "--config", cfg, "--resume", ckpt],
        ["sweep", "--config", cfg, "--kinds", "dot", "--force"],
    ]


def _batch_file(path, lines) -> str:
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestBatch:
    def test_runs_the_commands_as_separate_calls_do_parsing_features_once(self, tmp_path, monkeypatch, capsys):
        from magnorm import datagen

        monkeypatch.delenv("MAGNORM_OUT", raising=False)
        apart, batched = tmp_path / "apart", tmp_path / "batched"
        for argv in _sequence(_write_config(tmp_path / "a.json", apart), apart):
            assert main(argv) == 0
        want = capsys.readouterr().out.replace(str(apart), "<out>")
        lines = ["# the paper's ablation over one task", ""]
        lines += [" ".join(argv) for argv in _sequence(_write_config(tmp_path / "b.json", batched), batched)]
        parse = datagen._parse_jsonl
        parsed = []
        monkeypatch.setattr(datagen, "_PARSED", {})
        monkeypatch.setattr(datagen, "_parse_jsonl", lambda lines: parsed.append(1) or parse(lines))
        assert main(["batch", _batch_file(tmp_path / "steps.txt", lines)]) == 0
        assert capsys.readouterr().out.replace(str(batched), "<out>") == want
        assert sorted(p.name for p in batched.iterdir()) == sorted(p.name for p in apart.iterdir())
        for path in apart.iterdir():
            assert (batched / path.name).read_bytes() == path.read_bytes(), path.name
        # Six loads of one task: the first parses the corpus and the queries, the other five reuse them.
        assert len(parsed) == 2

    def test_stops_at_the_first_command_that_fails(self, workdir, tmp_path, capsys):
        out, cfg = workdir
        steps = _batch_file(tmp_path / "steps.txt", [
            f"gen --config {cfg}",
            f"eval --config {cfg} --checkpoint {tmp_path / 'missing.json'}",
            f"train --config {cfg}",
        ])
        assert main(["batch", steps]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("magnorm: I/O failure: ")
        assert err[1:] == [f"magnorm: {steps} line 2 exited 3; the lines after it did not run"]
        assert (out / "corpus.jsonl").exists() and not list(out.glob("checkpoint_*"))

    @pytest.mark.parametrize(
        "line, named",
        [
            ("eval --out x", "line 2 is not a magnorm command"),
            ("transmogrify", "line 2 is not a magnorm command"),
            ("gen --config 'cfg.json", "line 2: No closing quotation"),
            ("gen --config cfg.json \\", "line 2 is not a magnorm command"),
            ("batch other.txt", "line 2: a batch cannot run another batch"),
        ],
    )
    def test_a_bad_line_exits_two_before_any_command_runs(self, workdir, tmp_path, capsys, line, named):
        out, cfg = workdir
        steps = _batch_file(tmp_path / "steps.txt", [f"gen --config {cfg}", line])
        assert main(["batch", steps]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"magnorm: config error: {steps} {named}"
        assert not out.exists()

    def test_missing_or_undecodable_file(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "missing.txt")]) == 3
        steps = tmp_path / "steps.txt"
        steps.write_bytes(b"gen \xff\n")
        assert main(["batch", str(steps)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith(f"magnorm: config error: {steps} is not UTF-8 text")
