"""End-to-end command coverage: exit codes, file contracts, determinism."""

import csv
import json
import os

import pytest

from magnorm import diagnostics
from magnorm.cli import load_config, main
from magnorm.datagen import TASK_FILES
from magnorm.model import TRAINLOG_HEADER, load_checkpoint


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
        "loss": {"tau": 1.0, "alpha": 20.0, "lambda": 0.01},
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
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"learning_rate": 0.1}}')
        assert main(["gen", "--config", str(bad)]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_bad_kind_name(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kinds": ["euclidean"]}')
        assert main(["gen", "--config", str(bad)]) == 2
        assert "euclidean" in capsys.readouterr().err

    def test_bad_loss_number(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"loss": {"tau": -1.0}}')
        assert main(["gen", "--config", str(bad)]) == 2

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["gen", "--config", str(tmp_path / "nope.json")]) == 3

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
            _, _, step, echo = load_checkpoint(ckpt)
            assert echo["kind"] == tag and echo["seed"] == 0
            assert step >= 0
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

    @pytest.mark.parametrize("kinds", ["learnable:1,1", "dot,dot", "learnable,learnable:0.3,0.8"])
    def test_untrainable_or_clashing_kinds_exit_two(self, workdir, kinds):
        out, cfg = workdir
        assert main(["gen", "--config", cfg]) == 0
        assert main(["train", "--config", cfg, "--kinds", kinds]) == 2
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
        _, _, step, _ = load_checkpoint(out / "checkpoint_dot_0.json")
        assert main(
            ["train", "--config", cfg, "--resume", str(out / "checkpoint_dot_0.json")]
        ) == 0
        full = (out / "trainlog_dot_0.csv").read_text().splitlines()
        resumed = (out / "trainlog_dot_0_resumed.csv").read_text().splitlines()
        expect = [full[0]] + [r for r in full[1:] if int(r.split(",")[0]) >= step]
        assert resumed == expect

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


def _short_w1(b):
    payload = json.loads(b)
    payload["weights"]["q.w1"] = payload["weights"]["q.w1"][:2]
    return json.dumps(payload).encode()


def _nan_w1(b):
    payload = json.loads(b)
    payload["weights"]["q.w1"][0] = float("nan")
    return json.dumps(payload).encode()


class TestCorruptCheckpoint:
    @pytest.mark.parametrize(
        "corrupt",
        [lambda b: b[:300], lambda b: b.replace(b'"step"', b'"stop"'), _short_w1, _nan_w1],
        ids=["cut", "no-step", "short-w1", "nan-weight"],
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


def _first_line(edit):
    def corrupt(text):
        first, rest = text.split("\n", 1)
        return edit(first) + "\n" + rest
    return corrupt


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
        ],
        ids=["qrels-3-columns", "qrels-grade", "splits-cut", "splits-list",
             "corpus-cut-line", "corpus-no-features", "queries-no-id",
             "corpus-numeric-id", "splits-string-value", "qrels-unknown-doc",
             "splits-missing-query"],
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

    def test_zero_trials_is_config_error(self, capsys):
        assert main(["verify", "--trials", "0"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        assert "config error: --seed" in capsys.readouterr().err


class TestSweep:
    def test_full_pipeline_and_step_matching(self, workdir, capsys):
        out, cfg = workdir
        assert main(["sweep", "--config", cfg]) == 0
        stdout = capsys.readouterr().out
        assert "generated task files" in stdout
        with (out / "sweep_summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["kind"] for r in rows] == ["dot", "cosine"]
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

    def test_refuses_overwrite(self, workdir):
        out, cfg = workdir
        assert main(["sweep", "--config", cfg, "--kinds", "dot"]) == 0
        assert main(["sweep", "--config", cfg, "--kinds", "dot"]) == 4


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

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as e:
            main(["transmogrify"])
        assert e.value.code == 2
