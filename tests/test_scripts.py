"""In-process run of the digest script on a tiny spec, its variants config, and the bench tracer's layer table."""

import functools
import importlib
import importlib.util
import json
import os

import numpy as np
import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")


def _load(directory, name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(directory, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_script(name, capsys, args) -> list:
    _load(SCRIPTS, name).main(args)
    return capsys.readouterr().out.splitlines()


def test_artifact_digests_repeat(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": {"n_docs": 48, "n_queries": 192, "feature_dim": 12, "n_clusters": 6,
                 "hub_fraction": 0.1, "hub_multiplicity": 6, "seed": 3},
        "encoder": {"hidden": 16, "embed_dim": 8},
        "train": {"batch_size": 32, "gamma_lr": 0.05},
        "kinds": ["dot", "learnable"],
    }))
    runs = [
        _run_script("artifact_digests", capsys, [
            "--config", str(cfg), "--epochs", "2", "--eval-every", "3", "--out", str(tmp_path / d)
        ])
        for d in ("a", "b")
    ]
    assert runs[0] == runs[1]
    steps = [line.split(": exit ")[0] for line in runs[0] if ": exit " in line]
    assert steps == [
        "gen", "train", "eval checkpoint_dot_0.json", "eval checkpoint_learnable_0.json",
        "diagnose", "resume checkpoint_learnable_0.json", "sweep",
        "verify seed 0", "verify seed 1", "verify seed 2", "verify trials 1 seed 3", "verify trials 129 seed 4",
    ]
    assert all(": exit 0 stdout " in line for line in runs[0][: len(steps)])
    # 5 task files, 2 checkpoints, 2 trainlogs, 2 runs, 2 metrics, 2 diagnostics
    # and 1 resumed trainlog in run/; the same minus diagnostics and resume,
    # plus the summary, in sweep/.
    assert len(runs[0]) - len(steps) == 16 + 14


@pytest.mark.parametrize(
    "golden, args",
    [("artifact_digests_reference.txt", ["--epochs", "3", "--eval-every", "7"]),
     ("artifact_digests_variants.txt", ["--config", os.path.join(CONFIGS, "variants.json")])],
    ids=["reference", "variants"],
)
def test_artifact_digests_match_golden(tmp_path, capsys, golden, args):
    # The byte gate: every artifact, trainlog, checkpoint and verify stdout
    # of both specs is as the golden records it.  A change that moves an
    # artifact byte on purpose rewrites the golden in the same commit, with
    # "# numpy <version>" above the lines that
    #     python3 scripts/artifact_digests.py <args> --out <new dir>
    # prints.
    with open(os.path.join(GOLDENS, golden)) as fh:
        header, *want = fh.read().splitlines()
    version = header.removeprefix("# numpy ")
    if np.__version__ != version:
        pytest.skip(f"{golden} was written with numpy {version}, not {np.__version__}")
    assert _run_script("artifact_digests", capsys, [*args, "--out", str(tmp_path / "digests")]) == want


def test_variants_config_loads():
    # The second byte-gate spec of artifact_digests.py: the step paths the
    # reference spec leaves out.
    from magnorm.cli import load_config

    cfg = load_config(os.path.join(CONFIGS, "variants.json"))
    assert cfg.sections["encoder"]["shared"] is True and cfg.sections["encoder"]["hidden"] == 0
    assert cfg.sections["train"]["gamma_lr"] == 0.05
    assert cfg.kinds == ["learnable:0.3,0.8", "qnorm", "dot"]


def test_bench_tracer_layers_resolve():
    # Tracer.install looks every layer up by its attribute path; a renamed or
    # removed function would fail each traced bench run with an AttributeError.
    layers = _load(BENCH, "spans").LAYERS
    assert len({name for name, _, _ in layers}) == len(layers)
    for _, path, _ in layers:
        module, *attrs = path.split(".")
        fn = functools.reduce(getattr, attrs, importlib.import_module(f"magnorm.{module}"))
        assert callable(fn), path


def test_bench_summary_pairs_runs_in_order(tmp_path, capsys):
    # The i-th parent and change reports of a workload pair up; the change
    # wins a pair where its value is lower.
    def report(side, i, pass_rel):
        path = tmp_path / f"{side}{i}.json"
        path.write_text(json.dumps({
            "workload": "train_dense_eval", "trace": 0, "env": {"seed": 11},
            "metrics": {"pass_rel": {"value": pass_rel, "unit": "x"}, "setup_s": {"value": None, "unit": "s"}},
        }))
        return str(path)

    parent = [report("p", i, v) for i, v in enumerate([10.0, 10.4, 10.2])]
    change = [report("c", i, v) for i, v in enumerate([9.0, 10.5, 9.2])]
    out = tmp_path / "summary.json"
    lines = _run_script("bench_summary", capsys, ["--out", str(out), "--parent", *parent, "--change", *change])
    group = json.loads(out.read_text())["workloads"]["train_dense_eval seed11 trace0"]
    assert group["pairs"] == 3 and list(group["metrics"]) == ["pass_rel"]
    m = group["metrics"]["pass_rel"]
    assert m["parent"] == {"values": [10.0, 10.4, 10.2], "median": 10.2, "q1": 10.1, "q3": 10.3}
    assert m["change"]["median"] == 9.2 and m["change_wins"] == 2 and m["better"] == "lower"
    assert m["median_change_rel"] == pytest.approx(-1.0 / 10.2)
    assert [line.split() for line in lines] == [
        ["train_dense_eval", "seed11", "trace0", "pass_rel", "parent", "10.2", "change", "9.2", "(-9.8%)", "wins", "2/3"]
    ]
