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
        "verify seed 0", "verify seed 1", "verify seed 2",
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
