"""In-process runs of the scripts: the reports on the reference spec, the digests on a tiny one."""

import importlib.util
import json
import os

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
SMOKE_ARGS = ["--epochs", "1", "--kinds", "dot,dnorm"]


def _run_script(name, capsys, args=SMOKE_ARGS) -> list:
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(args)
    return capsys.readouterr().out.splitlines()


def test_run_reference_sweep(capsys):
    lines = _run_script("run_reference_sweep", capsys)
    assert lines[0].startswith("task: ") and "hubs averaging" in lines[0]
    rows = [line.split() for line in lines[3:-1]]
    assert [r[0] for r in rows] == ["dot", "dnorm"]
    assert all(len(r) == 8 for r in rows)
    assert lines[-1].startswith("relevance-counter effect under dot: ")


def test_magnitude_dynamics(capsys):
    lines = _run_script("magnitude_dynamics", capsys)
    # One reference epoch is 26 steps, so evaluations land on steps 0 and 26.
    for kind in ("dot", "dnorm"):
        start = lines.index(kind)
        assert [line.split()[0] for line in lines[start + 2 : start + 4]] == ["0", "26"]
    assert lines[-1].startswith("final query-CV ratio dnorm/dot: ")


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
        "diagnose", "resume checkpoint_learnable_0.json", "sweep", "verify",
    ]
    assert all(": exit 0 stdout " in line for line in runs[0][: len(steps)])
    # 4 task files, 2 checkpoints, 2 trainlogs, 2 runs, 2 metrics, 2 diagnostics
    # and 1 resumed trainlog in run/; the same minus diagnostics and resume,
    # plus the summary, in sweep/.
    assert len(runs[0]) - len(steps) == 15 + 13
