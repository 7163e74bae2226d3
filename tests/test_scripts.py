"""In-process smoke runs of the report scripts on the reference spec."""

import importlib.util
import os

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")
SMOKE_ARGS = ["--epochs", "1", "--kinds", "dot,dnorm"]


def _run_script(name, capsys) -> list:
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(SMOKE_ARGS)
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
