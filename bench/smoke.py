"""Smoke test of the benchmark itself.

    python3 bench/smoke.py          (or: python3 -m pytest bench/smoke.py)

Runs every workload named in BENCHMARK.json at minimal size (``--smoke``):
untraced on two workload seeds and traced on one.  Each run must exit 0,
report every metric BENCHMARK.json names for its trace mode with the
unit given there, and fail no op, which also shows that a second seed
passes every correctness check.  Last, a directory holding only
BENCHMARK.json and the bench files must make the bench exit non-zero
without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEEDS = (0, 7)
TIMEOUT_S = 300


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, workload, seed, trace):
    spec = _spec()
    argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _check_result(proc, expected: dict, label: str) -> None:
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{label}: error_rate {result['failed']}/{result['attempted']}\n{proc.stderr[-3000:]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise AssertionError(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def test_workloads_report_every_metric_without_errors():
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in SEEDS if trace == 0 else SEEDS[:1]:
                label = f"{workload} seed {seed} trace {trace}"
                _check_result(_run(ROOT, workload, seed, trace), expected, label)
                print(f"ok  {label}")


def test_bench_alone_fails_without_result():
    spec = _spec()
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path),
                os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        proc = _run(bare, spec["workloads"][0]["name"], SEEDS[0], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError(f"bench in a bare directory exited {proc.returncode}: {proc.stdout[-500:]}")
        print("ok  bare directory exits", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_workloads_report_every_metric_without_errors()
    test_bench_alone_fails_without_result()
    print("smoke test passed")
