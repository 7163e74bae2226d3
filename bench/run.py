"""magnorm benchmark: one workload per run, in one process on one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; inputs come from ``--seed``, outputs
and scratch files go to ``.bench_out/`` at the checkout root.  The run
repeats passes of the workload (see ``workloads.py``) for ``--seconds``
seconds, checks every op's output, and prints a human-readable block
followed by one JSON line:

- ``--trace 0``: the end-to-end metrics ``setup_s``, ``pass_rel`` and
  ``peak_rss_mb`` (tracing off); the raw pass and set-up times ``pass_s``
  and ``setup_raw_s`` are printed and stored in the report;
- ``--trace 1``: the per-layer metrics of ``spans.py``, from passes that
  alternate untraced and traced, plus ``trace_overhead_s``.  Every pass,
  traced or not, must reproduce the first pass's output digests.

The workload seed sets the task seed and the training seed; the program
sees only the generated task and config.  ``--smoke`` shrinks every
workload to a minimal size for ``smoke.py``.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("train_dense_eval", "train_sparse_eval", "cli_pipeline", "verify_props")
# Set-up (import of magnorm plus the workload's setup) is repeated this
# many times per run and its median reported.
SETUP_REPEATS = 15
# setup_s is reported in seconds at the speed where reference_kernel() takes
# this long (its median on the 2-vCPU machine the bounds were set on).
KERNEL_NOMINAL_S = 0.045


def make_workload(name, seed, smoke, workdir):
    import workloads as w

    if name == "train_dense_eval":
        return w.TrainWorkload(ROOT, workdir, seed, epochs=2 if smoke else 5, eval_every=50)
    if name == "train_sparse_eval":
        return w.TrainWorkload(
            ROOT, workdir, seed, epochs=2 if smoke else 12, eval_every=w.NO_PERIODIC_EVAL
        )
    if name == "cli_pipeline":
        return w.CliWorkload(ROOT, workdir, seed, epochs=2)
    return w.VerifyWorkload(
        seed, verify_trials=5 if smoke else 200, equivalence_trials=50 if smoke else 1000
    )


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of the kinds of work magnorm does.

    Small matrix products, numpy calls on 8-vectors and a Python sort.  On
    a shared virtual machine the speed can drift by 20-30% over tens of
    seconds; this kernel, timed on both sides of each op, drifts with it,
    so op time over kernel time stays steady where raw seconds do not.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    b = rng.standard_normal((64, 64)) / 8.0
    for _ in range(700):
        a = np.tanh(a @ b)
    v = np.arange(1.0, 9.0)
    for _ in range(4000):
        float(np.dot(v, v)) / float(np.linalg.norm(v))
    rows = [((i * 7919) % 1000 / 7.0, f"d{i:05d}") for i in range(10000)]
    rows.sort(key=lambda e: (-e[0], e[1]))
    return time.perf_counter() - start


def environment(seed) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def _forget_magnorm() -> None:
    """Drop magnorm and the bench modules that import it from sys.modules,
    so the next import runs their module code again."""
    for name in list(sys.modules):
        if name in ("magnorm", "workloads", "spans") or name.startswith("magnorm."):
            del sys.modules[name]


def set_up(args, workdir):
    """Import magnorm and set the workload up ``SETUP_REPEATS`` times.

    numpy and the other third-party and standard modules stay imported
    after the first import, so each repeat times magnorm's own import and
    the workload's setup.  Each repeat is divided by the reference kernel
    timed on both sides of it, as ops are for ``pass_rel``, and the median
    ratio is scaled by ``KERNEL_NOMINAL_S``.  Returns the workload of the
    last repeat, ``setup_s`` and the raw seconds of the repeats.
    """
    raw, ratios = [], []
    kernel_after = reference_kernel()
    for _ in range(SETUP_REPEATS):
        kernel_before = kernel_after
        _forget_magnorm()
        start = time.perf_counter()
        workload = make_workload(args.workload, args.seed, args.smoke, workdir)
        workload.setup()
        elapsed = time.perf_counter() - start
        kernel_after = reference_kernel()
        raw.append(elapsed)
        ratios.append(elapsed / ((kernel_before + kernel_after) / 2))
    return workload, statistics.median(ratios) * KERNEL_NOMINAL_S, raw


class Runner:
    """Runs passes of one workload and keeps times, digests and failures."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.times = {}  # op key -> untraced seconds, one per pass
        self.ratios = {}  # op key -> untraced seconds over reference_kernel()
        self.kernel_s = []
        self.pass_walls = {False: [], True: []}
        self.layer_passes = []
        self.digests = {}  # op key -> digests of the first pass
        self.attempted = 0
        self.failed = 0

    def run_pass(self, traced: bool) -> None:
        tracer = self.tracer
        self.workload.begin_pass()
        if traced:
            tracer.reset()
        wall = 0.0
        kernel_after = reference_kernel()
        for op in self.workload.ops():
            self.attempted += 1
            kernel_before = kernel_after
            try:
                if traced:
                    tracer.op = op.key
                    tracer.active = True
                start = time.perf_counter()
                try:
                    result = op.run()
                finally:
                    elapsed = time.perf_counter() - start
                    if tracer is not None:
                        tracer.active = False
                    kernel_after = reference_kernel()
                    self.kernel_s.append(kernel_after)
                digests = op.check(result)
            except Exception:  # a failed op is counted and the run goes on
                self.failed += 1
                print(f"FAILED {op.key}:", file=sys.stderr)
                traceback.print_exc()
                continue
            expected = self.digests.setdefault(op.key, digests)
            if digests != expected:
                self.failed += 1
                print(f"FAILED {op.key}: digests differ from the first pass", file=sys.stderr)
                continue
            wall += elapsed
            if not traced:
                self.times.setdefault(op.key, []).append(elapsed)
                kernel_s = (kernel_before + kernel_after) / 2
                self.ratios.setdefault(op.key, []).append(elapsed / kernel_s)
        self.pass_walls[traced].append(wall)
        if traced:
            self.layer_passes.append(tracer.pass_metrics())

    def medians(self) -> dict:
        return {key: statistics.median(v) for key, v in self.times.items()}

    def pass_rel(self) -> float:
        return sum(statistics.median(v) for v in self.ratios.values())


def print_block(report, runner, path) -> None:
    """The human-readable part of a run's output."""
    print(f"workload {report['workload']}  seed {report['env']['seed']}  trace {report['trace']}")
    print("env " + json.dumps(report["env"]))
    print(
        f"passes {report['passes']['untraced']} untraced, {report['passes']['traced']} traced; "
        "each op time is the median over the untraced passes"
    )
    for key, value in runner.medians().items():
        print(f"  op {key:<16} {value:.6f} s")
    for name, m in report["phases"].items():
        print(f"  {name:<18} {m['value']} {m['unit']}")
    print(f"  pass_s             {report['pass_s']} s")
    print(f"  setup_raw_s        {statistics.median(report['setup_raw_s'])} s (median)")
    print(f"  reference_kernel_s {report['reference_kernel_s']} s (median)")
    print(f"  error_rate         {report['error_rate']} ({runner.failed}/{runner.attempted} ops)")
    for name, m in report["metrics"].items():
        print(f"  {name:<56} {m['value']} {m['unit']}")
    print(f"report {path}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="minimal sizes, for smoke.py")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "magnorm", "__init__.py")):
        print(f"bench: no magnorm package under {SRC}; run from a magnorm checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if not os.path.isfile(os.path.join(ROOT, workloads.REFERENCE_CONFIG)):
        print(f"bench: {workloads.REFERENCE_CONFIG} missing under {ROOT}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    workload, setup_s, setup_raw = set_up(args, workdir)
    import spans  # after set_up, so the tracer patches the modules the workload uses

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    runner = Runner(workload, tracer)
    deadline = time.perf_counter() + args.seconds
    n = 0
    try:
        # With tracing, passes alternate untraced/traced and end on a traced one.
        while n == 0 or time.perf_counter() < deadline or (args.trace and n % 2):
            runner.run_pass(traced=bool(args.trace) and n % 2 == 1)
            n += 1
    finally:
        if tracer is not None:
            tracer.uninstall()

    medians = runner.medians()
    phases = workload.phases(medians)
    if args.trace:
        layers = spans.median_metrics(runner.layer_passes)
        metrics = {
            name: {"value": layers[name], "unit": unit} for name, unit in spans.layer_metric_names()
        }
        # Each traced pass is compared with the untraced pass just before it,
        # so drift in machine speed between passes mostly cancels.
        pairs = zip(runner.pass_walls[False], runner.pass_walls[True])
        metrics["trace_overhead_s"] = {
            "value": statistics.median(traced - plain for plain, traced in pairs),
            "unit": "s",
        }
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_rel": {"value": runner.pass_rel(), "unit": "x"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }

    env = environment(args.seed)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "passes": {"untraced": len(runner.pass_walls[False]), "traced": len(runner.pass_walls[True])},
        "op_seconds": runner.times,
        "pass_s": sum(medians.values()),
        "setup_raw_s": setup_raw,
        "op_kernel_ratios": runner.ratios,
        "reference_kernel_s": statistics.median(runner.kernel_s),
        "phases": {name: {"value": v, "unit": u} for name, (v, u) in phases.items()},
        "error_rate": runner.failed / runner.attempted,
        "digests": runner.digests,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.write_spans(stem + "-spans.csv")
    shutil.rmtree(workdir, ignore_errors=True)

    print_block(report, runner, stem + ".json")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
