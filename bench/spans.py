"""Outside-in span tracer for the magnorm layers.

The tracer times calls into each layer's public functions without touching
the package: it rebinds every name in the loaded ``magnorm`` modules (and
in their module-level dicts, such as ``metrics.METRIC_FUNCS``) that refers
to a traced function, so the package's own call sites go through a
wrapper.  Each call records a span (name, start, end, parent span, bench
op) in memory; ``uninstall`` puts the original functions back.

A wrapper only records while ``active`` is set, so the bench's own checks
between timed ops run at full speed and leave no spans.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

import magnorm
from magnorm.datagen import TASK_FILES

# (span name, attribute path under the magnorm package, byte rule).
# The byte rule names how a traced I/O call's file size is found: "path"
# is the first argument, "paths" the returned list, "taskdir" the four
# task files under the directory given as first argument.
LAYERS = (
    ("cli.main", "cli.main", None),
    ("model.train", "model.train", None),
    ("model.loss_and_grads", "model.loss_and_grads", None),
    ("model.adamw_step", "model.adamw_step", None),
    ("model.clip_by_global_norm", "model.clip_by_global_norm", None),
    ("model.validation_ndcg", "model.validation_ndcg", None),
    ("model.forward", "model.forward", None),
    ("model.rank_split", "model.rank_split", None),
    ("model.save_checkpoint", "model.save_checkpoint", "path"),
    ("model.load_checkpoint", "model.load_checkpoint", "path"),
    ("model.write_trainlog_csv", "model.write_trainlog_csv", "path"),
    ("objective.candidate_logits", "objective.candidate_logits", None),
    ("grad.infonce_grad", "grad.infonce_grad", None),
    ("grad.sim_grad", "grad.sim_grad", None),
    ("grad.finite_difference", "grad.finite_difference", None),
    ("grad.gradcheck", "grad.gradcheck", None),
    ("simcore.similarity", "simcore.similarity", None),
    ("simcore.similarity_matrix", "simcore.similarity_matrix", None),
    ("metrics.ranked_list", "metrics.ranked_list", None),
    ("metrics.ndcg_at_k", "metrics.ndcg_at_k", None),
    ("metrics.evaluate_runs", "metrics.evaluate_runs", None),
    ("metrics.write_run_file", "metrics.write_run_file", "path"),
    ("metrics.write_metrics_csv", "metrics.write_metrics_csv", "path"),
    ("metrics.read_qrels", "metrics.read_qrels", "path"),
    ("datagen.gen_asymmetric", "datagen.gen_asymmetric", None),
    ("datagen.export_task", "datagen.export_task", "paths"),
    ("datagen.load_task", "datagen.load_task", "taskdir"),
    ("datagen.relevant_of", "datagen.SyntheticTask.relevant_of", None),
    ("diagnostics.magnitude_report", "diagnostics.magnitude_report", None),
    ("diagnostics.verify_ranking_equivalence", "diagnostics.verify_ranking_equivalence", None),
    ("diagnostics.rank_documents", "diagnostics.rank_documents", None),
)

# Parents that decide whether a similarity_matrix call serves the loss or
# the evaluator.
LOSS_PARENTS = frozenset({"model.loss_and_grads"})
EVAL_PARENTS = frozenset({"model.validation_ndcg", "model.rank_split"})


def layer_metric_names() -> list:
    """(name, unit) of every per-layer metric ``Tracer.pass_metrics`` reports."""
    out = []
    for name, _, byte_rule in LAYERS:
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
        if byte_rule:
            out.append((f"{name}.bytes", "B"))
    out += [
        ("simcore.similarity_matrix.loss.total_s", "s"),
        ("simcore.similarity_matrix.eval.total_s", "s"),
        ("model.clip_fired_ratio", "ratio"),
        ("cli.resume.train_steps", "count"),
    ]
    return out


def _file_bytes(rule, args, result) -> int:
    if rule == "path":
        paths = [args[0]]
    elif rule == "paths":
        paths = result
    else:
        paths = [os.path.join(args[0], f) for f in TASK_FILES]
    return sum(os.path.getsize(p) for p in paths)


class Tracer:
    """Span recorder for one process; install once, toggle ``active``."""

    def __init__(self):
        self.active = False
        self.op = ""
        self.spans = []  # (name, start, end, parent index or -1, op)
        self.io_bytes = {}
        self.clip_fired = 0
        self._stack = []
        self._restore = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "magnorm" or n.startswith("magnorm.")]
        for name, path, byte_rule in LAYERS:
            *owner_path, attr = path.split(".")
            owner = functools.reduce(getattr, owner_path, magnorm)
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, byte_rule)
            for holder in [owner] + modules:
                self._rebind(vars(holder), fn, wrapper, holder)
                for value in list(vars(holder).values()):
                    if type(value) is dict:
                        self._rebind(value, fn, wrapper, None)

    def _rebind(self, namespace, fn, wrapper, holder) -> None:
        for key, value in list(namespace.items()):
            if value is fn:
                if holder is None:
                    namespace[key] = wrapper
                else:
                    setattr(holder, key, wrapper)
                self._restore.append((holder, namespace, key, fn))

    def uninstall(self) -> None:
        for holder, namespace, key, fn in reversed(self._restore):
            if holder is None:
                namespace[key] = fn
            else:
                setattr(holder, key, fn)
        self._restore.clear()

    def _wrap(self, name, fn, byte_rule):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op)
            if byte_rule:
                tracer.io_bytes[name] = tracer.io_bytes.get(name, 0) + _file_bytes(
                    byte_rule, args, result
                )
            if name == "model.clip_by_global_norm" and result is not args[0]:
                tracer.clip_fired += 1
            return result

        return traced

    def reset(self) -> None:
        self.spans = []
        self.io_bytes = {}
        self.clip_fired = 0

    def pass_metrics(self) -> dict:
        """Per-layer calls, total, self time and bytes over the spans recorded."""
        calls = {name: 0 for name, _, _ in LAYERS}
        total = dict.fromkeys(calls, 0.0)
        self_s = dict.fromkeys(calls, 0.0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        split = {"loss": 0.0, "eval": 0.0}
        resume_steps = 0
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
            if name == "simcore.similarity_matrix":
                side = self._serves(parent)
                if side:
                    split[side] += end - start
            elif name == "model.loss_and_grads" and op == "resume":
                resume_steps += 1
        out = {}
        for name, _, byte_rule in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
            if byte_rule:
                out[f"{name}.bytes"] = self.io_bytes.get(name, 0)
        out["simcore.similarity_matrix.loss.total_s"] = split["loss"]
        out["simcore.similarity_matrix.eval.total_s"] = split["eval"]
        clips = calls["model.clip_by_global_norm"]
        out["model.clip_fired_ratio"] = self.clip_fired / clips if clips else 0.0
        out["cli.resume.train_steps"] = resume_steps
        return out

    def _serves(self, index):
        while index >= 0:
            name = self.spans[index][0]
            if name in LOSS_PARENTS:
                return "loss"
            if name in EVAL_PARENTS:
                return "eval"
            index = self.spans[index][3]
        return None

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")


def median_metrics(per_pass: list) -> dict:
    """Each metric's lower median over the traced passes, so counts stay whole."""
    return {key: statistics.median_low(m[key] for m in per_pass) for key in per_pass[0]}
