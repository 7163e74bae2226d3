"""Experiment harness: generation, training sweeps, evaluation, diagnostics, verify.

Every command is deterministic given its config and seeds, and refuses to
overwrite existing outputs unless --force is passed.  load_config(None) is
the reference spec; train, sweep, --resume and the scripts all train
through run_training; verify runs diagnostics.SUITES.  Exit codes:

    0  success
    1  property failure (verify)
    2  config error
    3  I/O error or corrupt artifact
    4  overwrite refusal
    5  numeric divergence or a zero-norm embedding under a normalizing kind
    6  degenerate statistics
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import diagnostics, simcore
from .datagen import TASK_FILES, TaskSpec, export_task, gen_asymmetric, load_task
from .errors import (
    ConfigError,
    CorruptArtifact,
    DegenerateVariance,
    MagnormError,
    NonFiniteEvaluation,
    NonFiniteLoss,
    TooFewSamples,
    ZeroMagnitude,
)
from .metrics import evaluate_runs, write_metrics_csv, write_run_file
from .model import (
    GammaParams,
    TrainConfig,
    TrainResult,
    _current_kind,
    init_encoder,
    initial_gamma,
    load_checkpoint,
    rank_split,
    restore_snapshot,
    save_checkpoint,
    select_checkpoint,
    train,
    write_trainlog_csv,
)
from .objective import LossConfig

DEFAULT_OUT = "magnorm_out"
OUT_ENV_VAR = "MAGNORM_OUT"

# The reference task: 512 docs in 16 clusters, 2048 queries, 5% of the
# docs promoted to hubs relevant to ~32 queries each.
DEFAULT_TASK = {
    "n_docs": 512,
    "n_queries": 2048,
    "feature_dim": 32,
    "n_clusters": 16,
    "hub_fraction": 0.05,
    "hub_multiplicity": 32,
    "noise_sigma": 0.1,
    "seed": 0,
    "splits": [0.8, 0.1, 0.1],
}
DEFAULT_ENCODER = {"hidden": 64, "embed_dim": 32, "shared": False}
DEFAULT_TRAIN = {
    "lr": 0.01,
    "epochs": 100,
    "batch_size": 64,
    "eval_every": 50,
    "beta1": 0.9,
    "beta2": 0.98,
    "eps": 1e-8,
    "weight_decay": 0.01,
    "clip_norm": 1.0,
    "gamma_lr": None,
}
DEFAULT_LOSS = {"tau": 1.0, "alpha": 20.0, "lambda": 0.01}
DEFAULT_KINDS = ["cosine", "dot", "qnorm", "dnorm", "learnable"]
DEFAULT_SEEDS = [0]
TOP_LEVEL_KEYS = ("out", "task", "encoder", "train", "loss", "kinds", "seeds")


@dataclasses.dataclass
class ExperimentConfig:
    out: str | None
    task: TaskSpec
    enc_hidden: int
    enc_dim: int
    enc_shared: bool
    train_params: dict
    loss_params: dict
    kinds: list
    seeds: list
    sections: dict


def _merge_section(raw: dict, defaults: dict, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"section {where!r} must be a JSON object")
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    return {**defaults, **raw}


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config; None means all defaults."""
    if path is None:
        raw = {}
    else:
        with open(path) as fh:
            text = fh.read()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"config parse failure at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a single JSON object")
    unknown = sorted(set(raw) - set(TOP_LEVEL_KEYS))
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")

    task_sec = _merge_section(raw.get("task", {}), DEFAULT_TASK, "task")
    enc_sec = _merge_section(raw.get("encoder", {}), DEFAULT_ENCODER, "encoder")
    train_sec = _merge_section(raw.get("train", {}), DEFAULT_TRAIN, "train")
    loss_sec = _merge_section(raw.get("loss", {}), DEFAULT_LOSS, "loss")
    kinds = raw.get("kinds", list(DEFAULT_KINDS))
    seeds = raw.get("seeds", list(DEFAULT_SEEDS))
    if not isinstance(kinds, list) or not kinds:
        raise ConfigError("kinds must be a nonempty list of similarity names")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a nonempty list of integers")
    try:
        seeds = [int(s) for s in seeds]
    except (TypeError, ValueError):
        raise ConfigError("seeds must be integers") from None
    _check_kinds(kinds)

    try:
        spec = TaskSpec(
            n_docs=int(task_sec["n_docs"]),
            n_queries=int(task_sec["n_queries"]),
            feature_dim=int(task_sec["feature_dim"]),
            n_clusters=int(task_sec["n_clusters"]),
            hub_fraction=float(task_sec["hub_fraction"]),
            hub_multiplicity=int(task_sec["hub_multiplicity"]),
            noise_sigma=float(task_sec["noise_sigma"]),
            seed=int(task_sec["seed"]),
            splits=tuple(float(f) for f in task_sec["splits"]),
        )
        loss_params = {
            "tau": float(loss_sec["tau"]),
            "alpha": float(loss_sec["alpha"]),
            "lam": float(loss_sec["lambda"]),
        }
        train_params = {
            "lr": float(train_sec["lr"]),
            "epochs": int(train_sec["epochs"]),
            "batch_size": int(train_sec["batch_size"]),
            "eval_every": int(train_sec["eval_every"]),
            "beta1": float(train_sec["beta1"]),
            "beta2": float(train_sec["beta2"]),
            "eps": float(train_sec["eps"]),
            "weight_decay": float(train_sec["weight_decay"]),
            "clip_norm": float(train_sec["clip_norm"]),
            "gamma_lr": None if train_sec["gamma_lr"] is None else float(train_sec["gamma_lr"]),
        }
        # Probe constructions so invalid numbers fail here, not mid-sweep.
        probe_loss = LossConfig(kind=simcore.COSINE, **loss_params)
        TrainConfig(seed=0, loss=probe_loss, **train_params)
        enc_hidden = int(enc_sec["hidden"])
        enc_dim = int(enc_sec["embed_dim"])
        enc_shared = bool(enc_sec["shared"])
        if enc_hidden < 0 or enc_dim < 1:
            raise ValueError("encoder hidden must be >= 0 and embed_dim >= 1")
    except (ValueError, MagnormError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(str(e)) from None

    return ExperimentConfig(
        out=raw.get("out"),
        task=spec,
        enc_hidden=enc_hidden,
        enc_dim=enc_dim,
        enc_shared=enc_shared,
        train_params=train_params,
        loss_params=loss_params,
        kinds=[str(k) for k in kinds],
        seeds=seeds,
        sections={
            "task": task_sec,
            "encoder": enc_sec,
            "train": train_sec,
            "loss": loss_sec,
        },
    )


def resolve_out(cli_out, cfg_out) -> str:
    return cli_out or cfg_out or os.environ.get(OUT_ENV_VAR) or DEFAULT_OUT


def _guard(paths, force: bool) -> None:
    if force:
        return
    for p in paths:
        if os.path.exists(p):
            raise FileExistsError(f"{p} exists (use --force to overwrite)")


def _err(msg: str) -> None:
    print(f"magnorm: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    cfg = load_config(args.config)
    out = resolve_out(args.out, cfg.out)
    os.makedirs(out, exist_ok=True)
    spec = cfg.task if args.seed is None else dataclasses.replace(cfg.task, seed=args.seed)
    task = gen_asymmetric(spec)
    export_task(task, out, force=args.force)
    print(
        f"wrote {', '.join(TASK_FILES)} to {out} "
        f"({spec.n_docs} docs, {spec.n_queries} queries, seed {spec.seed})"
    )
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def run_training(cfg: ExperimentConfig, task, kind_name: str, seed: int) -> TrainResult:
    """Train one (kind, seed) of the config from a freshly seeded encoder.

    A diverging loss (NonFiniteLoss), a non-finite validation score
    (NonFiniteEvaluation) or a zero-norm embedding under a normalizing kind
    (ZeroMagnitude) is re-raised with the kind and seed in its message,
    which is what the CLI prints before exiting 5.
    """
    m = task.doc_features.shape[1]
    encoder = init_encoder(m, cfg.enc_hidden, cfg.enc_dim, cfg.enc_shared, seed)
    loss = LossConfig(kind=simcore.kind_from_name(kind_name), **cfg.loss_params)
    try:
        return train(task, encoder, TrainConfig(seed=seed, loss=loss, **cfg.train_params))
    except NonFiniteLoss as e:
        e.args = (f"kind {kind_name} seed {seed} at step {e.step} (loss {e.value})",)
        raise
    except (ZeroMagnitude, NonFiniteEvaluation) as e:
        e.args = (f"kind {kind_name} seed {seed}: {e}",)
        raise


def _plan(args, cfg: ExperimentConfig) -> list:
    """(kind name, seed, artifact stem) per training of train or sweep, in run order."""
    kinds = _parse_kinds(args.kinds) if args.kinds else cfg.kinds
    seeds = [args.seed] if args.seed is not None else cfg.seeds
    plan = [(k, s, f"{simcore.kind_from_name(k).tag}_{s}") for k in kinds for s in seeds]
    stems = [stem for _, _, stem in plan]
    clash = next((stem for i, stem in enumerate(stems) if stem in stems[:i]), None)
    if clash is not None:
        raise ConfigError(
            f"two trainings would both write the {clash} artifacts; list each kind tag and seed once"
        )
    return plan


def _train_paths(out: str, stem: str) -> tuple:
    return os.path.join(out, f"checkpoint_{stem}.json"), os.path.join(out, f"trainlog_{stem}.csv")


def _train_and_save(cfg: ExperimentConfig, task, out: str, kind_name: str, seed: int, stem: str):
    """Train, restore the best validation snapshot, write its trainlog and checkpoint."""
    result = run_training(cfg, task, kind_name, seed)
    best = select_checkpoint(result.log, result.snapshots)
    gamma = restore_snapshot(result.encoder, best)
    ckpt, tlog = _train_paths(out, stem)
    write_trainlog_csv(tlog, result.log)
    echo = {"kind": kind_name, "seed": seed, **cfg.sections}
    save_checkpoint(ckpt, result.encoder, gamma, best.step, echo)
    return result, best, ckpt


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = resolve_out(args.out, cfg.out)
    task = load_task(out)
    plan = _plan(args, cfg)
    if args.resume:
        return _resume_training(cfg, task, args.resume, out, args.force)

    _guard([p for _, _, stem in plan for p in _train_paths(out, stem)], args.force)
    for kname, seed, stem in plan:
        result, best, _ = _train_and_save(cfg, task, out, kname, seed, stem)
        print(
            f"trained {kname} seed {seed}: {len(result.log)} evals, "
            f"selected step {best.step} val_ndcg10 {best.val_ndcg10:.4f}"
        )
    return 0


def _resume_training(cfg: ExperimentConfig, task, resume_path: str, out: str, force: bool) -> int:
    """Deterministic replay past a checkpoint; emits the remaining log rows.

    Checkpoints carry no optimizer state, so resumption re-runs the seeded
    training (bit-identical by construction) and verifies the replayed
    parameters at the checkpoint step before trusting the continuation.
    """
    enc_saved, _, rstep, echo = load_checkpoint(resume_path)
    kname = echo.get("kind")
    seed = echo.get("seed")
    if kname is None or seed is None:
        raise ConfigError(f"{resume_path} lacks the kind/seed echo needed to resume")
    tag = simcore.kind_from_name(kname).tag
    tlog = os.path.join(out, f"trainlog_{tag}_{seed}_resumed.csv")
    _guard([tlog], force)
    result = run_training(cfg, task, kname, int(seed))
    replayed = next((s for s in result.snapshots if s.step == rstep), None)
    if replayed is None:
        raise ConfigError(f"checkpoint step {rstep} is not an evaluation step of this config")
    if not np.array_equal(replayed.params[: enc_saved.theta.size], enc_saved.theta):
        raise ConfigError(f"checkpoint {resume_path} does not match this config/seed at step {rstep}")
    remaining = [r for r in result.log if r.step >= rstep]
    write_trainlog_csv(tlog, remaining)
    print(f"resumed {kname} seed {seed} from step {rstep}: {len(remaining)} remaining evals")
    return 0


def _check_kinds(names) -> None:
    """Every name parses to a kind that training can start from."""
    for name in names:
        try:
            initial_gamma(simcore.kind_from_name(str(name)))
        except (ValueError, MagnormError) as e:
            raise ConfigError(f"bad similarity kind {name!r}: {e}") from None


def _parse_kinds(text: str) -> list:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise ConfigError("--kinds given but empty")
    _check_kinds(names)
    return names


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _parse_ks(text: str, n_docs: int) -> list:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 3:
        raise ConfigError("--k expects three comma-separated integers: ndcg,recall,mrr")
    try:
        ks = [int(t) for t in parts]
    except ValueError:
        raise ConfigError(f"--k values must be integers, got {text!r}") from None
    if any(k < 1 for k in ks):
        raise ConfigError("--k values must be positive")
    return [("ndcg", ks[0]), ("recall", min(ks[1], n_docs)), ("mrr", ks[2])]


def _kind_for_checkpoint(echo: dict, gamma: GammaParams):
    return _current_kind(simcore.kind_from_name(echo.get("kind", "cosine")), gamma)


def _eval_paths(out: str, stem: str, split: str) -> tuple:
    return os.path.join(out, f"run_{stem}_{split}.txt"), os.path.join(out, f"metrics_{stem}_{split}.csv")


def _eval_checkpoint(ckpt_path: str, out: str, split: str, k_text: str, force: bool):
    encoder, gamma, _, echo = load_checkpoint(ckpt_path)
    task = load_task(out)
    kind = _kind_for_checkpoint(echo, gamma)
    metric_ks = _parse_ks(k_text, len(task.doc_ids))
    runs = rank_split(encoder, gamma, task, kind, split)
    rows = evaluate_runs(runs, task.qrels, metric_ks)
    stem = f"{kind.tag}_{echo.get('seed', 0)}"
    run_path, met_path = _eval_paths(out, stem, split)
    _guard([run_path, met_path], force)
    write_run_file(run_path, runs, tag=stem)
    write_metrics_csv(met_path, rows)
    return rows, run_path, met_path


def _macro_rows(rows) -> list:
    return [(name, k, v) for qid, name, k, v in rows if qid == "ALL"]


def _cmd_eval(args) -> int:
    cfg = load_config(args.config) if args.config else None
    out = resolve_out(args.out, cfg.out if cfg else None)
    rows, run_path, met_path = _eval_checkpoint(
        args.checkpoint, out, args.split, args.k, args.force
    )
    for name, k, v in _macro_rows(rows):
        print(f"{name}@{k} {v:.4f}")
    print(f"wrote {run_path} and {met_path}")
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _cmd_diagnose(args) -> int:
    cfg = load_config(args.config) if args.config else None
    out = resolve_out(args.out, cfg.out if cfg else None)
    task = load_task(out)
    reports = []
    for path in args.checkpoint:
        encoder, gamma, _, echo = load_checkpoint(path)
        kind = _kind_for_checkpoint(echo, gamma)
        reports.append(diagnostics.magnitude_report(encoder, task, kind, split=args.split))
    by_tag = {r.kind.split(":")[0]: i for i, r in enumerate(reports)}
    if "dot" in by_tag and "dnorm" in by_tag:
        i = by_tag["dnorm"]
        reports[i] = diagnostics.with_delta_cv(reports[i], reports[by_tag["dot"]].query_cv)
    json_path = os.path.join(out, "diagnostics.json")
    csv_path = os.path.join(out, "diagnostics.csv")
    _guard([json_path, csv_path], args.force)
    payload = []
    for r in reports:
        d = dataclasses.asdict(r)
        if d.get("delta_cv") is None:
            d.pop("delta_cv", None)
        payload.append(d)
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    diagnostics.write_report_csv(csv_path, reports)
    for r in reports:
        extra = f" delta_cv {r.delta_cv:.4f}" if r.delta_cv is not None else ""
        print(
            f"{r.kind} split {r.split}: cohens_d {r.cohens_d:.4f} "
            f"query_cv {r.query_cv:.4f} doc_cv {r.doc_cv:.4f}"
            f" (rel {r.n_rel}, irrel {r.n_irrel}){extra}"
        )
    print(f"wrote {json_path} and {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be a positive integer")
    if args.seed < 0:
        raise ConfigError("--seed must be a non-negative integer")
    failures = []
    print(f"{'suite':<22}{'max_err':>12}  {'tol':<12}{'status'}")
    for i, (name, suite) in enumerate(diagnostics.SUITES):
        r = suite(np.random.default_rng([args.seed, i]), args.trials, args.seed)
        print(f"{name:<22}{r.err:>12.3e}  {r.tol:<12}{'PASS' if r.ok else 'FAIL'}")
        if not r.ok:
            failures.append(name)
            if r.note:
                print(f"  {r.note}")
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    print(f"all {len(diagnostics.SUITES)} suites passed ({args.trials} trials, seed {args.seed})")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    out = resolve_out(args.out, cfg.out)
    os.makedirs(out, exist_ok=True)
    plan = _plan(args, cfg)

    if all(os.path.exists(os.path.join(out, f)) for f in TASK_FILES):
        task = load_task(out)
        print(f"reusing task files in {out}")
    else:
        task = gen_asymmetric(cfg.task)
        export_task(task, out, force=args.force)
        print(f"generated task files in {out}")

    summary_path = os.path.join(out, "sweep_summary.csv")
    targets = [summary_path]
    for _, _, stem in plan:
        targets += [*_train_paths(out, stem), *_eval_paths(out, stem, "test")]
    _guard(targets, args.force)

    summary = []
    for kname, seed, stem in plan:
        result, best, ckpt = _train_and_save(cfg, task, out, kname, seed, stem)
        rows, _, _ = _eval_checkpoint(ckpt, out, "test", "10,100,10", force=True)
        macro = {f"{name}@{k}": v for name, k, v in _macro_rows(rows)}
        summary.append(
            {
                "kind": kname,
                "seed": seed,
                "selected_step": best.step,
                "val_ndcg10": best.val_ndcg10,
                "untrained_val_ndcg10": result.log[0].val_ndcg10,
                "test_ndcg10": macro.get("ndcg@10", 0.0),
                "test_recall100": next(
                    (v for key, v in macro.items() if key.startswith("recall@")), 0.0
                ),
                "test_mrr10": macro.get("mrr@10", 0.0),
            }
        )
        print(
            f"{kname} seed {seed}: step {best.step} val {best.val_ndcg10:.4f} "
            f"(untrained {result.log[0].val_ndcg10:.4f}) test ndcg {summary[-1]['test_ndcg10']:.4f}"
        )

    with open(summary_path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(summary[0]))
        w.writeheader()
        for row in summary:
            w.writerow(
                {
                    k: (f"{v:.10g}" if isinstance(v, float) else v)
                    for k, v in row.items()
                }
            )
    print(f"wrote {summary_path}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="magnorm",
        description="Similarity-variant contrastive learning laboratory",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed_help="seed override"):
        sp.add_argument("--config", default=None, help="JSON experiment config")
        sp.add_argument("--out", default=None, help=f"output dir (default: config, ${OUT_ENV_VAR}, ./{DEFAULT_OUT})")
        sp.add_argument("--force", action="store_true", help="overwrite existing outputs")
        sp.add_argument("--seed", type=int, default=None, help=seed_help)

    sp = sub.add_parser("gen", help="generate synthetic task files")
    common(sp, "override the task seed")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("train", help="train checkpoints for each kind and seed")
    common(sp, "train a single seed instead of the config list")
    sp.add_argument("--kinds", default=None, help="comma-separated similarity kinds")
    sp.add_argument("--resume", default=None, help="checkpoint to replay past; writes the remaining log")
    sp.set_defaults(func=_cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    sp.add_argument("--checkpoint", required=True, help="checkpoint JSON to evaluate")
    sp.add_argument("--split", default="test", choices=("train", "val", "test"))
    sp.add_argument("--k", default="10,100,10", help="ndcg,recall,mrr cutoffs")
    sp.add_argument("--config", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("diagnose", help="magnitude diagnostics for checkpoints")
    sp.add_argument("--checkpoint", action="append", required=True, help="repeatable")
    sp.add_argument("--split", default="test", choices=("train", "val", "test"))
    sp.add_argument("--config", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=_cmd_diagnose)

    sp = sub.add_parser("verify", help="run the property-verification suites")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sweep", help="gen if missing, train all kinds/seeds, eval, summarize")
    common(sp, "sweep a single seed instead of the config list")
    sp.add_argument("--kinds", default=None, help="comma-separated similarity kinds")
    sp.set_defaults(func=_cmd_sweep)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        _err(f"config error: {e}")
        return 2
    except FileExistsError as e:
        _err(f"overwrite refusal: {e}")
        return 4
    except (NonFiniteLoss, NonFiniteEvaluation) as e:
        _err(f"numeric divergence: {e}")
        return 5
    except ZeroMagnitude as e:
        _err(f"zero magnitude: {e}")
        return 5
    except (DegenerateVariance, TooFewSamples) as e:
        _err(f"degenerate statistics: {e}")
        return 6
    except OSError as e:
        _err(f"I/O failure: {e}")
        return 3
    except CorruptArtifact as e:
        _err(f"corrupt artifact: {e}")
        return 3
    except MagnormError as e:
        _err(f"config error: {e}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
