"""Experiment harness: generation, training sweeps, evaluation, diagnostics, verify, batch.

Every command is deterministic given its config and seeds, and refuses to
overwrite existing outputs unless --force is passed.  load_config(None) is
the reference spec; train, sweep and --resume all train through
run_training; verify runs diagnostics.SUITES.  Exit codes:

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
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import diagnostics, simcore
from .datagen import TASK_FILES, TaskSpec, export_task, gen_asymmetric, load_task, split_bounds
from .errors import (
    ConfigError,
    CorruptArtifact,
    DegenerateBatch,
    DegenerateInput,
    DegenerateVariance,
    EmptyInput,
    MagnormError,
    NonFiniteEvaluation,
    NonFiniteLoss,
    TooFewSamples,
    ZeroMagnitude,
)
from .metrics import atomic_write, refuse_overwrite, write_csv, write_metrics_csv, write_run_file
from .model import (
    TrainConfig,
    TrainResult,
    _batch_layout,
    init_encoder,
    initial_gamma,
    load_checkpoint,
    rank_split,
    save_checkpoint,
    train,
    trained_kind,
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
DEFAULT_LOSS = {"tau": 1.0, "alpha": 20.0}
# The config sections, in the order load_config checks them and --resume compares them.
SECTION_DEFAULTS = {"task": DEFAULT_TASK, "encoder": DEFAULT_ENCODER, "train": DEFAULT_TRAIN, "loss": DEFAULT_LOSS}
DEFAULT_KINDS = ["cosine", "dot", "qnorm", "dnorm", "learnable"]
DEFAULT_SEEDS = [0]
DEFAULT_KS = "10,100,10"
TOP_LEVEL_KEYS = ("out", *SECTION_DEFAULTS, "kinds", "seeds")


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


def _is_number(value) -> bool:
    """A JSON number a float holds: not a bool, NaN, an infinity or an integer past float range."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What a config value may be, by the type of its default, and the value
# training takes from it: a number where a float or null default goes is a float.
_JSON_TYPES = {
    bool: ("true or false", lambda v: isinstance(v, bool), bool),
    int: ("an integer", _is_int, int),
    float: ("a finite number", _is_number, float),
    type(None): ("null or a finite number", lambda v: v is None or _is_number(v),
                 lambda v: v if v is None else float(v)),
    list: ("a list of finite numbers", lambda v: isinstance(v, list) and all(map(_is_number, v)), list),
}


def _merge_section(raw: dict, defaults: dict, where: str) -> dict:
    """defaults overridden by raw, each value of its default's JSON type."""
    if not isinstance(raw, dict):
        raise ConfigError(f"section {where!r} must be a JSON object")
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    for key, value in raw.items():
        what, ok, _ = _JSON_TYPES[type(defaults[key])]
        if not ok(value):
            raise ConfigError(f"{where}.{key} must be {what}, got {json.dumps(value)}")
    return {**defaults, **raw}


def _typed(section: dict, defaults: dict) -> dict:
    """A merged section's values as training takes them."""
    return {key: _JSON_TYPES[type(defaults[key])][2](value) for key, value in section.items()}


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config; None means all defaults."""
    if path is None:
        return _parse_config({})
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_config(json.loads(fh.read()))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config parse failure at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8 text ({e})") from None


def _parse_config(raw) -> ExperimentConfig:
    """Validate a parsed config: each section merged over its defaults, every value checked."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a single JSON object")
    unknown = sorted(set(raw) - set(TOP_LEVEL_KEYS))
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
    if not isinstance(raw.get("out"), (str, type(None))):
        raise ConfigError(f"out must be a string or null, got {json.dumps(raw['out'])}")

    sections = {name: _merge_section(raw.get(name, {}), defaults, name) for name, defaults in SECTION_DEFAULTS.items()}
    task_sec, enc_sec = sections["task"], sections["encoder"]
    kinds = raw.get("kinds", list(DEFAULT_KINDS))
    seeds = raw.get("seeds", list(DEFAULT_SEEDS))
    if not isinstance(kinds, list) or not kinds:
        raise ConfigError("kinds must be a nonempty list of similarity names")
    if not isinstance(seeds, list) or not seeds or not all(_is_int(s) and s >= 0 for s in seeds):
        raise ConfigError(f"seeds must be a nonempty list of non-negative integers, got {json.dumps(seeds)}")
    if task_sec["seed"] < 0:
        raise ConfigError(f"task.seed must be a non-negative integer, got {task_sec['seed']}")
    _check_kinds(kinds)

    try:
        typed = {name: _typed(section, SECTION_DEFAULTS[name]) for name, section in sections.items()}
        spec = TaskSpec(**typed["task"])
        # Probe constructions so invalid numbers fail here, not mid-sweep.
        TrainConfig(seed=0, loss=LossConfig(kind=simcore.COSINE, **typed["loss"]), **typed["train"])
        if enc_sec["hidden"] < 0 or enc_sec["embed_dim"] < 1:
            raise ValueError("encoder hidden must be >= 0 and embed_dim >= 1")
    except (ValueError, MagnormError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(str(e)) from None

    return ExperimentConfig(
        out=raw.get("out"),
        task=spec,
        enc_hidden=enc_sec["hidden"],
        enc_dim=enc_sec["embed_dim"],
        enc_shared=enc_sec["shared"],
        train_params=typed["train"],
        loss_params=typed["loss"],
        kinds=[str(k) for k in kinds],
        seeds=seeds,
        sections=sections,
    )


def resolve_out(cli_out, cfg_out) -> str:
    return cli_out or cfg_out or os.environ.get(OUT_ENV_VAR) or DEFAULT_OUT


def _err(msg: str) -> None:
    print(f"magnorm: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    cfg = load_config(args.config)
    out = resolve_out(args.out, cfg.out)
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


def run_training(cfg: ExperimentConfig, task, kind_name: str, seed: int, encoder=None, state=None) -> TrainResult:
    """Train one (kind, seed) of the config from a freshly seeded encoder, or continue encoder from state.

    A diverging loss or gradient (NonFiniteLoss), a non-finite validation score
    (NonFiniteEvaluation) or a zero-norm embedding under a normalizing kind
    (ZeroMagnitude) is re-raised with the kind and seed in its message,
    which is what the CLI prints before exiting 5.
    """
    if encoder is None:
        encoder = init_encoder(task.doc_features.shape[1], cfg.enc_hidden, cfg.enc_dim, cfg.enc_shared, seed)
    loss = LossConfig(kind=simcore.kind_from_name(kind_name), **cfg.loss_params)
    try:
        return train(task, encoder, TrainConfig(seed=seed, loss=loss, **cfg.train_params), state)
    except NonFiniteLoss as e:
        e.args = (f"kind {kind_name} seed {seed} at step {e.step} ({e.what} {e.value})",)
        raise
    except (ZeroMagnitude, NonFiniteEvaluation) as e:
        e.args = (f"kind {kind_name} seed {seed}: {e}",)
        raise


def artifact_stem(kind, seed: int) -> str:
    """The <tag>_<seed> stem of one training's checkpoint, trainlog, run and metrics file names."""
    return f"{kind.tag}_{seed}"


def _plan(args, cfg: ExperimentConfig) -> list:
    """(kind name, seed, artifact stem) per training of train or sweep, in run order."""
    kinds = _parse_kinds(args.kinds) if args.kinds else cfg.kinds
    seeds = [args.seed] if args.seed is not None else cfg.seeds
    plan = [(k, s, artifact_stem(simcore.kind_from_name(k), s)) for k in kinds for s in seeds]
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
    """Train, put the best evaluation's weights in the encoder, write trainlog and checkpoint.

    Returns the result, the best evaluation's log row, and the kind that scores with its gamma logits.
    """
    result = run_training(cfg, task, kind_name, seed)
    best, k = result.best, result.encoder.theta.size
    result.encoder.theta[...] = best.params[:k]
    ckpt, tlog = _train_paths(out, stem)
    write_trainlog_csv(tlog, result.log)
    # The echo holds only what differs from the defaults, so a new key at its default moves no byte.
    sparse = {name: {k: v for k, v in sec.items() if v != SECTION_DEFAULTS[name][k]} for name, sec in cfg.sections.items()}
    save_checkpoint(ckpt, result.encoder, best, {"kind": kind_name, "seed": seed, **sparse})
    row = next(r for r in result.log if r.step == best.step)
    return result, row, trained_kind(simcore.kind_from_name(kind_name), best.params[k:])


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = resolve_out(args.out, cfg.out)
    if args.resume:
        given = [flag for flag, v in (("--kinds", args.kinds), ("--seed", args.seed)) if v is not None]
        if given:
            raise ConfigError(f"--resume continues the checkpoint's own kind and seed; drop {' and '.join(given)}")
        return _resume_training(cfg, args.resume, out, args.force)
    plan = _plan(args, cfg)
    task = load_task(out)

    refuse_overwrite([p for _, _, stem in plan for p in _train_paths(out, stem)], args.force)
    for kname, seed, stem in plan:
        result, best, _ = _train_and_save(cfg, task, out, kname, seed, stem)
        print(
            f"trained {kname} seed {seed}: {len(result.log)} evals, "
            f"selected step {best.step} val_ndcg10 {best.val_ndcg10:.4f}"
        )
    return 0


def _load_run(path) -> tuple:
    """load_checkpoint's (encoder, trained kind, state, echo), each echoed section merged over the defaults.

    load_config's rules read the sections, ignoring keys no longer defined.
    An echo they refuse, or a step outside [0, epochs x batches an epoch]
    of its training, raises CorruptArtifact naming the file.
    """
    encoder, kind, state, echo = load_checkpoint(path)
    raw = {}
    for name, defaults in SECTION_DEFAULTS.items():
        section = echo.get(name, {})
        raw[name] = {k: v for k, v in section.items() if k in defaults} if isinstance(section, dict) else section
    try:
        cfg = _parse_config(raw)
        n_train = split_bounds(cfg.task.n_queries, cfg.task.splits)[0]
        total = cfg.train_params["epochs"] * len(_batch_layout(n_train, cfg.train_params["batch_size"]))
    except (ConfigError, DegenerateBatch) as e:
        raise CorruptArtifact(f"{path}: config echo: {e}") from None
    if not 0 <= state.step <= total:
        raise CorruptArtifact(f"{path}: step {state.step} is outside [0, {total}] of its config echo")
    return encoder, kind, state, {"kind": echo["kind"], "seed": echo["seed"], **cfg.sections}


def _resume_training(cfg: ExperimentConfig, resume_path: str, out: str, force: bool) -> int:
    """Continue a checkpoint's training from its state; writes the log from the checkpoint step on.

    The checkpoint holds the moments and generator state of its step, so
    only the steps after it run.  --config must give every section value
    of the checkpoint's echo as _load_run reads it.  The checkpoint, its
    echo and the log's overwrite refusal are checked before the task is loaded.
    """
    encoder, _, state, echo = _load_run(resume_path)
    kname, seed = echo["kind"], echo["seed"]
    for section, values in cfg.sections.items():
        for key, value in values.items():
            if echo[section][key] != value:
                raise ConfigError(
                    f"{resume_path} was trained with {section}.{key} {json.dumps(echo[section][key])}, "
                    f"--config gives {json.dumps(value)}"
                )
    tlog = os.path.join(out, f"trainlog_{artifact_stem(simcore.kind_from_name(kname), seed)}_resumed.csv")
    refuse_overwrite([tlog], force)
    result = run_training(cfg, load_task(out), kname, seed, encoder, state)
    write_trainlog_csv(tlog, result.log)
    print(f"resumed {kname} seed {seed} from step {state.step}: {len(result.log)} remaining evals")
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


def _parse_ks(text: str) -> list:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 3:
        raise ConfigError("--k expects three comma-separated integers: ndcg,recall,mrr")
    try:
        ks = [int(t) for t in parts]
    except ValueError:
        raise ConfigError(f"--k values must be integers, got {text!r}") from None
    if any(k < 1 for k in ks):
        raise ConfigError("--k values must be positive")
    return ks


def _eval_paths(out: str, stem: str, split: str) -> tuple:
    return os.path.join(out, f"run_{stem}_{split}.txt"), os.path.join(out, f"metrics_{stem}_{split}.csv")


def _eval_encoder(encoder, kind, stem: str, task, out: str, split: str, ks) -> tuple:
    """Rank one split of task with a trained encoder and kind; write stem's run file and metrics CSV to out.

    Returns the metric rows and the corpus's embedding norms, in doc_ids order.
    """
    ranking, (_, doc_norms) = rank_split(encoder, task, kind, task.grade_table(split))
    rows = ranking.metric_rows([("ndcg", ks[0]), ("recall", min(ks[1], len(task.doc_ids))), ("mrr", ks[2])])
    run_path, met_path = _eval_paths(out, stem, split)
    write_run_file(run_path, ranking, tag=stem)
    write_metrics_csv(met_path, rows)
    return rows, doc_norms


def _macro_rows(rows) -> list:
    return [(name, k, v) for qid, name, k, v in rows if qid == "ALL"]


def _cmd_eval(args) -> int:
    ks = _parse_ks(args.k)
    out = resolve_out(args.out, load_config(args.config).out)
    encoder, kind, _, echo = _load_run(args.checkpoint)
    stem = artifact_stem(kind, echo["seed"])
    run_path, met_path = _eval_paths(out, stem, args.split)
    refuse_overwrite([run_path, met_path], args.force)
    rows, _ = _eval_encoder(encoder, kind, stem, load_task(out), out, args.split, ks)
    for name, k, v in _macro_rows(rows):
        print(f"{name}@{k} {v:.4f}")
    print(f"wrote {run_path} and {met_path}")
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def _cmd_diagnose(args) -> int:
    """Read the checkpoints and refuse an overwrite before the task is loaded.

    Each dnorm report gets delta_cv against the dot report of its own
    echoed seed, when one was given.
    """
    out = resolve_out(args.out, load_config(args.config).out)
    loaded = [_load_run(path) for path in args.checkpoint]
    json_path = os.path.join(out, "diagnostics.json")
    csv_path = os.path.join(out, "diagnostics.csv")
    refuse_overwrite([json_path, csv_path], args.force)
    task = load_task(out)
    reports = [diagnostics.magnitude_report(enc, task, kind, split=args.split) for enc, kind, _, _ in loaded]
    seeds = [echo["seed"] for _, _, _, echo in loaded]
    dot_cv = {seed: r.query_cv for seed, r in zip(seeds, reports) if r.kind == "dot"}
    reports = [
        diagnostics.with_delta_cv(r, dot_cv[seed]) if r.kind == "dnorm" and seed in dot_cv else r
        for seed, r in zip(seeds, reports)
    ]
    payload = [{key: v for key, v in dataclasses.asdict(r).items() if v is not None} for r in reports]
    with atomic_write(json_path) as fh:
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
    failures = []
    print(f"{'suite':<22}{'max_err':>12}  {'tol':<12}{'status'}")
    for i, (name, suite) in enumerate(diagnostics.SUITES):
        try:
            r = suite(np.random.default_rng([args.seed, i]), args.trials, args.seed)
        except NonFiniteEvaluation as e:  # a probe the suite could not compare: no tolerance was applied
            r = diagnostics.SuiteResult(math.nan, "-", False, str(e))
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
    plan = _plan(args, cfg)

    # A partial task directory is loaded, so the missing file exits 3 by name.
    if any(os.path.exists(os.path.join(out, f)) for f in TASK_FILES):
        task = load_task(out)
        print(f"reusing task files in {out}")
    else:
        task = gen_asymmetric(cfg.task)
        export_task(task, out)
        print(f"generated task files in {out}")

    summary_path = os.path.join(out, "sweep_summary.csv")
    targets = [summary_path]
    for _, _, stem in plan:
        targets += [*_train_paths(out, stem), *_eval_paths(out, stem, "test")]
    refuse_overwrite(targets, args.force)

    summary = []
    for kname, seed, stem in plan:
        result, best, kind = _train_and_save(cfg, task, out, kname, seed, stem)
        rows, doc_norms = _eval_encoder(result.encoder, kind, stem, task, out, "test", _parse_ks(DEFAULT_KS))
        (_, _, ndcg), (_, _, recall), (_, _, mrr) = _macro_rows(rows)
        pearson, hub_d = diagnostics.relevance_counter(doc_norms, task)
        summary.append(
            {
                "kind": kname,
                "seed": seed,
                "selected_step": best.step,
                "val_ndcg10": best.val_ndcg10,
                "untrained_val_ndcg10": result.log[0].val_ndcg10,
                "test_ndcg10": ndcg,
                "test_recall100": recall,
                "test_mrr10": mrr,
                "pearson": pearson,
                "hub_d": hub_d,
            }
        )
        print(
            f"{kname} seed {seed}: step {best.step} val {best.val_ndcg10:.4f} "
            f"(untrained {result.log[0].val_ndcg10:.4f}) test ndcg {ndcg:.4f}"
        )

    write_csv(summary_path, list(summary[0]), [row.values() for row in summary])
    print(f"wrote {summary_path}")
    return 0


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


def _cmd_batch(args) -> int:
    """Run a file of magnorm command lines in order, in this process.

    Each line is split as a POSIX shell splits it (# starts a comment), and
    every line is parsed before the first runs.  The batch stops at the
    first command that exits non-zero and exits with its code.  Commands
    over one task directory share load_task's parse of its feature files.
    """
    import shlex

    parser = build_parser()
    steps = []
    try:
        with open(args.file, encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                try:
                    argv = shlex.split(line, comments=True)
                except ValueError as e:
                    raise ConfigError(f"{args.file} line {n}: {e}") from None
                if not argv:
                    continue
                if argv[0] == "batch":
                    raise ConfigError(f"{args.file} line {n}: a batch cannot run another batch")
                try:
                    parser.parse_args(argv)
                except SystemExit:  # argparse has printed why
                    raise ConfigError(f"{args.file} line {n} is not a magnorm command") from None
                steps.append((n, argv))
    except UnicodeDecodeError as e:
        raise ConfigError(f"{args.file} is not UTF-8 text ({e})") from None
    for n, argv in steps:
        code = main(argv)
        if code:
            _err(f"{args.file} line {n} exited {code}; the lines after it did not run")
            return code
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

    def common(sp, seed_help=None):
        sp.add_argument("--config", default=None, help="JSON experiment config")
        sp.add_argument("--out", default=None, help=f"output dir (default: config, ${OUT_ENV_VAR}, ./{DEFAULT_OUT})")
        sp.add_argument("--force", action="store_true", help="overwrite existing outputs")
        if seed_help:
            sp.add_argument("--seed", type=int, default=None, help=seed_help)

    sp = sub.add_parser("gen", help="generate synthetic task files")
    common(sp, "override the task seed")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("train", help="train checkpoints for each kind and seed")
    common(sp, "train a single seed instead of the config list")
    sp.add_argument("--kinds", default=None, help="comma-separated similarity kinds")
    sp.add_argument("--resume", default=None, help="checkpoint to continue from; writes the log from its step on")
    sp.set_defaults(func=_cmd_train)

    sp = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    common(sp)
    sp.add_argument("--checkpoint", required=True, help="checkpoint JSON to evaluate")
    sp.add_argument("--split", default="test", choices=("train", "val", "test"))
    sp.add_argument("--k", default=DEFAULT_KS, help="ndcg,recall,mrr cutoffs")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("diagnose", help="magnitude diagnostics for checkpoints")
    common(sp)
    sp.add_argument("--checkpoint", action="append", required=True, help="repeatable")
    sp.add_argument("--split", default="test", choices=("train", "val", "test"))
    sp.set_defaults(func=_cmd_diagnose)

    sp = sub.add_parser("verify", help="run the property-verification suites")
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sweep", help="gen if missing, train all kinds/seeds, eval, summarize")
    common(sp, "sweep a single seed instead of the config list")
    sp.add_argument("--kinds", default=None, help="comma-separated similarity kinds")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("batch", help="run a file of magnorm commands, one a line, in one process")
    sp.add_argument("file", help="one command line a line, without 'magnorm'; # starts a comment")
    sp.set_defaults(func=_cmd_batch)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # gen, train, sweep and verify take --seed; numpy seeds must be >= 0.
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError("--seed must be a non-negative integer")
        return args.func(args)
    except FileExistsError as e:
        _err(f"overwrite refusal: {e}")
        return 4
    except (NonFiniteLoss, NonFiniteEvaluation) as e:
        _err(f"numeric divergence: {e}")
        return 5
    except ZeroMagnitude as e:
        _err(f"zero magnitude: {e}")
        return 5
    except (DegenerateInput, DegenerateVariance, EmptyInput, TooFewSamples) as e:
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
