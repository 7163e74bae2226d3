#!/usr/bin/env python3
"""Five-variant sweep on the reference hub task, printed as one table.

Trains every similarity variant under the same seed and data order, then
reports selected-checkpoint quality next to magnitude statistics so the
normalization-dependent differences are visible side by side.

    python3 scripts/run_reference_sweep.py --seed 0
    python3 scripts/run_reference_sweep.py --epochs 40 --kinds dot,dnorm
    python3 scripts/run_reference_sweep.py --config my_experiment.json

Without --config the task, encoder and training settings are the
reference spec of magnorm.cli.load_config (configs/reference.json).
"""

import argparse
import dataclasses
import time

import numpy as np

from magnorm.cli import load_config, run_training
from magnorm.datagen import gen_asymmetric
from magnorm.diagnostics import cohens_d
from magnorm.metrics import pearson
from magnorm.model import forward, restore_snapshot, select_checkpoint


def run_one(cfg, task, kind_name, seed):
    t0 = time.perf_counter()
    result = run_training(cfg, task, kind_name, seed)
    elapsed = time.perf_counter() - t0
    best = select_checkpoint(result.log, result.snapshots)
    encoder = result.encoder
    restore_snapshot(encoder, best)

    mags = np.linalg.norm(forward(encoder, task.doc_features, "doc"), axis=1)
    counts = [task.relevance_count[d] for d in task.doc_ids]
    r = pearson(mags.tolist(), counts)
    hubs = set(task.hub_ids)
    d_hub = cohens_d(
        [float(mags[i]) for i, d in enumerate(task.doc_ids) if d in hubs],
        [float(mags[i]) for i, d in enumerate(task.doc_ids) if d not in hubs],
    )
    return {
        "kind": kind_name,
        "step": best.step,
        "val": best.val_ndcg10,
        "val0": result.log[0].val_ndcg10,
        "pearson": r,
        "d_hub": d_hub,
        "doc_cv": float(mags.std() / mags.mean()),
        "sec": elapsed,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=None, help="JSON experiment config (default: the reference spec)")
    ap.add_argument("--seed", type=int, default=0, help="seeds the task, the encoders and the training")
    ap.add_argument("--kinds", default=None, help="comma-separated kinds (default: the config's)")
    ap.add_argument("--epochs", type=int, default=None)
    ap.add_argument("--eval-every", type=int, default=None)
    args = ap.parse_args(argv)

    cfg = load_config(args.config)
    given = {"epochs": args.epochs, "eval_every": args.eval_every}
    cfg.train_params.update({k: v for k, v in given.items() if v is not None})
    task = gen_asymmetric(dataclasses.replace(cfg.task, seed=args.seed))
    hub_counts = [task.relevance_count[d] for d in task.hub_ids]
    print(
        f"task: {len(task.doc_ids)} docs, {len(task.query_ids)} queries, "
        f"{len(task.hub_ids)} hubs averaging {np.mean(hub_counts):.1f} relevant queries"
    )

    kinds = args.kinds.split(",") if args.kinds else cfg.kinds
    rows = [run_one(cfg, task, name.strip(), args.seed) for name in kinds]

    hdr = f"{'kind':<11}{'step':>6}{'val@sel':>9}{'val@0':>8}{'pearson':>9}{'d_hub':>8}{'doc_cv':>8}{'sec':>7}"
    print(hdr)
    print("-" * len(hdr))
    for r in rows:
        print(
            f"{r['kind']:<11}{r['step']:>6}{r['val']:>9.3f}{r['val0']:>8.3f}"
            f"{r['pearson']:>9.3f}{r['d_hub']:>8.3f}{r['doc_cv']:>8.3f}{r['sec']:>7.1f}"
        )

    dot = next((r for r in rows if r["kind"] == "dot"), None)
    if dot is not None:
        verdict = "present" if dot["pearson"] >= 0.3 and dot["d_hub"] >= 0.5 else "absent"
        print(
            f"relevance-counter effect under dot: {verdict} "
            f"(pearson {dot['pearson']:.3f}, hub d {dot['d_hub']:.3f})"
        )


if __name__ == "__main__":
    main()
