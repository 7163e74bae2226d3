#!/usr/bin/env python3
"""Trace magnitude statistics over training for two contrasting variants.

Runs dot (magnitude free to drift) against dnorm (doc side normalized,
query magnitude carries the effective temperature) and prints the logged
magnitude means and dispersions at every evaluation step, ending with the
query-CV ratio between the two runs.

    python3 scripts/magnitude_dynamics.py
    python3 scripts/magnitude_dynamics.py --epochs 60 --eval-every 20

Without --config the task, encoder and training settings are the
reference spec of magnorm.cli.load_config (configs/reference.json).
"""

import argparse
import dataclasses

from magnorm.cli import load_config, run_training
from magnorm.datagen import gen_asymmetric


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=None, help="JSON experiment config (default: the reference spec)")
    ap.add_argument("--seed", type=int, default=0, help="seeds the task, the encoders and the training")
    ap.add_argument("--kinds", default="dot,dnorm")
    ap.add_argument("--epochs", type=int, default=None)
    ap.add_argument("--eval-every", type=int, default=None)
    args = ap.parse_args(argv)

    cfg = load_config(args.config)
    given = {"epochs": args.epochs, "eval_every": args.eval_every}
    cfg.train_params.update({k: v for k, v in given.items() if v is not None})
    task = gen_asymmetric(dataclasses.replace(cfg.task, seed=args.seed))
    names = [n.strip() for n in args.kinds.split(",")]
    logs = {name: run_training(cfg, task, name, args.seed).log for name in names}

    for name in names:
        print(f"\n{name}")
        print(f"{'step':>6}{'loss':>10}{'val@10':>9}{'q_mean':>9}{'q_cv':>8}{'d_mean':>9}{'d_cv':>8}")
        for row in logs[name]:
            print(
                f"{row.step:>6}{row.loss:>10.4f}{row.val_ndcg10:>9.3f}"
                f"{row.q_mag_mean:>9.3f}{row.q_mag_cv:>8.3f}"
                f"{row.d_mag_mean:>9.3f}{row.d_mag_cv:>8.3f}"
            )

    if "dot" in logs and "dnorm" in logs:
        base = logs["dot"][-1].q_mag_cv
        if base > 0:
            ratio = logs["dnorm"][-1].q_mag_cv / base
            print(f"\nfinal query-CV ratio dnorm/dot: {ratio:.3f}")


if __name__ == "__main__":
    main()
