#!/usr/bin/env python3
"""Digest every step and artifact of one reduced CLI run.

Runs, in process and in this order: gen, train, eval of every checkpoint,
diagnose of all checkpoints, train --resume of the learnable checkpoint
(else the first kind's), sweep into a second directory, verify --trials
200 at seeds 0, 1 and 2, and verify at the edges of the suites' blocks of
128 trials: --trials 1 --seed 3 and --trials 129 --seed 4.  Prints each step's exit code with the
sha256 of its stdout, the output directory masked as <out>, then
"relpath sha256" for every artifact.  Two runs of one commit print the
same lines, and so do a commit and its parent when a change keeps every
artifact and the verify stdout byte-identical.  To compare the two, run
this script once with PYTHONPATH at each side's src/.

    python3 scripts/artifact_digests.py --out digests --epochs 3 --eval-every 7
    python3 scripts/artifact_digests.py --config my_experiment.json --out digests

Without --config the task, encoder and training settings are the
reference spec of magnorm.cli.load_config (configs/reference.json).
That spec trains unshared towers with a hidden layer and no gamma_lr.
configs/variants.json covers the other step paths: one shared affine
encoder, gamma_lr 0.05, and the kinds learnable:0.3,0.8, qnorm and dot.
Whenever the training step changes, compare both runs with the parent's:

    python3 scripts/artifact_digests.py --out digests-variants --config configs/variants.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os

from magnorm import cli
from magnorm.simcore import kind_from_name


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _steps(config: str, run: str, sweep: str, cfg) -> list:
    """(label, magnorm argv) of every step, in run order."""
    common = ["--config", config, "--out", run]
    stems = [cli.artifact_stem(kind_from_name(k), s) for k in cfg.kinds for s in cfg.seeds]
    ckpts = [os.path.join(run, f"checkpoint_{stem}.json") for stem in stems]
    resume = next((c for c, s in zip(ckpts, stems) if s.startswith("learnable_")), ckpts[0])
    steps = [("gen", ["gen", *common]), ("train", ["train", *common])]
    steps += [(f"eval {os.path.basename(c)}", ["eval", "--checkpoint", c, "--out", run]) for c in ckpts]
    steps.append(("diagnose", ["diagnose", *[a for c in ckpts for a in ("--checkpoint", c)], "--out", run]))
    steps.append((f"resume {os.path.basename(resume)}", ["train", *common, "--resume", resume]))
    steps.append(("sweep", ["sweep", "--config", config, "--out", sweep]))
    steps += [(f"verify seed {seed}", ["verify", "--trials", "200", "--seed", str(seed)]) for seed in (0, 1, 2)]
    for trials, seed in ((1, 3), (129, 4)):
        steps.append((f"verify trials {trials} seed {seed}", ["verify", "--trials", str(trials), "--seed", str(seed)]))
    return steps


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=None, help="JSON experiment config (default: the reference spec)")
    ap.add_argument("--epochs", type=int, default=None)
    ap.add_argument("--eval-every", type=int, default=None)
    ap.add_argument("--out", required=True, help="new or empty directory for the config, the run and the sweep")
    args = ap.parse_args(argv)
    out = os.path.abspath(args.out)
    if os.path.exists(out) and os.listdir(out):
        ap.error(f"--out {args.out} is not empty")

    cfg = cli.load_config(args.config)
    given = {"epochs": args.epochs, "eval_every": args.eval_every}
    train = {**cfg.sections["train"], **{k: v for k, v in given.items() if v is not None}}
    os.makedirs(out, exist_ok=True)
    config = os.path.join(out, "config.json")
    with open(config, "w") as fh:
        json.dump({**cfg.sections, "train": train, "kinds": cfg.kinds, "seeds": cfg.seeds}, fh)
    run, sweep = os.path.join(out, "run"), os.path.join(out, "sweep")

    for label, magnorm_argv in _steps(config, run, sweep, cfg):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(magnorm_argv)
        masked = buf.getvalue().replace(out, "<out>")
        print(f"{label}: exit {code} stdout {_sha256(masked.encode())}")
    for root in (run, sweep):
        for name in sorted(os.listdir(root)) if os.path.isdir(root) else []:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                print(f"{os.path.relpath(path, out)} {_sha256(fh.read())}")


if __name__ == "__main__":
    main()
