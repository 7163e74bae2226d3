"""Two-tower encoders, AdamW with cosine decay, and the training loop.

Encoders are affine maps from feature space to embedding space with at
most one tanh hidden layer, small enough that backpropagation stays
closed-form.  The trainable normalization strengths live here as
unconstrained logits gamma_hat with gamma = sigmoid(gamma_hat), so the
gradient module can stay in gamma space and this module chains the
sigmoid derivative itself.

An encoder's parameters are one float64 vector theta laid out by
param_layout; towers, gradients, snapshots and checkpoint weights are
named views of a vector with that layout.  Under learnable the trainer
appends the two gamma_hat logits and AdamW updates the whole vector.

Training is single-threaded and bit-deterministic: all shuffling and
positive sampling flows from the seed in TrainConfig, and the data order
never depends on the similarity variant, so sweeps across variants are
step-matched by construction.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import simcore
from .datagen import SyntheticTask
from .errors import CorruptArtifact, DegenerateBatch, DimensionMismatch, NonFiniteLoss
from .grad import infonce_grad
from .metrics import ndcg_at_k, ranked_list
from .objective import ContrastiveBatch, LossConfig

Array = np.ndarray


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.ndim else float(out)


def param_layout(m: int, h: int, n: int, shared: bool) -> list:
    """(name, shape) of every encoder parameter, in checkpoint order.

    q.w1, q.b1[, q.w2, q.b2], then the same for d unless the towers are
    shared.  theta, its gradient and a checkpoint's weights all follow it.
    """
    if h == 0:
        shapes = [("w1", (m, n)), ("b1", (n,))]
    else:
        shapes = [("w1", (m, h)), ("b1", (h,)), ("w2", (h, n)), ("b2", (n,))]
    return [(f"{t}.{p}", shape) for t in (["q"] if shared else ["q", "d"]) for p, shape in shapes]


@dataclass
class TwoTowerEncoder:
    """Affine towers, each optionally with a tanh hidden layer, whose
    parameters are named views into one float64 vector theta.

    w1 has shape (m, h) and w2 (h, n) when hidden; otherwise w1 is (m, n)
    and there is no w2/b2.  A shared encoder has only the q tower.
    """

    m: int
    h: int
    n: int
    shared: bool
    theta: Array

    @property
    def layout(self) -> list:
        return param_layout(self.m, self.h, self.n, self.shared)

    @property
    def bounds(self) -> list:
        """End offset of each parameter's block of theta, in layout order."""
        return list(itertools.accumulate(math.prod(shape) for _, shape in self.layout))

    def params(self, vec: Array | None = None) -> dict:
        """Name -> view into vec (default theta); entries past the layout are left out."""
        vec = self.theta if vec is None else vec
        return {
            name: part.reshape(shape)
            for (name, shape), part in zip(self.layout, np.split(vec, self.bounds))
        }


@dataclass
class GammaParams:
    """Unconstrained normalization logits; gamma = sigmoid(gamma_hat)."""

    gamma_hat_q: float = 0.0
    gamma_hat_d: float = 0.0

    def gammas(self) -> tuple:
        return float(sigmoid(self.gamma_hat_q)), float(sigmoid(self.gamma_hat_d))


def initial_gamma(kind) -> GammaParams:
    """Logits training starts from: logit(gamma) of a learnable kind's gammas, else 0.

    logit(0.5) is exactly 0, so plain learnable starts at gamma_hat = 0.
    Raises ValueError for a learnable gamma outside the open (0, 1).
    """
    if kind.tag != "learnable":
        return GammaParams()
    gammas = simcore.effective_gammas(kind)
    if not all(0.0 < g < 1.0 for g in gammas):
        raise ValueError(f"training needs learnable gammas strictly inside (0, 1), got {gammas}")
    return GammaParams(*(math.log(g / (1.0 - g)) for g in gammas))


def init_encoder(m: int, h: int, n: int, shared: bool, seed: int) -> TwoTowerEncoder:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    if min(m, n) < 1 or h < 0:
        raise ValueError("dimensions must be positive (hidden width may be 0)")
    rng = np.random.default_rng(seed)
    size = sum(math.prod(shape) for _, shape in param_layout(m, h, n, shared))
    enc = TwoTowerEncoder(m=m, h=h, n=n, shared=shared, theta=np.zeros(size))
    for name, p in enc.params().items():
        if ".w" in name:
            bound = 1.0 / math.sqrt(p.shape[0])
            p[...] = rng.uniform(-bound, bound, size=p.shape)
    return enc


def _forward_cached(p: dict, t: str, X: Array) -> tuple:
    """Output of tower t ("q" or "d") with parameter views p, and its hidden layer."""
    Z = X @ p[f"{t}.w1"] + p[f"{t}.b1"]
    if f"{t}.w2" not in p:
        return Z, None
    H = np.tanh(Z)
    return H @ p[f"{t}.w2"] + p[f"{t}.b2"], H


def forward(encoder: TwoTowerEncoder, features, tower: str = "query") -> Array:
    """Encode features (one vector or a batch of rows) to embeddings."""
    name = {"query": "q", "doc": "d", "q": "q", "d": "d"}.get(tower)
    if name is None:
        raise ValueError(f"unknown tower {tower!r}")
    X = np.asarray(features, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != encoder.m:
        raise DimensionMismatch(f"expected feature dim {encoder.m}, got shape {X.shape}")
    Y, _ = _forward_cached(encoder.params(), "q" if encoder.shared else name, X)
    return Y[0] if single else Y


def _backward_tower(p: dict, t: str, X: Array, H, dY: Array, grad: dict) -> None:
    """Accumulate tower t's parameter gradients, given dLoss/dOutput, into grad's views."""
    if H is not None:
        grad[f"{t}.w2"] += H.T @ dY
        grad[f"{t}.b2"] += dY.sum(axis=0)
        dY = (dY @ p[f"{t}.w2"].T) * (1.0 - H * H)
    grad[f"{t}.w1"] += X.T @ dY
    grad[f"{t}.b1"] += dY.sum(axis=0)


# ---------------------------------------------------------------------------
# AdamW with global-norm clipping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    lr: float
    epochs: int
    batch_size: int
    seed: int
    loss: LossConfig
    eval_every: int = 10
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    gamma_lr: float | None = None

    def __post_init__(self):
        if self.lr < 0 or self.eps <= 0 or self.clip_norm <= 0:
            raise ValueError("lr must be >= 0, eps and clip_norm positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("epochs, batch_size, eval_every must be positive")


def clip_by_global_norm(grad: Array, clip_norm: float, bounds: list) -> Array:
    """Scale grad by clip_norm/total_norm when the total exceeds it, else return grad.

    The squared norm is one sum per block (ending at bounds, then the gamma
    logits past the last bound), so it rounds as a per-parameter sum would.
    """
    # An explicit loop, not sum(): Python 3.12's sum() compensates float
    # rounding, which would change the clip scale between versions.
    squares = 0.0
    for g in np.split(grad, bounds):
        squares += float((g * g).sum())
    total = math.sqrt(squares)
    if total <= clip_norm or total == 0.0:
        return grad
    return grad * (clip_norm / total)


def adamw_step(
    theta: Array, grad: Array, moments: Array, step_index: int, cfg: TrainConfig, bounds: list, lr=None
) -> None:
    """One decoupled-weight-decay Adam update of theta and its moments (two rows), in place.

    grad is clipped by global norm before touching the moments.  step_index
    is 1-based for bias correction.  lr is one rate or one per entry
    (default cfg.lr); weight decay multiplies it and skips the gamma logits
    past the last bound.
    """
    if step_index < 1:
        raise ValueError("step_index is 1-based")
    step_lr = cfg.lr if lr is None else lr
    g = clip_by_global_norm(grad, cfg.clip_norm, bounds)
    bc1 = 1.0 - cfg.beta1**step_index
    bc2 = 1.0 - cfg.beta2**step_index
    m, v = moments
    m[...] = cfg.beta1 * m + (1.0 - cfg.beta1) * g
    v[...] = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
    mhat = m / bc1
    vhat = v / bc2
    theta -= step_lr * mhat / (np.sqrt(vhat) + cfg.eps)
    if cfg.weight_decay > 0.0:
        end = bounds[-1]
        theta[:end] -= np.broadcast_to(step_lr, theta.shape)[:end] * cfg.weight_decay * theta[:end]


def lr_at(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine decay from base_lr at step 0 to 0 at total_steps; no warmup."""
    if not (0 <= step <= max(total_steps, 0)):
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if total_steps == 0:
        return base_lr
    return base_lr * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


# ---------------------------------------------------------------------------
# Training loop with step-matched evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainLogRow:
    step: int
    loss: float
    val_ndcg10: float
    gamma_q: float
    gamma_d: float
    q_mag_mean: float
    q_mag_cv: float
    d_mag_mean: float
    d_mag_cv: float


TRAINLOG_HEADER = "step,loss,val_ndcg10,gamma_q,gamma_d,q_mag_mean,q_mag_cv,d_mag_mean,d_mag_cv"


@dataclass
class Snapshot:
    """Parameters at one evaluation: theta, then the gamma logits under learnable."""

    step: int
    params: Array
    val_ndcg10: float


@dataclass
class TrainResult:
    encoder: TwoTowerEncoder
    gamma: GammaParams
    log: list
    snapshots: list


def _batch_layout(n_train: int, batch_size: int) -> list:
    """Chunk sizes covering n_train with every chunk >= 2.

    A trailing singleton borrows one query from its neighbor, keeping the
    chunk count at ceil(n_train / batch_size); when the neighbor cannot
    spare one (batch_size 2, odd n_train) the singleton merges into it
    instead, so in-batch negatives always exist.
    """
    if n_train < 2:
        raise DegenerateBatch("in-batch training needs at least 2 queries")
    if batch_size < 2:
        raise DegenerateBatch("in-batch negatives need batch_size >= 2")
    sizes = []
    left = n_train
    while left > 0:
        take = min(batch_size, left)
        sizes.append(take)
        left -= take
    if sizes[-1] == 1:
        if sizes[-2] > 2:
            sizes[-2] -= 1
            sizes[-1] += 1
        else:
            last = sizes.pop()
            sizes[-1] += last
    return sizes


def _current_kind(base_kind, gamma: GammaParams):
    if base_kind.tag != "learnable":
        return base_kind
    gq, gd = gamma.gammas()
    return simcore.learnable(gq, gd)


def _mag_stats(mags: Array) -> tuple:
    mean = float(mags.mean())
    sd = float(mags.std())
    return mean, (sd / mean if mean > 0 else 0.0)


def embed_split(encoder: TwoTowerEncoder, task: SyntheticTask, split: str) -> tuple:
    """(query ids, their embeddings, every doc's embedding) for one split."""
    qids = task.split_queries(split)
    D = forward(encoder, task.doc_features, "doc")
    Q = forward(encoder, task.query_features[[task.query_row(q) for q in qids]], "query")
    return qids, Q, D


def _ranked_lists(encoder: TwoTowerEncoder, gamma: GammaParams, task: SyntheticTask, kind, split: str):
    """Yield one RankedList per split query, scoring the full corpus.

    A generator, so validation holds one list at a time, not all of them.
    """
    qids, Q, D = embed_split(encoder, task, split)
    S = simcore.similarity_matrix(_current_kind(kind, gamma), Q, D)
    for i, qid in enumerate(qids):
        yield ranked_list(qid, zip(task.doc_ids, S[i].tolist()))


def validation_ndcg(
    encoder: TwoTowerEncoder, gamma: GammaParams, task: SyntheticTask, kind, split: str = "val", k: int = 10
) -> float:
    """Macro-averaged NDCG@k of the current parameters on one split."""
    # An explicit loop, not sum(): Python 3.12's sum() compensates float
    # rounding, which would change the logged values between versions.
    total, count = 0.0, 0
    for run in _ranked_lists(encoder, gamma, task, kind, split):
        total += ndcg_at_k(run, task.qrels, k)
        count += 1
    return total / count if count else 0.0


def rank_split(
    encoder: TwoTowerEncoder, gamma: GammaParams, task: SyntheticTask, kind, split: str
) -> list:
    """RankedList per split query, scoring the full corpus with the variant."""
    return list(_ranked_lists(encoder, gamma, task, kind, split))


def loss_and_grads(
    encoder: TwoTowerEncoder, gamma: GammaParams, Xq: Array, Xd: Array, loss_cfg: LossConfig
) -> tuple:
    """Batch loss plus its gradient as one vector laid out like theta.

    Runs the closed-form backward pass: similarity-level gradients from
    the objective, then the tower chain rule, then sigmoid'(gamma_hat)
    for the normalization logits, which under learnable follow the
    encoder block as two more entries.
    """
    kind = _current_kind(loss_cfg.kind, gamma)
    step_cfg = LossConfig(kind=kind, tau=loss_cfg.tau, alpha=loss_cfg.alpha, lam=loss_cfg.lam)
    p, td = encoder.params(), "q" if encoder.shared else "d"
    Q, Hq = _forward_cached(p, "q", Xq)
    D, Hd = _forward_cached(p, td, Xd)
    g = infonce_grad(ContrastiveBatch(Q, D), step_cfg)
    learn = loss_cfg.kind.tag == "learnable"
    grad = np.zeros(encoder.theta.size + (2 if learn else 0))
    views = encoder.params(grad)
    _backward_tower(p, "q", Xq, Hq, g.d_queries, views)
    _backward_tower(p, td, Xd, Hd, g.d_positives, views)
    if learn:
        gq, gd = gamma.gammas()
        grad[-2:] = g.d_gamma_q * gq * (1.0 - gq), g.d_gamma_d * gd * (1.0 - gd)
    return g.loss, grad


def train(task: SyntheticTask, encoder: TwoTowerEncoder, cfg: TrainConfig) -> TrainResult:
    """Epochs of in-batch InfoNCE with AdamW, cosine decay, and clipping.

    Each query's positive is sampled uniformly from its graded-relevant
    documents every epoch, so documents relevant to many queries actually
    serve as positives for many queries.  Validation NDCG@10 is measured
    at step 0, every eval_every steps, and at the final step; a full
    parameter snapshot is kept at each evaluation.

    The optimizer updates one vector: theta, then the two gamma logits
    under learnable, which start at the logits of the kind's gammas.
    encoder.theta becomes a view of its head, so the returned encoder
    holds the trained parameters.
    """
    train_qids = task.split_queries("train")
    if cfg.batch_size > len(train_qids):
        raise DegenerateBatch(
            f"batch_size {cfg.batch_size} exceeds train split of {len(train_qids)}"
        )
    rng = np.random.default_rng(cfg.seed)
    learn = cfg.loss.kind.tag == "learnable"
    gamma = initial_gamma(cfg.loss.kind)
    k = encoder.theta.size
    params = np.concatenate([encoder.theta, [gamma.gamma_hat_q, gamma.gamma_hat_d] if learn else []])
    encoder.theta = params[:k]
    moments = np.zeros((2, params.size))
    bounds = encoder.bounds

    sizes = _batch_layout(len(train_qids), cfg.batch_size)
    total_steps = cfg.epochs * len(sizes)

    def sync_gamma():
        if learn:
            gamma.gamma_hat_q = float(params[k])
            gamma.gamma_hat_d = float(params[k + 1])

    log: list = []
    snapshots: list = []

    def record(step: int, loss: float):
        sync_gamma()
        val = validation_ndcg(encoder, gamma, task, cfg.loss.kind)
        _, Q, D = embed_split(encoder, task, "val")
        gq, gd = (
            gamma.gammas() if learn else simcore.effective_gammas(cfg.loss.kind)
        )
        qm, qcv = _mag_stats(np.linalg.norm(Q, axis=1)) if len(Q) else (0.0, 0.0)
        dm, dcv = _mag_stats(np.linalg.norm(D, axis=1))
        log.append(TrainLogRow(step, loss, val, gq, gd, qm, qcv, dm, dcv))
        snapshots.append(Snapshot(step=step, params=params.copy(), val_ndcg10=val))

    step = 0
    pending_eval_loss = None
    for _ in range(cfg.epochs):
        order = rng.permutation(len(train_qids))
        offset = 0
        for size in sizes:
            chunk = [train_qids[i] for i in order[offset : offset + size]]
            offset += size
            positives = []
            for qid in chunk:
                rel = task.relevant_of(qid)
                positives.append(rel[int(rng.integers(len(rel)))])
            Xq = task.query_features[[task.query_row(q) for q in chunk]]
            Xd = task.doc_features[[task.doc_row(d) for d in positives]]
            sync_gamma()
            loss, grad = loss_and_grads(encoder, gamma, Xq, Xd, cfg.loss)
            if not math.isfinite(loss):
                raise NonFiniteLoss(step, loss)
            if step == 0:
                record(0, loss)
            sched = lr_at(step, total_steps, cfg.lr)
            lr = sched
            if learn and cfg.gamma_lr is not None:
                lr = np.full(params.size, sched)
                lr[k:] = cfg.gamma_lr * (sched / cfg.lr if cfg.lr > 0 else 0.0)
            adamw_step(params, grad, moments, step + 1, cfg, bounds, lr=lr)
            step += 1
            if step % cfg.eval_every == 0 or step == total_steps:
                pending_eval_loss = None
                record(step, loss)
            else:
                pending_eval_loss = loss
    if pending_eval_loss is not None:
        record(step, pending_eval_loss)
    sync_gamma()
    return TrainResult(encoder=encoder, gamma=gamma, log=log, snapshots=snapshots)


def select_checkpoint(log: list, snapshots: list) -> Snapshot:
    """Snapshot with maximal validation NDCG@10; ties go to the earliest step."""
    if not snapshots:
        raise ValueError("no snapshots to select from")
    by_step = {row.step: row.val_ndcg10 for row in log}
    best = max(snapshots, key=lambda s: (by_step.get(s.step, s.val_ndcg10), -s.step))
    return best


def restore_snapshot(encoder: TwoTowerEncoder, snapshot: Snapshot) -> GammaParams:
    """Copy a snapshot's parameters back into the encoder; returns its gammas."""
    encoder.theta[...] = snapshot.params[: encoder.theta.size]
    return GammaParams(*map(float, snapshot.params[encoder.theta.size :]))


# ---------------------------------------------------------------------------
# Checkpoint and train-log serialization
# ---------------------------------------------------------------------------


def write_trainlog_csv(path, log) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRAINLOG_HEADER.split(","))
        for r in log:
            w.writerow(
                [
                    r.step,
                    f"{r.loss:.10g}",
                    f"{r.val_ndcg10:.10g}",
                    f"{r.gamma_q:.10g}",
                    f"{r.gamma_d:.10g}",
                    f"{r.q_mag_mean:.10g}",
                    f"{r.q_mag_cv:.10g}",
                    f"{r.d_mag_mean:.10g}",
                    f"{r.d_mag_cv:.10g}",
                ]
            )


def save_checkpoint(path, encoder: TwoTowerEncoder, gamma: GammaParams, step: int, config_echo: dict) -> None:
    """JSON checkpoint: dims, flat row-major weights, gamma logits, step, config."""
    weights = {name: p.ravel(order="C").tolist() for name, p in encoder.params().items()}
    payload = {
        "m": encoder.m,
        "h": encoder.h,
        "n": encoder.n,
        "shared": encoder.shared,
        "weights": weights,
        "gamma_hat": [gamma.gamma_hat_q, gamma.gamma_hat_d],
        "step": step,
        "config": config_echo,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


# The JSON type of every checkpoint key; only "config" may be absent.
_CHECKPOINT_KEYS = {"m": int, "h": int, "n": int, "shared": bool, "weights": dict,
                    "gamma_hat": list, "step": int, "config": dict}


def load_checkpoint(path) -> tuple:
    """Rebuild (encoder, gamma, step, config_echo) from a checkpoint file.

    Raises CorruptArtifact, naming the file, when it does not parse, a
    key is missing or of the wrong type, or a weight has the wrong number
    of entries or a non-finite one, as does a non-finite gamma_hat.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as e:
            raise CorruptArtifact(f"{path} does not parse as JSON: {e}") from None
    if not isinstance(payload, dict):
        raise CorruptArtifact(f"{path} is not a JSON object")
    payload.setdefault("config", {})
    for key, kind in _CHECKPOINT_KEYS.items():
        if type(payload.get(key)) is not kind:
            raise CorruptArtifact(f"{path}: key {key!r} is missing or not a JSON {kind.__name__}")
    try:
        enc = init_encoder(payload["m"], payload["h"], payload["n"], payload["shared"], seed=0)
        weights = [np.asarray(payload["weights"][name], dtype=np.float64) for name in enc.params()]
        gq, gd = (float(x) for x in payload["gamma_hat"])
    except (KeyError, TypeError, ValueError):
        raise CorruptArtifact(f"{path}: dimensions, weights or gamma_hat out of range or not numeric") from None
    for (name, p), flat in zip(enc.params().items(), weights):
        if flat.size != p.size:
            raise CorruptArtifact(f"{path}: weight {name} has {flat.size} entries, expected {p.size}")
        if not np.isfinite(flat).all():
            raise CorruptArtifact(f"{path}: weight {name} has a non-finite entry")
        p[...] = flat.reshape(p.shape)
    if not (math.isfinite(gq) and math.isfinite(gd)):
        raise CorruptArtifact(f"{path}: gamma_hat has a non-finite entry")
    return enc, GammaParams(gq, gd), payload["step"], payload["config"]
