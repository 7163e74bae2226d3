"""Two-tower encoders, AdamW with cosine decay, and the training loop.

Encoders are affine maps from feature space to embedding space with at
most one tanh hidden layer, small enough that backpropagation stays
closed-form.  The trainable normalization strengths live here as
unconstrained logits gamma_hat with gamma = sigmoid(gamma_hat), so the
gradient module can stay in gamma space and this module chains the
sigmoid derivative itself.

Training is single-threaded and bit-deterministic: all shuffling and
positive sampling flows from the seed in TrainConfig, and the data order
never depends on the similarity variant, so sweeps across variants are
step-matched by construction.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import simcore
from .datagen import SyntheticTask
from .errors import DegenerateBatch, DimensionMismatch, NonFiniteLoss
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


@dataclass
class Tower:
    """One affine map, optionally with a tanh hidden layer.

    w1 has shape (m, h) and w2 (h, n) when hidden; otherwise w1 is (m, n)
    and w2/b2 are None.
    """

    w1: Array
    b1: Array
    w2: Array | None = None
    b2: Array | None = None


@dataclass
class TwoTowerEncoder:
    m: int
    h: int
    n: int
    shared: bool
    towers: dict

    def tower(self, name: str) -> Tower:
        return self.towers["q" if self.shared else name]

    def param_items(self) -> list:
        """(name, array) pairs over distinct parameters, in a fixed order."""
        names = ["q"] if self.shared else ["q", "d"]
        items = []
        for name in names:
            t = self.towers[name]
            items.append((f"{name}.w1", t.w1))
            items.append((f"{name}.b1", t.b1))
            if t.w2 is not None:
                items.append((f"{name}.w2", t.w2))
                items.append((f"{name}.b2", t.b2))
        return items


@dataclass
class GammaParams:
    """Unconstrained normalization logits; gamma = sigmoid(gamma_hat)."""

    gamma_hat_q: float = 0.0
    gamma_hat_d: float = 0.0

    def gammas(self) -> tuple:
        return float(sigmoid(self.gamma_hat_q)), float(sigmoid(self.gamma_hat_d))


def init_encoder(m: int, h: int, n: int, shared: bool, seed: int) -> TwoTowerEncoder:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    if min(m, n) < 1 or h < 0:
        raise ValueError("dimensions must be positive (hidden width may be 0)")
    rng = np.random.default_rng(seed)

    def make_tower() -> Tower:
        if h == 0:
            bound = 1.0 / math.sqrt(m)
            return Tower(w1=rng.uniform(-bound, bound, size=(m, n)), b1=np.zeros(n))
        b1 = 1.0 / math.sqrt(m)
        b2 = 1.0 / math.sqrt(h)
        return Tower(
            w1=rng.uniform(-b1, b1, size=(m, h)),
            b1=np.zeros(h),
            w2=rng.uniform(-b2, b2, size=(h, n)),
            b2=np.zeros(n),
        )

    towers = {"q": make_tower()}
    if not shared:
        towers["d"] = make_tower()
    return TwoTowerEncoder(m=m, h=h, n=n, shared=shared, towers=towers)


def _forward_cached(tower: Tower, X: Array) -> tuple:
    if tower.w2 is None:
        return X @ tower.w1 + tower.b1, None
    H = np.tanh(X @ tower.w1 + tower.b1)
    return H @ tower.w2 + tower.b2, H


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
    Y, _ = _forward_cached(encoder.tower(name), X)
    return Y[0] if single else Y


def _backward_tower(tower: Tower, X: Array, H, dY: Array, grads: dict, prefix: str) -> None:
    """Accumulate parameter gradients for one tower given dLoss/dOutput."""
    if tower.w2 is None:
        grads[f"{prefix}.w1"] += X.T @ dY
        grads[f"{prefix}.b1"] += dY.sum(axis=0)
        return
    grads[f"{prefix}.w2"] += H.T @ dY
    grads[f"{prefix}.b2"] += dY.sum(axis=0)
    dH = (dY @ tower.w2.T) * (1.0 - H * H)
    grads[f"{prefix}.w1"] += X.T @ dH
    grads[f"{prefix}.b1"] += dH.sum(axis=0)


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


@dataclass
class OptState:
    """Parameters plus first/second moment accumulators, keyed by name."""

    params: dict
    m: dict
    v: dict

    @classmethod
    def for_params(cls, params: dict) -> "OptState":
        return cls(
            params=params,
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def clip_by_global_norm(grads: dict, clip_norm: float) -> dict:
    """Scale all gradients by clip_norm/total_norm when the total exceeds it."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total <= clip_norm or total == 0.0:
        return grads
    scale = clip_norm / total
    return {k: g * scale for k, g in grads.items()}


def adamw_step(
    state: OptState,
    grads: dict,
    step_index: int,
    cfg: TrainConfig,
    lr: float | None = None,
    no_decay: frozenset = frozenset(),
    lr_overrides: dict | None = None,
) -> OptState:
    """One decoupled-weight-decay Adam update, in place.

    Gradients are clipped by global norm before touching the moments.
    step_index is 1-based for bias correction.  Weight decay multiplies
    the (possibly scheduled) learning rate and skips names in no_decay.
    """
    if step_index < 1:
        raise ValueError("step_index is 1-based")
    base = cfg.lr if lr is None else lr
    grads = clip_by_global_norm(grads, cfg.clip_norm)
    bc1 = 1.0 - cfg.beta1**step_index
    bc2 = 1.0 - cfg.beta2**step_index
    for name, p in state.params.items():
        g = grads[name]
        state.m[name] = cfg.beta1 * state.m[name] + (1.0 - cfg.beta1) * g
        state.v[name] = cfg.beta2 * state.v[name] + (1.0 - cfg.beta2) * g * g
        step_lr = base if lr_overrides is None else lr_overrides.get(name, base)
        mhat = state.m[name] / bc1
        vhat = state.v[name] / bc2
        p -= step_lr * mhat / (np.sqrt(vhat) + cfg.eps)
        if cfg.weight_decay > 0.0 and name not in no_decay:
            p -= step_lr * cfg.weight_decay * p
    return state


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
    step: int
    params: dict
    gamma: GammaParams
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
    """Batch loss plus gradients for every encoder parameter and gamma_hat.

    Runs the closed-form backward pass: similarity-level gradients from
    the objective, then the tower chain rule, then sigmoid'(gamma_hat)
    for the normalization logits.
    """
    kind = _current_kind(loss_cfg.kind, gamma)
    step_cfg = LossConfig(kind=kind, tau=loss_cfg.tau, alpha=loss_cfg.alpha, lam=loss_cfg.lam)
    tq = encoder.tower("q")
    td = encoder.tower("d")
    Q, Hq = _forward_cached(tq, Xq)
    D, Hd = _forward_cached(td, Xd)
    g = infonce_grad(ContrastiveBatch(Q, D), step_cfg)
    grads = {name: np.zeros_like(p) for name, p in encoder.param_items()}
    _backward_tower(tq, Xq, Hq, g.d_queries, grads, "q")
    _backward_tower(td, Xd, Hd, g.d_positives, grads, "q" if encoder.shared else "d")
    if loss_cfg.kind.tag == "learnable":
        gq, gd = gamma.gammas()
        grads["gamma_hat"] = np.array(
            [g.d_gamma_q * gq * (1.0 - gq), g.d_gamma_d * gd * (1.0 - gd)]
        )
    return g.loss, grads


def train(task: SyntheticTask, encoder: TwoTowerEncoder, cfg: TrainConfig) -> TrainResult:
    """Epochs of in-batch InfoNCE with AdamW, cosine decay, and clipping.

    Each query's positive is sampled uniformly from its graded-relevant
    documents every epoch, so documents relevant to many queries actually
    serve as positives for many queries.  Validation NDCG@10 is measured
    at step 0, every eval_every steps, and at the final step; a full
    parameter snapshot is kept at each evaluation.
    """
    train_qids = task.split_queries("train")
    if cfg.batch_size > len(train_qids):
        raise DegenerateBatch(
            f"batch_size {cfg.batch_size} exceeds train split of {len(train_qids)}"
        )
    rng = np.random.default_rng(cfg.seed)
    gamma = GammaParams()
    params = dict(encoder.param_items())
    learn = cfg.loss.kind.tag == "learnable"
    if learn:
        params["gamma_hat"] = np.array([gamma.gamma_hat_q, gamma.gamma_hat_d])
    state = OptState.for_params(params)
    no_decay = frozenset({"gamma_hat"})

    sizes = _batch_layout(len(train_qids), cfg.batch_size)
    total_steps = cfg.epochs * len(sizes)

    def sync_gamma():
        if learn:
            gamma.gamma_hat_q = float(params["gamma_hat"][0])
            gamma.gamma_hat_d = float(params["gamma_hat"][1])

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
        snapshots.append(
            Snapshot(
                step=step,
                params={k: p.copy() for k, p in params.items()},
                gamma=GammaParams(gamma.gamma_hat_q, gamma.gamma_hat_d),
                val_ndcg10=val,
            )
        )

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
            loss, grads = loss_and_grads(encoder, gamma, Xq, Xd, cfg.loss)
            if not math.isfinite(loss):
                raise NonFiniteLoss(step, loss)
            if step == 0:
                record(0, loss)
            sched = lr_at(step, total_steps, cfg.lr)
            overrides = None
            if learn and cfg.gamma_lr is not None:
                factor = sched / cfg.lr if cfg.lr > 0 else 0.0
                overrides = {"gamma_hat": cfg.gamma_lr * factor}
            adamw_step(
                state, grads, step + 1, cfg, lr=sched, no_decay=no_decay, lr_overrides=overrides
            )
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
    live = dict(encoder.param_items())
    for name, p in live.items():
        p[...] = snapshot.params[name]
    return GammaParams(snapshot.gamma.gamma_hat_q, snapshot.gamma.gamma_hat_d)


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
    weights = {name: p.ravel(order="C").tolist() for name, p in encoder.param_items()}
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


def load_checkpoint(path) -> tuple:
    """Rebuild (encoder, gamma, step, config_echo) from a checkpoint file."""
    with open(path) as fh:
        payload = json.load(fh)
    m, h, n, shared = payload["m"], payload["h"], payload["n"], payload["shared"]
    enc = init_encoder(m, h, n, shared, seed=0)
    for name, p in enc.param_items():
        flat = np.asarray(payload["weights"][name], dtype=np.float64)
        if flat.size != p.size:
            raise DimensionMismatch(f"checkpoint weight {name} has {flat.size} entries, expected {p.size}")
        p[...] = flat.reshape(p.shape)
    gh = payload["gamma_hat"]
    gamma = GammaParams(float(gh[0]), float(gh[1]))
    return enc, gamma, int(payload["step"]), payload.get("config", {})
