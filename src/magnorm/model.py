"""Two-tower encoders, AdamW with cosine decay, and the training loop.

Encoders are affine maps from feature space to embedding space with at
most one tanh hidden layer, small enough that backpropagation stays
closed-form.  The trainable normalization strengths live here as
unconstrained logits gamma_hat with gamma = sigmoid(gamma_hat), so the
gradient module can stay in gamma space and this module chains the
sigmoid derivative itself.

An encoder's parameters are one float64 vector theta laid out by
param_layout; towers, gradients, the running best and checkpoint weights
are named views of a vector with that layout.  Under learnable the trainer
appends the two gamma_hat logits and AdamW updates the whole vector.
That tail is the only store of the trained gammas: trained_kind turns a
tail into the kind that scores with it, and the running best and
checkpoints keep the tail itself.

Training is single-threaded and bit-deterministic: all shuffling and
positive sampling flows from the seed in TrainConfig, and the data order
never depends on the similarity variant, so sweeps across variants are
step-matched by construction.
"""

from __future__ import annotations

import binascii
import dataclasses
import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import simcore
from .datagen import SyntheticTask
from .errors import CorruptArtifact, DegenerateBatch, DimensionMismatch, NonFiniteLoss, StateMismatch
from .grad import infonce_grad
from .metrics import GradeTable, atomic_write, macro_mean, write_csv
from .objective import ContrastiveBatch, LossConfig

Array = np.ndarray


def sigmoid(x: float) -> float:
    """Logistic of one float; each branch exponentiates a nonpositive number, so neither overflows."""
    if x >= 0:
        return float(1.0 / (1.0 + np.exp(-x)))
    e = np.exp(x)
    return float(e / (1.0 + e))


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

    @functools.cached_property
    def spans(self) -> tuple:
        """(name, start, end, shape) of every parameter's block of theta, in layout order."""
        out, start = [], 0
        for name, shape in param_layout(self.m, self.h, self.n, self.shared):
            end = start + math.prod(shape)
            out.append((name, start, end, shape))
            start = end
        return tuple(out)

    @property
    def bounds(self) -> list:
        """End offset of each parameter's block of theta, in layout order."""
        return [end for _, _, end, _ in self.spans]

    def params(self, vec: Array | None = None) -> dict:
        """Name -> view into vec (default theta); entries past the layout are left out."""
        vec = self.theta if vec is None else vec
        return {name: vec[a:b].reshape(shape) for name, a, b, shape in self.spans}


def initial_gamma(kind) -> tuple:
    """Logits training starts from: logit(gamma) of a learnable kind's gammas, else none.

    logit(0.5) is exactly 0, so plain learnable starts at gamma_hat = 0.
    Raises ValueError for a learnable gamma outside the open (0, 1).
    """
    if kind.tag != "learnable":
        return ()
    if not all(0.0 < g < 1.0 for g in kind.gammas):
        raise ValueError(f"training needs learnable gammas strictly inside (0, 1), got {kind.gammas}")
    return tuple(math.log(g / (1.0 - g)) for g in kind.gammas)


def trained_kind(kind, gamma_hat):
    """The kind that scores with logits gamma_hat: learnable(sigmoid(l_q), sigmoid(l_d))
    under learnable, else kind itself, whose gammas are fixed."""
    if kind.tag != "learnable":
        return kind
    return simcore.learnable(*(sigmoid(float(x)) for x in gamma_hat))


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
    Z = X @ p[f"{t}.w1"]
    Z += p[f"{t}.b1"]
    if f"{t}.w2" not in p:
        return Z, None
    H = np.tanh(Z, out=Z)
    Y = H @ p[f"{t}.w2"]
    Y += p[f"{t}.b2"]
    return Y, H


def forward(encoder: TwoTowerEncoder, features, tower: str = "query") -> Array:
    """Encode a (rows x m) feature matrix to embeddings with the "query" or "doc" tower."""
    if tower not in ("query", "doc"):
        raise ValueError(f"unknown tower {tower!r}")
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != encoder.m:
        raise DimensionMismatch(f"expected (rows, {encoder.m}) features, got shape {X.shape}")
    return _forward_cached(encoder.params(), "q" if encoder.shared or tower == "query" else "d", X)[0]


def _backward_tower(p: dict, t: str, X: Array, H, dY: Array, grad: dict, add: bool = False) -> None:
    """Write tower t's parameter gradients, given dLoss/dOutput, into grad's views; H is overwritten.

    Each block is written once with out=, or added into when add (the
    second tower of a shared encoder).
    """
    if H is not None:
        _layer_grad(grad[f"{t}.w2"], grad[f"{t}.b2"], H, dY, add)
        dY = dY @ p[f"{t}.w2"].T
        np.multiply(H, H, out=H)
        dY *= np.subtract(1.0, H, out=H)
    _layer_grad(grad[f"{t}.w1"], grad[f"{t}.b1"], X, dY, add)


def _layer_grad(w: Array, b: Array, A: Array, dY: Array, add: bool) -> None:
    """w = A.T @ dY and b = dY's column sums, written with out=, or added in when add."""
    if add:
        w += A.T @ dY
        b += np.add.reduce(dY, axis=0)
    else:
        np.matmul(A.T, dY, out=w)
        np.add.reduce(dY, axis=0, out=b)


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
        if min(self.lr, self.weight_decay, self.gamma_lr or 0.0) < 0 or self.eps <= 0 or self.clip_norm <= 0:
            raise ValueError("lr, weight_decay and gamma_lr must be >= 0, eps and clip_norm positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("epochs, batch_size, eval_every must be positive")


def clip_by_global_norm(grad: Array, clip_norm: float, bounds: list, step: int | None = None, out=None) -> Array:
    """Scale grad by clip_norm/total_norm when the total exceeds it, else return grad.

    The squared norm is one sum per block (ending at bounds, then the gamma
    logits past the last bound), so it rounds as a per-parameter sum would.
    A total that is not finite raises NonFiniteLoss carrying step, since
    scaling by clip_norm/inf would write NaN into whatever the result updates.
    out (default fresh), shaped like grad, holds the squares and then the
    scaled result, so a clip that fires returns an array that is not grad.
    """
    # An explicit loop, not sum(): Python 3.12's sum() compensates float
    # rounding, which would change the clip scale between versions.
    sq = np.multiply(grad, grad, out=out)
    squares = 0.0
    start = 0
    for end in (*bounds, grad.size):
        squares += float(np.add.reduce(sq[start:end]))
        start = end
    total = math.sqrt(squares)
    if not math.isfinite(total):
        raise NonFiniteLoss(step, total, "gradient norm")
    if total <= clip_norm or total == 0.0:
        return grad
    return np.multiply(grad, clip_norm / total, out=sq)


def adamw_step(
    theta: Array, grad: Array, moments: Array, step_index: int, cfg: TrainConfig, bounds: list, lr=None,
    tail_lr=None, scratch=None,
) -> None:
    """One decoupled-weight-decay Adam update of theta and its moments (two rows), in place.

    grad is clipped by global norm before touching the moments; a
    non-finite norm raises NonFiniteLoss at step step_index - 1 and leaves
    theta and the moments as they were.  step_index is 1-based for bias
    correction.  lr (default cfg.lr) is the rate of every entry, or of the
    entries before bounds[-1] when tail_lr is the rate of the rest (the
    gamma logits); both are floats.  Weight decay multiplies lr and skips
    the entries past bounds[-1].
    scratch (default fresh) is three rows like theta: two for the update, one for the clip.
    """
    if step_index < 1:
        raise ValueError("step_index is 1-based")
    step_lr = float(cfg.lr if lr is None else lr)
    a, b, c = np.empty((3, theta.size)) if scratch is None else scratch
    g = clip_by_global_norm(grad, cfg.clip_norm, bounds, step_index - 1, out=c)
    bc1 = 1.0 - cfg.beta1**step_index
    bc2 = 1.0 - cfg.beta2**step_index
    m, v = moments
    end = bounds[-1]
    # Written in place through two scratch vectors, each operation in the
    # order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    # theta -= lr*mhat / (sqrt(vhat) + eps), so the result has their bits.
    m *= cfg.beta1
    m += np.multiply(g, 1.0 - cfg.beta1, out=a)
    v *= cfg.beta2
    np.multiply(g, 1.0 - cfg.beta2, out=a)
    a *= g
    v += a
    np.divide(m, bc1, out=a)
    if tail_lr is None:
        a *= step_lr
    else:
        a[:end] *= step_lr
        a[end:] *= float(tail_lr)
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += cfg.eps
    a /= b
    theta -= a
    if cfg.weight_decay > 0.0:
        decay = np.multiply(theta[:end], step_lr * cfg.weight_decay, out=a[:end])
        theta[:end] -= decay


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


TRAINLOG_HEADER = ",".join(field.name for field in dataclasses.fields(TrainLogRow))


@dataclass
class TrainState:
    """Where a training stands after step updates, enough to continue it bit for bit.

    params is theta, then the gamma logits under learnable; moments holds
    AdamW's two rows for it, and loss is the loss logged at step.  The
    data order needs no state: the config's seed redraws it.
    """

    params: Array
    moments: Array
    step: int
    loss: float


@dataclass
class TrainResult:
    """What train returns; best is the state of the evaluation _selection_key ranks first."""

    encoder: TwoTowerEncoder
    log: list
    best: TrainState


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


def _mag_stats(mags: Array) -> tuple:
    mean = float(mags.mean())
    sd = float(mags.std())
    return mean, (sd / mean if mean > 0 else 0.0)


def embed_split(encoder: TwoTowerEncoder, task: SyntheticTask, query_ids) -> tuple:
    """(embeddings of the given queries, every doc's embedding, (their row norms, in that order))."""
    Q = forward(encoder, task.query_features[[task.query_row(q) for q in query_ids]], "query")
    D = forward(encoder, task.doc_features, "doc")
    return Q, D, (simcore.row_norms(Q), simcore.row_norms(D))


def validation_ndcg(encoder: TwoTowerEncoder, task: SyntheticTask, kind) -> float:
    """Macro-averaged NDCG@10 of the current parameters on the val split: a training evaluation's val_ndcg10."""
    return macro_mean(rank_split(encoder, task, kind, task.grade_table("val"), depth=10)[0].ndcg(10).tolist())


def rank_split(encoder: TwoTowerEncoder, task: SyntheticTask, kind, table: GradeTable, depth=None) -> tuple:
    """(Ranking, (query norms, doc norms)) of table's queries against the full corpus under a trained kind.

    embed_split's row norms serve the scores and the caller's magnitude
    statistics; depth is GradeTable.rank's.
    """
    Q, D, norms = embed_split(encoder, task, table.query_ids)
    return table.rank(simcore.similarity_matrix(kind, Q, D, norms), depth), norms


def loss_and_grads(encoder: TwoTowerEncoder, Xq: Array, Xd: Array, loss_cfg: LossConfig, views=None, out=None):
    """Batch loss plus its gradient as one vector laid out like theta.

    loss_cfg.kind is the trained kind (see trained_kind).  Runs the
    closed-form backward pass: similarity-level gradients from the
    objective, then the tower chain rule, then sigmoid'(gamma_hat) for
    the normalization logits, which under learnable follow the encoder
    block as two more entries.  views (encoder.params()) and out, a
    gradient vector and its params views, are built fresh unless given.
    Every entry is written, never read first, so a reused vector returns
    a fresh one's bytes.
    """
    learn = loss_cfg.kind.tag == "learnable"
    k = encoder.theta.size
    p, td = encoder.params() if views is None else views, "q" if encoder.shared else "d"
    grad = np.empty(k + (2 if learn else 0)) if out is None else out[0]
    grad_views = encoder.params(grad) if out is None else out[1]
    Q, Hq = _forward_cached(p, "q", Xq)
    D, Hd = _forward_cached(p, td, Xd)
    g = infonce_grad(ContrastiveBatch(Q, D), loss_cfg)
    _backward_tower(p, "q", Xq, Hq, g.d_queries, grad_views)
    _backward_tower(p, td, Xd, Hd, g.d_positives, grad_views, add=encoder.shared)
    if learn:
        gq, gd = loss_cfg.kind.gammas
        grad[-2:] = g.d_gamma_q * gq * (1.0 - gq), g.d_gamma_d * gd * (1.0 - gd)
    return g.loss, grad


def train(
    task: SyntheticTask, encoder: TwoTowerEncoder, cfg: TrainConfig, state: TrainState | None = None
) -> TrainResult:
    """Epochs of in-batch InfoNCE with AdamW, cosine decay, and clipping.

    Each query's positive is sampled uniformly from its graded-relevant
    documents every epoch, so documents relevant to many queries actually
    serve as positives for many queries.  Validation NDCG@10 is measured
    at step 0, every eval_every steps, and at the final step.  An
    evaluation that _selection_key ranks above the running best copies the
    parameters and moments into two buffers allocated once, and that state
    is TrainResult.best.  A train query with no relevant document, a
    batch_size above the train split, or an empty val split raises
    DegenerateBatch before step 0, and features narrower or wider than
    encoder.m raise DimensionMismatch.  The train split's positives and
    the val grade table come from the task's per-split memos, built by the
    first training on it.

    The optimizer updates one vector: theta, then the two gamma logits
    under learnable, which start at the logits of the kind's gammas.
    encoder.theta becomes a view of its head, so the returned encoder
    holds the trained parameters.

    Given a state, training continues from it instead, and its params
    replace encoder.theta: the state's step is logged with its loss, every
    epoch is drawn from the seed as in a fresh run, and the batches before
    the state's step are skipped, so the log from there on, and every
    state after, is the uninterrupted run's.  A state whose sizes do not fit
    the encoder and kind, or whose step lies outside [0, total steps],
    raises StateMismatch.
    """
    train_qids, query_rows, n_pos, first_pos, flat_pos = task.positive_index("train")
    n_train = len(train_qids)
    if cfg.batch_size > n_train:
        raise DegenerateBatch(f"batch_size {cfg.batch_size} exceeds train split of {n_train}")
    if task.doc_features.shape[1] != encoder.m:
        raise DimensionMismatch(f"the task has {task.doc_features.shape[1]} features, the encoder takes {encoder.m}")
    rng = np.random.default_rng(cfg.seed)
    learn = cfg.loss.kind.tag == "learnable"
    k = encoder.theta.size
    if state is None:
        params = np.concatenate([encoder.theta, initial_gamma(cfg.loss.kind)])
        moments = np.zeros((2, params.size))
    else:
        params, moments = np.array(state.params, dtype=np.float64), np.array(state.moments, dtype=np.float64)
        if params.shape != (k + 2 * learn,) or moments.shape != (2, params.size):
            raise StateMismatch(f"state params {params.shape} and moments {moments.shape} do not fit {k + 2 * learn}")
    encoder.theta = params[:k]
    bounds = encoder.bounds
    # Built once: theta's views, a gradient vector with its views, AdamW's
    # scratch, and the loss config, which under learnable follows the logits.
    views, scratch, loss_cfg = encoder.params(), np.empty((3, params.size)), cfg.loss
    gamma_lr = cfg.gamma_lr if learn else None
    grad = np.empty(params.size)
    out = grad, encoder.params(grad)

    sizes = _batch_layout(n_train, cfg.batch_size)
    total_steps = cfg.epochs * len(sizes)
    if not n_pos.all():
        qid = train_qids[int(np.argmin(n_pos))]
        raise DegenerateBatch(f"train query {qid!r} has no relevant doc to draw as its positive")
    val_table = task.grade_table("val")
    if not val_table.query_ids:
        raise DegenerateBatch("val split has no queries; training selects its checkpoint by val_ndcg10")

    start = 0 if state is None else state.step
    if not 0 <= start <= total_steps:
        raise StateMismatch(f"state step {start} outside [0, {total_steps}]")

    def kind_now():
        return trained_kind(cfg.loss.kind, params[k:])

    log: list = []
    best_params, best_moments = np.empty_like(params), np.empty_like(moments)
    best = None  # log row of the running best

    def record(step: int, loss: float):
        nonlocal best
        kind = kind_now()
        # NDCG@10 reads ten ranks, so only those are ordered.
        ranking, (nq, nd) = rank_split(encoder, task, kind, val_table, depth=10)
        val = macro_mean(ranking.ndcg(10).tolist())
        log.append(TrainLogRow(step, loss, val, *kind.gammas, *_mag_stats(nq), *_mag_stats(nd)))
        if best is None or _selection_key(log[-1]) > _selection_key(best):
            best_params[...] = params
            best_moments[...] = moments
            best = log[-1]

    batches = [slice(end - size, end) for size, end in zip(sizes, itertools.accumulate(sizes))]
    step = start
    if state is not None:
        record(start, state.loss)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_train)
        # One draw per epoch takes the same numbers from rng, and leaves it
        # in the same state, as one scalar draw per query in order.  Only
        # row indices are drawn ahead: each batch gathers its own features,
        # since gathering a whole epoch's rows at once raises peak memory.
        # A resumed run draws every epoch and skips the batches before step.
        q_rows = query_rows[order]
        d_rows = flat_pos[first_pos[order] + rng.integers(n_pos[order])]
        for batch in batches[step - epoch * len(sizes) :]:
            Xq = task.query_features.take(q_rows[batch], axis=0)
            Xd = task.doc_features.take(d_rows[batch], axis=0)
            if learn:
                loss_cfg = dataclasses.replace(cfg.loss, kind=kind_now())
            loss, grad = loss_and_grads(encoder, Xq, Xd, loss_cfg, views, out)
            if not math.isfinite(loss):
                raise NonFiniteLoss(step, loss)
            if not log:  # a fresh start logs step 0 with the first batch's loss
                record(0, loss)
            sched = lr_at(step, total_steps, cfg.lr)
            tail_lr = None if gamma_lr is None else gamma_lr * (sched / cfg.lr if cfg.lr > 0 else 0.0)
            adamw_step(params, grad, moments, step + 1, cfg, bounds, sched, tail_lr, scratch)
            step += 1
            if step % cfg.eval_every == 0 or step == total_steps:
                record(step, loss)
    return TrainResult(encoder, log, TrainState(best_params, best_moments, best.step, best.loss))


def _selection_key(row: TrainLogRow) -> tuple:
    """Order of checkpoint choice: higher validation NDCG@10, then the earlier step."""
    return row.val_ndcg10, -row.step


# ---------------------------------------------------------------------------
# Checkpoint and train-log serialization
# ---------------------------------------------------------------------------


def write_trainlog_csv(path, log) -> None:
    write_csv(path, TRAINLOG_HEADER.split(","), map(dataclasses.astuple, log))


CHECKPOINT_FORMAT = 2


def _encode(values) -> str:
    """Base64 of an array's little-endian float64 bytes, in row-major order."""
    return binascii.b2a_base64(np.asarray(values, dtype="<f8").tobytes(), newline=False).decode("ascii")


def save_checkpoint(path, encoder: TwoTowerEncoder, state: TrainState, config_echo: dict) -> None:
    """JSON checkpoint of format 2: dims, gamma logits, the state to continue from, and the weights.

    encoder gives the dims and the layout; the weights and gamma logits
    are state.params', and a fixed kind's empty tail is written as
    [0.0, 0.0].  Each weight (flat, row-major) and the two moment rows
    are base64 of their little-endian float64 bytes, so every float
    round-trips exactly.
    """
    params = np.asarray(state.params, dtype=np.float64)
    head = json.dumps({
        "format": CHECKPOINT_FORMAT,
        "m": encoder.m,
        "h": encoder.h,
        "n": encoder.n,
        "shared": encoder.shared,
        "gamma_hat": params[encoder.theta.size :].tolist() or [0.0, 0.0],
        "step": state.step,
        "loss": state.loss,
        "config": config_echo,
    })
    # Parameter names and base64 need no JSON escaping, so the blobs, which
    # are nearly all the bytes, are written as they are, after the rest.
    weights = ", ".join(f'"{name}": "{_encode(params[a:b])}"' for name, a, b, _ in encoder.spans)
    with atomic_write(path) as fh:
        fh.write(f'{head[:-1]}, "moments": "{_encode(state.moments)}", "weights": {{{weights}}}}}\n')


# The JSON type of every checkpoint key.
_CHECKPOINT_KEYS = {"format": int, "m": int, "h": int, "n": int, "shared": bool, "weights": dict, "gamma_hat": list,
                    "moments": str, "step": int, "loss": float, "config": dict}


def _decode(path, what: str, blob, size: int) -> Array:
    """The read-only float64 array of size entries that a base64 blob of _encode holds.

    Raises CorruptArtifact, naming the file and what, for a blob that is
    not _encode's base64, holds another number of bytes, or holds a
    non-finite float.
    """
    try:
        raw = binascii.a2b_base64(blob)
    except (binascii.Error, TypeError, ValueError):
        raw = None
    # a2b_base64 skips characters outside the alphabet and stops at padding,
    # so a blob longer than the base64 of what it decodes to holds more.
    if raw is None or len(blob) != 4 * -(-len(raw) // 3):
        raise CorruptArtifact(f"{path}: {what}: not base64 of float64 bytes")
    if len(raw) != 8 * size:
        raise CorruptArtifact(f"{path}: {what}: {len(raw)} bytes, expected {8 * size} ({size} floats)")
    values = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(values).all():
        raise CorruptArtifact(f"{path}: {what}: a non-finite entry")
    return values


def load_checkpoint(path) -> tuple:
    """Rebuild (encoder, trained kind, TrainState, config_echo) from a checkpoint file.

    The trained kind is trained_kind of the echoed config kind and
    gamma_hat.  The TrainState is the one train continues from, its
    params the weights followed by gamma_hat under a learnable kind.  The
    echo's sections are returned as written; cli reads them as a config
    and checks the step against the training they describe.

    Raises CorruptArtifact, naming the file, when it does not parse, is
    not of format 2, a key is missing or of the wrong type, or a weight
    or the moments blob is not base64 of the layout's number of floats
    (2 x (weights + 2 under learnable) for the moments), as does a
    non-finite weight, moment, gamma_hat or loss, a negative second
    moment, an echoed config kind that is missing or not a similarity kind
    name, or an echoed config seed that is missing or not an integer.
    Keys past these, such as the rng of a checkpoint written before the
    seed alone fixed the data order, are ignored.
    """
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as e:
            raise CorruptArtifact(f"{path} does not parse as JSON: {e}") from None
    if not isinstance(payload, dict):
        raise CorruptArtifact(f"{path} is not a JSON object")
    for key, kind in _CHECKPOINT_KEYS.items():
        if type(payload.get(key)) is not kind:
            raise CorruptArtifact(f"{path}: key {key!r} is missing or not a JSON {kind.__name__}")
    if payload["format"] != CHECKPOINT_FORMAT:
        raise CorruptArtifact(f"{path}: checkpoint format {payload['format']} is not {CHECKPOINT_FORMAT}")
    kind, seed = payload["config"].get("kind"), payload["config"].get("seed")
    try:
        if type(kind) is not str:
            raise TypeError
        base = simcore.kind_from_name(kind)
    except (TypeError, ValueError):
        raise CorruptArtifact(f"{path}: config kind {kind!r} is not a similarity kind name") from None
    if type(seed) is not int:
        raise CorruptArtifact(f"{path}: config seed {seed!r} is not an integer")
    m, h, n, shared = (payload[key] for key in ("m", "h", "n", "shared"))
    try:
        if min(m, n) < 1 or h < 0:
            raise ValueError
        layout = param_layout(m, h, n, shared)
        blobs = [payload["weights"][name] for name, _ in layout]
        gq, gd = (float(x) for x in payload["gamma_hat"])
    except (KeyError, TypeError, ValueError):
        raise CorruptArtifact(f"{path}: dimensions, weights or gamma_hat out of range or not numeric") from None
    # Sizes are checked from the layout's shapes, so declared dims allocate nothing.
    weights = [_decode(path, f"weight {name}", blob, math.prod(shape)) for (name, shape), blob in zip(layout, blobs)]
    if not (math.isfinite(gq) and math.isfinite(gd) and math.isfinite(payload["loss"])):
        raise CorruptArtifact(f"{path}: gamma_hat or loss is not finite")
    learn = base.tag == "learnable"
    size = sum(flat.size for flat in weights) + 2 * learn
    moments = _decode(path, "moments", payload["moments"], 2 * size).reshape(2, size)
    if (moments[1] < 0).any():
        raise CorruptArtifact(f"{path}: moments: a negative second moment")
    enc = TwoTowerEncoder(m=m, h=h, n=n, shared=shared, theta=np.concatenate(weights))
    params = np.concatenate([enc.theta, (gq, gd) if learn else ()])
    state = TrainState(params, moments, payload["step"], payload["loss"])
    return enc, trained_kind(base, (gq, gd)), state, payload["config"]
