"""Encoders, the optimizer, and the training loop."""

import base64
import dataclasses
import itertools
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnorm import datagen, model
from magnorm.datagen import SyntheticTask, TaskSpec, gen_asymmetric
from magnorm.errors import CorruptArtifact, DegenerateBatch, DimensionMismatch, NonFiniteLoss
from magnorm.grad import _row_norms, finite_difference, infonce_grad, rel_error
from magnorm.metrics import GradeTable, macro_mean, ndcg_at_k, ranked_list
from magnorm.model import (
    TRAINLOG_HEADER,
    TrainConfig,
    TrainState,
    adamw_step,
    clip_by_global_norm,
    forward,
    init_encoder,
    load_checkpoint,
    loss_and_grads,
    lr_at,
    param_layout,
    rank_split,
    save_checkpoint,
    sigmoid,
    train,
    trained_kind,
    validation_ndcg,
    write_trainlog_csv,
)
from magnorm.objective import ContrastiveBatch, LossConfig
from magnorm.simcore import COSINE, DNORM, DOT, QNORM, kind_name, learnable, similarity_matrix

TINY = TaskSpec(
    n_docs=32,
    n_queries=128,
    feature_dim=8,
    n_clusters=4,
    hub_fraction=0.1,
    hub_multiplicity=4,
    noise_sigma=0.1,
    seed=2,
)


def _tiny_cfg(kind=DOT, **over):
    base = dict(
        lr=0.01,
        epochs=4,
        batch_size=32,
        seed=0,
        loss=LossConfig(kind=kind, tau=1.0, alpha=20.0),
        eval_every=5,
    )
    base.update(over)
    return TrainConfig(**base)


# The least config echo a checkpoint holds: its kind and seed.
ECHO = {"kind": "dot", "seed": 0}


def _state(params, step=0, loss=0.5):
    """A TrainState of params at step with zero moments and seed 0's fresh generator."""
    params = np.asarray(params, dtype=np.float64)
    return TrainState(params, np.zeros((2, params.size)), step, np.random.default_rng(0).bit_generator.state, loss)


def _train_evals(task, encoder, cfg, state=None):
    """(train's result, (theta, trained kind) at each evaluation), captured by wrapping model.rank_split."""
    real, evals = model.rank_split, []

    def capturing(encoder, task, kind, table, depth=None):
        evals.append((encoder.theta.copy(), kind))
        return real(encoder, task, kind, table, depth)

    with mock.patch.object(model, "rank_split", capturing):
        return train(task, encoder, cfg, state), evals


def _bytes(evals) -> list:
    return [(theta.tobytes(), kind) for theta, kind in evals]


def _blob(values) -> str:
    """A checkpoint array blob: standard base64 of little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


class TestEncoderInit:
    def test_deterministic(self):
        a = init_encoder(6, 8, 4, shared=False, seed=5)
        b = init_encoder(6, 8, 4, shared=False, seed=5)
        assert a.spans == b.spans
        assert np.array_equal(a.theta, b.theta)

    def test_fan_in_bounds_and_zero_biases(self):
        enc = init_encoder(9, 16, 4, shared=False, seed=1)
        for name, p in enc.params().items():
            if name.endswith(".w1"):
                assert np.abs(p).max() <= 1.0 / 3.0
            elif name.endswith(".w2"):
                assert np.abs(p).max() <= 1.0 / 4.0
            else:
                assert np.all(p == 0.0)

    def test_shared_has_one_tower(self):
        enc = init_encoder(4, 0, 3, shared=True, seed=0)
        assert list(enc.params()) == ["q.w1", "q.b1"]
        assert [n for n, _ in param_layout(6, 8, 4, False)] == [
            "q.w1", "q.b1", "q.w2", "q.b2", "d.w1", "d.b1", "d.w2", "d.b2"
        ]
        x = np.ones((1, 4))
        np.testing.assert_array_equal(forward(enc, x, "query"), forward(enc, x, "doc"))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_encoder(0, 4, 2, shared=False, seed=0)
        with pytest.raises(ValueError):
            init_encoder(4, -1, 2, shared=False, seed=0)


class TestParameterViews:
    @pytest.mark.parametrize("shared", [False, True], ids=["towers", "shared"])
    @pytest.mark.parametrize("h", [0, 64])
    def test_views_alias_and_equal_the_split_views(self, shared, h):
        # params() gives, in order and byte for byte, the views np.split
        # gave at the running sums of the layout's sizes, and they alias vec.
        enc = init_encoder(6, h, 4, shared=shared, seed=3)
        layout = param_layout(6, h, 4, shared)
        bounds = list(itertools.accumulate(math.prod(shape) for _, shape in layout))
        assert [(name, shape) for name, _, _, shape in enc.spans] == layout and enc.bounds == bounds
        grad = np.random.default_rng(0).standard_normal(enc.theta.size + 2)
        for vec, views in ((enc.theta, enc.params()), (grad, enc.params(grad))):
            split = {name: part.reshape(shape) for (name, shape), part in zip(layout, np.split(vec, bounds))}
            assert list(views) == list(split)
            for name, view in views.items():
                assert view.shape == split[name].shape
                assert view.tobytes() == split[name].tobytes()
                assert np.shares_memory(view, vec)
                view += 1.0
                assert np.array_equal(view, split[name])


class TestForward:
    def test_matches_matrix_oracle(self):
        enc = init_encoder(5, 7, 3, shared=False, seed=3)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 5))
        p = enc.params()
        expect = np.tanh(X @ p["d.w1"] + p["d.b1"]) @ p["d.w2"] + p["d.b2"]
        np.testing.assert_array_equal(forward(enc, X, "doc"), expect)

    def test_affine_when_no_hidden(self):
        enc = init_encoder(5, 0, 3, shared=False, seed=3)
        X = np.random.default_rng(1).standard_normal((4, 5))
        p = enc.params()
        np.testing.assert_array_equal(forward(enc, X, "query"), X @ p["q.w1"] + p["q.b1"])
        # Zero biases at init make the map linear: zero in, zero out.
        np.testing.assert_array_equal(forward(enc, np.zeros((1, 5)), "query"), np.zeros((1, 3)))

    def test_rejects_wrong_dim_and_tower(self):
        enc = init_encoder(5, 0, 3, shared=False, seed=3)
        for features in (np.ones((2, 4)), np.ones(5)):
            with pytest.raises(DimensionMismatch):
                forward(enc, features, "query")
        for tower in ("passage", "q", "d"):
            with pytest.raises(ValueError):
                forward(enc, np.ones((2, 5)), tower)


class TestOptimizer:
    def test_first_step_is_signed_lr(self):
        # Bias correction makes mhat/sqrt(vhat) = sign(g) at step 1, so the
        # move is lr in magnitude whatever the gradient scale.
        cfg = _tiny_cfg(weight_decay=0.0)
        theta, moments = np.zeros(3), np.zeros((2, 3))
        adamw_step(theta, np.ones(3) / math.sqrt(3), moments, 1, cfg, [3], lr=0.5)
        np.testing.assert_allclose(theta, -0.5, rtol=1e-7)

    def test_clip_scales_to_unit_norm(self):
        clipped = clip_by_global_norm(np.array([3.0, 0.0, 4.0, 0.0]), 1.0, [2, 4])
        np.testing.assert_allclose(clipped, [0.6, 0.0, 0.8, 0.0])

    def test_clip_leaves_small_gradients_alone(self):
        grad = np.array([0.3, 0.4])
        assert clip_by_global_norm(grad, 1.0, [2]) is grad

    def test_clip_sums_the_norm_block_by_block(self):
        # The rounding of the clip's norm is that of one sum per parameter
        # block in layout order, the tail (gamma logits) last, so the
        # flat-vector trainer reproduces the per-parameter one bit for bit.
        enc = init_encoder(6, 8, 4, shared=False, seed=0)
        grad = np.random.default_rng(0).standard_normal(enc.theta.size + 2)
        per_block = 0.0
        for b in [*enc.params(grad).values(), grad[-2:]]:
            per_block += float((b * b).sum())
        per_block = math.sqrt(per_block)
        whole = math.sqrt(float((grad * grad).sum()))
        assert per_block != whole  # the seed makes the two roundings differ
        clipped = clip_by_global_norm(grad, 1.0, enc.bounds)
        assert np.array_equal(clipped, grad * (1.0 / per_block))
        assert not np.array_equal(clipped, grad * (1.0 / whole))

    def test_clip_into_a_buffer_returns_grad_unless_it_fires(self):
        # bench/spans.py counts a fired clip by the result not being grad,
        # so a clip into a reused buffer returns grad itself when it does not fire.
        buf = np.full(4, np.nan)
        small = np.array([0.3, 0.0, 0.4, 0.0])
        assert clip_by_global_norm(small, 1.0, [2, 4], out=buf) is small
        big = np.array([3.0, 0.0, 4.0, 0.0])
        clipped = clip_by_global_norm(big, 1.0, [2, 4], out=buf)
        assert clipped is not big and clipped is buf
        assert clipped.tobytes() == clip_by_global_norm(big, 1.0, [2, 4]).tobytes()
        assert np.array_equal(big, [3.0, 0.0, 4.0, 0.0])

    def test_scratch_rows_keep_the_bytes(self):
        # Eight steps, some clipped and some not, through one reused scratch
        # (NaN at the start, so a row read before it is written shows).
        cfg = _tiny_cfg(lr=0.5, weight_decay=0.3)
        rng = np.random.default_rng(5)
        theta, moments = rng.standard_normal(72), np.zeros((2, 72))
        theta_r, moments_r, scratch = theta.copy(), moments.copy(), np.full((3, 72), np.nan)
        for step in range(1, 9):
            grad = rng.standard_normal(72) * rng.uniform(0.01, 0.3)
            adamw_step(theta, grad, moments, step, cfg, [30, 70])
            adamw_step(theta_r, grad, moments_r, step, cfg, [30, 70], scratch=scratch)
            assert theta_r.tobytes() == theta.tobytes() and moments_r.tobytes() == moments.tobytes()

    @pytest.mark.parametrize("decay", [0.0, 0.3], ids=["no-decay", "decay"])
    @pytest.mark.parametrize("tail", [False, True], ids=["scalar-lr", "tail-lr"])
    def test_equals_the_expression_form(self, decay, tail):
        # Eight steps of random gradients, some clipped and some not, each
        # step from the same state on both sides: exact == on the bytes.
        # A large lr and a weight decay that is not a power of two keep the
        # decay term's last bit visible in theta.  A tail rate is the
        # expression form's per-entry rate past the last bound.
        cfg = _tiny_cfg(lr=0.5, weight_decay=decay)
        rng = np.random.default_rng(4)
        bounds = [30, 70]
        theta = rng.standard_normal(72)
        moments = np.zeros((2, 72))
        for step in range(1, 9):
            grad = rng.standard_normal(72) * rng.uniform(0.01, 0.3)
            lr = rates = lr_at(step - 1, 8, cfg.lr)
            tail_lr = 0.05 if tail else None
            if tail:
                rates = np.full(72, lr)
                rates[70:] = tail_lr
            want_theta, want_moments = theta.copy(), moments.copy()
            _adamw_expression_form(want_theta, grad, want_moments, step, cfg, bounds, rates)
            adamw_step(theta, grad, moments, step, cfg, bounds, lr=lr, tail_lr=tail_lr)
            assert theta.tobytes() == want_theta.tobytes()
            assert moments.tobytes() == want_moments.tobytes()

    def test_non_finite_gradient_raises_before_the_update(self):
        cfg = _tiny_cfg()
        theta, moments = np.ones(4), np.full((2, 4), 0.5)
        for bad in (np.inf, np.nan):
            grad = np.array([0.1, bad, 0.2, 0.3])
            with pytest.raises(NonFiniteLoss) as info:
                adamw_step(theta, grad, moments, 7, cfg, [4])
            assert info.value.step == 6 and info.value.what == "gradient norm"
            assert np.array_equal(theta, np.ones(4)) and np.array_equal(moments, np.full((2, 4), 0.5))

    def test_zero_grad_zero_decay_is_identity(self):
        cfg = _tiny_cfg(weight_decay=0.0)
        theta = np.array([1.5, -2.0])
        adamw_step(theta, np.zeros(2), np.zeros((2, 2)), 1, cfg, [2])
        np.testing.assert_array_equal(theta, [1.5, -2.0])

    def test_decay_is_decoupled(self):
        # Zero gradient isolates the decay term: p <- p - lr * wd * p.
        cfg = _tiny_cfg(weight_decay=0.1)
        theta = np.array([2.0])
        adamw_step(theta, np.zeros(1), np.zeros((2, 1)), 1, cfg, [1], lr=0.5)
        np.testing.assert_allclose(theta, [2.0 * (1.0 - 0.05)], rtol=1e-15)

    def test_no_decay_names_skip_decay(self):
        # The entries past the last bound are the gamma logits (gamma_hat):
        # weight decay never touches them, only the encoder entries before.
        cfg = _tiny_cfg(weight_decay=0.1)
        theta = np.array([2.0, 2.0, -3.0])
        adamw_step(theta, np.zeros(3), np.zeros((2, 3)), 1, cfg, [1], lr=0.5)
        np.testing.assert_allclose(theta[0], 2.0 * (1.0 - 0.05), rtol=1e-15)
        np.testing.assert_array_equal(theta[1:], [2.0, -3.0])

    def test_tail_lr_applies_past_the_last_bound(self):
        cfg = _tiny_cfg(weight_decay=0.0)
        theta = np.zeros(2)
        g = np.full(2, 1.0 / math.sqrt(2))
        adamw_step(theta, g, np.zeros((2, 2)), 1, cfg, [1], lr=0.1, tail_lr=0.2)
        assert theta[1] == pytest.approx(2.0 * theta[0], rel=1e-12)
        # adamw_step takes no per-entry rate vector.
        with pytest.raises(TypeError):
            adamw_step(theta, g, np.zeros((2, 2)), 1, cfg, [1], lr=np.array([0.1, 0.2]))

    def test_rejects_zero_based_step(self):
        cfg = _tiny_cfg()
        with pytest.raises(ValueError):
            adamw_step(np.zeros(1), np.zeros(1), np.zeros((2, 1)), 0, cfg, [1])

    def test_cosine_schedule_endpoints(self):
        assert lr_at(0, 100, 0.3) == 0.3
        assert lr_at(100, 100, 0.3) == pytest.approx(0.0, abs=1e-18)
        assert lr_at(50, 100, 0.3) == pytest.approx(0.15, rel=1e-12)
        with pytest.raises(ValueError):
            lr_at(101, 100, 0.3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _tiny_cfg(lr=-0.1)
        with pytest.raises(ValueError):
            _tiny_cfg(epochs=0)
        with pytest.raises(ValueError):
            _tiny_cfg(beta1=1.0)


def _adamw_expression_form(theta, grad, moments, step_index, cfg, bounds, lr):
    """adamw_step as one expression per line: the arithmetic the in-place update must keep.

    lr is one rate or one per entry, as adamw_step took before its tail rate.
    """
    g = clip_by_global_norm(grad, cfg.clip_norm, bounds)
    bc1 = 1.0 - cfg.beta1**step_index
    bc2 = 1.0 - cfg.beta2**step_index
    m, v = moments
    m[...] = cfg.beta1 * m + (1.0 - cfg.beta1) * g
    v[...] = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
    mhat = m / bc1
    vhat = v / bc2
    theta -= lr * mhat / (np.sqrt(vhat) + cfg.eps)
    if cfg.weight_decay > 0.0:
        end = bounds[-1]
        theta[:end] -= np.broadcast_to(lr, theta.shape)[:end] * cfg.weight_decay * theta[:end]


def _at(cfg, gamma_hat):
    """cfg scoring with the trained kind of the parameter tail gamma_hat."""
    return dataclasses.replace(cfg, kind=trained_kind(cfg.kind, gamma_hat))


class TestBackward:
    """All closed-form parameter gradients against finite differences."""

    @pytest.mark.parametrize(
        "kind,shared,h",
        [(DOT, False, 5), (COSINE, False, 5), (learnable(0.5, 0.5), False, 5),
         (DOT, True, 5), (DOT, False, 0)],
        ids=["dot", "cosine", "learnable", "shared", "affine"],
    )
    def test_loss_and_grads_matches_finite_differences(self, kind, shared, h):
        rng = np.random.default_rng(21)
        m, n, B = 3, 4, 4
        enc = init_encoder(m, h, n, shared=shared, seed=9)
        Xq = rng.standard_normal((B, m))
        Xd = rng.standard_normal((B, m))
        cfg = LossConfig(kind=kind, tau=0.9, alpha=5.0)
        k = enc.theta.size

        def f(flat):
            enc.theta[...] = flat[:k]
            loss, _ = loss_and_grads(enc, Xq, Xd, _at(cfg, flat[k:]))
            return loss

        x0 = np.append(enc.theta, [0.2, -0.3] if kind.tag == "learnable" else [])
        _, analytic = loss_and_grads(enc, Xq, Xd, _at(cfg, x0[k:]))
        numeric = finite_difference(f, x0.copy())
        f(x0)
        assert rel_error(analytic, numeric) <= 1e-6


    @pytest.mark.parametrize("kind", [COSINE, DOT, QNORM, DNORM, learnable(0.3, 0.8)],
                             ids=["cosine", "dot", "qnorm", "dnorm", "learnable"])
    @pytest.mark.parametrize("shared", [False, True], ids=["towers", "shared"])
    @pytest.mark.parametrize("h", [64, 0], ids=["hidden", "affine"])
    def test_reused_gradient_buffer_returns_the_fresh_bytes(self, kind, shared, h):
        # The reused vector starts as NaN, so an entry a step leaves
        # unwritten shows.  Every block is written once by out= (a shared
        # encoder's second tower adds into the first's), never read first,
        # and the encoder block then gets + 0.0, which turns a -0.0 into
        # +0.0 as a sum into a fresh np.zeros did; the gamma tail is
        # written after that.  So a reused vector holds a fresh one's bytes.
        rng = np.random.default_rng(23)
        enc = init_encoder(6, h, 5, shared=shared, seed=3)
        cfg = LossConfig(kind=kind, tau=1.0, alpha=20.0)
        buf = np.full(enc.theta.size + (2 if kind.tag == "learnable" else 0), np.nan)
        views, out = enc.params(), (buf, enc.params(buf))
        for _ in range(4):
            Xq, Xd = rng.standard_normal((8, 6)), rng.standard_normal((8, 6))
            loss, fresh = loss_and_grads(enc, Xq, Xd, cfg)
            loss_r, reused = loss_and_grads(enc, Xq, Xd, cfg, views, out)
            assert reused is buf and loss_r == loss
            assert reused.tobytes() == fresh.tobytes()
            enc.theta -= 0.1 * fresh[: enc.theta.size]


def _pre_change_stack_grad(kind, G, S, Q, C, norms):
    """grad._stack_grad with the method reductions (.sum) the step called before."""
    gq, gd = kind.gammas
    learn = kind.tag == "learnable"
    nq, nd = norms
    scale_q = (nq**gq)[:, None] if gq > 0.0 else None
    scale_d = nd**gd if gd > 0.0 else None
    dQ = (G if scale_d is None else G / scale_d) @ C
    dC = (G if scale_q is None else G / scale_q).T @ Q
    if gq > 0.0 or gd > 0.0 or learn:
        GS = G * S
        GS_q, GS_c = GS.sum(axis=1), GS.sum(axis=0)
    if gq > 0.0:
        dQ /= scale_q
        dQ -= gq * (GS_q / nq**2)[:, None] * Q
    if gd > 0.0:
        dC /= scale_d[:, None]
        dC -= gd * (GS_c / nd**2)[:, None] * C
    if not learn:
        return dQ, dC, None, None
    return dQ, dC, float(-(GS_q * np.log(nq)).sum()), float(-(GS_c * np.log(nd)).sum())


def _pre_change_loss_and_grads(encoder, Xq, Xd, cfg):
    """loss_and_grads before each block was written once: a zeroed vector
    that every block adds into, .max/.sum/.mean in the loss, and every
    multiplication and division by tau, also at tau 1."""
    learn = cfg.kind.tag == "learnable"
    grad = np.empty(encoder.theta.size + (2 if learn else 0))
    grad.fill(0.0)
    p, views, td = encoder.params(), encoder.params(grad), "q" if encoder.shared else "d"
    Q, Hq = model._forward_cached(p, "q", Xq)
    D, Hd = model._forward_cached(p, td, Xd)
    norms = _row_norms(cfg.kind, Q, D)
    logits = cfg.alpha * similarity_matrix(cfg.kind, Q, D, norms) / cfg.tau
    B = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    e_sum = e.sum(axis=1, keepdims=True)
    loss = float((m[:, 0] + np.log(e_sum[:, 0]) - np.diagonal(logits)).mean())
    G = np.divide(e, e_sum, out=e)
    G.ravel()[:: B + 1] -= 1.0
    G *= cfg.alpha / cfg.tau / B
    S = None if cfg.kind.tag == "dot" else logits * cfg.tau / cfg.alpha
    dQ, dD, dgq, dgd = _pre_change_stack_grad(cfg.kind, G, S, Q, D, norms)
    for t, X, H, dY in (("q", Xq, Hq, dQ), (td, Xd, Hd, dD)):
        if H is not None:
            views[f"{t}.w2"] += H.T @ dY
            views[f"{t}.b2"] += dY.sum(axis=0)
            dY = dY @ p[f"{t}.w2"].T
            dY *= 1.0 - H * H
        views[f"{t}.w1"] += X.T @ dY
        views[f"{t}.b1"] += dY.sum(axis=0)
    if learn:
        gq, gd = cfg.kind.gammas
        grad[-2:] = dgq * gq * (1.0 - gq), dgd * gd * (1.0 - gd)
    return loss, grad


def _pre_change_train(task, encoder, cfg):
    """model.train before one draw per epoch: each batch draws its own
    positives and steps through _pre_change_loss_and_grads, then through
    _adamw_expression_form, with a per-entry rate vector under gamma_lr.
    Its evaluation is the one train made before it called model.rank_split.
    Returns the result and (theta, trained kind) at each evaluation."""
    qids = task.split_queries("train")
    rng = np.random.default_rng(cfg.seed)
    k = encoder.theta.size
    params = np.concatenate([encoder.theta, model.initial_gamma(cfg.loss.kind)])
    encoder.theta = params[:k]
    moments = np.zeros((2, params.size))
    sizes = model._batch_layout(len(qids), cfg.batch_size)
    total = cfg.epochs * len(sizes)
    rel_rows = [[task.doc_row(d) for d in task.relevant_of(q)] for q in qids]
    table = GradeTable(task.split_queries("val"), task.doc_ids, task.qrels)
    val_features = task.query_features[[task.query_row(q) for q in table.query_ids]]
    log, evals = [], []

    def record(step, loss):
        kind = trained_kind(cfg.loss.kind, params[k:])
        Q, D = forward(encoder, val_features, "query"), forward(encoder, task.doc_features, "doc")
        nq, nd = np.linalg.norm(Q, axis=1), np.linalg.norm(D, axis=1)
        val = macro_mean(table.rank(similarity_matrix(kind, Q, D, (nq, nd)), depth=10).ndcg(10).tolist())
        log.append(model.TrainLogRow(step, loss, val, *kind.gammas, *model._mag_stats(nq), *model._mag_stats(nd)))
        evals.append((encoder.theta.copy(), kind))

    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(qids))
        offset = 0
        for size in sizes:
            chunk = order[offset : offset + size]
            offset += size
            draws = rng.integers(np.array([len(rel_rows[i]) for i in chunk], dtype=np.int64))
            Xq = task.query_features[[task.query_row(qids[i]) for i in chunk]]
            Xd = task.doc_features[[rel_rows[i][j] for i, j in zip(chunk, draws)]]
            loss_cfg = _at(cfg.loss, params[k:])
            loss, grad = _pre_change_loss_and_grads(encoder, Xq, Xd, loss_cfg)
            if step == 0:
                record(0, loss)
            lr = sched = lr_at(step, total, cfg.lr)
            if cfg.gamma_lr is not None and cfg.loss.kind.tag == "learnable":
                lr = np.full(params.size, sched)
                lr[k:] = cfg.gamma_lr * (sched / cfg.lr)
            _adamw_expression_form(params, grad, moments, step + 1, cfg, encoder.bounds, lr)
            step += 1
            if step % cfg.eval_every == 0 or step == total:
                record(step, loss)
    return model.TrainResult(encoder=encoder, log=log, best=None), evals


class TestStepOracle:
    """The training step against the step it replaced, kept as the oracle."""

    @pytest.mark.parametrize("kind", [COSINE, DOT, QNORM, DNORM, learnable(0.3, 0.8)],
                             ids=["cosine", "dot", "qnorm", "dnorm", "learnable"])
    @pytest.mark.parametrize("shared", [False, True], ids=["towers", "shared"])
    @pytest.mark.parametrize("h", [16, 0], ids=["hidden", "affine"])
    def test_train_is_the_pre_change_step_bitwise(self, kind, shared, h):
        # Batch 7 leaves a short last batch; eval_every 5 records mid-epoch.
        # At tau 1 the step skips its multiplication and division by tau.
        task = gen_asymmetric(TINY)
        for tau in (1.0, 0.7):
            loss = LossConfig(kind=kind, tau=tau, alpha=20.0)
            cfg = _tiny_cfg(kind=kind, epochs=2, batch_size=7, eval_every=5, loss=loss)
            _assert_same_training(_train_evals(task, init_encoder(8, h, 8, shared, seed=7), cfg),
                                  _pre_change_train(task, init_encoder(8, h, 8, shared, seed=7), cfg))

    def test_gamma_lr_run_is_the_pre_change_step_bitwise(self):
        task = gen_asymmetric(TINY)
        cfg = _tiny_cfg(kind=learnable(0.5, 0.5), gamma_lr=0.05, epochs=3)
        _assert_same_training(_train_evals(task, init_encoder(8, 16, 8, True, seed=7), cfg),
                              _pre_change_train(task, init_encoder(8, 16, 8, True, seed=7), cfg))

    @pytest.mark.parametrize("shared", [False, True], ids=["towers", "shared"])
    def test_negative_zero_bias_gradient_comes_out_positive(self, shared):
        # Hidden unit 0 saturates (tanh(50) is exactly 1.0), so its
        # backpropagated signal is dY @ w2[0] times 1 - 1*1 = 0.0.  w2[0] is
        # chosen so that dY @ w2[0] < 0 on every row of both towers, with b2
        # cancelling it in the output: every addend of the bias gradient
        # b1[0] is -0.0.  Under cosine no linear relation ties the 8 rows.
        rng = np.random.default_rng(5)
        enc = init_encoder(6, 16, 10, shared=shared, seed=3)
        cfg = LossConfig(kind=COSINE, tau=1.0, alpha=5.0)
        Xq, Xd = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
        p, towers = enc.params(), ("q",) if shared else ("q", "d")
        for t in towers:
            p[f"{t}.b1"][0], p[f"{t}.w2"][0] = 50.0, 0.0
        _, _, dQ, dD = _step_signals(enc, Xq, Xd, cfg)
        v = -np.linalg.lstsq(np.vstack([dQ, dD]), np.ones(8), rcond=None)[0]
        for t in towers:
            p[f"{t}.w2"][0], p[f"{t}.b2"][...] = v, -v
        Hq, Hd, dQ, dD = _step_signals(enc, Xq, Xd, cfg)
        for H, dY in ((Hq, dQ), (Hd, dD)):
            addends = (dY @ v) * (1.0 - H[:, 0] * H[:, 0])
            assert np.all(addends == 0.0) and np.all(np.signbit(addends))

        # numpy's add.reduce starts from +0.0, so it sums them to +0.0, as
        # the sum into zeros does.
        _, got = loss_and_grads(enc, Xq, Xd, cfg)
        _, want = _pre_change_loss_and_grads(enc, Xq, Xd, cfg)
        assert got.tobytes() == want.tobytes()
        for t in towers:
            assert enc.params(got)[f"{t}.b1"][0] == 0.0 and not np.signbit(enc.params(got)[f"{t}.b1"][0])

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        lengths=st.lists(st.integers(1, 40) | st.just(1), min_size=2, max_size=80),
        batch_size=st.integers(2, 40),
    )
    def test_one_draw_per_epoch_is_the_per_batch_draws(self, seed, lengths, batch_size):
        # After the epoch's permutation, one rng.integers over the permuted
        # list lengths draws what one call per _batch_layout chunk drew, and
        # leaves the generator where those calls leave it.
        lengths = np.array(lengths, dtype=np.int64)
        per_batch = np.random.default_rng(seed)
        order = per_batch.permutation(len(lengths))
        expect, offset = [], 0
        for size in model._batch_layout(len(lengths), batch_size):
            expect += per_batch.integers(lengths[order[offset : offset + size]]).tolist()
            offset += size
        per_epoch = np.random.default_rng(seed)
        assert per_epoch.integers(lengths[per_epoch.permutation(len(lengths))]).tolist() == expect
        assert per_epoch.bit_generator.state == per_batch.bit_generator.state


def _step_signals(enc, Xq, Xd, cfg):
    """(Hq, Hd, dLoss/dQ, dLoss/dD) of one batch: what the towers' backward passes take."""
    p = enc.params()
    Q, Hq = model._forward_cached(p, "q", Xq)
    D, Hd = model._forward_cached(p, "q" if enc.shared else "d", Xd)
    g = infonce_grad(ContrastiveBatch(Q, D), cfg)
    return Hq, Hd, g.d_queries, g.d_positives


def _assert_same_training(got, want):
    """Two (result, evaluations) pairs agree on every log row, every evaluation's state and the final theta."""
    (got, got_evals), (want, want_evals) = got, want
    assert [dataclasses.astuple(r) for r in got.log] == [dataclasses.astuple(r) for r in want.log]
    assert _bytes(got_evals) == _bytes(want_evals)
    assert got.encoder.theta.tobytes() == want.encoder.theta.tobytes()


class TestTraining:
    @pytest.mark.parametrize(
        "kind,per_step",
        [(COSINE, 2), (DOT, 0), (QNORM, 1), (DNORM, 1), (learnable(0.5, 0.5), 2)],
        ids=["cosine", "dot", "qnorm", "dnorm", "learnable"],
    )
    def test_norms_per_step(self, kind, per_step, monkeypatch):
        # A step takes a side's row norms once, and only if that side divides
        # by them or the kind is learnable; an evaluation takes one per side,
        # shared by its scores and its magnitude columns.
        task = gen_asymmetric(TINY)
        enc = init_encoder(8, 16, 8, False, seed=7)
        real, calls = np.linalg.norm, []

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        result = train(task, enc, _tiny_cfg(kind=kind, epochs=2, eval_every=10**9))
        steps = result.log[-1].step
        assert [row.step for row in result.log] == [0, steps]
        assert len(calls) == steps * per_step + 2 * len(result.log)

    def test_each_evaluation_ranks_through_rank_split(self, monkeypatch):
        # Training's evaluation is the one eval/sweep use: every trainlog row
        # comes from one model.rank_split call over the val split, top 10 only.
        task = gen_asymmetric(TINY)
        real, calls = model.rank_split, []

        def counting(encoder, task, kind, table, depth=None):
            calls.append((table.query_ids, depth))
            return real(encoder, task, kind, table, depth)

        monkeypatch.setattr(model, "rank_split", counting)
        result = train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(epochs=3, eval_every=4))
        assert len(calls) == len(result.log) == 4
        assert calls == [(task.split_queries("val"), 10)] * len(result.log)

    def test_bit_deterministic(self):
        task = gen_asymmetric(TINY)
        _assert_same_training(_train_evals(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg()),
                              _train_evals(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg()))

    def test_learns_the_tiny_task(self):
        task = gen_asymmetric(TINY)
        result = train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(epochs=8))
        assert result.log[-1].loss < result.log[0].loss
        assert result.log[-1].val_ndcg10 > result.log[0].val_ndcg10

    def test_eval_grid(self):
        task = gen_asymmetric(TINY)
        cfg = _tiny_cfg(epochs=3, eval_every=4)
        result = train(task, init_encoder(8, 16, 8, False, seed=7), cfg)
        # 102 train queries at batch 32 is 4 chunks/epoch, 12 steps total.
        steps = [row.step for row in result.log]
        assert steps == [0, 4, 8, 12]
        assert all(a < b for a, b in zip(steps, steps[1:]))

    def test_final_partial_step_is_recorded(self):
        task = gen_asymmetric(TINY)
        cfg = _tiny_cfg(epochs=2, eval_every=5)
        result = train(task, init_encoder(8, 16, 8, False, seed=7), cfg)
        assert [row.step for row in result.log] == [0, 5, 8]

    def test_learnable_logs_sigmoid_gammas(self):
        task = gen_asymmetric(TINY)
        cfg = _tiny_cfg(kind=learnable(0.5, 0.5), epochs=2)
        result = train(task, init_encoder(8, 16, 8, False, seed=7), cfg)
        assert result.log[0].gamma_q == 0.5 and result.log[0].gamma_d == 0.5
        for row in result.log:
            assert 0.0 < row.gamma_q < 1.0 and 0.0 < row.gamma_d < 1.0
        first, last = result.log[0], result.log[-1]
        assert (first.gamma_q, first.gamma_d) != (last.gamma_q, last.gamma_d)

    def test_spelled_learnable_gammas_are_the_start(self):
        task = gen_asymmetric(TINY)
        cfg = _tiny_cfg(kind=learnable(0.3, 0.8), epochs=1)
        result = train(task, init_encoder(8, 16, 8, False, seed=7), cfg)
        assert abs(result.log[0].gamma_q - 0.3) <= 1e-12
        assert abs(result.log[0].gamma_d - 0.8) <= 1e-12

    def test_fixed_kind_logs_corner_gammas(self):
        task = gen_asymmetric(TINY)
        result = train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(epochs=1))
        assert result.log[0].gamma_q == 0.0 and result.log[0].gamma_d == 0.0

    def test_batch_layout_never_leaves_singletons(self):
        from magnorm.model import _batch_layout

        assert _batch_layout(5, 2) == [2, 3]
        assert _batch_layout(7, 3) == [3, 2, 2]
        assert _batch_layout(6, 3) == [3, 3]
        assert _batch_layout(2, 64) == [2]
        for n in range(2, 40):
            for b in range(2, 12):
                sizes = _batch_layout(n, b)
                assert sum(sizes) == n and min(sizes) >= 2
        with pytest.raises(DegenerateBatch):
            _batch_layout(1, 4)
        with pytest.raises(DegenerateBatch):
            _batch_layout(8, 1)

    def test_odd_split_with_batch_two(self):
        # 103 train queries at batch 2: the trailing singleton merges into
        # its neighbor, so every in-batch chunk still has a negative.
        spec = TaskSpec(**{**TINY.__dict__, "n_queries": 129})
        task = gen_asymmetric(spec)
        assert len(task.split_queries("train")) == 103
        cfg = _tiny_cfg(epochs=1, batch_size=2, eval_every=1000)
        result = train(task, init_encoder(8, 0, 8, False, seed=7), cfg)
        assert result.log[-1].step == 51

    def test_oversized_batch_rejected(self):
        task = gen_asymmetric(TINY)
        with pytest.raises(DegenerateBatch):
            train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(batch_size=4096))

    def test_train_query_without_relevant_doc_rejected_before_step_0(self, monkeypatch):
        # A train query judged only grade 0 has no positive to draw; the
        # epoch's draw used to fail with numpy's "high <= 0".
        task = gen_asymmetric(TINY)
        first, second = task.split_queries("train")[3:5]
        for qid in (second, first):
            task.qrels[qid] = {d: 0 for d in task.qrels[qid]}
        steps = []
        monkeypatch.setattr(model, "loss_and_grads", lambda *a, **k: steps.append(1))
        # The second call reads the task's memoized index, and raises too.
        for _ in range(2):
            with pytest.raises(DegenerateBatch, match=f"train query '{first}' has no relevant doc"):
                train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg())
        assert steps == []

    def test_empty_val_split_rejected_before_step_0(self, monkeypatch):
        # With no val query every val_ndcg10 read 0, and step 0's untrained
        # parameters were selected.
        task = gen_asymmetric(dataclasses.replace(TINY, splits=(0.9, 0.0, 0.1)))
        assert task.split_queries("val") == []
        steps = []
        monkeypatch.setattr(model, "loss_and_grads", lambda *a, **k: steps.append(1))
        with pytest.raises(DegenerateBatch, match="val split has no queries"):
            train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg())
        assert steps == []

    def test_divergence_raises_non_finite_loss(self):
        task = gen_asymmetric(TINY)
        cfg = _tiny_cfg(lr=1e200, epochs=2)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
            train(task, init_encoder(8, 16, 8, False, seed=7), cfg)

    def test_non_finite_gradient_raises_at_its_step(self, monkeypatch):
        # An inf gradient entry at step 3 raises there, before the update:
        # theta is what step 3's loss_and_grads saw.
        task = gen_asymmetric(TINY)
        real = model.loss_and_grads
        seen = []

        def inf_at_step_3(encoder, *args):
            loss, grad = real(encoder, *args)
            seen.append(encoder.theta.copy())
            if len(seen) == 4:
                grad[3] = np.inf
            return loss, grad

        monkeypatch.setattr(model, "loss_and_grads", inf_at_step_3)
        enc = init_encoder(8, 16, 8, False, seed=7)
        with pytest.raises(NonFiniteLoss) as info:
            train(task, enc, _tiny_cfg())
        assert info.value.step == 3 and info.value.what == "gradient norm"
        assert len(seen) == 4
        assert enc.theta.tobytes() == seen[3].tobytes()
        assert not np.array_equal(seen[3], seen[2])

    def test_positives_are_the_per_query_scalar_draws(self, monkeypatch):
        # The batches train feeds loss_and_grads, against the loop it
        # replaced: one permutation per epoch, then one scalar draw per
        # query of the chunk over relevant_of's sorted list.
        task = gen_asymmetric(TINY)
        cfg = _tiny_cfg(epochs=2)
        real = model.loss_and_grads
        seen = []

        def record(encoder, Xq, Xd, *args, **kwargs):
            seen.append((Xq.copy(), Xd.copy()))
            return real(encoder, Xq, Xd, *args, **kwargs)

        monkeypatch.setattr(model, "loss_and_grads", record)
        train(task, init_encoder(8, 16, 8, False, seed=7), cfg)
        qids = task.split_queries("train")
        assert max(len(task.relevant_of(q)) for q in qids) > 1
        rng = np.random.default_rng(cfg.seed)
        expect = []
        for _ in range(cfg.epochs):
            order = rng.permutation(len(qids))
            offset = 0
            for size in model._batch_layout(len(qids), cfg.batch_size):
                chunk = order[offset : offset + size]
                offset += size
                docs = []
                for i in chunk:
                    rel = task.relevant_of(qids[i])
                    docs.append(rel[int(rng.integers(len(rel)))])
                expect.append(([task.query_row(qids[i]) for i in chunk], [task.doc_row(d) for d in docs]))
        assert len(seen) == len(expect)
        for (Xq, Xd), (q_rows, d_rows) in zip(seen, expect):
            assert np.array_equal(Xq, task.query_features[q_rows])
            assert np.array_equal(Xd, task.doc_features[d_rows])

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        lengths=st.lists(st.integers(1, 40) | st.just(1), min_size=1, max_size=80),
    )
    def test_one_positive_draw_per_batch_is_the_per_query_draws(self, seed, lengths):
        # One rng.integers over a run of list lengths (train makes one per
        # epoch) must be the scalar draw per query, in order, and leave the
        # generator where those leave it.
        scalar = np.random.default_rng(seed)
        expect = [int(scalar.integers(n)) for n in lengths]
        batched = np.random.default_rng(seed)
        assert batched.integers(np.array(lengths, dtype=np.int64)).tolist() == expect
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_gamma_lr_override_changes_gamma_path_only(self):
        task = gen_asymmetric(TINY)
        base = _tiny_cfg(kind=learnable(0.5, 0.5), epochs=1)
        slow = _tiny_cfg(kind=learnable(0.5, 0.5), epochs=1, gamma_lr=1e-6)
        rb = train(task, init_encoder(8, 16, 8, False, seed=7), base)
        rs = train(task, init_encoder(8, 16, 8, False, seed=7), slow)
        # The last log row holds the final step's gammas, which start at 0.5.
        db = abs(rb.log[-1].gamma_q - 0.5) + abs(rb.log[-1].gamma_d - 0.5)
        ds = abs(rs.log[-1].gamma_q - 0.5) + abs(rs.log[-1].gamma_d - 0.5)
        assert ds < db


class TestTaskMemo:
    """train reads the train split's positives and the val grade table from the task's per-split memos."""

    def test_second_training_rebuilds_nothing(self, monkeypatch):
        task = gen_asymmetric(TINY)
        relevant_of, tables = [], []
        real_relevant_of, real_table = SyntheticTask.relevant_of, datagen.GradeTable

        def counting_relevant_of(self, query_id):
            relevant_of.append(query_id)
            return real_relevant_of(self, query_id)

        def counting_table(*args):
            tables.append(args[0])
            return real_table(*args)

        monkeypatch.setattr(SyntheticTask, "relevant_of", counting_relevant_of)
        monkeypatch.setattr(datagen, "GradeTable", counting_table)
        train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(epochs=1))
        assert len(relevant_of) == len(task.split_queries("train"))
        assert tables == [task.split_queries("val")]
        relevant_of.clear(), tables.clear()
        train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(kind=COSINE, epochs=1))
        assert relevant_of == [] and tables == []

    @pytest.mark.parametrize("first", [DOT, learnable(0.3, 0.8)], ids=["dot", "learnable"])
    def test_training_after_another_is_a_fresh_task_training(self, first):
        # A training that wrote into the shared index or grade table would
        # change every later training on the task.
        task = gen_asymmetric(TINY)
        train(task, init_encoder(8, 16, 8, False, seed=3), _tiny_cfg(kind=first, epochs=3, eval_every=2))
        for kind in (COSINE, QNORM):
            cfg = _tiny_cfg(kind=kind, epochs=2, batch_size=7, eval_every=5)
            _assert_same_training(_train_evals(task, init_encoder(8, 16, 8, False, seed=7), cfg),
                                  _train_evals(gen_asymmetric(TINY), init_encoder(8, 16, 8, False, seed=7), cfg))

    def test_memo_arrays_are_read_only(self):
        index = gen_asymmetric(TINY).positive_index("train")
        for array in index[1:]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def _forced_vals(monkeypatch, kind, vals):
    """A training evaluated at steps 0, 4, 8 and 12 whose val_ndcg10 are vals, forced through model.macro_mean."""
    forced = iter(vals)
    monkeypatch.setattr(model, "macro_mean", lambda values: next(forced))
    task = gen_asymmetric(TINY)
    cfg = _tiny_cfg(kind=kind, epochs=3, eval_every=4)
    result, evals = _train_evals(task, init_encoder(8, 16, 8, False, seed=7), cfg)
    assert [(row.step, row.val_ndcg10) for row in result.log] == list(zip([0, 4, 8, 12], vals))
    return result, evals


def _assert_best_is_evaluation(result, evals, kind, i):
    """result.best is the state of evaluation i: its parameters, its step and its log row's loss."""
    best, k = result.best, result.encoder.theta.size
    theta, eval_kind = evals[i]
    assert (best.step, best.loss) == (result.log[i].step, result.log[i].loss)
    assert best.params[:k].tobytes() == theta.tobytes() and trained_kind(kind, best.params[k:]) == eval_kind
    assert best.params.size == k + 2 * (kind.tag == "learnable") and best.moments.shape == (2, best.params.size)


class TestSelectionAndSnapshots:
    """train's running best, checked against the snapshot (theta, kind) taken at each evaluation."""

    def test_max_val_wins(self, monkeypatch):
        for kind in (DOT, learnable(0.5, 0.5)):
            for vals, i in (([0.2, 0.9, 0.5, 0.3], 1), ([0.1, 0.2, 0.3, 0.4], 3)):
                _assert_best_is_evaluation(*_forced_vals(monkeypatch, kind, vals), kind, i)

    def test_tie_goes_to_earliest(self, monkeypatch):
        for kind in (DOT, learnable(0.5, 0.5)):
            for vals, i in (([0.2, 0.8, 0.5, 0.8], 1), ([0.5, 0.5, 0.5, 0.5], 0)):
                _assert_best_is_evaluation(*_forced_vals(monkeypatch, kind, vals), kind, i)

    def test_snapshot_val_is_its_log_row(self):
        # Selection compares the floats in the log, so each evaluation's
        # parameters must score exactly its row's val_ndcg10 again.
        task = gen_asymmetric(TINY)
        result, evals = _train_evals(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(epochs=2, eval_every=2))
        assert len(evals) == len(result.log)
        for (theta, kind), row in zip(evals, result.log):
            result.encoder.theta[...] = theta
            assert validation_ndcg(result.encoder, task, kind) == row.val_ndcg10

    def test_evaluations_keep_no_parameter_copy(self):
        # The running best is two buffers allocated once, so evaluating at
        # every one of the 8 steps peaks no higher than evaluating at the
        # first and the last; a parameter copy kept per evaluation would add 7.
        task = gen_asymmetric(TINY)
        peaks = []
        for eval_every in (1, 10**9):
            enc = init_encoder(8, 256, 64, False, seed=7)
            tracemalloc.start()
            try:
                train(task, enc, _tiny_cfg(epochs=2, eval_every=eval_every))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] - peaks[1] < 2 * enc.theta.nbytes

    @pytest.mark.parametrize("kind", [DOT, learnable(0.5, 0.5)], ids=["dot", "learnable"])
    def test_restore_rewinds_parameters(self, monkeypatch, kind):
        # Written into the encoder, best.params score the val_ndcg10 logged
        # at best.step, both for the selected step and for step 5, which the
        # training moved on from (steps 0, 5, 8).
        task = gen_asymmetric(TINY)
        for forced in (None, 5):
            if forced is not None:
                _select_step(monkeypatch, forced)
            result = train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(kind=kind, epochs=2))
            best, k = result.best, result.encoder.theta.size
            if forced is not None:
                assert best.step == forced and result.encoder.theta.tobytes() != best.params[:k].tobytes()
            result.encoder.theta[...] = best.params[:k]
            row = next(r for r in result.log if r.step == best.step)
            assert validation_ndcg(result.encoder, task, trained_kind(kind, best.params[k:])) == row.val_ndcg10


def _select_step(monkeypatch, step):
    """Make train's running best the evaluation at the given step."""
    monkeypatch.setattr(model, "_selection_key", lambda row: (row.step == step, -row.step))


class TestResume:
    """train from a TrainState continues the uninterrupted run bit for bit."""

    @pytest.mark.parametrize(
        "kind, gamma_lr",
        [(COSINE, None), (DOT, None), (QNORM, None), (DNORM, None), (learnable(0.3, 0.8), None),
         (learnable(0.3, 0.8), 0.05)],
        ids=["cosine", "dot", "qnorm", "dnorm", "learnable", "learnable-gamma_lr"],
    )
    def test_resume_matches_the_uninterrupted_run(self, tmp_path, monkeypatch, kind, gamma_lr):
        # 102 train queries at batch 32 make 4 batches an epoch, 12 steps in
        # all; eval_every 2 evaluates mid-epoch (2, 6, 10) and at epoch ends
        # (4, 8, 12).  Each start state comes from an uninterrupted run whose
        # running best is forced to that step, and passes through a
        # checkpoint file; each run's best is forced to the final step, so
        # the final moments and generator state are compared too.
        task = gen_asymmetric(TINY)
        cfg = _tiny_cfg(kind=kind, epochs=3, eval_every=2, gamma_lr=gamma_lr)

        def run(at, state=None, encoder=None):
            _select_step(monkeypatch, at)
            return _train_evals(task, encoder or init_encoder(8, 16, 8, False, seed=7), cfg, state)

        full, full_evals = run(12)
        assert [row.step for row in full.log] == [0, 2, 4, 6, 8, 10, 12]
        k = full.encoder.theta.size
        for step in (0, 2, 4, 12):
            start = run(step)[0].best
            path = tmp_path / f"ckpt_{step}.json"
            save_checkpoint(path, init_encoder(8, 16, 8, False, seed=7), start, {"kind": kind_name(kind), "seed": 0})
            enc, _, loaded, _ = load_checkpoint(path)
            assert (loaded.step, loaded.rng, loaded.loss) == (start.step, start.rng, start.loss) == (
                step, start.rng, full.log[step // 2].loss)
            assert loaded.params.tobytes() == start.params.tobytes()
            assert loaded.moments.tobytes() == start.moments.tobytes()
            if step == 0:
                assert start.rng == np.random.default_rng(cfg.seed).bit_generator.state
                assert not start.moments.any()
            resumed, resumed_evals = run(12, loaded, enc)
            assert [dataclasses.astuple(r) for r in resumed.log] == [
                dataclasses.astuple(r) for r in full.log if r.step >= step
            ]
            assert _bytes(resumed_evals) == _bytes(e for e, r in zip(full_evals, full.log) if r.step >= step)
            assert resumed.encoder is enc and enc.theta.tobytes() == full.encoder.theta.tobytes()
            assert resumed.best.params.tobytes() == full.best.params.tobytes()
            assert resumed.best.params[k:].size == 2 * (kind.tag == "learnable")
            assert resumed.best.moments.tobytes() == full.best.moments.tobytes()
            assert (resumed.best.step, resumed.best.rng, resumed.best.loss) == (
                12, full.best.rng, full.best.loss)

    def test_best_is_the_selected_snapshots_state(self):
        # Unforced: best is the evaluation with the highest val_ndcg10, the
        # earliest on a tie, and holds a copy, not the live parameters.
        task = gen_asymmetric(TINY)
        result, evals = _train_evals(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(epochs=3, eval_every=2))
        i = max(range(len(result.log)), key=lambda j: (result.log[j].val_ndcg10, -j))
        _assert_best_is_evaluation(result, evals, DOT, i)
        assert not np.shares_memory(result.best.params, result.encoder.theta)

    def test_state_of_another_size_is_refused(self):
        # Under learnable a state is theta plus two logits; under dot theta alone.
        task = gen_asymmetric(TINY)
        state = train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(kind=learnable(0.3, 0.8), epochs=1)).best
        for kind, bad in [(DOT, state),
                          (learnable(0.3, 0.8), dataclasses.replace(state, params=state.params[:-2])),
                          (learnable(0.3, 0.8), dataclasses.replace(state, moments=state.moments[:, :-2]))]:
            with pytest.raises(ValueError, match="do not fit"):
                train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(kind=kind, epochs=1), bad)

    @pytest.mark.parametrize("step", [-1, 5])
    def test_step_outside_the_run_is_refused(self, step):
        task = gen_asymmetric(TINY)
        enc = init_encoder(8, 16, 8, False, seed=7)
        with pytest.raises(ValueError, match=rf"state step {step} outside \[0, 4\]"):
            train(task, enc, _tiny_cfg(epochs=1), _state(enc.theta, step))


class TestSerialization:
    def test_trainlog_header_and_rows(self, tmp_path):
        task = gen_asymmetric(TINY)
        result = train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(epochs=1))
        path = tmp_path / "log.csv"
        write_trainlog_csv(path, result.log)
        lines = path.read_text().splitlines()
        assert lines[0] == TRAINLOG_HEADER
        assert TRAINLOG_HEADER == (
            "step,loss,val_ndcg10,gamma_q,gamma_d,q_mag_mean,q_mag_cv,d_mag_mean,d_mag_cv"
        )
        assert len(lines) == 1 + len(result.log)
        assert lines[1].split(",")[0] == "0"

    def test_checkpoint_round_trip(self, tmp_path):
        # Every float of the state comes back with its bits, the moments, the
        # gamma logits and the loss included.
        enc = init_encoder(6, 8, 4, shared=False, seed=11)
        rng = np.random.default_rng(3)
        params = np.concatenate([enc.theta, [0.25, -1.5]])
        moments = np.stack([rng.standard_normal(params.size), rng.standard_normal(params.size) ** 2])
        moments[0, 0] = -0.0
        state = TrainState(params, moments, 42, rng.bit_generator.state, 0.1 + 0.2)
        path = tmp_path / "ckpt.json"
        echo = {"kind": "learnable:0.3,0.8", "seed": 7}
        save_checkpoint(path, enc, state, config_echo=echo)
        enc2, kind, loaded, echo2 = load_checkpoint(path)
        assert (enc2.m, enc2.h, enc2.n, enc2.shared) == (6, 8, 4, False)
        assert enc2.theta.tobytes() == enc.theta.tobytes()
        assert json.loads(path.read_text())["gamma_hat"] == [0.25, -1.5]
        assert kind == learnable(sigmoid(0.25), sigmoid(-1.5))
        assert echo2 == echo
        assert loaded.params.tobytes() == params.tobytes() and loaded.moments.tobytes() == moments.tobytes()
        assert (loaded.step, loaded.rng, loaded.loss) == (42, state.rng, 0.1 + 0.2)

    @pytest.mark.parametrize(
        "echo, kind",
        [({"kind": "cosine", "seed": 0}, COSINE),
         ({"kind": "learnable:0.3,0.8", "seed": 0}, learnable(sigmoid(0.25), sigmoid(-1.5)))],
        ids=["cosine", "learnable"],
    )
    def test_load_returns_the_trained_kind(self, tmp_path, echo, kind):
        # The echoed kind, and under learnable the sigmoids of the saved
        # gamma_hat, not the echoed starting gammas.
        path = tmp_path / "ckpt.json"
        enc = init_encoder(3, 0, 2, shared=True, seed=0)
        tail = [0.25, -1.5] if kind.tag == "learnable" else []
        save_checkpoint(path, enc, _state(np.concatenate([enc.theta, tail])), echo)
        assert load_checkpoint(path)[1] == kind

    @pytest.mark.parametrize("echo", [None, {"seed": 0}, {"kind": "dot"}], ids=["no-config", "no-kind", "no-seed"])
    def test_echo_without_kind_or_seed_is_corrupt_artifact(self, tmp_path, echo):
        # Every checkpoint cli writes echoes both; none is filled in by default.
        path = tmp_path / "ckpt.json"
        enc = init_encoder(3, 0, 2, shared=True, seed=0)
        save_checkpoint(path, enc, _state(enc.theta), ECHO if echo is None else echo)
        payload = json.loads(path.read_text())
        if echo is None:
            del payload["config"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptArtifact, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", [DOT, learnable(0.3, 0.8)], ids=["dot", "learnable"])
    def test_checkpoint_gamma_hat_is_the_restored_tail(self, tmp_path, monkeypatch, kind):
        # A fixed kind has no tail and writes [0.0, 0.0]; a learnable kind
        # writes the two logits of the state it saves, here the best state,
        # forced to the evaluation one before the last (steps 0, 5, 8).
        _select_step(monkeypatch, 5)
        task = gen_asymmetric(TINY)
        result = train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(kind=kind, epochs=2))
        best, k = result.best, result.encoder.theta.size
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, result.encoder, best, {"kind": kind_name(kind), "seed": 0})
        written = json.loads(path.read_text())["gamma_hat"]
        if kind.tag == "learnable":
            at_5, last = [(row.gamma_q, row.gamma_d) for row in result.log[1:]]
            assert written == best.params[k:].tolist() and tuple(map(sigmoid, written)) == at_5 != last
        else:
            assert best.params.size == k and written == [0.0, 0.0]

    def test_checkpoint_is_plain_json(self, tmp_path):
        # Standard base64 of little-endian float64 bytes, row-major, which
        # the stdlib decodes without magnorm.
        enc = init_encoder(3, 0, 2, shared=True, seed=0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, enc, _state(enc.theta), config_echo=ECHO)
        payload = json.loads(path.read_text())
        assert set(payload) == {"format", "m", "h", "n", "shared", "weights", "gamma_hat", "moments", "step",
                                "rng", "loss", "config"}
        assert payload["format"] == 2
        assert set(payload["weights"]) == {"q.w1", "q.b1"}
        w1 = np.frombuffer(base64.b64decode(payload["weights"]["q.w1"], validate=True), dtype="<f8")
        assert w1.tobytes() == enc.params()["q.w1"].tobytes()
        moments = base64.b64decode(payload["moments"], validate=True)
        assert moments == bytes(16 * enc.theta.size)
        assert payload["rng"] == np.random.default_rng(0).bit_generator.state

    def test_corrupt_weights_rejected(self, tmp_path):
        enc = init_encoder(3, 0, 2, shared=True, seed=0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, enc, _state(enc.theta), config_echo=ECHO)
        payload = json.loads(path.read_text())
        payload["weights"]["q.w1"] = _blob([1.0, 2.0])
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptArtifact):
            load_checkpoint(path)

    def test_declared_dims_allocate_nothing(self, tmp_path):
        # An encoder of the declared dims would take about 100 MB; each
        # weight's size is checked against the layout's shapes instead.
        m, h, n = 10**5, 64, 32
        path = tmp_path / "ckpt.json"
        enc = init_encoder(3, 0, 2, shared=True, seed=0)
        save_checkpoint(path, enc, _state(enc.theta), config_echo=ECHO)
        path.write_text(json.dumps({
            **json.loads(path.read_text()), "m": m, "h": h, "n": n, "shared": False,
            "weights": {name: _blob([0.0]) for name, _ in param_layout(m, h, n, False)},
        }))
        tracemalloc.start()
        try:
            message = rf"weight q.w1: 8 bytes, expected {8 * m * h} \({m * h} floats\)$"
            with pytest.raises(CorruptArtifact, match=message):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


    @pytest.mark.parametrize("kind", ["dot", "learnable:0.3,0.8"])
    def test_moments_length_follows_the_kind(self, tmp_path, kind):
        # P is theta's K entries, plus the two gamma logits under learnable.
        enc = init_encoder(3, 0, 2, shared=True, seed=0)
        k, path = enc.theta.size, tmp_path / "ckpt.json"
        p = k + 2 * kind.startswith("learnable")
        save_checkpoint(path, enc, _state(np.concatenate([enc.theta, [0.0, 0.0][: p - k]])), {"kind": kind, "seed": 0})
        assert load_checkpoint(path)[2].moments.shape == (2, p)
        payload = json.loads(path.read_text())
        for wrong in (2 * k + 4 - 2 * (p - k), 2 * p - 1):
            path.write_text(json.dumps({**payload, "moments": _blob(np.zeros(wrong))}))
            with pytest.raises(CorruptArtifact, match=rf"moments: {8 * wrong} bytes, expected {16 * p}"):
                load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value",
        [("step", "3"), ("m", 3.0), ("shared", 1), ("n", 0), ("config", []), ("gamma_hat", [0.5]),
         ("weights", None), ("weights", {"q.w1": _blob([0.0] * 6)}),
         ("weights", {"q.w1": "abcdef", "q.b1": _blob([0, 0])}),
         ("format", "2"), ("format", 2.0), ("moments", [0.0] * 16), ("rng", None), ("loss", 1), ("loss", "0.5")],
    )
    def test_ill_typed_key_is_corrupt_artifact(self, tmp_path, key, value):
        path = tmp_path / "ckpt.json"
        enc = init_encoder(3, 0, 2, shared=True, seed=0)
        save_checkpoint(path, enc, _state(enc.theta), ECHO)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        with pytest.raises(CorruptArtifact, match=re.escape(str(path))):
            load_checkpoint(path)

class TestRankSplit:
    def test_covers_split_queries_and_corpus(self):
        task = gen_asymmetric(TINY)
        enc = init_encoder(8, 16, 8, False, seed=7)
        table = task.grade_table("test")
        assert table.query_ids == task.split_queries("test") and table.doc_ids == task.doc_ids
        ranking, (nq, nd) = rank_split(enc, task, COSINE, table)
        assert ranking.table is table
        # Each query's row ranks every corpus column once.
        assert all(sorted(cols) == list(range(len(task.doc_ids))) for cols in ranking.order.tolist())
        # The norms are each side's rows', in the table's query order and the corpus order.
        Q = forward(enc, task.query_features[[task.query_row(q) for q in table.query_ids]], "query")
        assert nq.tobytes() == np.linalg.norm(Q, axis=1).tobytes()
        assert nd.tobytes() == np.linalg.norm(forward(enc, task.doc_features, "doc"), axis=1).tobytes()
        top, _ = rank_split(enc, task, COSINE, table, depth=10)
        assert top.order.tolist() == ranking.order[:, :10].tolist()

    @pytest.mark.parametrize(
        "kind", [COSINE, DOT, QNORM, DNORM, learnable(0.5, 0.5)], ids=lambda k: k.tag
    )
    def test_validation_ndcg_equals_the_per_query_oracle(self, kind):
        # Every evaluation of a short training, through the oracle path the
        # matrix evaluator replaced: ranked_list per query, ndcg_at_k, and a
        # sum in query order.  Exact ==, since train's selection compares them.
        task = gen_asymmetric(TINY)
        result, evals = _train_evals(task, init_encoder(8, 16, 8, False, seed=7),
                                     _tiny_cfg(kind=kind, epochs=2, eval_every=2))
        qids = task.split_queries("val")
        assert len(evals) == len(result.log)
        for (theta, step_kind), log_row in zip(evals, result.log):
            result.encoder.theta[...] = theta
            D = forward(result.encoder, task.doc_features, "doc")
            Q = forward(result.encoder, task.query_features[[task.query_row(q) for q in qids]], "query")
            S = similarity_matrix(step_kind, Q, D)
            total = 0.0
            for qid, row in zip(qids, S):
                total += ndcg_at_k(ranked_list(qid, zip(task.doc_ids, row.tolist())), task.qrels, 10)
            assert validation_ndcg(result.encoder, task, step_kind) == total / len(qids)
            assert log_row.val_ndcg10 == total / len(qids)

    def test_sigmoid_is_stable_at_extremes(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0
        assert sigmoid(0.0) == 0.5

    @settings(max_examples=2000, deadline=None)
    @given(
        st.floats(allow_nan=False)
        | st.sampled_from([800.0, -800.0, 0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324])
    )
    def test_sigmoid_is_bitwise_the_array_formula(self, x):
        # The masked array formula the scalar sigmoid replaced, kept as its oracle.
        arr = np.asarray(x, dtype=np.float64)
        out = np.empty_like(arr)
        pos = arr >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
        e = np.exp(arr[~pos])
        out[~pos] = e / (1.0 + e)
        got = sigmoid(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == out.tobytes()
