"""Encoders, the optimizer, and the training loop."""

import json
import math
import re

import numpy as np
import pytest

from magnorm.datagen import TaskSpec, gen_asymmetric
from magnorm.errors import CorruptArtifact, DegenerateBatch, DimensionMismatch, NonFiniteLoss
from magnorm.grad import finite_difference, rel_error
from magnorm.model import (
    TRAINLOG_HEADER,
    GammaParams,
    Snapshot,
    TrainConfig,
    adamw_step,
    clip_by_global_norm,
    forward,
    init_encoder,
    load_checkpoint,
    loss_and_grads,
    lr_at,
    param_layout,
    rank_split,
    restore_snapshot,
    save_checkpoint,
    select_checkpoint,
    sigmoid,
    train,
    validation_ndcg,
    write_trainlog_csv,
)
from magnorm.objective import LossConfig
from magnorm.simcore import COSINE, DOT, learnable

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


class TestEncoderInit:
    def test_deterministic(self):
        a = init_encoder(6, 8, 4, shared=False, seed=5)
        b = init_encoder(6, 8, 4, shared=False, seed=5)
        assert a.layout == b.layout
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
        assert [n for n, _ in enc.layout] == ["q.w1", "q.b1"]
        assert [n for n, _ in param_layout(6, 8, 4, False)] == [
            "q.w1", "q.b1", "q.w2", "q.b2", "d.w1", "d.b1", "d.w2", "d.b2"
        ]
        x = np.ones(4)
        np.testing.assert_array_equal(forward(enc, x, "query"), forward(enc, x, "doc"))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_encoder(0, 4, 2, shared=False, seed=0)
        with pytest.raises(ValueError):
            init_encoder(4, -1, 2, shared=False, seed=0)


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
        np.testing.assert_array_equal(forward(enc, X, "q"), X @ p["q.w1"] + p["q.b1"])
        # Zero biases at init make the map linear: zero in, zero out.
        np.testing.assert_array_equal(forward(enc, np.zeros(5), "q"), np.zeros(3))

    def test_single_vector_round_trip(self):
        enc = init_encoder(5, 7, 3, shared=False, seed=3)
        x = np.arange(5.0)
        y = forward(enc, x, "query")
        assert y.shape == (3,)
        np.testing.assert_array_equal(forward(enc, x[None, :], "query")[0], y)

    def test_rejects_wrong_dim_and_tower(self):
        enc = init_encoder(5, 0, 3, shared=False, seed=3)
        with pytest.raises(DimensionMismatch):
            forward(enc, np.ones(4), "query")
        with pytest.raises(ValueError):
            forward(enc, np.ones(5), "passage")


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

    def test_lr_applies_per_entry(self):
        cfg = _tiny_cfg(weight_decay=0.0)
        theta = np.zeros(2)
        g = np.full(2, 1.0 / math.sqrt(2))
        adamw_step(theta, g, np.zeros((2, 2)), 1, cfg, [1], lr=np.array([0.1, 0.2]))
        assert theta[1] == pytest.approx(2.0 * theta[0], rel=1e-12)

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
        gamma = GammaParams(0.2, -0.3)
        Xq = rng.standard_normal((B, m))
        Xd = rng.standard_normal((B, m))
        cfg = LossConfig(kind=kind, tau=0.9, alpha=5.0)

        learn = kind.tag == "learnable"
        k = enc.theta.size

        def f(flat):
            enc.theta[...] = flat[:k]
            if learn:
                gamma.gamma_hat_q, gamma.gamma_hat_d = float(flat[k]), float(flat[k + 1])
            loss, _ = loss_and_grads(enc, gamma, Xq, Xd, cfg)
            return loss

        x0 = np.append(enc.theta, [gamma.gamma_hat_q, gamma.gamma_hat_d] if learn else [])
        _, analytic = loss_and_grads(enc, gamma, Xq, Xd, cfg)
        numeric = finite_difference(f, x0.copy())
        f(x0)
        assert rel_error(analytic, numeric) <= 1e-6


class TestTraining:
    def test_bit_deterministic(self):
        task = gen_asymmetric(TINY)
        ra = train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg())
        rb = train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg())
        assert ra.log == rb.log
        for sa, sb in zip(ra.snapshots, rb.snapshots):
            assert np.array_equal(sa.params, sb.params)
        assert np.array_equal(ra.encoder.theta, rb.encoder.theta)

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
        assert len(result.snapshots) == len(result.log)

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
        moved = [s.params[-2:] for s in result.snapshots]
        assert not np.array_equal(moved[0], moved[-1])

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

    def test_divergence_raises_non_finite_loss(self):
        task = gen_asymmetric(TINY)
        cfg = _tiny_cfg(lr=1e200, epochs=2)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
            train(task, init_encoder(8, 16, 8, False, seed=7), cfg)

    def test_gamma_lr_override_changes_gamma_path_only(self):
        task = gen_asymmetric(TINY)
        base = _tiny_cfg(kind=learnable(0.5, 0.5), epochs=1)
        slow = _tiny_cfg(kind=learnable(0.5, 0.5), epochs=1, gamma_lr=1e-6)
        rb = train(task, init_encoder(8, 16, 8, False, seed=7), base)
        rs = train(task, init_encoder(8, 16, 8, False, seed=7), slow)
        db = abs(rb.gamma.gamma_hat_q) + abs(rb.gamma.gamma_hat_d)
        ds = abs(rs.gamma.gamma_hat_q) + abs(rs.gamma.gamma_hat_d)
        assert ds < db


class TestSelectionAndSnapshots:
    def _fake(self, steps_vals):
        snaps, log = [], []
        for step, val in steps_vals:
            snaps.append(Snapshot(step=step, params=np.array([float(step)]), val_ndcg10=val))
            log.append(type("Row", (), {"step": step, "val_ndcg10": val})())
        return log, snaps

    def test_max_val_wins(self):
        log, snaps = self._fake([(0, 0.2), (10, 0.9), (20, 0.5)])
        assert select_checkpoint(log, snaps).step == 10

    def test_tie_goes_to_earliest(self):
        log, snaps = self._fake([(0, 0.2), (10, 0.8), (20, 0.8)])
        assert select_checkpoint(log, snaps).step == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_checkpoint([], [])

    @pytest.mark.parametrize("kind", [DOT, learnable(0.5, 0.5)], ids=["dot", "learnable"])
    def test_restore_rewinds_parameters(self, kind):
        task = gen_asymmetric(TINY)
        result = train(task, init_encoder(8, 16, 8, False, seed=7), _tiny_cfg(kind=kind, epochs=2))
        best = select_checkpoint(result.log, result.snapshots)
        # The best snapshot here is the last one, so step 5 is the one that
        # actually rewinds the trained parameters.
        for snap in (result.snapshots[1], best):
            gamma = restore_snapshot(result.encoder, snap)
            assert np.array_equal(result.encoder.theta, snap.params[: result.encoder.theta.size])
            val = validation_ndcg(result.encoder, gamma, task, kind)
            assert val == pytest.approx(snap.val_ndcg10, abs=1e-12)


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
        enc = init_encoder(6, 8, 4, shared=False, seed=11)
        gamma = GammaParams(0.25, -1.5)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, enc, gamma, step=42, config_echo={"kind": "dot", "seed": 7})
        enc2, gamma2, step, echo = load_checkpoint(path)
        assert (enc2.m, enc2.h, enc2.n, enc2.shared) == (6, 8, 4, False)
        assert np.array_equal(enc.theta, enc2.theta)
        assert (gamma2.gamma_hat_q, gamma2.gamma_hat_d) == (0.25, -1.5)
        assert step == 42
        assert echo == {"kind": "dot", "seed": 7}

    def test_checkpoint_is_plain_json(self, tmp_path):
        enc = init_encoder(3, 0, 2, shared=True, seed=0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, enc, GammaParams(), step=0, config_echo={})
        payload = json.loads(path.read_text())
        assert set(payload) == {"m", "h", "n", "shared", "weights", "gamma_hat", "step", "config"}
        assert set(payload["weights"]) == {"q.w1", "q.b1"}

    def test_corrupt_weights_rejected(self, tmp_path):
        enc = init_encoder(3, 0, 2, shared=True, seed=0)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, enc, GammaParams(), step=0, config_echo={})
        payload = json.loads(path.read_text())
        payload["weights"]["q.w1"] = [1.0, 2.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptArtifact):
            load_checkpoint(path)


    @pytest.mark.parametrize(
        "key, value",
        [("step", "3"), ("m", 3.0), ("shared", 1), ("n", 0), ("config", []), ("gamma_hat", [0.5]),
         ("weights", None), ("weights", {"q.w1": [0.0] * 6}), ("weights", {"q.w1": "abcdef", "q.b1": [0, 0]})],
    )
    def test_ill_typed_key_is_corrupt_artifact(self, tmp_path, key, value):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_encoder(3, 0, 2, shared=True, seed=0), GammaParams(), 0, {})
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        with pytest.raises(CorruptArtifact, match=re.escape(str(path))):
            load_checkpoint(path)


class TestRankSplit:
    def test_covers_split_queries_and_corpus(self):
        task = gen_asymmetric(TINY)
        enc = init_encoder(8, 16, 8, False, seed=7)
        runs = rank_split(enc, GammaParams(), task, COSINE, "test")
        assert [r.query_id for r in runs] == task.split_queries("test")
        assert all(sorted(r.doc_ids()) == sorted(task.doc_ids) for r in runs)

    def test_sigmoid_is_stable_at_extremes(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0
        assert sigmoid(0.0) == 0.5
