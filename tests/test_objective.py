"""The InfoNCE objective: frozen values and stability."""

import math

import numpy as np
import pytest

from magnorm import simcore
from magnorm.errors import DegenerateBatch, DimensionMismatch
from magnorm.objective import (
    ContrastiveBatch,
    LossConfig,
    candidate_logits,
    infonce_loss,
    softmax_probs,
)
from magnorm.simcore import COSINE, DNORM, DOT, QNORM, learnable


def plain_cfg(kind=DOT, tau=1.0, alpha=1.0):
    return LossConfig(kind=kind, tau=tau, alpha=alpha)


class TestSoftmaxProbs:
    def test_two_candidate_example(self):
        # Dot scores 1 and 0 at alpha=tau=1 give (e/(e+1), 1/(e+1)).
        q = [1.0, 0.0]
        docs = [[1.0, 0.0], [0.0, 1.0]]
        p = softmax_probs(q, docs, plain_cfg())
        e = math.e
        assert p[0] == pytest.approx(e / (e + 1.0), rel=1e-14)
        assert p[1] == pytest.approx(1.0 / (e + 1.0), rel=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal(6)
        docs = [rng.standard_normal(6) for _ in range(9)]
        p = softmax_probs(q, docs, plain_cfg(alpha=20.0))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (p >= 0.0).all()

    def test_empty_candidates(self):
        with pytest.raises(DegenerateBatch):
            softmax_probs([1.0, 0.0], [], plain_cfg())

    def test_extreme_logits_stay_finite(self):
        # Stability under logits around +-1e4: naive exp would overflow.
        q = [100.0, 0.0]
        docs = [[100.0, 0.0], [-100.0, 0.0]]
        p = softmax_probs(q, docs, plain_cfg())
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0, abs=1e-12)


class TestInfoNCELoss:
    def test_uniform_logits_give_log_k_plus_one(self):
        # Four queries orthogonal to four identical positives: every logit
        # ties, so each positive competes with three equal negatives: ln 4.
        q = np.tile([1.0, 0.0], (4, 1))
        pos = np.tile([0.0, 1.0], (4, 1))
        loss = infonce_loss(ContrastiveBatch(q, pos), plain_cfg())
        assert loss == pytest.approx(math.log(4.0), rel=1e-14)

    def test_worked_two_negative_example(self):
        # Q = P = I_3: s+ = 1 and the two other positives at 0 for every
        # query, so ln(1 + 2 e^-1) ~ 0.55144.
        eye = np.eye(3)
        loss = infonce_loss(ContrastiveBatch(eye, eye), plain_cfg())
        assert loss == pytest.approx(math.log(1.0 + 2.0 * math.exp(-1.0)), rel=1e-12)
        assert loss == pytest.approx(0.55144, abs=5e-6)

    def test_matches_naive_oracle_in_batch(self):
        rng = np.random.default_rng(5)
        Q = rng.standard_normal((6, 4))
        D = rng.standard_normal((6, 4))
        for kind in (COSINE, DOT, QNORM, DNORM, learnable(0.4, 0.6)):
            cfg = LossConfig(kind=kind, tau=0.7, alpha=3.0)
            batch = ContrastiveBatch(Q, D)
            naive = 0.0
            for i in range(6):
                z = np.array(
                    [cfg.alpha * simcore.similarity(kind, Q[i], D[j]) / cfg.tau for j in range(6)]
                )
                naive += -math.log(math.exp(z[i]) / np.exp(z).sum())
            naive /= 6.0
            assert infonce_loss(batch, cfg) == pytest.approx(naive, rel=1e-10)

    def test_in_batch_needs_two(self):
        with pytest.raises(DegenerateBatch):
            ContrastiveBatch(np.ones((1, 3)), np.ones((1, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ContrastiveBatch(np.ones((2, 3)), np.ones((2, 4)))

    def test_alpha_over_tau_is_the_effective_scale(self):
        rng = np.random.default_rng(9)
        Q, D = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        a = infonce_loss(ContrastiveBatch(Q, D), LossConfig(kind=DOT, tau=2.0, alpha=10.0))
        b = infonce_loss(ContrastiveBatch(Q, D), LossConfig(kind=DOT, tau=1.0, alpha=5.0))
        assert a == pytest.approx(b, rel=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            Q, D = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
            assert infonce_loss(ContrastiveBatch(Q, D), plain_cfg(alpha=20.0)) >= 0.0


class TestCandidateLogits:
    def test_in_batch_pool_is_positives(self):
        rng = np.random.default_rng(2)
        Q, D = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        logits = candidate_logits(ContrastiveBatch(Q, D), plain_cfg(alpha=2.0))
        assert logits.shape == (3, 3)
        assert logits[1, 2] == pytest.approx(2.0 * simcore.similarity(DOT, Q[1], D[2]), rel=1e-14)


class TestEffectiveTemperature:
    def test_learnable_interpolates(self):
        """With gamma_d = 1 the query keeps |q|^(1 - gamma_q): cosine at tau / |q|^(1 - gamma_q)."""
        rng = np.random.default_rng(29)
        for _ in range(100):
            q = rng.standard_normal(5) * rng.lognormal(0.0, 0.7)
            docs = [rng.standard_normal(5) * rng.lognormal(0.0, 0.7) for _ in range(8)]
            carrier = np.linalg.norm(q) ** 0.5
            p_learn = softmax_probs(q, docs, LossConfig(kind=learnable(0.5, 1.0), tau=0.5, alpha=1.0))
            p_cos = softmax_probs(q, docs, LossConfig(kind=COSINE, tau=0.5 / carrier, alpha=1.0))
            np.testing.assert_allclose(p_learn, p_cos, atol=1e-12, rtol=0.0)

    def test_dnorm_softmax_equals_cosine_at_scaled_tau(self):
        """Per-query softmax under dnorm at tau matches cosine at tau/|q|."""
        rng = np.random.default_rng(23)
        for _ in range(300):
            dim = int(rng.integers(2, 9))
            q = rng.standard_normal(dim) * rng.lognormal(0.0, 0.7)
            docs = [rng.standard_normal(dim) * rng.lognormal(0.0, 0.7) for _ in range(8)]
            nq = np.linalg.norm(q)
            p_dnorm = softmax_probs(q, docs, LossConfig(kind=DNORM, tau=0.05, alpha=1.0))
            p_cos = softmax_probs(q, docs, LossConfig(kind=COSINE, tau=0.05 / nq, alpha=1.0))
            np.testing.assert_allclose(p_dnorm, p_cos, atol=1e-12, rtol=0.0)


class TestConfigValidation:
    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            LossConfig(kind=DOT, tau=0.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            LossConfig(kind=DOT, alpha=-1.0)
