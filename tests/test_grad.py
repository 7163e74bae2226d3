"""Analytic gradients against finite differences and spectral identities."""

import json
import math

import numpy as np
import pytest

from magnorm import simcore
from magnorm.errors import NonFiniteEvaluation, ZeroMagnitude
from magnorm.grad import (
    finite_difference,
    gradcheck,
    infonce_grad,
    normalization_jacobian,
    rel_error,
    sim_grad,
    tangent_projector,
)
from magnorm.objective import ContrastiveBatch, LossConfig
from magnorm.simcore import COSINE, DNORM, DOT, QNORM, learnable

ALL_KINDS = (COSINE, DOT, QNORM, DNORM, learnable(0.3, 0.8))


class TestSimGradFrozen:
    def test_dot_query_gradient_is_document(self):
        g = sim_grad(DOT, [1.0, 2.0], [5.0, -1.0])
        np.testing.assert_array_equal(g.d_q, [5.0, -1.0])
        np.testing.assert_array_equal(g.d_d, [1.0, 2.0])

    def test_gamma_gradient_at_norm_e(self):
        # |q| = e makes d_gamma_q = -ln|q| * s = -s exactly.
        q = np.array([math.e, 0.0])
        d = np.array([2.0, 1.0])
        kind = learnable(0.4, 0.7)
        g = sim_grad(kind, q, d)
        s = simcore.similarity(kind, q, d)
        assert g.d_gamma_q == pytest.approx(-s, rel=1e-14)

    def test_gamma_gradients_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = rng.standard_normal(5) * rng.lognormal(0, 0.5)
            d = rng.standard_normal(5) * rng.lognormal(0, 0.5)
            kind = learnable(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
            g = sim_grad(kind, q, d)
            s = simcore.similarity(kind, q, d)
            nq, nd, _ = simcore.decompose(q, d)
            assert g.d_gamma_q == pytest.approx(-math.log(nq) * s, rel=1e-12, abs=1e-12)
            assert g.d_gamma_d == pytest.approx(-math.log(nd) * s, rel=1e-12, abs=1e-12)

    def test_discrete_kinds_have_no_gamma_grads(self):
        g = sim_grad(DOT, [1.0, 0.0], [0.0, 1.0])
        assert g.d_gamma_q is None and g.d_gamma_d is None

    def test_zero_query_raises_for_normalizing_kinds(self):
        with pytest.raises(ZeroMagnitude):
            sim_grad(COSINE, [0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroMagnitude):
            sim_grad(learnable(0.0, 0.0), [0.0, 0.0], [1.0, 0.0])


class TestSimGradNumeric:
    """Central differences at h = 1e-5 agree to 1e-6 relative error."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=simcore.kind_name)
    def test_against_finite_differences(self, kind):
        rng = np.random.default_rng(101)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            q = _safe_vec(rng, dim)
            d = _safe_vec(rng, dim)
            g = sim_grad(kind, q, d)
            num_q = finite_difference(lambda x: simcore.similarity(kind, x, d), q.copy())
            num_d = finite_difference(lambda x: simcore.similarity(kind, q, x), d.copy())
            assert rel_error(g.d_q, num_q) <= 1e-6
            assert rel_error(g.d_d, num_d) <= 1e-6


def _safe_vec(rng, dim, min_norm=0.3):
    v = rng.standard_normal(dim)
    while np.linalg.norm(v) < min_norm:
        v = rng.standard_normal(dim)
    return v


class TestProjectorAndJacobian:
    def test_frozen_jacobian_example(self):
        # v = (2, 0): J = (I - e1 e1^T) / 2 = [[0, 0], [0, 0.5]].
        J = normalization_jacobian(np.array([2.0, 0.0]))
        np.testing.assert_allclose(J, [[0.0, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_projector_spectral_identities(self):
        rng = np.random.default_rng(4)
        for n in (2, 8, 64):
            for _ in range(30):
                v = _safe_vec(rng, n) * rng.lognormal(0, 0.7)
                P = tangent_projector(v)
                vhat = v / np.linalg.norm(v)
                assert np.abs(P @ P - P).max() <= 1e-12
                assert np.linalg.norm(P @ vhat) <= 1e-12
                assert abs(np.trace(P) - (n - 1)) <= 1e-9
                np.testing.assert_allclose(P, P.T, atol=1e-15)

    def test_jacobian_matches_normalization_fd(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = _safe_vec(rng, 5)
            J = normalization_jacobian(v)
            for k in range(5):
                num = finite_difference(lambda x, k=k: x[k] / np.linalg.norm(x), v.copy())
                assert rel_error(J[k], num) <= 1e-6

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroMagnitude):
            tangent_projector(np.zeros(3))


class TestFiniteDifference:
    def test_quadratic_norm_example(self):
        # f(x) = |x|^2 at (1, 2) has gradient (2, 4).
        num = finite_difference(lambda x: float(x @ x), np.array([1.0, 2.0]))
        np.testing.assert_allclose(num, [2.0, 4.0], atol=1e-9)

    def test_restores_input(self):
        x = np.array([1.0, 2.0, 3.0])
        finite_difference(lambda v: float(v.sum()), x)
        np.testing.assert_array_equal(x, [1.0, 2.0, 3.0])

    def test_non_finite_probe_raises(self):
        with pytest.raises(NonFiniteEvaluation):
            finite_difference(lambda x: float("nan"), np.array([1.0]))

    def test_rel_error_floor(self):
        # Near-zero entries are compared absolutely thanks to the max(1, ...) floor.
        assert rel_error(np.array([0.0]), np.array([1e-9])) == pytest.approx(1e-9)
        assert rel_error(np.array([100.0]), np.array([101.0])) == pytest.approx(1.0 / 101.0)


class TestInfoNCEGrad:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=simcore.kind_name)
    def test_in_batch_against_finite_differences(self, kind):
        rng = np.random.default_rng(55)
        B, dim = 5, 4
        Q = np.vstack([_safe_vec(rng, dim) for _ in range(B)])
        D = np.vstack([_safe_vec(rng, dim) for _ in range(B)])
        cfg = LossConfig(kind=kind, tau=0.8, alpha=3.0)
        g = infonce_grad(ContrastiveBatch(Q, D), cfg)

        def loss_of_q(flat):
            batch = ContrastiveBatch(flat.reshape(B, dim), D)
            from magnorm.objective import infonce_loss

            return infonce_loss(batch, cfg)

        def loss_of_d(flat):
            batch = ContrastiveBatch(Q, flat.reshape(B, dim))
            from magnorm.objective import infonce_loss

            return infonce_loss(batch, cfg)

        num_q = finite_difference(loss_of_q, Q.ravel().copy()).reshape(B, dim)
        num_d = finite_difference(loss_of_d, D.ravel().copy()).reshape(B, dim)
        assert rel_error(g.d_queries, num_q) <= 1e-6
        assert rel_error(g.d_positives, num_d) <= 1e-6

    def test_gamma_grads_against_finite_differences(self):
        rng = np.random.default_rng(56)
        B, dim = 4, 3
        Q = np.vstack([_safe_vec(rng, dim) for _ in range(B)])
        D = np.vstack([_safe_vec(rng, dim) for _ in range(B)])
        gq, gd = 0.35, 0.65

        def loss_of_gammas(gm):
            from magnorm.objective import infonce_loss

            cfg = LossConfig(kind=learnable(float(gm[0]), float(gm[1])), tau=1.0, alpha=2.0)
            return infonce_loss(ContrastiveBatch(Q, D), cfg)

        cfg = LossConfig(kind=learnable(gq, gd), tau=1.0, alpha=2.0)
        g = infonce_grad(ContrastiveBatch(Q, D), cfg)
        num = finite_difference(loss_of_gammas, np.array([gq, gd]))
        assert rel_error(np.array([g.d_gamma_q, g.d_gamma_d]), num) <= 1e-6

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=simcore.kind_name)
    def test_explicit_negatives_against_finite_differences(self, kind):
        rng = np.random.default_rng(57)
        B, K, dim = 3, 4, 3
        Q = np.vstack([_safe_vec(rng, dim) for _ in range(B)])
        P = np.vstack([_safe_vec(rng, dim) for _ in range(B)])
        N = np.stack([np.vstack([_safe_vec(rng, dim) for _ in range(K)]) for _ in range(B)])
        cfg = LossConfig(kind=kind, tau=0.8, alpha=2.0)
        g = infonce_grad(ContrastiveBatch(Q, P, N), cfg)

        from magnorm.objective import infonce_loss

        def loss_of(q=Q, p=P, n=N, kind=kind):
            return infonce_loss(ContrastiveBatch(q, p, n), LossConfig(kind=kind, tau=0.8, alpha=2.0))

        num_q = finite_difference(lambda x: loss_of(q=x.reshape(B, dim)), Q.ravel().copy())
        num_p = finite_difference(lambda x: loss_of(p=x.reshape(B, dim)), P.ravel().copy())
        num_n = finite_difference(lambda x: loss_of(n=x.reshape(B, K, dim)), N.ravel().copy())
        assert rel_error(g.d_queries, num_q) <= 1e-6
        assert rel_error(g.d_positives, num_p) <= 1e-6
        assert rel_error(g.d_negatives, num_n) <= 1e-6
        if kind.tag != "learnable":
            assert g.d_gamma_q is None and g.d_gamma_d is None
            return
        gq, gd = simcore.effective_gammas(kind)
        num_g = finite_difference(
            lambda gm: loss_of(kind=learnable(float(gm[0]), float(gm[1]))), np.array([gq, gd])
        )
        assert rel_error(np.array([g.d_gamma_q, g.d_gamma_d]), num_g) <= 1e-6

    @pytest.mark.parametrize("name, raises", [("cosine", True), ("dnorm", True), ("dot", False)])
    def test_explicit_zero_norm_negative(self, name, raises):
        rng = np.random.default_rng(61)
        Q, P = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        N = rng.standard_normal((2, 2, 3))
        N[1, 0] = 0.0
        batch = ContrastiveBatch(Q, P, N)
        cfg = LossConfig(kind=simcore.kind_from_name(name), tau=1.0, alpha=2.0)
        if raises:
            with pytest.raises(ZeroMagnitude):
                infonce_grad(batch, cfg)
        else:
            g = infonce_grad(batch, cfg)
            assert np.all(np.isfinite(g.d_queries)) and np.all(np.isfinite(g.d_negatives))

    def test_loss_value_matches_objective(self):
        rng = np.random.default_rng(58)
        Q, D = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        cfg = LossConfig(kind=DOT, tau=1.0, alpha=20.0)
        from magnorm.objective import infonce_loss

        g = infonce_grad(ContrastiveBatch(Q, D), cfg)
        assert g.loss == pytest.approx(infonce_loss(ContrastiveBatch(Q, D), cfg), rel=1e-12)

    def test_cosine_radial_gradient_vanishes(self):
        """Normalizing the query side removes the radial loss component."""
        rng = np.random.default_rng(59)
        cfg = LossConfig(kind=COSINE, tau=1.0, alpha=20.0)
        for _ in range(50):
            Q = np.vstack([_safe_vec(rng, 6) for _ in range(8)])
            D = np.vstack([_safe_vec(rng, 6) for _ in range(8)])
            g = infonce_grad(ContrastiveBatch(Q, D), cfg)
            for i in range(8):
                gn = np.linalg.norm(g.d_queries[i])
                qn = np.linalg.norm(Q[i])
                assert abs(g.d_queries[i] @ Q[i]) <= 1e-10 * gn * qn

    def test_dot_per_query_decomposition(self):
        # For dot: dL/dq_i = (alpha/tau) (-d_pos + sum_j p_ij d_j) / B.
        rng = np.random.default_rng(60)
        B, dim = 4, 3
        Q, D = rng.standard_normal((B, dim)), rng.standard_normal((B, dim))
        cfg = LossConfig(kind=DOT, tau=2.0, alpha=6.0)
        g = infonce_grad(ContrastiveBatch(Q, D), cfg)
        S = Q @ D.T
        Z = cfg.alpha * S / cfg.tau
        P = np.exp(Z - Z.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        for i in range(B):
            expect = (cfg.alpha / cfg.tau) * (-D[i] + P[i] @ D) / B
            np.testing.assert_allclose(g.d_queries[i], expect, rtol=1e-12, atol=1e-14)


class TestGradcheck:
    def test_all_variants_pass(self):
        for kind in ALL_KINDS:
            report = gradcheck(kind, trials=40, seed=7)
            assert report.passed, f"{report.kind}: {report.group_errors}"
            assert report.max_rel_err <= 1e-6

    def test_report_json_shape(self):
        report = gradcheck(DOT, trials=3, seed=0)
        payload = json.loads(report.to_json())
        assert set(payload) == {"kind", "trials", "seed", "max_rel_err", "pass", "groups"}
        assert payload["kind"] == "dot"
        assert payload["trials"] == 3
        assert payload["pass"] is True

    def test_learnable_reports_gamma_groups(self):
        report = gradcheck(learnable(0.5, 0.5), trials=3, seed=1)
        assert set(report.group_errors) == {"q", "d", "gamma_q", "gamma_d"}

    def test_deterministic_given_seed(self):
        a = gradcheck(QNORM, trials=10, seed=3)
        b = gradcheck(QNORM, trials=10, seed=3)
        assert a == b

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            gradcheck(DOT, trials=0, seed=0)
