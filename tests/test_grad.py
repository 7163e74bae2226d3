"""Analytic gradients against finite differences and spectral identities."""

import itertools
import math

import numpy as np
import pytest
import suite_oracle
from pair_oracle import ORACLE_KINDS, decompose, divide_by_float_norms, pair_score

from magnorm import diagnostics, simcore
from magnorm import grad as grad_module
from magnorm.errors import DegenerateBatch, DimensionMismatch, NonFiniteEvaluation, ZeroMagnitude
from magnorm.grad import (
    PROBE_BLOCK,
    SimGradient,
    _gamma_sums,
    _row_norms,
    _stack_grad,
    _well_conditioned,
    finite_difference,
    gradcheck,
    infonce_grad,
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
            nq, nd, _ = decompose(q, d)
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

    @pytest.mark.parametrize(
        "kind,per_call",
        [(COSINE, 2), (DOT, 0), (QNORM, 1), (DNORM, 1), (learnable(0.3, 0.8), 2), (learnable(0.0, 0.0), 2)],
        ids=["cosine", "dot", "qnorm", "dnorm", "learnable:0.3,0.8", "learnable:0,0"],
    )
    def test_norms_per_call(self, kind, per_call, monkeypatch):
        # The score takes both norms from row dots, calling neither function.
        # The row norms are taken once where _stack_grad reads them, and
        # under learnable they also serve the zero check.
        calls = {"norm": 0, "rows": 0}
        real_norm, real_rows = simcore.norm, simcore.row_norms

        def counting(key, real):
            def f(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            return f

        monkeypatch.setattr(simcore, "norm", counting("norm", real_norm))
        monkeypatch.setattr(simcore, "row_norms", counting("rows", real_rows))
        sim_grad(kind, [0.3, -1.2, 0.5], [0.7, 0.1, -0.4])
        assert calls == {"norm": 0, "rows": per_call}


def _scalar_sim_grad(kind, q, d):
    """sim_grad as it scored its pair before a pair became a one-row block: pair_oracle's pair_score."""
    q, d = simcore.check_pair(q, d)
    nq = nd = None
    if kind.tag == "learnable":
        nq, nd = simcore.norm(q), simcore.norm(d)
        if 0.0 in (nq, nd):
            raise ZeroMagnitude("learnable gamma gradients need a nonzero query and document")
    s = pair_score(kind, q, d, nq, nd)
    dQ, dC, *terms = _stack_grad(kind, np.ones((1, 1)), np.array([[s]]), q[None, :], d[None, :])
    return SimGradient(dQ[0], dC[0], *_gamma_sums(*terms))


def _grad_or_error(f, kind, q, d):
    """The gradient's bytes and gamma floats as hex, or the type and message of the error it raised."""
    try:
        g = f(kind, q, d)
    except (ZeroMagnitude, ValueError) as e:
        return type(e), str(e)
    return g.d_q.tobytes(), g.d_d.tobytes(), *(None if x is None else x.hex() for x in (g.d_gamma_q, g.d_gamma_d))


class TestSimGradIsTheScalarOracle:
    """sim_grad scores its pair as a one-row block, with the scalar path's bits."""

    @pytest.mark.parametrize("kind", ORACLE_KINDS, ids=simcore.kind_name)
    def test_random_pairs_bitwise(self, kind):
        rng = np.random.default_rng(50)
        for dim in (*range(1, 65), 512):
            for _ in range(4):
                q = rng.standard_normal(dim) * rng.lognormal(0.0, 2.0)
                d = rng.standard_normal(dim) * rng.lognormal(0.0, 2.0)
                assert _grad_or_error(sim_grad, kind, q, d) == _grad_or_error(_scalar_sim_grad, kind, q, d)

    @pytest.mark.parametrize("kind", ORACLE_KINDS, ids=simcore.kind_name)
    def test_strided_views_bitwise(self, kind):
        rng = np.random.default_rng(51)
        for dim in (*range(1, 40), 100, 512):
            M = rng.standard_normal((dim, 3)) * rng.lognormal(0.0, 2.0)
            for q, d in ((M[:, 0], M[:, 2]), (M[::-1, 1], M[:, 0]), (np.broadcast_to(M[0, 1], (dim,)), M[:, 2])):
                assert _grad_or_error(sim_grad, kind, q, d) == _grad_or_error(_scalar_sim_grad, kind, q, d)

    @pytest.mark.parametrize("kind", ORACLE_KINDS, ids=simcore.kind_name)
    def test_zero_and_underflowing_vectors_raise_as_the_oracle(self, kind):
        # [1e-170, -1e-170] is nonzero, but its self-dot underflows to 0.
        q, zero, tiny = np.array([0.6, -0.8]), np.zeros(2), np.array([1e-170, -1e-170])
        for pair in ((zero, q), (q, zero), (zero, zero), (tiny, q), (q, tiny)):
            got = _grad_or_error(sim_grad, kind, *pair)
            assert got == _grad_or_error(_scalar_sim_grad, kind, *pair)
            zero_side = [g > 0.0 or kind.tag == "learnable" for v, g in zip(pair, kind.gammas) if not v @ v]
            assert (got[0] is ZeroMagnitude) == any(zero_side)

    @pytest.mark.parametrize("kind", ORACLE_KINDS, ids=simcore.kind_name)
    def test_overflowing_dots_bitwise(self, kind):
        pairs = [([1e200, -1e200], [1e200, 1e200]), ([1e200, 1e200], [1e200, 1e200]), ([-1e200, 3e199], [1e200, 0.5])]
        with np.errstate(over="ignore", invalid="ignore"):
            for q, d in pairs:
                q, d = np.array(q), np.array(d)
                assert _grad_or_error(sim_grad, kind, q, d) == _grad_or_error(_scalar_sim_grad, kind, q, d)


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
        # v = (2, 0): J = d(v/|v|)/dv = P_v / |v| = [[0, 0], [0, 0.5]].
        J = tangent_projector(np.array([2.0, 0.0])) / 2.0
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
            J = tangent_projector(v) / np.linalg.norm(v)
            for k in range(5):
                num = finite_difference(lambda x, k=k: x[k] / np.linalg.norm(x), v.copy())
                assert rel_error(J[k], num) <= 1e-6

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroMagnitude):
            tangent_projector(np.zeros(3))

    def test_strided_vector_gives_the_contiguous_bits(self):
        # Its norm is np.linalg.norm's, which sums a contiguous copy.
        rng = np.random.default_rng(9)
        for _ in range(200):
            M = rng.standard_normal((int(rng.integers(2, 80)), 2)) * rng.lognormal(0.0, 2.0)
            v = M[:, 1]
            P = tangent_projector(v)
            vhat = v / np.linalg.norm(v)
            assert P.tobytes() == (np.eye(v.size) - np.outer(vhat, vhat)).tobytes()


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


def _pre_fold_pool_grad(kind, G, S, Q, D):
    """infonce_grad's in-batch formula from before _stack_grad took pools, the bitwise reference."""
    gq, gd = kind.gammas
    nq = np.linalg.norm(Q, axis=1)
    nd = np.linalg.norm(D, axis=1)
    scale_q = nq**gq
    scale_d = nd**gd
    Gn = G / scale_d[None, :]
    dQ = (Gn @ D) / scale_q[:, None]
    dD = (G / scale_q[:, None]).T @ Q / scale_d[:, None]
    GS = G * S
    if gq > 0.0:
        dQ -= gq * (GS.sum(axis=1) / nq**2)[:, None] * Q
    if gd > 0.0:
        dD -= gd * (GS.sum(axis=0) / nd**2)[:, None] * D
    if kind.tag != "learnable":
        return dQ, dD, None, None
    dgq = float(-(GS.sum(axis=1) * np.log(nq)).sum())
    dgd = float(-(GS.sum(axis=0) * np.log(nd)).sum())
    return dQ, dD, dgq, dgd


def _random_pool(rng, kind):
    """Queries, a candidate pool, their scores and a random upstream signal G."""
    B, K, dim = (int(x) for x in rng.integers(1, 9, size=3))
    Q = np.vstack([_safe_vec(rng, dim) * rng.lognormal(0.0, 1.0) for _ in range(B)])
    D = np.vstack([_safe_vec(rng, dim) * rng.lognormal(0.0, 1.0) for _ in range(K)])
    return rng.standard_normal((B, K)), simcore.similarity_matrix(kind, Q, D), Q, D


class TestCandidateLayouts:
    """_stack_grad's (K, n) pool is the in-batch formula it replaced."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=simcore.kind_name)
    def test_pool_is_the_pre_fold_in_batch_formula_bitwise(self, kind):
        rng = np.random.default_rng(71)
        for _ in range(300):
            G, S, Q, D = _random_pool(rng, kind)
            got = _summed(_stack_grad(kind, G, S, Q, D))
            want = _pre_fold_pool_grad(kind, G, S, Q, D)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[2:] == want[2:]


def _unskipped_stack_grad(kind, G, S, Q, C):
    """_stack_grad as it was before a gamma-0 side skipped its norms and its
    divisions by |v|**0, and a gamma-1 side its power |v|**1 and product
    1.0 * x: both norms, both powers, both scales and both G*S sums for
    every kind, the bitwise reference for the skips."""
    gq, gd = kind.gammas
    nq = np.linalg.norm(Q, axis=1)
    nd = np.linalg.norm(C, axis=1)
    scale_q = (nq**gq)[:, None]
    scale_d = nd**gd
    dQ = (G / scale_d) @ C
    dC = (G / scale_q).T @ Q
    dQ /= scale_q
    dC /= scale_d[:, None]
    GS = G * S
    GS_q = GS.sum(axis=1)
    GS_c = GS.sum(axis=0)
    if gq > 0.0:
        dQ -= gq * (GS_q / nq**2)[:, None] * Q
    if gd > 0.0:
        dC -= gd * (GS_c / nd**2)[:, None] * C
    if kind.tag != "learnable":
        return dQ, dC, None, None
    return dQ, dC, float(-(GS_q * np.log(nq)).sum()), float(-(GS_c * np.log(nd)).sum())


def _summed(grads):
    """_stack_grad's (dQ, dC, per-row gamma terms) as (dQ, dC, d_gamma_q, d_gamma_d)."""
    dQ, dC, *terms = grads
    return dQ, dC, *_gamma_sums(*terms)


def _as_bytes(grads):
    """(dQ, dC, d_gamma_q, d_gamma_d) as bytes, so -0.0 and NaN payloads count."""
    return [None if x is None else np.asarray(x, dtype=np.float64).tobytes() for x in grads]


# The fixed kinds, and learnable with a gamma at 0 on neither, one or both sides.
SKIP_KINDS = (COSINE, DOT, QNORM, DNORM,
              learnable(0.0, 0.0), learnable(1.0, 0.0), learnable(0.3, 0.8), learnable(1.0, 1.0))


class TestGammaZeroSkip:
    """Skipping a gamma-0 side's norms and divisions, and a gamma-1 side's power and
    unit product, keeps every bit of the formula that took them."""

    @pytest.mark.parametrize("kind", SKIP_KINDS, ids=simcore.kind_name)
    def test_in_batch_pool_is_the_unskipped_formula_bitwise(self, kind):
        rng = np.random.default_rng(72)
        for _ in range(100):
            B, dim = (int(x) for x in rng.integers(2, 9, size=2))
            Q = np.vstack([_safe_vec(rng, dim) * rng.lognormal(0.0, 1.0) for _ in range(B)])
            D = np.vstack([_safe_vec(rng, dim) * rng.lognormal(0.0, 1.0) for _ in range(B)])
            G, S = rng.standard_normal((B, B)), simcore.similarity_matrix(kind, Q, D)
            want = _as_bytes(_unskipped_stack_grad(kind, G, S, Q, D))
            assert _as_bytes(_summed(_stack_grad(kind, G, S, Q, D))) == want
            assert _as_bytes(_summed(_stack_grad(kind, G, S, Q, D, _row_norms(kind, Q, D)))) == want

    @pytest.mark.parametrize("kind", SKIP_KINDS, ids=simcore.kind_name)
    def test_infonce_grad_is_the_unskipped_formula_bitwise(self, kind):
        # infonce_grad's signal G and scores S as written before its
        # in-place steps and its skips at tau 1, through the unskipped formula.
        rng = np.random.default_rng(74)
        for cfg in (LossConfig(kind=kind, tau=tau, alpha=3.0) for tau in (0.7, 1.0) for _ in range(30)):
            B, dim = (int(x) for x in rng.integers(2, 9, size=2))
            Q = np.vstack([_safe_vec(rng, dim) * rng.lognormal(0.0, 1.0) for _ in range(B)])
            D = np.vstack([_safe_vec(rng, dim) * rng.lognormal(0.0, 1.0) for _ in range(B)])
            logits = cfg.alpha * simcore.similarity_matrix(kind, Q, D) / cfg.tau
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            G = e / e.sum(axis=1, keepdims=True)
            G[np.diag_indices(B)] -= 1.0
            G *= cfg.alpha / cfg.tau / B
            want = _unskipped_stack_grad(kind, G, logits * cfg.tau / cfg.alpha, Q, D)
            g = infonce_grad(ContrastiveBatch(Q, D), cfg)
            assert _as_bytes((g.d_queries, g.d_positives, g.d_gamma_q, g.d_gamma_d)) == _as_bytes(want)

    @pytest.mark.parametrize("kind", SKIP_KINDS, ids=simcore.kind_name)
    def test_sim_grad_pool_is_the_unskipped_formula_bitwise(self, kind):
        rng = np.random.default_rng(73)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            q, d = _safe_vec(rng, dim), _safe_vec(rng, dim)
            S = np.array([[simcore.similarity(kind, q, d)]])
            want = _as_bytes(_unskipped_stack_grad(kind, np.ones((1, 1)), S, q[None, :], d[None, :]))
            g = sim_grad(kind, q, d)
            assert _as_bytes((g.d_q, g.d_d, g.d_gamma_q, g.d_gamma_d)) == want


class TestGradcheck:
    def test_all_variants_pass(self):
        for kind in ALL_KINDS:
            report = gradcheck(kind, trials=40, seed=7)
            assert report.passed, f"{report.kind}: {report.group_errors}"
            assert report.max_rel_err <= 1e-6

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


class TestNanErrorsFail:
    """A NaN relative error fails its group; max() would pass it over."""

    @staticmethod
    def _nan_gradients(monkeypatch):
        real = grad_module._stack_grad

        def nan_stack_grad(kind, G, S, Q, C, norms=None):
            dQ, dC, *terms = real(kind, G, S, Q, C, norms)
            return dQ * np.nan, dC, *(None if t is None else t * np.nan for t in terms)

        monkeypatch.setattr(grad_module, "_stack_grad", nan_stack_grad)

    @pytest.mark.parametrize("kind", (COSINE, learnable(0.3, 0.8)), ids=simcore.kind_name)
    def test_gradcheck_fails_a_nan_group(self, kind, monkeypatch):
        self._nan_gradients(monkeypatch)
        report = gradcheck(kind, trials=5, seed=0)
        assert not report.passed and math.isnan(report.max_rel_err)
        assert math.isnan(report.group_errors["q"]) and report.group_errors["d"] <= 1e-6
        if kind.tag == "learnable":
            assert math.isnan(report.group_errors["gamma_q"]) and math.isnan(report.group_errors["gamma_d"])

    def test_suites_fail_a_nan_error(self, monkeypatch):
        self._nan_gradients(monkeypatch)
        for suite in (diagnostics.suite_gamma_grad, diagnostics.suite_gradcheck):
            result = suite(np.random.default_rng(0), 5, 0)
            assert not result.ok and math.isnan(result.err)


class TestStackedDots:
    """The property the block probes rest on: a stacked (..., 1, n) @ (..., n, 1)
    matmul runs np.dot's ddot per row, and the sqrt of a row's self-dot is
    simcore.norm, bit for bit."""

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_stacked_matmul_is_np_dot_and_norm(self, dim):
        rng = np.random.default_rng(dim)
        A = rng.standard_normal((400, dim)) * rng.lognormal(0.0, 2.0, (400, 1))
        B = rng.standard_normal((400, dim))
        dots = (A[:, None, :] @ B[:, :, None])[:, 0, 0]
        self_dots = (A[:, None, :] @ A[:, :, None])[:, 0, 0]
        assert dots.tobytes() == np.array([np.dot(a, b) for a, b in zip(A, B)]).tobytes()
        assert np.sqrt(self_dots).tobytes() == np.array([simcore.norm(a) for a in A]).tobytes()

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_row_dots_of_probe_points_against_a_broadcast_side(self, dim):
        # The probes' layout: T trials, n coordinates, +h and -h, against
        # each trial's fixed side, and that side against them.
        rng = np.random.default_rng(100 + dim)
        X, B = rng.standard_normal((30, dim, 2, dim)), rng.standard_normal((30, dim))
        dots = simcore.row_dots(X, B[:, None, None])
        flat = X.reshape(30, -1, dim)
        assert dots.shape == (30, dim, 2)
        assert dots.tobytes() == np.array([[np.dot(x, b) for x in xs] for xs, b in zip(flat, B)]).tobytes()
        assert simcore.row_dots(B[:, None, None], X).tobytes() == dots.tobytes()
        norms = np.sqrt(simcore.row_dots(X, X))
        assert norms.tobytes() == np.array([[simcore.norm(x) for x in xs] for xs in flat]).tobytes()


def _checked_finite_difference(f, x, h=1e-5):
    """Reference central differences: np.isfinite on each probe, 2.0 * h per coordinate."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    flat = x.ravel()
    out_flat = out.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NonFiniteEvaluation(f"non-finite probe at coordinate {i}")
        out_flat[i] = (hi - lo) / (2.0 * h)
    return out


def _checked_similarity(kind, q, d):
    """Reference scalar score: each call checks both sides and takes both norms."""
    q, d = simcore.as_embedding(q), simcore.as_embedding(d)
    assert q.shape == d.shape
    nq, nd = math.sqrt(float(q.dot(q))), math.sqrt(float(d.dot(d)))
    return divide_by_float_norms(kind.gammas, float(np.dot(q, d)), nq, nd)


def _checked_gradcheck(kind, trials, seed, arrays, h=1e-5):
    """gradcheck's group errors with every probe a _checked_similarity call, which
    checks the pair and takes both norms again; each difference lands in arrays."""

    def fd(f, x):
        arrays.append(_checked_finite_difference(f, x, h))
        return arrays[-1]

    groups = {"q": 0.0, "d": 0.0}
    if kind.tag == "learnable":
        groups["gamma_q"] = 0.0
        groups["gamma_d"] = 0.0
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        dim = int(rng.integers(2, 9))
        q = _well_conditioned(rng, dim)
        d = _well_conditioned(rng, dim)
        g = sim_grad(kind, q, d)
        num_q = fd(lambda x: _checked_similarity(kind, x, d), q.copy())
        num_d = fd(lambda x: _checked_similarity(kind, q, x), d.copy())
        groups["q"] = max(groups["q"], rel_error(g.d_q, num_q))
        groups["d"] = max(groups["d"], rel_error(g.d_d, num_d))
        if kind.tag == "learnable":
            num_g = fd(lambda gm: _checked_similarity(learnable(gm[0], gm[1]), q, d), np.array(kind.gammas))
            groups["gamma_q"] = max(groups["gamma_q"], rel_error(g.d_gamma_q, num_g[0]))
            groups["gamma_d"] = max(groups["gamma_d"], rel_error(g.d_gamma_d, num_g[1]))
    return groups


def _checked_suite_gamma_grad(rng, trials, arrays, dims):
    """diagnostics.suite_gamma_grad with every probe a _checked_similarity call;
    each trial's differences land in arrays and its dim in dims."""
    worst_rel = 0.0
    ok = True
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        dims.append(dim)
        q = diagnostics._rand_vec(rng, dim)
        d = diagnostics._rand_vec(rng, dim)
        gq = float(rng.uniform(0.05, 0.95))
        gd = float(rng.uniform(0.05, 0.95))
        kind = learnable(gq, gd)
        g = sim_grad(kind, q, d)
        s = _checked_similarity(kind, q, d)
        nq, nd, _ = decompose(q, d)
        ok = ok and abs(g.d_gamma_q + math.log(nq) * s) <= 1e-12
        ok = ok and abs(g.d_gamma_d + math.log(nd) * s) <= 1e-12
        arrays.append(_checked_finite_difference(
            lambda gm: _checked_similarity(learnable(float(gm[0]), float(gm[1])), q, d), np.array([gq, gd])
        ))
        worst_rel = max(worst_rel, rel_error(np.array([g.d_gamma_q, g.d_gamma_d]), arrays[-1]))
    ok = ok and worst_rel <= 1e-6
    return diagnostics.SuiteResult(worst_rel, "1e-6", ok)


def _recording(monkeypatch) -> list:
    """Every block of central differences the batched probes compute from here on, in call order."""
    blocks, real = [], grad_module._differences

    def recording(S, h):
        blocks.append(real(S, h))
        return blocks[-1]

    monkeypatch.setattr(grad_module, "_differences", recording)
    return blocks


def _in_trial_order(blocks, dims, per_group):
    """The recorded blocks' rows, one array per trial and probe group, in trial order.

    The batched path takes PROBE_BLOCK trials at a time and groups them by
    dim in order of first appearance; each group computes per_group blocks
    (q, d, then the gammas), a row per trial.  dims are the trials' dims.
    """
    blocks, rows = iter(blocks), {}
    for start in range(0, len(dims), PROBE_BLOCK):
        trials = range(start, min(start + PROBE_BLOCK, len(dims)))
        for dim in dict.fromkeys(dims[i] for i in trials):
            group = [i for i in trials if dims[i] == dim]
            for block in itertools.islice(blocks, per_group):
                for i, row in zip(group, block):
                    rows.setdefault(i, []).append(row)
    return [row for i in sorted(rows) for row in rows[i]]


def _assert_gradcheck_is_checked(kind, trials, seed, monkeypatch):
    """gradcheck's group errors, or its error, and every trial's differences are the checked form's."""
    want_arrays = []
    want = _result(_checked_gradcheck, kind, trials, seed, want_arrays)
    blocks = _recording(monkeypatch)
    got = _result(lambda: gradcheck(kind, trials=trials, seed=seed).group_errors)
    assert got == want
    per_trial = 3 if kind.tag == "learnable" else 2
    got_arrays = _in_trial_order(blocks, [a.size for a in want_arrays[::per_trial]], per_trial)
    if isinstance(got, tuple):
        # At a corner the first trial's gamma probe raises, after its q and d
        # probes.  Those come in blocks over the first dim group, so that
        # group's q and d rows are all computed first; only the first
        # trial's are the checked form's.
        assert len(want_arrays) == 2
        children = np.random.SeedSequence(seed).spawn(trials)
        dims = [int(np.random.default_rng(c).integers(2, 9)) for c in children]
        first_group = dims[:PROBE_BLOCK].count(dims[0])
        assert [len(block) for block in blocks] == [first_group, first_group]
        got_arrays = got_arrays[:2]
    else:
        assert sum(map(len, blocks)) == len(got_arrays) == trials * per_trial
    assert _as_bytes(got_arrays) == _as_bytes(want_arrays)


def _assert_suite_is_checked(seed, trials, monkeypatch):
    want_arrays, dims = [], []
    want = _checked_suite_gamma_grad(np.random.default_rng([seed, 5]), trials, want_arrays, dims)
    blocks = _recording(monkeypatch)
    got = diagnostics.suite_gamma_grad(np.random.default_rng([seed, 5]), trials)
    assert got == want and got.err.hex() == want.err.hex()
    assert sum(map(len, blocks)) == trials
    assert _as_bytes(_in_trial_order(blocks, dims, 1)) == _as_bytes(want_arrays)


def _result(f, *args):
    """The call's value with its floats as hex, or the type and message of the error it raised."""
    try:
        value = f(*args)
    except (ValueError, ZeroMagnitude, NonFiniteEvaluation) as e:
        return type(e), str(e)
    return {k: v.hex() for k, v in value.items()} if isinstance(value, dict) else value.tobytes()


# The fixed kinds, learnable inside the square, and learnable at two corners,
# where a gamma probe leaves [0, 1] and both forms raise the same ValueError.
PROBE_KINDS = (COSINE, DOT, QNORM, DNORM, learnable(0.3, 0.8), learnable(0.0, 0.0), learnable(1.0, 0.0))


class TestLeanProbes:
    """Block probes give every bit, and every error, of a pair-by-pair loop
    whose probes re-check the pair and take both norms on every call."""

    @pytest.mark.parametrize("seed", (0, 1, 5))
    @pytest.mark.parametrize("kind", PROBE_KINDS, ids=simcore.kind_name)
    def test_gradcheck_is_the_checked_form_bitwise(self, kind, seed, monkeypatch):
        _assert_gradcheck_is_checked(kind, 25, seed, monkeypatch)

    @pytest.mark.parametrize("trials", (1, PROBE_BLOCK + 1))
    @pytest.mark.parametrize("kind", PROBE_KINDS, ids=simcore.kind_name)
    def test_gradcheck_block_edges_are_the_checked_form_bitwise(self, kind, trials, monkeypatch):
        _assert_gradcheck_is_checked(kind, trials, 3, monkeypatch)

    @pytest.mark.parametrize("seed", (0, 1, 5))
    def test_suite_gamma_grad_is_the_checked_form_bitwise(self, seed, monkeypatch):
        _assert_suite_is_checked(seed, 60, monkeypatch)

    @pytest.mark.parametrize("trials", (1, PROBE_BLOCK + 1))
    def test_suite_gamma_grad_block_edges_are_the_checked_form_bitwise(self, trials, monkeypatch):
        _assert_suite_is_checked(2, trials, monkeypatch)

    @pytest.mark.parametrize("pair", ("edge-other", "other-edge", "huge-huge"))
    @pytest.mark.parametrize("kind", PROBE_KINDS, ids=simcore.kind_name)
    def test_block_probe_errors_are_the_checked_forms(self, kind, pair, monkeypatch):
        # Every trial draws the pair.  An edge side's -h probe of coordinate
        # 0 lands on the origin, which raises ZeroMagnitude where that side's
        # gamma is positive; a huge pair's q.d overflows to inf, so a probe
        # scores inf or inf / inf and raises NonFiniteEvaluation.
        vectors = {"edge": [1e-5, 0.0], "other": [0.6, -0.8], "huge": [1e200, -1e200]}
        sides = [np.array(vectors[side]) for side in pair.split("-")]
        calls = itertools.count()

        def well_conditioned(rng, dim):
            return sides[next(calls) % 2].copy()

        monkeypatch.setattr(grad_module, "_well_conditioned", well_conditioned)
        monkeypatch.setitem(globals(), "_well_conditioned", well_conditioned)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _result(_checked_gradcheck, kind, 3, 0, [])
            got = _result(lambda: gradcheck(kind, trials=3, seed=0).group_errors)
        assert got == want
        raised = got[0] if isinstance(got, tuple) else None
        if pair == "huge-huge":
            assert raised is NonFiniteEvaluation
        else:
            assert (raised is ZeroMagnitude) == (kind.gammas[pair.split("-").index("edge")] > 0.0)

    def test_gamma_probe_outside_the_square_raises(self):
        with pytest.raises(ValueError, match=r"gamma_q must lie in \[0, 1\]"):
            gradcheck(learnable(1.0, 1.0), trials=1, seed=0)
        assert _result(_checked_gradcheck, learnable(1.0, 1.0), 1, 0, [])[0] is ValueError

    @pytest.mark.parametrize("kind", (COSINE, QNORM, DNORM, learnable(0.3, 0.8), learnable(1.0, 0.0)),
                             ids=simcore.kind_name)
    def test_zero_norm_probe_raises(self, kind):
        # The -h probe of coordinate 0 lands on the origin, and a fixed side
        # at the origin holds a zero norm; a side with a positive gamma
        # raises ZeroMagnitude in similarity, as a checked call does.
        edge, other, zero = np.array([1e-5, 0.0]), np.array([0.6, -0.8]), np.zeros(2)
        lean = (
            lambda x: simcore.similarity(kind, x, other),
            lambda x: simcore.similarity(kind, other, x),
            lambda x: simcore.similarity(kind, zero, x),
            lambda x: simcore.similarity(kind, x, zero),
        )
        checked = (
            lambda x: _checked_similarity(kind, x, other),
            lambda x: _checked_similarity(kind, other, x),
            lambda x: _checked_similarity(kind, zero, x),
            lambda x: _checked_similarity(kind, x, zero),
        )
        gammas = kind.gammas
        for f, g, x, gamma in zip(lean, checked, (edge, edge, other, other), (*gammas, *gammas)):
            got = _result(finite_difference, f, x.copy())
            assert got == _result(_checked_finite_difference, g, x.copy())
            if gamma > 0.0:
                assert got[0] is ZeroMagnitude

    @pytest.mark.parametrize("kind", PROBE_KINDS[:5], ids=simcore.kind_name)
    def test_non_finite_probe_raises(self, kind):
        # q.d overflows to inf, and under a normalizing kind inf / inf is NaN.
        q = np.array([1e200, -1e200])
        d = q.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteEvaluation):
                finite_difference(lambda x: simcore.similarity(kind, x, d), q.copy())
            with pytest.raises(NonFiniteEvaluation):
                finite_difference(lambda x: simcore.similarity(kind, q, x), d.copy())
            with pytest.raises(NonFiniteEvaluation):
                _checked_finite_difference(lambda x: _checked_similarity(kind, x, d), q.copy())


# (leading shape, B, n): one trial, two-row batches, one-entry rows, verify's
# 8x8 batches, the reference (64, 32) batch, and a two-axis stack.
STACK_SHAPES = [((1,), 2, 3), ((3,), 2, 1), ((5,), 8, 8), ((1,), 64, 32), ((3,), 64, 32), ((2, 3), 5, 17)]


class TestStackedBatches:
    """infonce_grad on a stack of batches is each batch on its own, bit for bit:
    a training batch is a one-block stack."""

    @pytest.mark.parametrize("lead, B, n", STACK_SHAPES, ids=str)
    @pytest.mark.parametrize("kind", ORACLE_KINDS, ids=simcore.kind_name)
    def test_each_batch_gets_its_own_bits(self, kind, lead, B, n):
        rng = np.random.default_rng(B * n + len(lead))
        Q = rng.standard_normal((*lead, B, n)) * rng.lognormal(0.0, 0.7, (*lead, B, 1))
        D = rng.standard_normal((*lead, B, n)) * rng.lognormal(0.0, 0.7, (*lead, B, 1))
        for tau, alpha in ((1.0, 20.0), (0.5, 3.0)):
            cfg = LossConfig(kind, tau, alpha)
            g = infonce_grad(ContrastiveBatch(Q, D), cfg)
            fields = [g.loss, g.d_queries, g.d_positives, g.d_gamma_q, g.d_gamma_d]
            assert all(isinstance(x, np.ndarray) or x is None for x in fields)
            for i in np.ndindex(*lead):
                alone = infonce_grad(ContrastiveBatch(Q[i], D[i]), cfg)
                assert type(alone.loss) is float
                assert all(type(x) is float for x in (alone.d_gamma_q, alone.d_gamma_d) if x is not None)
                want = [alone.loss, alone.d_queries, alone.d_positives, alone.d_gamma_q, alone.d_gamma_d]
                assert _as_bytes([None if x is None else x[i] for x in fields]) == _as_bytes(want)

    def test_a_stack_needs_aligned_batches_of_two(self):
        with pytest.raises(DegenerateBatch):
            ContrastiveBatch(np.ones((3, 1, 2)), np.ones((3, 1, 2)))
        with pytest.raises(DimensionMismatch):
            ContrastiveBatch(np.ones((3, 2, 2)), np.ones((2, 3, 2)))
        with pytest.raises(DimensionMismatch):
            simcore.similarity_matrix(DOT, np.ones((3, 2, 2)), np.ones((2, 2, 2)))

    @pytest.mark.parametrize("n", (1, 2, 8, 64))
    def test_projectors_of_a_stack_are_each_vectors(self, n):
        rng = np.random.default_rng(n)
        V = rng.standard_normal((40, n)) * rng.lognormal(0.0, 2.0, (40, 1))
        P = tangent_projector(V)
        assert P.shape == (40, n, n)
        for v, p in zip(V, P):
            assert p.tobytes() == tangent_projector(v).tobytes() == suite_oracle.tangent_projector(v).tobytes()
        strided = np.hstack([V, V])[:, ::-2]  # rows read through a negative, non-unit stride
        want = np.array([suite_oracle.tangent_projector(v) for v in strided])
        assert tangent_projector(strided).tobytes() == want.tobytes()

    def test_a_zero_or_non_finite_vector_raises(self):
        V = np.ones((4, 3))
        V[2] = 0.0
        with pytest.raises(ZeroMagnitude):
            tangent_projector(V)
        for bad in (np.nan, np.inf):
            V[2] = bad
            with pytest.raises(DimensionMismatch):
                tangent_projector(V)
        for shape in ((), (3, 0)):
            with pytest.raises(DimensionMismatch):
                tangent_projector(np.ones(shape))
