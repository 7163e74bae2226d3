"""Similarity family: frozen values, corner identities, scaling laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnorm import simcore
from magnorm.errors import DimensionMismatch, ZeroMagnitude
from magnorm.objective import ContrastiveBatch, LossConfig, candidate_logits
from magnorm.simcore import (
    COSINE,
    DNORM,
    DOT,
    QNORM,
    GammaPair,
    decompose,
    kind_from_name,
    kind_name,
    learnable,
    norm,
    scaled_logit,
    similarity,
    similarity_matrix,
)

RNG = np.random.default_rng(42)


class TestNormAndDecompose:
    def test_three_four_five(self):
        assert norm([3.0, 4.0]) == 5.0

    def test_zero_vector(self):
        assert norm([0.0, 0.0, 0.0]) == 0.0

    def test_decompose_unit_pair(self):
        nq, nd, cos = decompose([1.0, 0.0], [1.0, 1.0])
        assert nq == 1.0
        assert nd == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert cos == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_decompose_zero_raises(self):
        with pytest.raises(ZeroMagnitude):
            decompose([0.0, 0.0], [1.0, 0.0])

    def test_cos_clamped_to_unit_interval(self):
        # Nearly collinear vectors can round to |cos| marginally above 1.
        for _ in range(200):
            v = RNG.standard_normal(8)
            _, _, cos = decompose(v, 3.7 * v)
            assert -1.0 <= cos <= 1.0


class TestFrozenSimilarities:
    def test_dot(self):
        assert similarity(DOT, [3.0, 4.0], [6.0, 8.0]) == 50.0

    def test_cosine_collinear(self):
        assert similarity(COSINE, [3.0, 4.0], [6.0, 8.0]) == pytest.approx(1.0, abs=1e-15)

    def test_qnorm_keeps_doc_magnitude(self):
        assert similarity(QNORM, [2.0, 0.0], [3.0, 0.0]) == 3.0

    def test_dnorm_keeps_query_magnitude(self):
        assert similarity(DNORM, [2.0, 0.0], [3.0, 0.0]) == 2.0

    def test_learnable_geometric_midpoint(self):
        # sqrt(4) * sqrt(9) * cos(0) = 6
        kind = learnable(0.5, 0.5)
        assert similarity(kind, [4.0, 0.0], [9.0, 0.0]) == 6.0

    def test_scaled_logit(self):
        assert scaled_logit(DOT, [1.0, 0.0], [3.0, 0.0], alpha=2.0) == 6.0

    def test_scaled_logit_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            scaled_logit(DOT, [1.0, 0.0], [1.0, 0.0], alpha=0.0)


class TestCornerDegeneracy:
    """Learnable at the four gamma corners is the discrete variant, bitwise."""

    CORNERS = [(COSINE, 1.0, 1.0), (DOT, 0.0, 0.0), (QNORM, 1.0, 0.0), (DNORM, 0.0, 1.0)]

    def test_corners_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            dim = int(rng.integers(2, 17))
            q = rng.standard_normal(dim) * rng.lognormal(0.0, 1.0)
            d = rng.standard_normal(dim) * rng.lognormal(0.0, 1.0)
            for kind, gq, gd in self.CORNERS:
                assert similarity(learnable(gq, gd), q, d) == similarity(kind, q, d)

    def test_effective_gammas(self):
        assert simcore.effective_gammas(COSINE) == (1.0, 1.0)
        assert simcore.effective_gammas(DOT) == (0.0, 0.0)
        assert simcore.effective_gammas(QNORM) == (1.0, 0.0)
        assert simcore.effective_gammas(DNORM) == (0.0, 1.0)
        assert simcore.effective_gammas(learnable(0.3, 0.8)) == (0.3, 0.8)


class TestScalingLaws:
    """How each variant responds to positive rescaling of either side."""

    @given(st.floats(0.1, 10.0), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_cosine_scale_invariant(self, c, seed):
        rng = np.random.default_rng(seed)
        q, d = rng.standard_normal(6), rng.standard_normal(6)
        assert similarity(COSINE, c * q, d) == pytest.approx(similarity(COSINE, q, d), rel=1e-12)
        assert similarity(COSINE, q, c * d) == pytest.approx(similarity(COSINE, q, d), rel=1e-12)

    @given(st.floats(0.1, 10.0), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_dot_bilinear(self, c, seed):
        rng = np.random.default_rng(seed)
        q, d = rng.standard_normal(6), rng.standard_normal(6)
        assert similarity(DOT, c * q, d) == pytest.approx(c * similarity(DOT, q, d), rel=1e-12)

    @given(st.floats(0.1, 10.0), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_qnorm_linear_in_doc_only(self, c, seed):
        rng = np.random.default_rng(seed)
        q, d = rng.standard_normal(6), rng.standard_normal(6)
        assert similarity(QNORM, c * q, d) == pytest.approx(similarity(QNORM, q, d), rel=1e-12)
        assert similarity(QNORM, q, c * d) == pytest.approx(c * similarity(QNORM, q, d), rel=1e-12)

    @given(st.floats(0.1, 10.0), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_learnable_power_law(self, c, seed):
        rng = np.random.default_rng(seed)
        gq, gd = rng.uniform(0.0, 1.0, size=2)
        kind = learnable(float(gq), float(gd))
        q, d = rng.standard_normal(6), rng.standard_normal(6)
        expect = c ** (1.0 - gq) * similarity(kind, q, d)
        assert similarity(kind, c * q, d) == pytest.approx(expect, rel=1e-10)

    def test_magnitude_cosine_factorization(self):
        # s_learn = |q|^(1-gq) |d|^(1-gd) cos(theta)
        rng = np.random.default_rng(3)
        for _ in range(200):
            q, d = rng.standard_normal(5), rng.standard_normal(5)
            gq, gd = rng.uniform(0, 1, size=2)
            nq, nd, cos = decompose(q, d)
            expect = nq ** (1.0 - gq) * nd ** (1.0 - gd) * cos
            got = similarity(learnable(float(gq), float(gd)), q, d)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


class TestZeroMagnitudePolicy:
    """Zero vectors break exactly the variants that divide by their norm."""

    def test_dot_tolerates_zeros(self):
        assert similarity(DOT, [0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_cosine_rejects_zero_query(self):
        with pytest.raises(ZeroMagnitude):
            similarity(COSINE, [0.0, 0.0], [1.0, 2.0])

    def test_qnorm_rejects_zero_query_but_not_doc(self):
        with pytest.raises(ZeroMagnitude):
            similarity(QNORM, [0.0, 0.0], [1.0, 2.0])
        assert similarity(QNORM, [1.0, 0.0], [0.0, 0.0]) == 0.0

    def test_dnorm_rejects_zero_doc_but_not_query(self):
        with pytest.raises(ZeroMagnitude):
            similarity(DNORM, [1.0, 0.0], [0.0, 0.0])
        assert similarity(DNORM, [0.0, 0.0], [1.0, 2.0]) == 0.0


@pytest.mark.parametrize("kind", [COSINE, DOT, QNORM, DNORM, learnable(0.25, 0.75)], ids=kind_name)
def test_scalar_matrix_and_stack_share_one_core(kind):
    """The three entry points agree on random pairs and reject the same zero norms."""
    cfg = LossConfig(kind=kind, tau=1.0, alpha=1.0)

    def entry_points(q, d):
        batch = ContrastiveBatch(q[None, :], d[None, :], d[None, None, :])
        return (
            lambda: similarity(kind, q, d),
            lambda: similarity_matrix(kind, q[None, :], d[None, :])[0, 0],
            lambda: candidate_logits(batch, cfg)[0][0, 0],
        )

    gq, gd = simcore.effective_gammas(kind)
    rng = np.random.default_rng(13)
    for _ in range(200):
        dim = int(rng.integers(2, 17))
        q = rng.standard_normal(dim) * rng.lognormal(0.0, 1.0)
        d = rng.standard_normal(dim) * rng.lognormal(0.0, 1.0)
        s, s_matrix, s_stack = (score() for score in entry_points(q, d))
        bound = 1e-13 * np.linalg.norm(q) ** (1.0 - gq) * np.linalg.norm(d) ** (1.0 - gd)
        assert abs(s_matrix - s) <= bound and abs(s_stack - s) <= bound

    q, d, zero = rng.standard_normal(4), rng.standard_normal(4), np.zeros(4)
    for side, pair, gamma in (("query", (zero, d), gq), ("document", (q, zero), gd)):
        for score in entry_points(*pair):
            if gamma == 0.0:
                assert score() == 0.0
            else:
                with pytest.raises(ZeroMagnitude, match=f"zero-norm {side}"):
                    score()


class TestKindNames:
    def test_round_trip_discrete(self):
        for name in ("cosine", "dot", "qnorm", "dnorm"):
            assert kind_name(kind_from_name(name)) == name

    def test_learnable_parse(self):
        kind = kind_from_name("learnable:0.3,0.8")
        assert kind.gammas == GammaPair(0.3, 0.8)
        assert kind_name(kind) == "learnable:0.3,0.8"

    def test_bare_learnable_is_midpoint(self):
        assert kind_from_name("learnable").gammas == GammaPair(0.5, 0.5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            kind_from_name("euclidean")

    def test_gamma_bounds_enforced(self):
        with pytest.raises(ValueError):
            learnable(-0.1, 0.5)
        with pytest.raises(ValueError):
            learnable(0.5, 1.1)


class TestSimilarityMatrix:
    def test_matches_scalar_entries(self):
        rng = np.random.default_rng(11)
        Q = rng.standard_normal((5, 4))
        D = rng.standard_normal((7, 4))
        for kind in (COSINE, DOT, QNORM, DNORM, learnable(0.25, 0.75)):
            S = similarity_matrix(kind, Q, D)
            assert S.shape == (5, 7)
            for i in range(5):
                for j in range(7):
                    assert S[i, j] == pytest.approx(similarity(kind, Q[i], D[j]), rel=1e-12, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            similarity(DOT, [1.0, 2.0], [1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DimensionMismatch):
            simcore.as_embedding([1.0, float("nan")])
