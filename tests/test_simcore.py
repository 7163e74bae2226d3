"""Similarity family: frozen values, corner identities, scaling laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pair_oracle import ORACLE_KINDS, decompose, divide_by_float_norms, pair_score

from magnorm import simcore
from magnorm.errors import DimensionMismatch, ZeroMagnitude
from magnorm.simcore import (
    COSINE,
    DNORM,
    DOT,
    QNORM,
    kind_from_name,
    kind_name,
    learnable,
    similarity,
    similarity_matrix,
)

RNG = np.random.default_rng(42)


class TestNormAndDecompose:
    # decompose is pair_oracle's, the arithmetic the symmetry suite's qnorm
    # identity is held to.
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

    def test_kind_is_its_gamma_pair(self):
        # A kind carries the (gamma_q, gamma_d) it divides by: a fixed tag
        # its corner, learnable its own validated pair.
        for kind, gq, gd in self.CORNERS:
            assert kind.gammas == (gq, gd)
            assert kind_from_name(kind.tag) == kind
            with pytest.raises(ValueError):
                simcore.SimilarityKind(kind.tag, (0.5, 0.5))
        kind = learnable(0.3, 0.8)
        assert kind.gammas == (0.3, 0.8)
        assert kind == kind_from_name("learnable:0.3,0.8")
        assert {kind: "a", COSINE: "b"}[kind_from_name("learnable:0.3,0.8")] == "a"
        assert {kind: "a", COSINE: "b"}[kind_from_name("cosine")] == "b"
        assert len({kind, learnable(0.3, 0.8), COSINE, kind_from_name("cosine")}) == 2
        with pytest.raises(ValueError, match=r"^gamma_q must lie in \[0, 1\], got nan$"):
            learnable(math.nan, 0.5)
        with pytest.raises(ValueError, match=r"^gamma_d must lie in \[0, 1\], got nan$"):
            learnable(0.5, math.nan)
        with pytest.raises(ValueError, match=r"^gamma_q must lie in \[0, 1\], got -0.1$"):
            learnable(-0.1, 0.5)
        with pytest.raises(ValueError, match=r"^gamma_d must lie in \[0, 1\], got 1.1$"):
            learnable(0.5, 1.1)
        with pytest.raises(ValueError, match="^unknown similarity tag 'euclidean'$"):
            simcore.SimilarityKind("euclidean", (1.0, 1.0))


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
    """The scalar and matrix entry points agree on random pairs and reject the same zero norms."""

    def entry_points(q, d):
        return (
            lambda: similarity(kind, q, d),
            lambda: similarity_matrix(kind, q[None, :], d[None, :])[0, 0],
        )

    gq, gd = kind.gammas
    rng = np.random.default_rng(13)
    for _ in range(200):
        dim = int(rng.integers(2, 17))
        q = rng.standard_normal(dim) * rng.lognormal(0.0, 1.0)
        d = rng.standard_normal(dim) * rng.lognormal(0.0, 1.0)
        s, s_matrix = (score() for score in entry_points(q, d))
        bound = 1e-13 * np.linalg.norm(q) ** (1.0 - gq) * np.linalg.norm(d) ** (1.0 - gd)
        assert abs(s_matrix - s) <= bound

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
        assert kind.gammas == (0.3, 0.8)
        assert kind_name(kind) == "learnable:0.3,0.8"

    def test_bare_learnable_is_midpoint(self):
        assert kind_from_name("learnable").gammas == (0.5, 0.5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            kind_from_name("euclidean")

    @pytest.mark.parametrize("name", ["learnablefoo", "learnable2", "learnable2:0.3,0.8", "dot:1", "cosine:"])
    def test_only_learnable_takes_a_suffix(self, name):
        with pytest.raises(ValueError, match=f"^unknown similarity tag {name!r}$"):
            kind_from_name(name)

    @pytest.mark.parametrize(
        "given, shown",
        [
            ("learnable:0.3", "learnable:0.3"),
            ("learnable:0.1,0.2,0.3", "learnable:0.1,0.2,0.3"),
            ("learnable:0.3,x", "learnable:0.3,x"),
            ("learnable:", "learnable:"),
            (" Learnable:0.3 ", "learnable:0.3"),
        ],
    )
    def test_learnable_suffix_needs_two_numbers(self, given, shown):
        with pytest.raises(ValueError) as err:
            kind_from_name(given)
        assert str(err.value) == f"learnable takes two gammas, 'learnable:<gq>,<gd>'; got {shown!r}"

    def test_learnable_suffix_out_of_range_names_the_gamma(self):
        with pytest.raises(ValueError) as err:
            kind_from_name("learnable:nan,0.5")
        assert str(err.value) == "gamma_q must lie in [0, 1], got nan"

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

    def test_fractional_gammas_keep_the_matrix_bits(self):
        # Python's float pow and numpy's array pow can round a fractional
        # power of a norm an ulp apart; the scalar score must take the
        # matrix's bits, or a tie under one path is no tie under the other.
        q = np.array([0.5, 1.0])
        D = np.array([[0.0, 1.5], [0.0, 0.5]])
        kind = learnable(0.6544376375126068, 1.0)
        assert [similarity(kind, q, d) for d in D] == similarity_matrix(kind, q[None, :], D)[0].tolist()
        # One nonzero entry per vector: every product and norm is one
        # rounding, the same in both paths, so only the powers could differ.
        rng = np.random.default_rng(14)
        for a, b, gq, gd in zip(*rng.uniform(0.05, 4.0, (2, 300)), *rng.uniform(0.05, 0.95, (2, 300))):
            kind = learnable(gq, gd)
            q, d = np.array([a, 0.0]), np.array([b, 0.0])
            assert similarity(kind, q, d) == similarity_matrix(kind, q[None, :], d[None, :])[0, 0]

    def test_dot_is_the_raw_product(self):
        # No gamma is positive, so nothing divides the scores, not even 1.0.
        rng = np.random.default_rng(12)
        Q = rng.standard_normal((6, 4))
        D = rng.standard_normal((9, 4))
        S = similarity_matrix(DOT, Q, D)
        assert S.tobytes() == (Q @ D.T).tobytes()
        assert similarity_matrix(learnable(0.0, 0.0), Q, D).tobytes() == S.tobytes()
        t = Q @ D.T
        assert simcore.divide_by_norms(DOT.gammas, t, np.ones((6, 1)), np.ones((1, 9))) is t

    def test_divide_by_norms_leaves_its_inputs_alone(self):
        # The quotient may reuse the denominator's buffer, never the caller's
        # arrays, also when one norm array has the result's shape.
        rng = np.random.default_rng(13)
        t = rng.standard_normal((6, 9))
        nq = rng.uniform(0.5, 2.0, (6, 1))
        for nd in (rng.uniform(0.5, 2.0, (1, 9)), rng.uniform(0.5, 2.0, (6, 9))):
            before = [a.tobytes() for a in (t, nq, nd)]
            for kind in (COSINE, QNORM, DNORM, learnable(0.25, 0.75)):
                gq, gd = kind.gammas
                S = simcore.divide_by_norms((gq, gd), t, nq, nd)
                assert [a.tobytes() for a in (t, nq, nd)] == before
                assert S.tobytes() == (t / (nq**gq * nd**gd)).tobytes()

    def test_one_row_d_leaves_the_callers_norms_alone(self):
        # At gamma 1 the denominator is the caller's norm array itself; with
        # one doc the (B, 1) query norms have the result's shape, and the
        # quotient must not be written into them.
        rng = np.random.default_rng(14)
        Q, D = rng.standard_normal((5, 3)), rng.standard_normal((1, 3))
        for kind in (QNORM, DNORM):
            norms = np.linalg.norm(Q, axis=1), np.linalg.norm(D, axis=1)
            before = [a.tobytes() for a in norms]
            S = similarity_matrix(kind, Q, D, norms)
            assert [a.tobytes() for a in norms] == before
            assert S.tobytes() == similarity_matrix(kind, Q, D).tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            similarity(DOT, [1.0, 2.0], [1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(DimensionMismatch):
            simcore.as_embedding([1.0, float("nan")])


class TestDivideByNorms:
    @pytest.mark.parametrize("gq", (0.3, 0.7, 1.0))
    @pytest.mark.parametrize("gd", (0.3, 0.7, 1.0))
    def test_scalar_norms_keep_the_matrix_bits(self, gq, gd):
        # One pair's norms, as a one-row block (row_scores) or 0-d arrays,
        # give the bits the matrix gives, and so does the float oracle.
        rng = np.random.default_rng(15)
        kind = learnable(gq, gd)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            q = rng.standard_normal((1, dim)) * rng.lognormal(0.0, 1.0)
            d = rng.standard_normal((1, dim)) * rng.lognormal(0.0, 1.0)
            # The inputs similarity_matrix divides: its product and its row norms.
            t, nq, nd = (q @ d.T)[0], np.linalg.norm(q, axis=1), np.linalg.norm(d, axis=1)
            expect = similarity_matrix(kind, q, d)[0].tobytes()
            assert simcore.divide_by_norms((gq, gd), t, nq, nd).tobytes() == expect
            s = simcore.divide_by_norms((gq, gd), t[0], np.asarray(nq[0]), np.asarray(nd[0]))
            assert np.float64(s).tobytes() == expect
            oracle = divide_by_float_norms((gq, gd), float(t[0]), float(nq[0]), float(nd[0]))
            assert np.float64(oracle).tobytes() == expect

    # Numbers numpy takes as 0-d arrays follow the zero-norm rule as arrays do.
    @pytest.mark.parametrize(
        "wrap", (float, np.float64, np.asarray, lambda n: np.full((2, 3), n)), ids=["float", "float64", "0-d", "array"]
    )
    def test_zero_norm_raises_only_where_its_gamma_is_positive(self, wrap):
        zero, one = wrap(0.0), wrap(1.0)
        for gq, gd in ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (1.0, 1.0)):
            if gq > 0.0:
                with pytest.raises(ZeroMagnitude, match="^zero-norm query$"):
                    simcore.divide_by_norms((gq, gd), 2.0, zero, one)
            else:
                assert np.all(simcore.divide_by_norms((gq, gd), 2.0, zero, one) == 2.0)
            if gd > 0.0:
                with pytest.raises(ZeroMagnitude, match="^zero-norm document$"):
                    simcore.divide_by_norms((gq, gd), 2.0, one, zero)
            else:
                assert np.all(simcore.divide_by_norms((gq, gd), 2.0, one, zero) == 2.0)

    def test_gamma_arrays_check_zero_norms_per_row(self):
        # Row 0 has a zero document and gamma_d 0 there: |0|**0 is 1, no error.
        nd = np.array([[0.0, 2.0], [3.0, 4.0]])
        nq = np.array([[2.0], [0.5]])
        gq, gd = np.array([[0.5], [0.25]]), np.array([[0.0], [0.75]])
        t = np.array([[1.0, -2.0], [0.5, 3.0]])
        S = simcore.divide_by_norms((gq, gd), t, nq, nd)
        assert S.tobytes() == (t / (nq**gq * nd**gd)).tobytes()
        assert S[0, 0] == t[0, 0] / nq[0, 0] ** 0.5
        with pytest.raises(ZeroMagnitude, match="^zero-norm document$"):
            simcore.divide_by_norms((gq, gd[::-1]), t, nq, nd)
        with pytest.raises(ZeroMagnitude, match="^zero-norm query$"):
            simcore.divide_by_norms((gq, gd), t, np.array([[2.0], [0.0]]), nd)

    @pytest.mark.parametrize("g", (-0.5, -1.0, 0.25))
    def test_float_and_array_gammas_share_one_rule(self, g):
        # Any nonzero gamma divides by |v|**g, a negative one too, and rejects
        # a zero norm, whether it comes as a float or as an array of gammas.
        rng = np.random.default_rng(32)
        t = rng.standard_normal((3, 5))
        norms = {"query": rng.lognormal(0.0, 1.0, (3, 1)), "document": rng.lognormal(0.0, 1.0, (1, 5))}
        nq, nd = norms.values()
        for side, n in norms.items():
            on_side = (lambda x: (x, 0.0)) if side == "query" else (lambda x: (0.0, x))
            S = simcore.divide_by_norms(on_side(g), t, nq, nd)
            assert S.tobytes() == simcore.divide_by_norms(on_side(np.full((3, 1), g)), t, nq, nd).tobytes()
            assert S.tobytes() == (t / n**g).tobytes()
            oracle = divide_by_float_norms(on_side(g), float(t[0, 0]), float(nq[0, 0]), float(nd[0, 0]))
            assert np.float64(oracle).tobytes() == S[0, 0].tobytes()
            zeroed = {**norms, side: np.zeros_like(n)}
            for gammas in (on_side(g), on_side(np.full((3, 1), g))):
                with pytest.raises(ZeroMagnitude, match=f"^zero-norm {side}$"):
                    simcore.divide_by_norms(gammas, t, *zeroed.values())

    @pytest.mark.parametrize("t", (1.5, np.float64(-2.0), np.ones((2, 3))), ids=["float", "float64", "array"])
    def test_dot_returns_t_itself(self, t):
        assert simcore.divide_by_norms(DOT.gammas, t, None, None) is t
        assert simcore.divide_by_norms((0.0, 0.0), t, 0.0, np.zeros((2, 3))) is t


@pytest.mark.parametrize(
    "values",
    [[bad if i == pos else 1.0 for i in range(4)] for bad in (math.nan, math.inf, -math.inf) for pos in range(4)]
    + [[], [[1.0, 2.0]], [[1.0], [2.0]]],
    ids=[f"{bad}-at-{pos}" for bad in ("nan", "inf", "-inf") for pos in range(4)] + ["empty", "1x2", "2x1"],
)
def test_as_embedding_rejects(values):
    with pytest.raises(DimensionMismatch):
        simcore.as_embedding(values)


def _outcome(f, *args):
    """The call's floats as bytes, or the type of the error it raised."""
    try:
        return np.array(f(*args), dtype=np.float64).tobytes()
    except ZeroMagnitude as e:
        return type(e)


def _similarity_via_linalg_norm(kind, q, d):
    """similarity() as it took its norms before: float(np.linalg.norm(v))."""
    q, d = simcore.as_embedding(q), simcore.as_embedding(d)
    return divide_by_float_norms(kind.gammas, float(np.dot(q, d)), float(np.linalg.norm(q)), float(np.linalg.norm(d)))


def _decompose_via_linalg_norm(q, d):
    """decompose() as it took its norms before: float(np.linalg.norm(v))."""
    q, d = simcore.as_embedding(q), simcore.as_embedding(d)
    nq, nd = float(np.linalg.norm(q)), float(np.linalg.norm(d))
    if nq == 0.0 or nd == 0.0:
        raise ZeroMagnitude("angular decomposition undefined for a zero vector")
    return nq, nd, min(1.0, max(-1.0, float(np.dot(q, d)) / (nq * nd)))


@st.composite
def _scaled_pair(draw):
    """Two vectors of one dim in 1..16, each scaled by a magnitude from subnormal to 1e200."""
    dim = draw(st.integers(1, 16))
    unit = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
    scale = st.floats(5e-324, 1e200)
    return np.array(draw(unit)) * draw(scale), np.array(draw(unit)) * draw(scale)


@settings(max_examples=500, deadline=None)
@given(_scaled_pair(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_scalar_norms_are_bitwise_np_linalg_norm(pair, gq, gd):
    # At 1e200, v.v overflows to inf; below about 1e-162 it underflows.
    q, d = pair
    with np.errstate(all="ignore"):
        for kind in (COSINE, DOT, QNORM, DNORM, learnable(gq, gd)):
            assert _outcome(similarity, kind, q, d) == _outcome(_similarity_via_linalg_norm, kind, q, d)
        assert _outcome(decompose, q, d) == _outcome(_decompose_via_linalg_norm, q, d)


def test_strided_vectors_keep_np_linalg_norm_bits():
    # A column of a matrix is a strided vector, whose dot can round apart
    # from a contiguous one's; norm() and the scores built on it must not.
    rng = np.random.default_rng(16)
    for _ in range(500):
        dim = int(rng.integers(2, 80))
        M = rng.standard_normal((dim, 3)) * rng.lognormal(0.0, 2.0)
        q, d = M[:, 0], M[:, 2]
        assert simcore.norm(q) == np.linalg.norm(q)
        assert similarity(COSINE, q, d) == _similarity_via_linalg_norm(COSINE, q, d)
        assert decompose(q, d) == _decompose_via_linalg_norm(q, d)


def _score_or_error(f, *args):
    """The score's bytes, or the type and message of the error it raised."""
    try:
        return np.float64(f(*args)).tobytes()
    except ZeroMagnitude as e:
        return type(e), str(e)


class TestOneRowScorer:
    """similarity is row_scores on one row, with the scalar path's bits (pair_oracle)."""

    @pytest.mark.parametrize("kind", ORACLE_KINDS, ids=kind_name)
    def test_similarity_is_the_scalar_oracle_bitwise(self, kind):
        rng = np.random.default_rng(40)
        for dim in (*range(1, 65), 512):
            for _ in range(8):
                q = rng.standard_normal(dim) * rng.lognormal(0.0, 2.0)
                d = rng.standard_normal(dim) * rng.lognormal(0.0, 2.0)
                assert _score_or_error(similarity, kind, q, d) == _score_or_error(pair_score, kind, q, d)

    @pytest.mark.parametrize("kind", ORACLE_KINDS, ids=kind_name)
    def test_strided_views_are_the_scalar_oracle_bitwise(self, kind):
        # A strided view's dot can round apart from a contiguous copy's; the
        # dot is taken on the view and the norms on copies, as the oracle does.
        rng = np.random.default_rng(41)
        for dim in (*range(1, 40), 100, 512):
            M = rng.standard_normal((dim, 3)) * rng.lognormal(0.0, 2.0)
            views = ((M[:, 0], M[:, 2]), (M[::-1, 1], M[:, 0]), (M.T.ravel()[::3], M[::-1, 2]),
                     (np.broadcast_to(M[0, 1], (dim,)), M[:, 2]))
            for q, d in views:
                assert _score_or_error(similarity, kind, q, d) == _score_or_error(pair_score, kind, q, d)

    @pytest.mark.parametrize("kind", ORACLE_KINDS, ids=kind_name)
    def test_zero_vectors_raise_as_the_scalar_oracle(self, kind):
        q, zero = np.array([0.6, -0.8, 0.1]), np.zeros(3)
        for pair in ((zero, q), (q, zero), (zero, zero)):
            got = _score_or_error(similarity, kind, *pair)
            assert got == _score_or_error(pair_score, kind, *pair)
            sides = [side for side, v, g in zip(("query", "document"), pair, kind.gammas) if g > 0.0 and not v.any()]
            assert got == ((ZeroMagnitude, f"zero-norm {sides[0]}") if sides else np.float64(0.0).tobytes())

    @pytest.mark.parametrize("kind", ORACLE_KINDS, ids=kind_name)
    def test_one_entry_pairs_keep_the_sign_of_a_zero(self, kind):
        # np.dot of one-entry vectors is their product: -0.0 for a zero times
        # a negative number, or for a product that underflows below zero.
        for q, d in (([0.0], [-2.0]), ([-0.0], [3.0]), ([-1e-300], [1e-30]), ([1e-300], [-1e-30]), ([0.5], [-4.0])):
            got = _score_or_error(similarity, kind, q, d)
            assert got == _score_or_error(pair_score, kind, np.array(q), np.array(d))

    @pytest.mark.parametrize("kind", ORACLE_KINDS, ids=kind_name)
    def test_overflowing_dots_are_the_scalar_oracle_bitwise(self, kind):
        # Finite pairs whose q.d, and whose self-dots, overflow to inf: a
        # score is inf, -inf or inf / inf, NaN, with the oracle's bits.
        pairs = [([1e200, -1e200], [1e200, 1e200]), ([1e200, 1e200], [1e200, 1e200]),
                 ([-1e200, 3e199], [1e200, 0.5]), ([1e160] * 64, [1e160] * 64)]
        with np.errstate(over="ignore", invalid="ignore"):
            for q, d in pairs:
                got = _score_or_error(similarity, kind, q, d)
                assert got == _score_or_error(pair_score, kind, np.array(q), np.array(d))
                assert not np.isfinite(np.frombuffer(got)[0])

    @pytest.mark.parametrize("kind", ORACLE_KINDS[:5], ids=kind_name)
    def test_a_block_scores_each_row_as_alone(self, kind):
        rng = np.random.default_rng(42)
        Q, D = rng.standard_normal((2, 300, 9)) * rng.lognormal(0.0, 1.0, (2, 300, 1))
        s, t, nq, nd = simcore.row_scores(kind.gammas, Q, D)
        assert s.tobytes() == np.array([similarity(kind, q, d) for q, d in zip(Q, D)]).tobytes()
        assert t.tobytes() == np.array([np.dot(q, d) for q, d in zip(Q, D)]).tobytes()
        assert nq.tobytes() == np.array([simcore.norm(q) for q in Q]).tobytes()
        assert nd.tobytes() == np.array([simcore.norm(d) for d in D]).tobytes()
