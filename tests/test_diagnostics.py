"""Magnitude statistics, equivalence verification, and reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import suite_oracle
from pair_oracle import decompose
from pair_oracle import similarity as scalar_similarity

from magnorm import grad
from magnorm.cli import main
from magnorm.datagen import TaskSpec, gen_asymmetric
from magnorm import diagnostics
from magnorm.diagnostics import (
    REPORT_COLUMNS,
    DiagnosticsReport,
    EquivalenceVerdict,
    cohens_d,
    cv,
    magnitude_report,
    rank_documents,
    relevance_counter,
    suite_corners,
    suite_jacobian,
    suite_radial,
    suite_ranking,
    suite_symmetry,
    verify_ranking_equivalence,
    with_delta_cv,
    write_report_csv,
)
from magnorm import simcore
from magnorm.errors import (
    DegenerateInput,
    DegenerateVariance,
    DimensionMismatch,
    EmptyInput,
    NonFiniteEvaluation,
    TooFewSamples,
    ZeroMagnitude,
)
from magnorm.model import forward, init_encoder
from magnorm.metrics import ranked_list
from magnorm.simcore import COSINE, DNORM, DOT, QNORM, learnable, similarity


class TestCohensD:
    def test_frozen_example(self):
        # Means 4 and 2, both sample variances 2, pooled sd sqrt(2).
        assert cohens_d([3, 5], [1, 3]) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_antisymmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(1, 0.3, 20), rng.normal(2, 0.4, 30)
        assert cohens_d(a, b) == pytest.approx(-cohens_d(b, a), rel=1e-15)

    def test_scale_invariant(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(5, 1, 15), rng.normal(3, 1, 25)
        assert cohens_d(7 * a, 7 * b) == pytest.approx(cohens_d(a, b), rel=1e-12)

    def test_constant_groups_degenerate(self):
        with pytest.raises(DegenerateVariance) as e:
            cohens_d([2.0, 2.0], [2.0, 2.0])
        assert "group sizes 2 and 2" in str(e.value)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            cohens_d([1.0], [2.0, 3.0])


class TestCV:
    def test_frozen_example(self):
        # Values 1, 3: mean 2, population sd 1, cv 0.5.
        assert cv([1.0, 3.0]) == pytest.approx(0.5, rel=1e-15)

    def test_constant_is_zero(self):
        assert cv([4.0, 4.0, 4.0]) == 0.0

    def test_scale_invariant(self):
        rng = np.random.default_rng(2)
        xs = rng.lognormal(0, 0.5, 50)
        assert cv(xs * 13.0) == pytest.approx(cv(xs), rel=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            cv([])

    def test_nonpositive_mean_raises(self):
        with pytest.raises(DegenerateInput):
            cv([-1.0, 1.0])


def test_statistics_add_left_to_right(monkeypatch):
    # math.fsum compensates rounding as Python 3.12's sum() does; standing in
    # for the module's sum, it moves no bit of cv or cohens_d.
    xs, ys = [0.1] * 10 + [0.3, 0.7], [0.2, 0.5, 0.9]
    monkeypatch.setattr(diagnostics, "sum", math.fsum, raising=False)
    assert cv(xs) == 1.0198039027185573
    assert cohens_d(xs, ys) == -1.7163020957556192


def _rank_alone(kinds, q, D, ids):
    """rank_documents on a block of one trial: that trial's rows, one per kind."""
    return rank_documents([kinds], np.asarray(q)[None], np.asarray(D)[None], ids)[0]


def _ranked_ids(kind, q, docs) -> list:
    """rank_documents' one row for kind over (doc_id, vector) pairs, as doc ids."""
    ids = [did for did, _ in docs]
    (row,) = _rank_alone([kind], q, np.array([d for _, d in docs]), ids)
    return [ids[j] for j in row.tolist()]


def _oracle_ids(kind, q, docs) -> list:
    """The per-document ranking: one scalar similarity per doc, sorted by ranked_list."""
    return ranked_list("", [(did, similarity(kind, q, d)) for did, d in docs]).doc_ids()


# Vector entries whose products and sums are exact, so the scalar and matrix
# scores agree bit for bit and every tie is a true tie; -0.0 included.
_ENTRY_POOL = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0)


@st.composite
def _ranking_case(draw, dim=None, n=None, ids=None):
    """One trial: a query, its docs (some collinear), their ids and five kinds; dim, n and ids drawn unless given."""
    dim = draw(st.integers(1, 4)) if dim is None else dim
    n = draw(st.integers(1, 12)) if n is None else n
    vec = st.lists(st.sampled_from(_ENTRY_POOL), min_size=dim, max_size=dim)
    q = np.array(draw(vec))
    rows = []
    for _ in range(n):
        if rows and draw(st.booleans()):
            # A collinear scaling of an earlier doc: cosine and dnorm tie it.
            rows.append(draw(st.sampled_from((0.5, 1.0, 2.0, 3.0))) * rows[draw(st.integers(0, len(rows) - 1))])
        else:
            rows.append(np.array(draw(vec)))
    ids = draw(st.permutations([f"d{j}" for j in range(12)]))[:n] if ids is None else ids
    g = st.floats(0.0, 1.0)
    kinds = (COSINE, DOT, QNORM, DNORM, learnable(draw(g), draw(g)))
    return q, np.array(rows), ids, kinds


@st.composite
def _ranking_block(draw):
    """One to five _ranking_case trials sharing dim, doc count and ids, each with its own learnable gammas."""
    first = draw(_ranking_case())
    q, D, ids, _ = first
    rest = draw(st.lists(_ranking_case(q.size, len(ids), ids), max_size=4))
    return [first] + rest


class TestRankDocuments:
    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        for kind in (COSINE, DOT, QNORM, DNORM):
            q = rng.standard_normal(4)
            docs = [(f"d{j}", rng.standard_normal(4)) for j in range(6)]
            expect = [
                did
                for did, _ in sorted(
                    ((did, similarity(kind, q, d)) for did, d in docs),
                    key=lambda t: (-t[1], t[0]),
                )
            ]
            assert _ranked_ids(kind, q, docs) == expect

    def test_collinear_docs_tie_lexicographically(self):
        # Cosine cannot separate a doc from its positive scalings.
        q = np.array([1.0, 0.0])
        d = np.array([0.6, 0.8])
        docs = [("z", 3.0 * d), ("a", d), ("m", 0.5 * d)]
        assert _ranked_ids(COSINE, q, docs) == ["a", "m", "z"]
        assert _ranked_ids(DOT, q, docs) == ["z", "a", "m"]

    @settings(max_examples=400, deadline=None)
    @given(_ranking_case())
    def test_every_row_is_the_per_document_ranking(self, case):
        q, D, ids, kinds = case
        docs = list(zip(ids, D))
        rows = []
        for kind in kinds:
            try:
                expect = _oracle_ids(kind, q, docs)
            except ZeroMagnitude:
                with pytest.raises(ZeroMagnitude):
                    _rank_alone([kind], q, D, ids)
                continue
            (row,) = _rank_alone([kind], q, D, ids)
            assert [ids[j] for j in row.tolist()] == expect
            rows.append(row)
        if len(rows) == len(kinds):
            assert np.array_equal(_rank_alone(kinds, q, D, ids), np.array(rows))

    @settings(max_examples=300, deadline=None)
    @given(_ranking_block())
    def test_a_block_ranks_each_trial_as_alone(self, block):
        ids = block[0][2]
        Q = np.array([q for q, _, _, _ in block])
        Ds = np.array([D for _, D, _, _ in block])
        kinds = [k for _, _, _, k in block]
        for v in range(len(kinds[0])):
            alone = []
            for q, D, _, trial_kinds in block:
                try:
                    expect = _oracle_ids(trial_kinds[v], q, list(zip(ids, D)))
                except ZeroMagnitude:
                    alone = None
                    break
                (row,) = _rank_alone([trial_kinds[v]], q, D, ids)
                assert [ids[j] for j in row.tolist()] == expect
                alone.append(row)
            if alone is None:
                # A trial whose side with a positive gamma has a zero norm fails the block.
                with pytest.raises(ZeroMagnitude):
                    rank_documents([[k[v]] for k in kinds], Q, Ds, ids)
                continue
            assert np.array_equal(rank_documents([[k[v]] for k in kinds], Q, Ds, ids)[:, 0], np.array(alone))

    @pytest.mark.parametrize(
        "D",
        [np.ones((3, 2)), np.ones((2, 3)), np.ones(2), np.array([[1.0, np.nan], [1.0, 1.0]])],
        ids=["more-rows-than-ids", "wrong-dim", "1-d", "nan"],
    )
    def test_rejects_a_malformed_document_matrix(self, D):
        with pytest.raises(DimensionMismatch):
            _rank_alone([DOT], np.ones(2), D, ["d0", "d1"])

    @pytest.mark.parametrize(
        "Q",
        [np.ones((2, 2)), np.ones(2), np.ones((1, 3)), np.ones((1, 0)), np.array([[np.inf, 1.0]])],
        ids=["two-queries-one-trial", "1-d", "wrong-dim", "dim-0", "inf"],
    )
    def test_rejects_a_malformed_query_block(self, Q):
        with pytest.raises(DimensionMismatch):
            rank_documents([[DOT]], Q, np.ones((1, 2, 2)), ["d0", "d1"])

    def test_a_non_finite_score_names_its_trial(self):
        # Trial 2's dot overflows to inf, and its cosine divides inf by inf; NaN rows would all sort alike.
        Q, D = np.ones((4, 2)), np.ones((4, 3, 2))
        Q[2] = D[2, 1] = 1e200
        for kind in (DOT, COSINE):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteEvaluation) as e:
                rank_documents([[kind]] * 4, Q, D, ["d0", "d1", "d2"])
            assert str(e.value) == "non-finite score in ranking for trial 2"

    def test_rejects_uneven_or_missing_kinds(self):
        for kinds in ([], [[DOT], [DOT, COSINE]]):
            with pytest.raises(ValueError):
                rank_documents(kinds, np.ones((len(kinds), 2)), np.ones((len(kinds), 2, 2)), ["d0", "d1"])


class TestVerifyRankingEquivalence:
    def test_clean_geometry_passes(self):
        verdict = verify_ranking_equivalence(dim=8, n_docs=16, trials=200, seed=0)
        assert verdict.all_ok
        assert verdict.counterexample is None
        assert verdict.trials == 200 and verdict.seed == 0

    def test_deterministic(self):
        a = verify_ranking_equivalence(4, 8, 50, seed=11)
        b = verify_ranking_equivalence(4, 8, 50, seed=11)
        assert a == b

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            verify_ranking_equivalence(4, 8, 0, seed=0)

    def test_doc_scaling_separates_the_classes(self):
        # Direct statement of what the verdict certifies: scaling one doc
        # reorders dot and qnorm rankings but never cosine or dnorm.
        rng = np.random.default_rng(4)
        flipped_dot = False
        for _ in range(100):
            q = rng.standard_normal(6)
            docs = [(f"d{j}", rng.standard_normal(6)) for j in range(5)]
            boosted = [(did, 100.0 * d if did == "d3" else d) for did, d in docs]
            assert _ranked_ids(COSINE, q, docs) == _ranked_ids(COSINE, q, boosted)
            assert _ranked_ids(DNORM, q, docs) == _ranked_ids(DNORM, q, boosted)
            if _ranked_ids(DOT, q, docs) != _ranked_ids(DOT, q, boosted):
                flipped_dot = True
        assert flipped_dot

    def test_query_scaling_never_reorders(self):
        rng = np.random.default_rng(5)
        for kind in (COSINE, DOT, QNORM, DNORM):
            q = rng.standard_normal(6)
            docs = [(f"d{j}", rng.standard_normal(6)) for j in range(5)]
            assert _ranked_ids(kind, q, docs) == _ranked_ids(kind, 7.0 * q, docs)

    # Recorded from the per-document ranker this one replaced: same draws,
    # same verdicts, same counterexample strings.
    FROZEN = {
        (1, 3, 50, 0): "EquivalenceVerdict(trials=50, seed=0, cosine_dnorm_ok=False, qnorm_dot_ok=True, "
        "gamma_q_invariant_ok=True, counterexample=\"trial 4: cosine ('d1', 'd2', 'd0') vs dnorm ('d2', 'd1', 'd0')\")",
        (1, 3, 50, 1): "EquivalenceVerdict(trials=50, seed=1, cosine_dnorm_ok=False, qnorm_dot_ok=True, "
        "gamma_q_invariant_ok=True, counterexample=\"trial 0: cosine ('d0', 'd1', 'd2') vs dnorm ('d1', 'd0', 'd2')\")",
        (1, 3, 50, 2): "EquivalenceVerdict(trials=50, seed=2, cosine_dnorm_ok=False, qnorm_dot_ok=True, "
        "gamma_q_invariant_ok=True, counterexample=\"trial 14: cosine ('d2', 'd0', 'd1') vs dnorm ('d2', 'd1', 'd0')\")",
        (1, 3, 50, 3): "EquivalenceVerdict(trials=50, seed=3, cosine_dnorm_ok=False, qnorm_dot_ok=True, "
        "gamma_q_invariant_ok=True, counterexample=\"trial 15: cosine ('d0', 'd2', 'd1') vs dnorm ('d2', 'd0', 'd1')\")",
        (8, 16, 1000, 0): "EquivalenceVerdict(trials=1000, seed=0, cosine_dnorm_ok=True, qnorm_dot_ok=True, "
        "gamma_q_invariant_ok=True, counterexample=None)",
    }

    @pytest.mark.parametrize("args", list(FROZEN), ids=lambda a: "-".join(map(str, a)))
    def test_frozen_verdicts(self, args):
        assert repr(verify_ranking_equivalence(*args)) == self.FROZEN[args]

    def test_one_rank_documents_call_per_block(self, monkeypatch):
        calls = []
        real = diagnostics.rank_documents

        def counting(kinds, Q, D, ids):
            calls.append(len(kinds))
            return real(kinds, Q, D, ids)

        monkeypatch.setattr(diagnostics, "rank_documents", counting)
        assert verify_ranking_equivalence(8, 16, 1000, 0).all_ok
        assert calls == [128] * 7 + [104]

    @pytest.mark.parametrize("seed", (0, 1, 7))
    def test_blocks_draw_the_per_trial_stream(self, seed, monkeypatch):
        # The merged draws of a trial keep the generator's stream bit for bit.
        def recorded(run):
            seen = []
            real = diagnostics.rank_documents

            def record(kinds, Q, D, ids):
                seen.append((np.array(Q), np.array(D), [[k.gammas for k in ks] for ks in kinds]))
                return real(kinds, Q, D, ids)

            with monkeypatch.context() as m:
                m.setattr(diagnostics, "rank_documents", record)
                verdict = run(3, 5, 300, seed)
            Q, D, G = (np.concatenate([r[i] for r in seen]) for i in range(3))
            return verdict, Q.tobytes(), D.tobytes(), G.tobytes()

        assert recorded(verify_ranking_equivalence) == recorded(_one_trial_at_a_time)

    def test_later_block_counterexample_matches_one_trial_at_a_time(self, monkeypatch):
        # Reverse one order in trials 150 (gamma_q check) and 200 (cosine
        # check), found by their queries: the first counterexample lies in
        # the second block and must name trial 150's gamma check.
        queries = []
        real = diagnostics.rank_documents

        def record(kinds, Q, D, ids):
            queries.extend(q.tobytes() for q in Q)
            return real(kinds, Q, D, ids)

        with monkeypatch.context() as m:
            m.setattr(diagnostics, "rank_documents", record)
            verify_ranking_equivalence(8, 16, 300, 0)
        flip = {queries[150]: 5, queries[200]: 0}

        def flipped(kinds, Q, D, ids):
            O = real(kinds, Q, D, ids)
            for i, q in enumerate(Q):
                if q.tobytes() in flip:
                    O[i, flip[q.tobytes()]] = O[i, flip[q.tobytes()]][::-1].copy()
            return O

        monkeypatch.setattr(diagnostics, "rank_documents", flipped)
        verdict = verify_ranking_equivalence(8, 16, 300, 0)
        assert verdict == _one_trial_at_a_time(8, 16, 300, 0)
        assert (verdict.cosine_dnorm_ok, verdict.qnorm_dot_ok, verdict.gamma_q_invariant_ok) == (False, True, False)
        assert verdict.counterexample.startswith("trial 150: gamma_q ")


def _one_trial_at_a_time(dim, n_docs, trials, seed) -> EquivalenceVerdict:
    """verify_ranking_equivalence as a per-trial loop: six separate draws and one single-trial ranking per trial."""
    rng = np.random.default_rng(seed)
    ids = [f"d{j}" for j in range(n_docs)]
    ok = [True, True, True]
    counterexample = None

    def order(row) -> tuple:
        return tuple(ids[j] for j in row.tolist())

    for t in range(trials):
        q = rng.standard_normal(dim)
        D = rng.standard_normal((n_docs, dim))
        q = q * float(rng.lognormal(0.0, 0.7))
        D = D * rng.lognormal(0.0, 0.7, n_docs)[:, None]
        gd = float(rng.uniform(0.0, 1.0))
        ga, gb = sorted(float(rng.uniform(0.0, 1.0)) for _ in range(2))
        kinds = (COSINE, DNORM, QNORM, DOT, learnable(ga, gd), learnable(gb, gd))
        o = diagnostics.rank_documents([kinds], q[None], D[None], ids)[0]
        found = (
            f"trial {t}: cosine {order(o[0])} vs dnorm {order(o[1])}",
            f"trial {t}: qnorm {order(o[2])} vs dot {order(o[3])}",
            f"trial {t}: gamma_q {ga:.3f} vs {gb:.3f} at gamma_d {gd:.3f}: {order(o[4])} vs {order(o[5])}",
        )
        for c in range(3):
            if ok[c] and not np.array_equal(o[2 * c], o[2 * c + 1]):
                ok[c] = False
                counterexample = counterexample or found[c]
    return EquivalenceVerdict(trials, seed, *ok, counterexample=counterexample)



class TestSymmetrySuite:
    def test_passes_with_exact_cosine_and_dot_symmetry(self):
        r = suite_symmetry(np.random.default_rng(0), 50)
        assert r.ok and r.parts["cosine/dot"] == 0.0 and r.note is None

    def test_nan_cosine_score_fails(self, monkeypatch):
        real = simcore.row_scores

        def nan_cosine(gammas, Q, D):
            s, *terms = real(gammas, Q, D)
            return (s * math.nan if gammas == COSINE.gammas else s), *terms

        monkeypatch.setattr(simcore, "row_scores", nan_cosine)
        r = suite_symmetry(np.random.default_rng(0), 5)
        assert not r.ok and r.parts["cosine/dot"] == math.inf
        assert r.note == "cosine/dot asymmetry inf (must be exactly 0)"

    def test_asymmetric_dot_fails_with_its_residual(self, monkeypatch):
        real = simcore.row_scores

        def skewed_dot(gammas, Q, D):
            s, *terms = real(gammas, Q, D)
            return (s + 1e-15 * Q[:, 0] if gammas == DOT.gammas else s), *terms

        monkeypatch.setattr(simcore, "row_scores", skewed_dot)
        r = suite_symmetry(np.random.default_rng(0), 5)
        assert not r.ok and 0.0 < r.parts["cosine/dot"] < 1e-12
        assert r.note.endswith("(must be exactly 0)")

def _loop_suite_corners(rng, trials):
    """suite_corners as a pair-by-pair loop of scalar scores (pair_oracle)."""
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(2, 17))
        q = diagnostics._rand_vec(rng, dim)
        d = diagnostics._rand_vec(rng, dim)
        for kind in (COSINE, DOT, QNORM, DNORM):
            worst = max(worst, abs(scalar_similarity(learnable(*kind.gammas), q, d) - scalar_similarity(kind, q, d)))
    return diagnostics.SuiteResult(worst, "1e-12", worst <= 1e-12)


def _loop_suite_symmetry(rng, trials):
    """suite_symmetry as a pair-by-pair loop of scalar scores and pair_oracle's decompose."""
    exact = identity = 0.0
    for _ in range(trials):
        dim = int(rng.integers(2, 17))
        a = diagnostics._rand_vec(rng, dim)
        b = diagnostics._rand_vec(rng, dim)
        for kind in (COSINE, DOT):
            x, y = scalar_similarity(kind, a, b), scalar_similarity(kind, b, a)
            if x != y:
                exact = max(exact, math.inf if math.isnan(x - y) else abs(x - y))
        na, nb, cos = decompose(a, b)
        asym = scalar_similarity(QNORM, a, b) - scalar_similarity(QNORM, b, a)
        identity = max(identity, abs(asym - (nb - na) * cos))
    note = None if exact == 0.0 else f"cosine/dot asymmetry {exact:.3e} (must be exactly 0)"
    ok = exact == 0.0 and identity <= 1e-12
    return diagnostics.SuiteResult(max(exact, identity), "1e-12", ok, note, {"cosine/dot": exact, "qnorm": identity})


def _hexed(result) -> tuple:
    """A SuiteResult with every float as hex, parts included."""
    return tuple(
        v.hex() if isinstance(v, float) else {k: x.hex() for k, x in v.items()} if isinstance(v, dict) else v
        for v in result
    )


class TestPairSuitesInBlocks:
    """The corner and symmetry suites draw one trial at a time and score blocks
    of trials; every field is the pair-by-pair loop's, bit for bit."""

    @pytest.mark.parametrize("trials", (1, 128, 129, 300))
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "suite, loop, index", [(suite_corners, _loop_suite_corners, 1), (suite_symmetry, _loop_suite_symmetry, 2)],
        ids=["corners", "symmetry"],
    )
    def test_is_the_pair_loop_bitwise(self, suite, loop, index, seed, trials):
        # verify seeds suite i with default_rng([seed, i]).
        got = suite(np.random.default_rng([seed, index]), trials)
        want = loop(np.random.default_rng([seed, index]), trials)
        assert type(got.err) is float and _hexed(got) == _hexed(want)


class TestVectorSuitesInBlocks:
    """The jacobian and radial suites draw one trial at a time and check blocks
    of trials; every field is the per-trial loop's (suite_oracle), bit for bit."""

    @pytest.mark.parametrize("trials", (1, 7, 127, 128, 129, 200, 300))
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "suite, loop, index",
        [(suite_jacobian, suite_oracle.suite_jacobian, 3), (suite_radial, suite_oracle.suite_radial, 4)],
        ids=["jacobian", "radial"],
    )
    def test_is_the_per_trial_loop_bitwise(self, suite, loop, index, seed, trials):
        # verify seeds suite i with default_rng([seed, i]).
        got = suite(np.random.default_rng([seed, index]), trials)
        want = loop(np.random.default_rng([seed, index]), trials)
        assert type(got.err) is float and type(got.ok) is bool and _hexed(got) == _hexed(want)

    def test_no_block_holds_more_than_8192_entries(self, monkeypatch, capsys):
        # Spy on what each block stacks: its projectors, and its batches' queries and positives.
        projectors, batches = [], []
        real_projector, real_grad = grad.tangent_projector, grad.infonce_grad

        def projector(V):
            projectors.append(V.shape)
            return real_projector(V)

        def infonce(batch, cfg):
            batches.append(batch.queries.shape)
            return real_grad(batch, cfg)

        monkeypatch.setattr(grad, "tangent_projector", projector)
        monkeypatch.setattr(grad, "infonce_grad", infonce)
        assert main(["verify", "--trials", "300"]) == 0
        assert max(T * n * n for T, n in projectors) <= 8192
        assert max(2 * T * B * n for T, B, n in batches) <= 8192
        # Whole blocks, not trials one at a time: 300 vectors of dims 2, 8 and 64
        # in 1 + 3 + 150 blocks, and 300 batches in 5.
        assert [T for T, n in projectors[:4]] == [300, 128, 128, 44] and len(projectors) == 154
        assert [T for T, _, _ in batches] == [64, 64, 64, 64, 44]


def _nan_scores(monkeypatch, gammas=None):
    """Make divide_by_norms return NaN, for every kind or for gammas only."""
    real = simcore.divide_by_norms

    def nan_scores(g, t, nq, nd):
        s = real(g, t, nq, nd)
        return s * math.nan if gammas is None or g is gammas else s

    monkeypatch.setattr(simcore, "divide_by_norms", nan_scores)


class TestNanResidualsFail:
    """A NaN residual fails its suite and reads NaN; max() would pass it over."""

    def test_corners(self, monkeypatch):
        _nan_scores(monkeypatch)
        r = suite_corners(np.random.default_rng(0), 3)
        assert not r.ok and math.isnan(r.err)

    def test_symmetry_qnorm_identity(self, monkeypatch):
        _nan_scores(monkeypatch, QNORM.gammas)
        r = suite_symmetry(np.random.default_rng(0), 3)
        assert not r.ok and math.isnan(r.err) and math.isnan(r.parts["qnorm"])
        assert r.parts["cosine/dot"] == 0.0 and r.note is None

    def test_ranking(self, monkeypatch):
        _nan_scores(monkeypatch)
        r = suite_ranking(np.random.default_rng(0), 3, 0)
        assert not r.ok and math.isnan(r.err) and r.tol == "exact"
        assert r.note == "block from trial 0: non-finite score in ranking for trial 0"

    def test_ranking_names_the_block_and_trial(self, monkeypatch):
        # Only the second block (trials 128-199) scores NaN, from its trial 5 on.
        real = simcore.divide_by_norms

        def nan_in_second_block(g, t, nq, nd):
            s = real(g, t, nq, nd)
            if len(t) == 72:
                s = s.copy()
                s[5:] = math.nan
            return s

        monkeypatch.setattr(simcore, "divide_by_norms", nan_in_second_block)
        with pytest.raises(NonFiniteEvaluation) as e:
            verify_ranking_equivalence(8, 16, 200, 0)
        assert str(e.value) == "block from trial 128: non-finite score in ranking for trial 5"

    def test_ranking_fails_verify(self, monkeypatch, capsys):
        # The ranking suite alone; test_cli's test_non_finite_probes_fail_their_suites runs all seven.
        _nan_scores(monkeypatch)
        monkeypatch.setattr(diagnostics, "SUITES", diagnostics.SUITES[:1])
        assert main(["verify", "--trials", "3"]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            "ranking-equivalence            nan  exact       FAIL",
            "  block from trial 0: non-finite score in ranking for trial 0",
            "FAILED: ranking-equivalence",
        ]

    def test_jacobian(self, monkeypatch):
        monkeypatch.setattr(grad, "tangent_projector", lambda V: np.full(V.shape + V.shape[-1:], math.nan))
        r = suite_jacobian(np.random.default_rng(0), 3)
        assert not r.ok and math.isnan(r.err) and math.isnan(r.parts["idempotency/null"])

    def test_radial(self, monkeypatch):
        real = grad._stack_grad

        signals = []

        def nan_stack_grad(kind, G, S, Q, C, norms=None):
            signals.append(G.shape)
            dQ, *rest = real(kind, G, S, Q, C, norms)
            return dQ * math.nan, *rest

        monkeypatch.setattr(grad, "_stack_grad", nan_stack_grad)
        r = suite_radial(np.random.default_rng(0), 3)
        assert not r.ok and math.isnan(r.err)
        assert signals == [(3, 8, 8)]  # the patch reached the block of three batches


TASK = TaskSpec(
    n_docs=32,
    n_queries=128,
    feature_dim=8,
    n_clusters=4,
    hub_fraction=0.1,
    hub_multiplicity=4,
    seed=6,
)


class TestMagnitudeReport:
    def test_fields_and_groups(self):
        task = gen_asymmetric(TASK)
        enc = init_encoder(8, 16, 8, shared=False, seed=1)
        report = magnitude_report(enc, task, DOT, split="test")
        rel = {d for q in task.split_queries("test") for d, g in task.qrels[q].items() if g >= 1}
        assert report.kind == "dot" and report.split == "test"
        assert report.n_rel == len(rel)
        assert report.n_rel + report.n_irrel == len(task.doc_ids)
        assert report.query_cv > 0 and report.doc_cv > 0
        assert report.delta_cv is None

    def test_cohens_d_is_scale_free(self):
        task = gen_asymmetric(TASK)
        enc = init_encoder(8, 0, 8, shared=False, seed=1)
        base = magnitude_report(enc, task, DOT)
        docs = forward(enc, task.doc_features, "doc")
        enc.params()["d.w1"] *= 3.0
        np.testing.assert_allclose(forward(enc, task.doc_features, "doc"), 3.0 * docs, rtol=1e-12)
        scaled = magnitude_report(enc, task, DOT)
        assert scaled.cohens_d == pytest.approx(base.cohens_d, rel=1e-9)
        assert scaled.doc_cv == pytest.approx(base.doc_cv, rel=1e-9)

    def test_empty_split_raises(self):
        task = gen_asymmetric(TaskSpec(**{**TASK.__dict__, "splits": (0.9, 0.1, 0.0)}))
        enc = init_encoder(8, 0, 8, shared=False, seed=1)
        with pytest.raises(EmptyInput):
            magnitude_report(enc, task, DOT, split="test")


class TestRelevanceCounter:
    def test_undefined_statistics_are_nan(self):
        task = gen_asymmetric(TASK)
        assert all(math.isnan(v) for v in relevance_counter(np.ones(len(task.doc_ids)), task))
        no_hubs = gen_asymmetric(TaskSpec(**{**TASK.__dict__, "hub_fraction": 0.0}))
        r, d = relevance_counter(np.arange(1.0, len(no_hubs.doc_ids) + 1.0), no_hubs)
        assert math.isfinite(r) and math.isnan(d)


class TestDeltaCV:
    def test_ratio_uses_query_dispersion(self):
        report = DiagnosticsReport(
            split="test", kind="dnorm", cohens_d=1.0,
            n_rel=10, n_irrel=20, query_cv=0.4, doc_cv=0.9,
        )
        out = with_delta_cv(report, dot_query_cv=0.2)
        assert out.delta_cv == pytest.approx(2.0, rel=1e-15)
        assert out.query_cv == report.query_cv and out.doc_cv == report.doc_cv

    def test_rejects_nonpositive_baseline(self):
        report = DiagnosticsReport(
            split="test", kind="dnorm", cohens_d=1.0,
            n_rel=10, n_irrel=20, query_cv=0.4, doc_cv=0.9,
        )
        with pytest.raises(DegenerateInput):
            with_delta_cv(report, 0.0)


class TestReportCSV:
    def test_layout(self, tmp_path):
        report = DiagnosticsReport(
            split="test", kind="cosine", cohens_d=0.5,
            n_rel=3, n_irrel=5, query_cv=0.1, doc_cv=0.2,
        )
        path = tmp_path / "reports.csv"
        write_report_csv(path, [report])
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert lines[1].startswith("test,cosine,0.5,3,5,")
