"""Magnitude statistics, equivalence verification, and reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnorm.datagen import TaskSpec, gen_asymmetric
from magnorm.diagnostics import (
    REPORT_COLUMNS,
    DiagnosticsReport,
    cohens_d,
    cv,
    magnitude_report,
    rank_documents,
    relevance_counter,
    relevant_doc_ids,
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


def _ranked_ids(kind, q, docs) -> list:
    """rank_documents' one row for kind over (doc_id, vector) pairs, as doc ids."""
    ids = [did for did, _ in docs]
    (row,) = rank_documents([kind], q, np.array([d for _, d in docs]), ids)
    return [ids[j] for j in row.tolist()]


def _oracle_ids(kind, q, docs) -> list:
    """The per-document ranking: one scalar similarity per doc, sorted by ranked_list."""
    return ranked_list("", [(did, similarity(kind, q, d)) for did, d in docs]).doc_ids()


# Vector entries whose products and sums are exact, so the scalar and matrix
# scores agree bit for bit and every tie is a true tie; -0.0 included.
_ENTRY_POOL = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0)


@st.composite
def _ranking_case(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    vec = st.lists(st.sampled_from(_ENTRY_POOL), min_size=dim, max_size=dim)
    q = np.array(draw(vec))
    rows = []
    for _ in range(n):
        if rows and draw(st.booleans()):
            # A collinear scaling of an earlier doc: cosine and dnorm tie it.
            rows.append(draw(st.sampled_from((0.5, 1.0, 2.0, 3.0))) * rows[draw(st.integers(0, len(rows) - 1))])
        else:
            rows.append(np.array(draw(vec)))
    ids = draw(st.permutations([f"d{j}" for j in range(12)]))[:n]
    g = st.floats(0.0, 1.0)
    kinds = (COSINE, DOT, QNORM, DNORM, learnable(draw(g), draw(g)))
    return q, np.array(rows), ids, kinds


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
                    rank_documents([kind], q, D, ids)
                continue
            (row,) = rank_documents([kind], q, D, ids)
            assert [ids[j] for j in row.tolist()] == expect
            rows.append(row)
        if len(rows) == len(kinds):
            assert np.array_equal(rank_documents(kinds, q, D, ids), np.array(rows))

    @pytest.mark.parametrize(
        "D",
        [np.ones((3, 2)), np.ones((2, 3)), np.ones(2), np.array([[1.0, np.nan], [1.0, 1.0]])],
        ids=["more-rows-than-ids", "wrong-dim", "1-d", "nan"],
    )
    def test_rejects_a_malformed_document_matrix(self, D):
        with pytest.raises(DimensionMismatch):
            rank_documents([DOT], np.ones(2), D, ["d0", "d1"])


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



class TestSymmetrySuite:
    def test_passes_with_exact_cosine_and_dot_symmetry(self):
        r = suite_symmetry(np.random.default_rng(0), 50)
        assert r.ok and r.parts["cosine/dot"] == 0.0 and r.note is None

    def test_nan_cosine_score_fails(self, monkeypatch):
        real = simcore.similarity

        def nan_cosine(kind, q, d):
            return math.nan if kind == COSINE else real(kind, q, d)

        monkeypatch.setattr(simcore, "similarity", nan_cosine)
        r = suite_symmetry(np.random.default_rng(0), 5)
        assert not r.ok and r.parts["cosine/dot"] == math.inf
        assert r.note == "cosine/dot asymmetry inf (must be exactly 0)"

    def test_asymmetric_dot_fails_with_its_residual(self, monkeypatch):
        real = simcore.similarity

        def skewed_dot(kind, q, d):
            return real(kind, q, d) + (1e-15 * q[0] if kind == DOT else 0.0)

        monkeypatch.setattr(simcore, "similarity", skewed_dot)
        r = suite_symmetry(np.random.default_rng(0), 5)
        assert not r.ok and 0.0 < r.parts["cosine/dot"] < 1e-12
        assert r.note.endswith("(must be exactly 0)")

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
        rel = relevant_doc_ids(task, "test")
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
