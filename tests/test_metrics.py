"""Ranking metrics against brute-force oracles and scipy correlations."""

import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from magnorm import metrics
from magnorm.errors import CorruptArtifact, DegenerateInput, DimensionMismatch, NonFiniteEvaluation, UnknownQuery
from magnorm.metrics import (
    GradeTable,
    RankedList,
    evaluate_runs,
    macro_mean,
    mrr_at_k,
    ndcg_at_k,
    pearson,
    ranked_list,
    read_qrels,
    read_run_file,
    recall_at_k,
    write_metrics_csv,
    write_qrels,
    write_run_file,
)

GRADE_CYCLE = [2, 1, 0, 1, 0, 2]


def _oracle_ndcg(ranking, grades, k):
    """Independent rank-order DCG summation, same float op order as the library."""
    dcg = 0.0
    for rank, doc in enumerate(ranking[:k], start=1):
        g = grades.get(doc, 0)
        if g > 0:
            dcg += (2.0**g - 1.0) / math.log2(rank + 1)
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
    if not ideal:
        return 0.0
    idcg = 0.0
    for rank, g in enumerate(ideal[:k], start=1):
        idcg += (2.0**g - 1.0) / math.log2(rank + 1)
    return dcg / idcg


def _oracle_recall(ranking, grades, k):
    rel = {d for d, g in grades.items() if g >= 1}
    if not rel:
        return 0.0
    return sum(1 for d in ranking[:k] if d in rel) / len(rel)


def _oracle_mrr(ranking, grades, k):
    for rank, doc in enumerate(ranking[:k], start=1):
        if grades.get(doc, 0) >= 1:
            return 1.0 / rank
    return 0.0


def _run_from_order(order):
    # Descending integer scores keep the given order under the sort.
    entries = tuple((doc, float(len(order) - i)) for i, doc in enumerate(order))
    return RankedList("q0", entries)


class TestBruteForce:
    """Every permutation of up to 6 docs, every cutoff, exact equality."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_rankings_match_oracle(self, n):
        docs = [f"d{i}" for i in range(n)]
        grades = {doc: GRADE_CYCLE[i] for i, doc in enumerate(docs)}
        qrels = {"q0": grades}
        for order in itertools.permutations(docs):
            run = _run_from_order(order)
            for k in range(1, n + 1):
                assert ndcg_at_k(run, qrels, k) == _oracle_ndcg(order, grades, k)
                assert recall_at_k(run, qrels, k) == _oracle_recall(order, grades, k)
                assert mrr_at_k(run, qrels, k) == _oracle_mrr(order, grades, k)

    def test_no_relevant_docs_scores_zero(self):
        qrels = {"q0": {"d0": 0, "d1": 0}}
        run = _run_from_order(["d0", "d1"])
        assert ndcg_at_k(run, qrels, 2) == 0.0
        assert recall_at_k(run, qrels, 2) == 0.0
        assert mrr_at_k(run, qrels, 2) == 0.0


class TestFrozenValues:
    def test_single_relevant_at_rank_two(self):
        # One grade-1 doc placed second: NDCG = 1/log2(3), MRR = 1/2.
        qrels = {"q0": {"a": 0, "b": 1}}
        run = _run_from_order(["a", "b"])
        assert ndcg_at_k(run, qrels, 2) == pytest.approx(1.0 / math.log2(3.0), abs=1e-15)
        assert mrr_at_k(run, qrels, 2) == 0.5
        assert recall_at_k(run, qrels, 1) == 0.0
        assert recall_at_k(run, qrels, 2) == 1.0

    def test_perfect_ranking_is_one(self):
        qrels = {"q0": {"a": 2, "b": 1, "c": 0}}
        run = _run_from_order(["a", "b", "c"])
        assert ndcg_at_k(run, qrels, 3) == 1.0
        assert mrr_at_k(run, qrels, 3) == 1.0
        assert recall_at_k(run, qrels, 3) == 1.0

    def test_unknown_query_raises(self):
        run = _run_from_order(["a"])
        with pytest.raises(UnknownQuery):
            ndcg_at_k(run, {"other": {"a": 1}}, 1)


class TestRankedListConstruction:
    def test_tie_break_is_lexicographic(self):
        run = ranked_list("q", [("zz", 1.0), ("aa", 1.0), ("mm", 2.0)])
        assert run.doc_ids() == ["mm", "aa", "zz"]

    def test_duplicate_doc_rejected(self):
        with pytest.raises(ValueError):
            RankedList("q", (("a", 2.0), ("a", 1.0)))

    def test_increasing_scores_rejected(self):
        with pytest.raises(ValueError):
            RankedList("q", (("a", 1.0), ("b", 2.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        # An all-NaN list passes the order check, since NaN compares false both ways.
        with pytest.raises(NonFiniteEvaluation):
            RankedList("q", (("a", bad), ("b", bad)))


class TestCorrelations:
    def test_pearson_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            xs = rng.standard_normal(20)
            ys = 0.5 * xs + rng.standard_normal(20)
            assert pearson(xs, ys) == pytest.approx(stats.pearsonr(xs, ys).statistic, abs=1e-12)

    def test_perfect_line(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-15)

    def test_constant_sequence_raises(self):
        with pytest.raises(DegenerateInput):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            pearson([1, 2], [1, 2, 3])

    def test_too_short_raises(self):
        with pytest.raises(DegenerateInput):
            pearson([1], [2])

    def test_pearson_adds_left_to_right(self, monkeypatch):
        # math.fsum compensates rounding as Python 3.12's sum() does; standing
        # in for the module's sum, it moves no bit of the correlation.
        xs = [0.1] * 10 + [0.3, 0.7]
        ys = [0.2, 0.5, 0.9, 0.1, 0.3, 0.3, 0.6, 0.1, 0.7, 0.2, 0.4, 0.8]
        monkeypatch.setattr(metrics, "sum", math.fsum, raising=False)
        assert pearson(xs, ys) == 0.412001393770158


def _unjudged_ranking(query_ids, doc_ids, scores):
    """GradeTable.rank over queries that judge nothing: a Ranking for write_run_file."""
    return GradeTable(query_ids, doc_ids, {q: {} for q in query_ids}).rank(scores)


class TestFileFormats:
    def test_run_file_round_trip(self, tmp_path):
        ranking = _unjudged_ranking(["q1", "q2"], ["d1", "d2"], [[0.5, 0.75], [1.25, 0.0]])
        path = tmp_path / "run.txt"
        write_run_file(path, ranking, tag="testtag")
        back = read_run_file(path)
        assert {r.query_id: r.doc_ids() for r in back} == {"q1": ["d2", "d1"], "q2": ["d1", "d2"]}
        line = path.read_text().splitlines()[0]
        assert line.split() == ["q1", "Q0", "d2", "1", "0.75", "testtag"]

    def test_qrels_round_trip(self, tmp_path):
        qrels = {"q1": {"d1": 2, "d2": 0}, "q2": {"d3": 1}}
        path = tmp_path / "qrels.txt"
        write_qrels(path, qrels)
        assert read_qrels(path) == qrels

    def test_malformed_run_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("q1 Q0 d1 1 0.5\n")
        with pytest.raises(CorruptArtifact):
            read_run_file(path)

    # Each case replaces line 3 of a valid two-query file; its error names line 3.
    RUN_LINES = ["q1 Q0 d2 1 0.75 t", "q1 Q0 d1 2 0.5 t", "q1 Q0 d3 3 0.25 t", "q2 Q0 d1 1 1.25 t"]

    @pytest.mark.parametrize(
        "line3, message",
        [
            ("q1 Q0 d3 3 0.25", "expected 6 columns, got 5"),
            ("q1 Q0 d3 3 0.25 t extra", "expected 6 columns, got 7"),
            ("q1 Q0 d3 3.0 0.25 t", "rank '3.0' is not an integer"),
            ("q1 Q0 d3 three 0.25 t", "rank 'three' is not an integer"),
            ("q1 Q0 d3 3 zero t", "score 'zero' is not a finite number"),
            ("q1 Q0 d3 3 nan t", "score 'nan' is not a finite number"),
            ("q1 Q0 d3 3 -inf t", "score '-inf' is not a finite number"),
            ("q1 Q0 d2 3 0.25 t", "doc 'd2' ranked twice for query 'q1'"),
            ("q1 Q0 d3 4 0.25 t", "query 'q1' has rank 4 where rank 3 belongs"),
            ("q1 Q0 d3 2 0.25 t", "query 'q1' has rank 2 where rank 3 belongs"),
            ("q1 Q0 d3 3 0.875 t", "query 'q1' scores rank 3 above rank 2"),
        ],
        ids=[
            "5-columns",
            "7-columns",
            "rank-3.0",
            "rank-word",
            "score-word",
            "score-nan",
            "score-inf",
            "repeated-doc",
            "rank-gap",
            "rank-twice",
            "score-rises",
        ],
    )
    def test_corrupt_run_file_names_the_line(self, tmp_path, line3, message):
        path = tmp_path / "run.txt"
        lines = list(self.RUN_LINES)
        lines[2] = line3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptArtifact) as e:
            read_run_file(path)
        assert str(e.value) == f"{path}:3: {message}"

    def test_valid_run_file_reads_back_unchanged(self, tmp_path):
        path = tmp_path / "run.txt"
        # Rows out of rank order, a blank line, and a tie keep their meaning.
        path.write_text("q1 Q0 d1 2 0.5 t\n\nq1 Q0 d2 1 0.5 t\nq2 Q0 d1 1 -0.0 t\n")
        back = read_run_file(path)
        assert back == [RankedList("q1", (("d2", 0.5), ("d1", 0.5))), RankedList("q2", (("d1", -0.0),))]

    def test_metrics_csv_layout(self, tmp_path):
        rows = [("q1", "ndcg", 10, 0.5), ("ALL", "ndcg", 10, 0.5)]
        path = tmp_path / "m.csv"
        write_metrics_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,metric,k,value"
        assert lines[1] == "q1,ndcg,10,0.5"


class _Unprintable:
    """A value whose formatting raises, to fail a writer partway through its file."""

    def __str__(self):
        raise RuntimeError("cannot format")

    def __format__(self, spec):
        raise RuntimeError("cannot format")


def _write_run_failing_at_second_query(path):
    write_run_file(path, _unjudged_ranking(["q0", _Unprintable()], ["d0", "d1"], [[1.0, 0.0], [0.0, 1.0]]))


def _write_metrics_failing_at_second_row(path):
    write_metrics_csv(path, [("q0", "ndcg", 10, 0.5), ("q1", "ndcg", 10, _Unprintable())])


class TestAtomicWrites:
    """A writer that raises partway leaves neither a partial target nor its temp file."""

    @pytest.mark.parametrize(
        "write", [_write_run_failing_at_second_query, _write_metrics_failing_at_second_row], ids=["run", "metrics"]
    )
    def test_failed_write_leaves_no_file(self, tmp_path, write):
        with pytest.raises(RuntimeError):
            write(tmp_path / "out.txt")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "write", [_write_run_failing_at_second_query, _write_metrics_failing_at_second_row], ids=["run", "metrics"]
    )
    def test_failed_overwrite_keeps_the_old_file(self, tmp_path, write):
        path = tmp_path / "out.txt"
        path.write_text("old contents\n")
        with pytest.raises(RuntimeError):
            write(path)
        assert os.listdir(tmp_path) == ["out.txt"]
        assert path.read_text() == "old contents\n"


# Scores that tie exactly, -0.0 beside 0.0, subnormals and the float64 extremes.
WRITER_SCORES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 0.1, 1e300, -1e300, 1.7976931348623157e308]


def _per_line_run_file(query_ids, doc_ids, scores, tag):
    """The run file as the per-line writer formatted it: one f-string per ranked_list entry."""
    lines = []
    for qid, row in zip(query_ids, scores):
        run = ranked_list(qid, zip(doc_ids, row.tolist()))
        for rank, (doc, score) in enumerate(run.entries, start=1):
            lines.append(f"{run.query_id} Q0 {doc} {rank} {score:.10g} {tag}\n")
    return "".join(lines)


class TestRunFileBytes:
    """write_run_file against the per-line formula, byte for byte."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 5),
        st.integers(0, 12),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
        st.text(alphabet="ab%_{}()sd.", max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_the_per_line_writer(self, tmp_path_factory, seed, n_queries, n_docs, extra, tag):
        rng = np.random.default_rng(seed)
        pool = WRITER_SCORES + extra
        scores = np.array([[pool[i] for i in rng.integers(0, len(pool), size=n_docs)] for _ in range(n_queries)])
        scores = scores.reshape(n_queries, n_docs)
        # Unpadded, shuffled ids ("d10" sorts before "d9"), and query ids with % in them.
        doc_ids = [f"d{j}" for j in rng.permutation(n_docs)]
        query_ids = [f"q{i}%s%%{i}" for i in range(n_queries)]
        path = tmp_path_factory.mktemp("run") / "run.txt"
        write_run_file(path, _unjudged_ranking(query_ids, doc_ids, scores), tag=tag)
        assert path.read_text() == _per_line_run_file(query_ids, doc_ids, scores, tag)


class TestEvaluateRuns:
    def test_macro_average_includes_zero_queries(self):
        qrels = {"q1": {"d1": 1}, "q2": {"d1": 0}}
        runs = [
            ranked_list("q1", [("d1", 1.0)]),
            ranked_list("q2", [("d1", 1.0)]),
        ]
        rows = evaluate_runs(runs, qrels, [("ndcg", 10), ("mrr", 10)])
        by_key = {(qid, m): v for qid, m, _, v in rows}
        assert by_key[("q1", "ndcg")] == 1.0
        assert by_key[("q2", "ndcg")] == 0.0
        assert by_key[("ALL", "ndcg")] == 0.5
        assert by_key[("ALL", "mrr")] == 0.5

    def test_row_order_groups_by_metric(self):
        qrels = {"q1": {"d1": 1}}
        runs = [ranked_list("q1", [("d1", 1.0)])]
        rows = evaluate_runs(runs, qrels, [("recall", 5), ("mrr", 5)])
        assert [(r[0], r[1]) for r in rows] == [
            ("q1", "recall"),
            ("ALL", "recall"),
            ("q1", "mrr"),
            ("ALL", "mrr"),
        ]

    def test_macro_mean_adds_left_to_right(self):
        # A compensated sum (math.fsum, Python 3.12's sum) gives 1/3 here.
        assert macro_mean([1e16, 1.0, -1e16]) == 0.0
        assert macro_mean([]) == 0.0


# Score values drawn so that ties are common, -0.0 ties 0.0, and signs mix.
TIE_SCORES = [-1.5, -0.0, 0.0, 0.25, 1.0, 1.0e300]


def _random_split(seed, n_queries, n_docs, shuffled):
    """Scores, unpadded doc ids ("d10" sorts before "d9"), and qrels.

    The ids are in id order or, when shuffled, in random order.  Grades
    are 0-2; some queries judge nothing relevant, and some judge a doc
    that is not among the columns.
    """
    rng = np.random.default_rng(seed)
    doc_ids = [f"d{j}" for j in rng.permutation(n_docs)] if shuffled else sorted(f"d{j}" for j in range(n_docs))
    query_ids = [f"q{i}" for i in range(n_queries)]
    scores = rng.choice(TIE_SCORES, size=(n_queries, n_docs))
    qrels = {}
    for qid in query_ids:
        judged = rng.choice(n_docs, size=int(rng.integers(0, n_docs + 1)), replace=False)
        qrels[qid] = {doc_ids[j]: int(rng.integers(0, 3)) for j in judged}
        if rng.random() < 0.2:
            qrels[qid]["d_absent"] = int(rng.integers(1, 3))
    return query_ids, doc_ids, scores, qrels


def _entries(ranking):
    """Each query's (doc_id, score) pairs in the ranking's order, as RankedList.entries holds them."""
    ids = ranking.table.doc_ids
    return [
        tuple((ids[j], row[j]) for j in cols.tolist())
        for row, cols in zip(ranking.scores.tolist(), ranking.order)
    ]


class TestGradeTableMatchesOracle:
    """The matrix evaluator against ranked_list and the per-query metrics, with exact ==."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 14), st.integers(1, 17), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_order_and_metrics_equal_the_oracle(self, seed, n_queries, n_docs, k, shuffled):
        query_ids, doc_ids, scores, qrels = _random_split(seed, n_queries, n_docs, shuffled)
        table = GradeTable(query_ids, doc_ids, qrels)
        ranking = table.rank(scores)
        runs = [ranked_list(q, zip(doc_ids, row.tolist())) for q, row in zip(query_ids, scores)]
        assert _entries(ranking) == [r.entries for r in runs]
        for name, fn in (("ndcg", ndcg_at_k), ("recall", recall_at_k), ("mrr", mrr_at_k)):
            got = getattr(ranking, name)(k).tolist()
            assert got == [fn(run, qrels, k) for run in runs], name
        metric_ks = [("ndcg", k), ("recall", k), ("mrr", k)]
        assert ranking.metric_rows(metric_ks) == evaluate_runs(runs, qrels, metric_ks)
        partial = table.rank(scores, depth=k)
        assert partial.order.tolist() == ranking.order[:, :k].tolist()
        for name in ("ndcg", "recall", "mrr"):
            assert getattr(partial, name)(k).tobytes() == getattr(ranking, name)(k).tobytes(), name

    def test_sorted_ids_take_the_unpermuted_path(self):
        # d0..d3 are in id order, so ties fall back to column order.
        table = GradeTable(["q"], ["d0", "d1", "d2", "d3"], {"q": {"d2": 2, "d3": 1}})
        ranking = table.rank([[1.0, 2.0, 1.0, 2.0]])
        assert [[doc for doc, _ in entries] for entries in _entries(ranking)] == [["d1", "d3", "d0", "d2"]]
        assert ranking.mrr(4).tolist() == [0.5]

    def test_all_equal_row_ranks_every_candidate_by_doc_id(self):
        # Every column ties, -0.0 with 0.0, so every column is a candidate;
        # the unpadded ids are out of id order.
        doc_ids = ["d9", "d10", "d2", "d1", "d0"]
        table = GradeTable(["q0", "q1"], doc_ids, {"q0": {"d1": 2}, "q1": {"d2": 1}})
        scores = [[0.0, -0.0, 0.0, -0.0, 0.0], [0.5, 2.0, -1.0, 2.0, 0.5]]
        partial = table.rank(scores, depth=3)
        assert partial.order.tolist() == table.rank(scores).order[:, :3].tolist()
        assert [doc_ids[j] for j in partial.order[0]] == ["d0", "d1", "d10"]
        assert partial.ndcg(3).tobytes() == table.rank(scores).ndcg(3).tobytes()

    def test_partial_ranking_refuses_what_it_does_not_hold(self, tmp_path):
        table = GradeTable(["q"], ["d0", "d1", "d2"], {"q": {"d2": 1}})
        partial = table.rank([[0.3, 0.2, 0.1]], depth=2)
        assert partial.mrr(2).tolist() == [0.0]
        for name in ("ndcg", "recall", "mrr"):
            with pytest.raises(ValueError, match="depth of 2"):
                getattr(partial, name)(3)
        with pytest.raises(ValueError, match="top 2"):
            write_run_file(tmp_path / "run.txt", partial)
        assert not (tmp_path / "run.txt").exists()
        with pytest.raises(ValueError, match="at least 1"):
            table.rank([[0.3, 0.2, 0.1]], depth=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_raises(self, bad):
        table = GradeTable(["q0", "q1"], ["d0", "d1"], {"q0": {"d0": 1}, "q1": {"d1": 1}})
        with pytest.raises(NonFiniteEvaluation, match="q1"):
            table.rank([[1.0, 0.5], [bad, 0.5]])

    def test_query_absent_from_qrels_raises(self):
        with pytest.raises(UnknownQuery, match="q1"):
            GradeTable(["q0", "q1"], ["d0"], {"q0": {"d0": 1}})

    def test_shape_mismatch_raises(self):
        table = GradeTable(["q0"], ["d0", "d1"], {"q0": {"d0": 1}})
        with pytest.raises(DimensionMismatch):
            table.rank([[1.0, 0.5, 0.0]])
