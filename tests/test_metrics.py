"""Ranking metrics against brute-force oracles and scipy correlations."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from magnorm.errors import DegenerateInput, DimensionMismatch, NonFiniteEvaluation, UnknownQuery
from magnorm.metrics import (
    RankedList,
    average_ranks,
    evaluate_runs,
    mrr_at_k,
    ndcg_at_k,
    pearson,
    ranked_list,
    read_qrels,
    read_run_file,
    recall_at_k,
    spearman,
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

    def test_spearman_matches_scipy_with_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            xs = rng.integers(0, 5, size=25).astype(float)
            ys = xs + rng.integers(0, 3, size=25)
            assert spearman(xs, ys) == pytest.approx(
                stats.spearmanr(xs, ys).statistic, abs=1e-12
            )

    def test_perfect_line(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-15)
        assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-15)

    def test_constant_sequence_raises(self):
        with pytest.raises(DegenerateInput):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            pearson([1, 2], [1, 2, 3])

    def test_too_short_raises(self):
        with pytest.raises(DegenerateInput):
            pearson([1], [2])

    def test_average_ranks_ties(self):
        assert average_ranks([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]
        assert average_ranks([5, 5, 5]) == [2.0, 2.0, 2.0]
        assert average_ranks([3, 1, 2]) == [3.0, 1.0, 2.0]


class TestFileFormats:
    def test_run_file_round_trip(self, tmp_path):
        runs = [
            ranked_list("q1", [("d2", 0.75), ("d1", 0.5)]),
            ranked_list("q2", [("d1", 1.25)]),
        ]
        path = tmp_path / "run.txt"
        write_run_file(path, runs, tag="testtag")
        back = read_run_file(path)
        assert {r.query_id: r.doc_ids() for r in back} == {"q1": ["d2", "d1"], "q2": ["d1"]}
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
        with pytest.raises(ValueError):
            read_run_file(path)

    def test_metrics_csv_layout(self, tmp_path):
        rows = [("q1", "ndcg", 10, 0.5), ("ALL", "ndcg", 10, 0.5)]
        path = tmp_path / "m.csv"
        write_metrics_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "query_id,metric,k,value"
        assert lines[1] == "q1,ndcg,10,0.5"


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
