"""Ranking metrics and correlation statistics.

NDCG uses the graded-gain convention gain = 2^grade - 1 with discount
1/log2(rank + 1); ties in scores are broken lexicographically by doc id
before any metric is computed, so results are bit-reproducible across
runs and platforms.  Queries with no relevant documents score 0 and stay
in macro-averages.

Run files use the 6-column layout "query_id Q0 doc_id rank score tag";
relevance judgments use the 4-column layout "query_id 0 doc_id grade".
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .errors import DegenerateInput, DimensionMismatch, NonFiniteEvaluation, UnknownQuery

Qrels = dict[str, dict[str, int]]


@dataclass(frozen=True)
class RankedList:
    """One query's ranking: (doc_id, score) pairs with finite, non-increasing scores."""

    query_id: str
    entries: tuple

    def __post_init__(self):
        ids = [doc_id for doc_id, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate doc ids in ranking for {self.query_id}")
        scores = [s for _, s in self.entries]
        # A NaN compares false both ways, so the order check alone passes it.
        if not all(map(math.isfinite, scores)):
            raise NonFiniteEvaluation(f"non-finite score in ranking for {self.query_id}")
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError(f"scores not non-increasing for {self.query_id}")

    def doc_ids(self) -> list:
        return [doc_id for doc_id, _ in self.entries]


def ranked_list(query_id: str, scored_docs) -> RankedList:
    """Build a RankedList from unordered (doc_id, score) pairs.

    Sorts by descending score, breaking exact ties lexicographically by
    doc id.
    """
    ordered = sorted(scored_docs, key=lambda e: (-e[1], e[0]))
    return RankedList(query_id=query_id, entries=tuple(ordered))


def _grades_for(run: RankedList, qrels: Qrels) -> dict:
    if run.query_id not in qrels:
        raise UnknownQuery(f"query {run.query_id!r} absent from qrels")
    return qrels[run.query_id]


def ndcg_at_k(run: RankedList, qrels: Qrels, k: int) -> float:
    """DCG@k over 2^grade - 1 gains, normalized by the ideal DCG@k.

    Returns 0.0 for queries with no relevant documents.
    """
    grades = _grades_for(run, qrels)
    dcg = 0.0
    for rank, doc_id in enumerate(run.doc_ids()[:k], start=1):
        g = grades.get(doc_id, 0)
        if g > 0:
            dcg += (2.0**g - 1.0) / math.log2(rank + 1)
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
    if not ideal:
        return 0.0
    idcg = 0.0
    for rank, g in enumerate(ideal[:k], start=1):
        idcg += (2.0**g - 1.0) / math.log2(rank + 1)
    return dcg / idcg


def recall_at_k(run: RankedList, qrels: Qrels, k: int) -> float:
    """|relevant in top-k| / |relevant|, grade >= 1 counting as relevant."""
    grades = _grades_for(run, qrels)
    relevant = {d for d, g in grades.items() if g >= 1}
    if not relevant:
        return 0.0
    hit = sum(1 for d in run.doc_ids()[:k] if d in relevant)
    return hit / len(relevant)


def mrr_at_k(run: RankedList, qrels: Qrels, k: int) -> float:
    """Reciprocal rank of the first relevant document within top-k, else 0."""
    grades = _grades_for(run, qrels)
    for rank, doc_id in enumerate(run.doc_ids()[:k], start=1):
        if grades.get(doc_id, 0) >= 1:
            return 1.0 / rank
    return 0.0


def pearson(xs, ys) -> float:
    """Sample Pearson correlation; undefined on constant sequences."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise DimensionMismatch(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise DegenerateInput("correlation needs at least 2 points")
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInput("correlation undefined for a constant sequence")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def average_ranks(xs) -> list:
    """1-based ranks with ties replaced by the mean of their rank block."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = mean_rank
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Pearson correlation of average-tied ranks."""
    xs = list(xs)
    ys = list(ys)
    if len(xs) != len(ys):
        raise DimensionMismatch(f"length mismatch: {len(xs)} vs {len(ys)}")
    return pearson(average_ranks(xs), average_ranks(ys))


def write_run_file(path, runs, tag: str = "magnorm") -> None:
    """Write rankings in the 6-column run layout, rank starting at 1."""
    with open(path, "w") as fh:
        for run in runs:
            for rank, (doc_id, score) in enumerate(run.entries, start=1):
                fh.write(f"{run.query_id} Q0 {doc_id} {rank} {score:.10g} {tag}\n")


def read_run_file(path) -> list:
    """Read a 6-column run file back into RankedLists (one per query)."""
    per_query: dict[str, list] = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ValueError(f"expected 6 columns, got {len(parts)}: {line!r}")
            qid, _, did, rank, score, _ = parts
            per_query.setdefault(qid, []).append((int(rank), did, float(score)))
    runs = []
    for qid, rows in per_query.items():
        rows.sort()
        runs.append(RankedList(qid, tuple((did, score) for _, did, score in rows)))
    return runs


def read_qrels(path) -> Qrels:
    """Read 4-column judgments "query_id 0 doc_id grade"."""
    qrels: Qrels = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"expected 4 columns, got {len(parts)}: {line!r}")
            qid, _, did, grade = parts
            qrels.setdefault(qid, {})[did] = int(grade)
    return qrels


def write_qrels(path, qrels: Qrels) -> None:
    with open(path, "w") as fh:
        for qid in sorted(qrels):
            for did in sorted(qrels[qid]):
                fh.write(f"{qid} 0 {did} {qrels[qid][did]}\n")


METRIC_FUNCS = {"ndcg": ndcg_at_k, "recall": recall_at_k, "mrr": mrr_at_k}


def evaluate_runs(runs, qrels: Qrels, metric_ks) -> list:
    """Per-query metric rows plus an ALL macro-average row per metric.

    metric_ks is an iterable of (metric_name, k); rows come back as
    (query_id, metric, k, value) suitable for CSV export.
    """
    rows = []
    for name, k in metric_ks:
        fn = METRIC_FUNCS[name]
        values = []
        for run in runs:
            v = fn(run, qrels, k)
            rows.append((run.query_id, name, k, v))
            values.append(v)
        macro = sum(values) / len(values) if values else 0.0
        rows.append(("ALL", name, k, macro))
    return rows


def write_metrics_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["query_id", "metric", "k", "value"])
        for qid, name, k, v in rows:
            w.writerow([qid, name, k, f"{v:.10g}"])
