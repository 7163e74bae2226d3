"""Ranking metrics, the Pearson correlation, and the artifact writers.

NDCG uses the graded-gain convention gain = 2^grade - 1 with discount
1/log2(rank + 1); ties in scores are broken lexicographically by doc id
before any metric is computed, so results are bit-reproducible across
runs and platforms.  Queries with no relevant documents score 0 and stay
in macro-averages.

Two implementations share these rules.  RankedList with ndcg_at_k,
recall_at_k and mrr_at_k scores one query at a time and reads run files
back; GradeTable and Ranking rank a whole (queries x docs) score matrix
and grade it with array operations, bit for bit equal to the first, and
write_run_file writes a Ranking.  GradeTable.rank orders every rank by
default; with a depth it orders only the top depth ranks of each row
(training's NDCG@10 reads ten), and that partial Ranking refuses a
cutoff past its depth and write_run_file.

Run files use the 6-column layout "query_id Q0 doc_id rank score tag";
relevance judgments use the 4-column layout "query_id 0 doc_id grade".
write_csv writes every CSV artifact, floats as %.10g.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CorruptArtifact, DegenerateInput, DimensionMismatch, NonFiniteEvaluation, UnknownQuery

Array = np.ndarray
Qrels = dict[str, dict[str, int]]


def left_sum(values) -> float:
    """Floats added left to right from 0.0.

    Not sum(): Python 3.12's sum() compensates float rounding, which would
    move metric means and statistics between Python versions.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def macro_mean(values) -> float:
    """Mean of a list of floats, added left to right; 0.0 when empty."""
    return left_sum(values) / len(values) if values else 0.0


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


def _dcg(grades) -> float:
    """Sum of (2^g - 1) / log2(rank + 1) over the positive grades, in rank order."""
    dcg = 0.0
    for rank, g in enumerate(grades, start=1):
        if g > 0:
            dcg += (2.0**g - 1.0) / math.log2(rank + 1)
    return dcg


def _ideal_grades(grades: dict) -> list:
    return sorted((g for g in grades.values() if g > 0), reverse=True)


def ndcg_at_k(run: RankedList, qrels: Qrels, k: int) -> float:
    """DCG@k over 2^grade - 1 gains, normalized by the ideal DCG@k.

    Returns 0.0 for queries with no relevant documents.
    """
    grades = _grades_for(run, qrels)
    ideal = _ideal_grades(grades)
    if not ideal:
        return 0.0
    return _dcg(grades.get(doc_id, 0) for doc_id in run.doc_ids()[:k]) / _dcg(ideal[:k])


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


def id_order(ids) -> Array | None:
    """Positions of ids in string order, or None when ids are already in it."""
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    return None if by_id == list(range(len(by_id))) else np.array(by_id, dtype=np.intp)


def rank_order(scores: Array, by_id: Array | None) -> Array:
    """Column indices ordering the last axis of scores by (-score, doc id), by_id being id_order of the ids.

    Ties go to the lexicographically smaller id, as in ranked_list: an ascending stable sort over the
    columns in descending id order, read backwards.  With sorted ids that is a reversed view, not a copy."""
    if by_id is None:
        order = np.argsort(scores[..., ::-1], axis=-1, kind="stable")
        np.subtract(scores.shape[-1] - 1, order, out=order)
    else:
        desc = by_id[::-1]
        order = desc[np.argsort(scores[..., desc], axis=-1, kind="stable")]
    return order[..., ::-1]


class GradeTable:
    """One split's judgments as a dense (queries x docs) matrix, for ranking score matrices.

    Columns follow doc_ids, the column order of the score matrices it
    ranks.  A cell holds its grade's level: 0 for a grade below 1 or no
    judgment, else the 1-based index of the grade among the distinct
    positive grades, so gains[level] is 2^grade - 1 and the matrix stays
    small-int.  Build it once per split and rank many matrices with it.
    Raises UnknownQuery for a query absent from qrels.
    """

    def __init__(self, query_ids, doc_ids, qrels: Qrels):
        self.query_ids = list(query_ids)
        self.doc_ids = list(doc_ids)
        judged = []
        for qid in self.query_ids:
            if qid not in qrels:
                raise UnknownQuery(f"query {qid!r} absent from qrels")
            judged.append(qrels[qid])
        positive = sorted({g for grades in judged for g in grades.values() if g > 0})
        level = {g: i for i, g in enumerate(positive, start=1)}
        self.gains = np.array([0.0] + [2.0**g - 1.0 for g in positive])
        column = {d: j for j, d in enumerate(self.doc_ids)}
        self.levels = np.zeros((len(judged), len(self.doc_ids)), dtype=np.min_scalar_type(len(positive)))
        for i, grades in enumerate(judged):
            for d, g in grades.items():
                if g > 0 and d in column:
                    self.levels[i, column[d]] = level[g]
        self.n_relevant = np.array([sum(g >= 1 for g in grades.values()) for grades in judged], dtype=np.int64)
        # Ideal DCGs come from qrels, not the columns, as ndcg_at_k's do.
        self._ideal = [_ideal_grades(grades) for grades in judged]
        self._ideal_dcg = {}
        self._by_id = id_order(self.doc_ids)
        # Each column's position in doc-id order, the tie key of a partial rank.
        self._id_pos = None if self._by_id is None else np.argsort(self._by_id)

    def ideal_dcg(self, k: int) -> Array:
        """Per-query ideal DCG@k, computed once per k."""
        if k not in self._ideal_dcg:
            self._ideal_dcg[k] = np.array([_dcg(ideal[:k]) for ideal in self._ideal])
        return self._ideal_dcg[k]

    def rank(self, scores, depth: int | None = None) -> "Ranking":
        """Order each row of a (queries x docs) score matrix by rank_order.

        With depth below the number of docs, only each row's first depth
        ranks are ordered, and they equal the first depth columns of the
        full order: np.partition finds the row's depth-th largest score,
        every column scoring at least that much is a candidate (so every
        tie at that rank is one), and the candidates, taken in row-major
        order, are ordered by (row, -score, doc-id position) with the
        stable sorts np.lexsort would run, one key at a time from the
        last; with sorted ids the row-major order already is doc-id order.
        -0.0 ties 0.0 there as in the full order.  The returned Ranking
        refuses a metric cutoff past depth, and write_run_file refuses it.
        Raises NonFiniteEvaluation for a NaN or infinite score.
        """
        S = np.asarray(scores, dtype=np.float64)
        if S.shape != self.levels.shape:
            raise DimensionMismatch(f"score matrix {S.shape} does not match grade table {self.levels.shape}")
        if not np.isfinite(S).all():
            bad = int(np.flatnonzero(~np.isfinite(S).all(axis=1))[0])
            raise NonFiniteEvaluation(f"non-finite score in ranking for {self.query_ids[bad]}")
        n = S.shape[1]
        if depth is not None and depth < n:
            if depth < 1:
                raise ValueError(f"ranking depth must be at least 1, got {depth}")
            kth = np.partition(S, n - depth, axis=1)[:, n - depth]
            flat = np.flatnonzero(S >= kth[:, None])
            if self._id_pos is not None:
                flat = flat[np.argsort(self._id_pos[flat % n], kind="stable")]
            flat = flat[np.argsort(-S.ravel()[flat], kind="stable")]
            rows, cols = np.divmod(flat, n)
            # Row numbers in the narrowest unsigned type: numpy's stable sort radix-sorts it.
            cols = cols[np.argsort(rows.astype(np.min_scalar_type(len(S))), kind="stable")]
            counts = np.bincount(rows, minlength=len(S))
            return Ranking(self, S, cols[(np.cumsum(counts) - counts)[:, None] + np.arange(depth)])
        return Ranking(self, S, rank_order(S, self._by_id))


# A plain class: a dataclass definition would add about a millisecond to
# every import of the package.
class Ranking:
    """A GradeTable's score matrix with each row's columns in ranked order.

    A partial ranking (GradeTable.rank with a depth) holds only each row's
    first depth columns; its metrics raise ValueError for a cutoff past
    that depth, never answering from a truncated list.
    """

    def __init__(self, table: GradeTable, scores: Array, order: Array):
        self.table = table
        self.scores = scores
        self.order = order

    def is_partial(self) -> bool:
        return self.order.shape[1] < len(self.table.doc_ids)

    def _top_levels(self, k: int) -> Array:
        if k > self.order.shape[1] and self.is_partial():
            raise ValueError(f"cutoff {k} exceeds this ranking's depth of {self.order.shape[1]}")
        return np.take_along_axis(self.table.levels, self.order[:, :k], axis=1)

    def ndcg(self, k: int) -> Array:
        """Per-query NDCG@k, equal bit for bit to ndcg_at_k."""
        top = self._top_levels(k)
        dcg = np.zeros(len(top))
        # One column per rank keeps each query's additions in rank order.
        # A level-0 cell adds 0.0, which leaves the sum's bits unchanged.
        for r in range(top.shape[1]):
            dcg += self.table.gains[top[:, r]] / math.log2(r + 2)
        idcg = self.table.ideal_dcg(k)
        return np.divide(dcg, idcg, out=np.zeros_like(dcg), where=idcg > 0.0)

    def recall(self, k: int) -> Array:
        """Per-query Recall@k, equal bit for bit to recall_at_k."""
        hits = np.count_nonzero(self._top_levels(k), axis=1)
        n = self.table.n_relevant
        return np.divide(hits, n, out=np.zeros(len(n)), where=n > 0)

    def mrr(self, k: int) -> Array:
        """Per-query MRR@k, equal bit for bit to mrr_at_k."""
        hit = self._top_levels(k) > 0
        if hit.shape[1] == 0:
            return np.zeros(len(hit))
        return np.where(hit.any(axis=1), 1.0 / (hit.argmax(axis=1) + 1), 0.0)

    def metric_rows(self, metric_ks) -> list:
        """evaluate_runs' rows, with the same values, for this ranking."""
        rows = []
        for name, k in metric_ks:
            values = _RANKING_METRICS[name](self, k).tolist()
            rows += [(qid, name, k, v) for qid, v in zip(self.table.query_ids, values)]
            rows.append(("ALL", name, k, macro_mean(values)))
        return rows


_RANKING_METRICS = {"ndcg": Ranking.ndcg, "recall": Ranking.recall, "mrr": Ranking.mrr}


def pearson(xs, ys) -> float:
    """Sample Pearson correlation; undefined on constant sequences."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise DimensionMismatch(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise DegenerateInput("correlation needs at least 2 points")
    mx = left_sum(xs) / n
    my = left_sum(ys) / n
    sxx = left_sum((x - mx) ** 2 for x in xs)
    syy = left_sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInput("correlation undefined for a constant sequence")
    sxy = left_sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """Open a text file for writing that replaces path only once the block completes.

    The text goes to a temp file beside path, and os.replace moves it over
    path at the end, so path never holds a partial file; a crash can leave
    only the temp file behind.  When the block raises, the temp file is
    removed and path is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def refuse_overwrite(paths, force: bool) -> None:
    """Raise FileExistsError naming the first of paths that exists, unless force."""
    if force:
        return
    for p in paths:
        if os.path.exists(p):
            raise FileExistsError(f"{p} exists (use --force to overwrite)")


def write_run_file(path, ranking: Ranking, tag: str = "magnorm") -> None:
    """Write a Ranking in the 6-column run layout, rank starting at 1.

    The ranks and the tag are baked into one %-template per file, so each
    query's block is one % over its (query_id, doc_id, score) triples and
    one write.  '%.10g' % score is f"{score:.10g}".  The scores need no
    checks here: GradeTable.rank rejects non-finite ones and sorts them,
    and load_task rejects repeated doc ids.  Raises ValueError for a
    partial Ranking, which does not hold every doc.
    """
    if ranking.is_partial():
        raise ValueError(f"a run file lists every doc; this ranking holds only the top {ranking.order.shape[1]}")
    ids = ranking.table.doc_ids
    n = len(ids)
    tag = tag.replace("%", "%%")
    template = "".join(f"%s Q0 %s {rank} %.10g {tag}\n" for rank in range(1, n + 1))
    fields = [None] * (3 * n)
    with atomic_write(path) as fh:
        for qid, row, cols in zip(ranking.table.query_ids, ranking.scores, ranking.order):
            fields[0::3] = [qid] * n
            fields[1::3] = [ids[j] for j in cols.tolist()]
            fields[2::3] = row[cols].tolist()
            fh.write(template % tuple(fields))


def read_run_file(path) -> list:
    """Read a 6-column run file back into RankedLists (one per query).

    Raises CorruptArtifact naming the file and line for a row without 6
    columns, a rank that is not an integer, a score that does not parse
    or is not finite, a doc id repeated within a query, a query whose
    ranks are not 1..n, and a score above the one ranked before it.
    """
    per_query: dict[str, list] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise CorruptArtifact(f"{path}:{lineno}: expected 6 columns, got {len(parts)}")
            qid, _, did, rank, score, _ = parts
            try:
                r = int(rank)
            except ValueError:
                raise CorruptArtifact(f"{path}:{lineno}: rank {rank!r} is not an integer") from None
            try:
                s = float(score)
            except ValueError:
                s = math.nan
            if not math.isfinite(s):
                raise CorruptArtifact(f"{path}:{lineno}: score {score!r} is not a finite number")
            per_query.setdefault(qid, []).append((r, did, s))
    runs = []
    for qid, rows in per_query.items():
        # Rows hold no line numbers, which would cost memory on every valid
        # file; a failed check finds its line by reading the file again.
        ids = set()
        for _, did, _ in rows:
            if did in ids:
                line = _line_of(path, qid, did, nth=2)
                raise CorruptArtifact(f"{path}:{line}: doc {did!r} ranked twice for query {qid!r}")
            ids.add(did)
        rows.sort()
        for expect, (r, did, s) in enumerate(rows, start=1):
            if r != expect:
                line = _line_of(path, qid, did)
                raise CorruptArtifact(f"{path}:{line}: query {qid!r} has rank {r} where rank {expect} belongs")
            if expect > 1 and s > rows[expect - 2][2]:
                line = _line_of(path, qid, did)
                raise CorruptArtifact(f"{path}:{line}: query {qid!r} scores rank {r} above rank {r - 1}")
        runs.append(RankedList(qid, tuple((did, s) for _, did, s in rows)))
    return runs


def _line_of(path, qid, did, nth: int = 1) -> int:
    """Number of the nth line of a run file that ranks did for qid."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if len(parts) == 6 and parts[0] == qid and parts[2] == did:
                nth -= 1
                if nth == 0:
                    return lineno
    raise CorruptArtifact(f"{path} changed while it was read")


# The largest grade whose gain 2^grade - 1 float64 holds exactly.
MAX_GRADE = 53


def read_qrels(path) -> Qrels:
    """Read 4-column judgments "query_id 0 doc_id grade".

    Raises ValueError for a line without 4 columns or a grade that is not
    an integer in [0, MAX_GRADE].
    """
    qrels: Qrels = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"expected 4 columns, got {len(parts)}: {line!r}")
            qid, _, did, grade = parts
            g = int(grade)
            if not 0 <= g <= MAX_GRADE:
                raise ValueError(f"grade {g} outside [0, {MAX_GRADE}]: {line!r}")
            qrels.setdefault(qid, {})[did] = g
    return qrels


def write_qrels(path, qrels: Qrels) -> None:
    with atomic_write(path) as fh:
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
        rows.append(("ALL", name, k, macro_mean(values)))
    return rows


def write_csv(path, header, rows) -> None:
    """Write a header and rows as CSV, atomically, each float formatted as %.10g."""
    with atomic_write(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(["%.10g" % v if isinstance(v, float) else v for v in row])


def write_metrics_csv(path, rows) -> None:
    write_csv(path, ["query_id", "metric", "k", "value"], rows)
