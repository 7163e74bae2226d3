"""Deterministic synthetic retrieval and similarity tasks.

Asymmetric tasks are clustered corpora: documents scatter around unit
cluster centers, queries are noisy copies of a generating document, and
an optional fraction of hub documents is wired up as additionally
relevant to many queries from other clusters.  Hubs exist to exercise
magnitude dynamics: a document that serves as a positive for diverse
queries accumulates gradient pull from many directions.

Symmetric tasks are scored pairs whose target depends only on the angle
between two latent directions, never on which slot a vector occupies.

All generation flows from one seeded generator, so equal seeds produce
byte-identical tasks.
"""

from __future__ import annotations

import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptArtifact, InfeasibleSpec
from .metrics import GradeTable, Qrels, atomic_write, refuse_overwrite, write_qrels

Array = np.ndarray

SPLIT_NAMES = ("train", "val", "test")

# Same-cluster documents added as grade-1 positives per query, beyond the
# grade-2 generating document.  One keeps organic relevance counts low
# enough that hub counts dominate by a wide factor.
EXTRA_POSITIVES = 1

# Angular decay scale (radians) for hub-to-query assignment weights.
HUB_ANGLE_SCALE = math.pi / 4

# Most difference entries (block rows x members x dim) one neighbor block holds.
_DIST_BUDGET = 1 << 13


@dataclass(frozen=True)
class TaskSpec:
    """Generator parameters for one synthetic task."""

    n_docs: int
    n_queries: int
    feature_dim: int
    n_clusters: int
    hub_fraction: float = 0.0
    hub_multiplicity: int = 1
    noise_sigma: float = 0.1
    seed: int = 0
    splits: tuple = (0.8, 0.1, 0.1)

    def __post_init__(self):
        if min(self.n_docs, self.n_queries, self.feature_dim, self.n_clusters) < 1:
            raise ValueError("counts and dimensions must be positive")
        if self.n_clusters > self.n_docs:
            raise ValueError("n_clusters must not exceed n_docs")
        if not (0.0 <= self.hub_fraction <= 1.0):
            raise ValueError("hub_fraction must lie in [0, 1]")
        if self.hub_multiplicity < 1:
            raise ValueError("hub_multiplicity must be positive")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be nonnegative")
        fr = tuple(float(f) for f in self.splits)
        object.__setattr__(self, "splits", fr)
        if len(fr) != 3 or any(f < 0.0 or f > 1.0 for f in fr):
            raise ValueError("splits must be three fractions in [0, 1]")
        if abs(sum(fr) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fr)}")


@dataclass
class SyntheticTask:
    """Generated corpus, queries, graded judgments, and bookkeeping.

    hub_ids is exported as hubs.json.  relevance_count is derived from
    qrels: per document, the number of queries that judge it grade >= 1.

    A task is read-only once something has trained or ranked on it: the
    row maps and relevance_count are built with it, and each split's
    grade_table and positive_index on first use, and none of them follows
    a later edit of the fields they read.
    """

    doc_ids: list
    query_ids: list
    doc_features: Array
    query_features: Array
    qrels: Qrels
    split_of: dict
    hub_ids: list | None = None
    _doc_row: dict = field(init=False, repr=False)
    _query_row: dict = field(init=False, repr=False)
    relevance_count: dict = field(init=False)
    # (method name, split) -> what grade_table and positive_index built.
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.relevance_count = {d: 0 for d in self.doc_ids}
        for grades in self.qrels.values():
            for d, g in grades.items():
                if g >= 1:
                    self.relevance_count[d] += 1
        self._doc_row = {d: i for i, d in enumerate(self.doc_ids)}
        self._query_row = {q: i for i, q in enumerate(self.query_ids)}

    def doc_row(self, doc_id: str) -> int:
        return self._doc_row[doc_id]

    def query_row(self, query_id: str) -> int:
        return self._query_row[query_id]

    def split_queries(self, name: str) -> list:
        """Query ids of one split, in corpus order."""
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}")
        return [q for q in self.query_ids if self.split_of[q] == name]

    def grade_table(self, split: str) -> GradeTable:
        """One split's judgments against the whole corpus, for ranking that split; built once per split."""
        key = ("grade_table", split)
        if key not in self._memo:
            self._memo[key] = GradeTable(self.split_queries(split), self.doc_ids, self.qrels)
        return self._memo[key]

    def positive_index(self, split: str) -> tuple:
        """(query_ids, query_rows, count, first, flat_rows) of one split, built once per split.

        Query i of the query_ids tuple has feature row query_rows[i] and
        count[i] relevant docs (0 for none), whose rows are
        flat_rows[first[i]:first[i] + count[i]] in relevant_of's order.
        The arrays are read-only.
        """
        key = ("positive_index", split)
        if key not in self._memo:
            qids = self.split_queries(split)
            rows = [[self.doc_row(d) for d in self.relevant_of(q)] for q in qids]
            count = np.array([len(r) for r in rows], dtype=np.int64)
            arrays = (
                np.array([self.query_row(q) for q in qids], dtype=np.intp),
                count,
                np.cumsum(count) - count,
                np.array([r for doc_rows in rows for r in doc_rows], dtype=np.intp),
            )
            for array in arrays:
                array.flags.writeable = False
            self._memo[key] = (tuple(qids), *arrays)
        return self._memo[key]

    def relevant_of(self, query_id: str) -> list:
        """Doc ids with grade >= 1 for this query, sorted for determinism."""
        return sorted(d for d, g in self.qrels[query_id].items() if g >= 1)


def _doc_id(i: int, width: int) -> str:
    return f"d{i:0{width}d}"


def _query_id(i: int, width: int) -> str:
    return f"q{i:0{width}d}"


def _unit_rows(rng, count: int, dim: int) -> Array:
    rows = rng.standard_normal((count, dim))
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        rows[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / norms


def gen_asymmetric(spec: TaskSpec) -> SyntheticTask:
    """Generate a clustered retrieval task with optional hub documents.

    Judgments: grade 2 for each query's generating document, grade 1 for
    that document's nearest same-cluster neighbors, grade 1 again for hub
    assignments.  Hub documents are wired to hub_multiplicity distinct
    queries from other clusters, sampled with probability decaying in the
    angular distance between query and hub.  Every query of another
    cluster is eligible: no earlier judgment can name the hub (see the
    comment in the hub loop).  Query rows are normalized once, and each
    hub still scores its eligible rows with one (E, dim) @ (dim,) product,
    so every weight, and with it every draw, keeps its bits.
    """
    if spec.hub_fraction > 0.0 and spec.hub_multiplicity > spec.n_queries:
        raise InfeasibleSpec(
            f"hub_multiplicity {spec.hub_multiplicity} exceeds n_queries {spec.n_queries}"
        )
    rng = np.random.default_rng(spec.seed)
    m = spec.feature_dim
    centers = _unit_rows(rng, spec.n_clusters, m)
    cluster = np.arange(spec.n_docs) % spec.n_clusters
    doc_features = centers[cluster] + spec.noise_sigma * rng.standard_normal((spec.n_docs, m))

    gen_doc = rng.integers(0, spec.n_docs, size=spec.n_queries)
    query_features = doc_features[gen_doc] + spec.noise_sigma * rng.standard_normal(
        (spec.n_queries, m)
    )
    # Hub weights score unit query rows: normalize each row once, before
    # the judgments exist, so the norm's temporaries never add to them.
    unit_queries = query_features / np.linalg.norm(query_features, axis=1, keepdims=True)

    dw = max(1, len(str(spec.n_docs - 1)))
    qw = max(1, len(str(spec.n_queries - 1)))
    doc_ids = [_doc_id(i, dw) for i in range(spec.n_docs)]
    query_ids = [_query_id(i, qw) for i in range(spec.n_queries)]

    neighbors = _nearest_same_cluster(doc_features, cluster, EXTRA_POSITIVES)

    qrels: Qrels = {}
    for qi in range(spec.n_queries):
        di = int(gen_doc[qi])
        grades = {doc_ids[di]: 2}
        for nb in neighbors[di]:
            grades[doc_ids[nb]] = 1
        qrels[query_ids[qi]] = grades

    n_hubs = int(round(spec.hub_fraction * spec.n_docs))
    hub_rows = sorted(rng.choice(spec.n_docs, size=n_hubs, replace=False)) if n_hubs else []
    query_cluster = cluster[gen_doc]
    for hub in hub_rows:
        # Each judgment so far pairs a query with a doc of that query's own
        # cluster (its generating doc and that doc's neighbors) or with an
        # earlier, distinct hub, so no query of another cluster judges
        # this hub yet: all of them are eligible.
        eligible = np.flatnonzero(query_cluster != cluster[hub])
        if eligible.size < spec.hub_multiplicity:
            raise InfeasibleSpec(
                f"hub doc {doc_ids[hub]} has {eligible.size} eligible queries, "
                f"needs {spec.hub_multiplicity}"
            )
        weights = _angular_weights(unit_queries[eligible], doc_features[hub])
        chosen = rng.choice(eligible, size=spec.hub_multiplicity, replace=False, p=weights)
        for qi in chosen:
            qrels[query_ids[int(qi)]][doc_ids[hub]] = 1

    split_of = _assign_splits(query_ids, spec.splits, rng)
    return SyntheticTask(
        doc_ids=doc_ids,
        query_ids=query_ids,
        doc_features=doc_features,
        query_features=query_features,
        qrels=qrels,
        split_of=split_of,
        hub_ids=[doc_ids[h] for h in hub_rows],
    )


def _nearest_same_cluster(doc_features: Array, cluster: Array, k: int) -> list:
    """Per document, indices of its k nearest same-cluster neighbors.

    Works one cluster at a time: a block of member rows takes its
    distances to every member at once, its own entry masked with inf, and
    a stable argsort breaks ties by the lower doc index.  Blocks hold at
    most _DIST_BUDGET difference entries, so a large cluster never builds
    its full (M, M, dim) array.
    """
    out = [[] for _ in range(doc_features.shape[0])]
    for c in range(int(cluster.max()) + 1):
        members = np.flatnonzero(cluster == c)
        take = min(k, members.size - 1)
        if take < 1:
            continue
        feats = doc_features[members]
        step = max(1, _DIST_BUDGET // feats.size)
        for lo in range(0, members.size, step):
            block = np.arange(lo, min(lo + step, members.size))
            dists = np.linalg.norm(feats - feats[block, None], axis=-1)
            dists[np.arange(block.size), block] = np.inf
            order = np.argsort(dists, axis=-1, kind="stable")[:, :take]
            for row, nbrs in zip(members[block].tolist(), members[order].tolist()):
                out[row] = nbrs
    return out


def _angular_weights(unit_queries: Array, hub: Array) -> Array:
    hn = hub / np.linalg.norm(hub)
    cos = np.clip(unit_queries @ hn, -1.0, 1.0)
    theta = np.arccos(cos)
    w = np.exp(-theta / HUB_ANGLE_SCALE)
    return w / w.sum()


def split_bounds(n: int, fractions) -> tuple:
    """How many of n permuted queries come before the val split, and before the test split."""
    return int(round(fractions[0] * n)), int(round((fractions[0] + fractions[1]) * n))


def _assign_splits(query_ids, fractions, rng) -> dict:
    perm = rng.permutation(len(query_ids))
    b1, b2 = split_bounds(len(query_ids), fractions)
    split_of = {}
    for pos, qi in enumerate(perm):
        name = "train" if pos < b1 else ("val" if pos < b2 else "test")
        split_of[query_ids[int(qi)]] = name
    return split_of


def gen_symmetric(spec: TaskSpec) -> list:
    """Scored pairs (features_a, features_b, target) for symmetric scoring.

    The target is (1 + cos angle) / 2 between the two latent unit
    directions: 1 for identical directions, 0 for antipodal ones, and
    unchanged under swapping the pair.  Magnitudes are randomized per
    side so a magnitude-sensitive scorer cannot hide behind equal norms,
    and slot order is shuffled so nothing identifies "side a".
    """
    if spec.feature_dim < 2:
        raise InfeasibleSpec("symmetric pairs need feature_dim >= 2")
    rng = np.random.default_rng(spec.seed)
    m = spec.feature_dim
    pairs = []
    for _ in range(spec.n_queries):
        u = _unit_rows(rng, 1, m)[0]
        w = rng.standard_normal(m)
        w -= (w @ u) * u
        wn = np.linalg.norm(w)
        while wn == 0.0:
            w = rng.standard_normal(m)
            w -= (w @ u) * u
            wn = np.linalg.norm(w)
        w /= wn
        angle = rng.uniform(0.0, math.pi)
        v = math.cos(angle) * u + math.sin(angle) * w
        target = (1.0 + math.cos(angle)) / 2.0
        sa, sb = rng.uniform(0.5, 2.0, size=2)
        a = sa * u + spec.noise_sigma * rng.standard_normal(m)
        b = sb * v + spec.noise_sigma * rng.standard_normal(m)
        if rng.random() < 0.5:
            a, b = b, a
        pairs.append((a, b, target))
    return pairs


# ---------------------------------------------------------------------------
# Disk layout: corpus.jsonl, queries.jsonl, qrels.txt, splits.json, hubs.json
# ---------------------------------------------------------------------------

TASK_FILES = ("corpus.jsonl", "queries.jsonl", "qrels.txt", "splits.json", "hubs.json")


def export_task(task: SyntheticTask, outdir: str, force: bool = False) -> list:
    """Write the five task files; refuses to overwrite unless forced.

    hubs.json is a JSON list of the hub doc ids in corpus order.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, name) for name in TASK_FILES]
    refuse_overwrite(paths, force)
    _write_jsonl(paths[0], task.doc_ids, task.doc_features)
    _write_jsonl(paths[1], task.query_ids, task.query_features)
    write_qrels(paths[2], task.qrels)
    splits = {name: task.split_queries(name) for name in SPLIT_NAMES}
    for path, obj in ((paths[3], splits), (paths[4], task.hub_ids)):
        with atomic_write(path) as fh:
            json.dump(obj, fh, indent=1)
            fh.write("\n")
    return paths


def _write_jsonl(path, ids, features: Array) -> None:
    with atomic_write(path) as fh:
        for i, ident in enumerate(ids):
            fh.write(json.dumps({"id": ident, "features": features[i].tolist()}) + "\n")


# Parsed feature files by content: sha256 of the bytes -> (ids, read-only
# features).  Two entries hold one task's corpus and queries, so the
# commands of a `magnorm batch` over one task directory parse each file once.
_PARSED: dict = {}
_PARSED_SIZE = 2


def _read_jsonl(path) -> tuple:
    """(ids, features) of a feature file, parsed once per content.

    The file's sha256 keys the memo.  A hit returns a fresh ids list and
    the shared features array, which is read-only.  A miss parses the same
    open file from its start, so the file's bytes are never held whole
    beside the parsed rows.
    """
    import hashlib  # only the commands that load a task pay its import

    with open(path, "rb") as fh:
        digest = hashlib.sha256()
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
        key = digest.digest()
        parsed = _PARSED.pop(key, None)
        if parsed is None:
            fh.seek(0)
            # What open(path) in text mode builds: the same decode, universal newlines only.
            with io.TextIOWrapper(fh) as text:
                parsed = _parse_jsonl(text)
            if len(_PARSED) >= _PARSED_SIZE:
                del _PARSED[next(iter(_PARSED))]
    _PARSED[key] = parsed
    ids, features = parsed
    return list(ids), features


def _parse_jsonl(lines) -> tuple:
    ids, rows = [], []
    for line in lines:
        if not line.strip():
            continue
        rec = json.loads(line)
        if not isinstance(rec["id"], str):
            raise TypeError(f"id {rec['id']!r} is not a string")
        ids.append(rec["id"])
        rows.append(rec["features"])
    _reject_repeats(ids)
    features = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(features)
    if not finite.all():
        raise ValueError(f"id {ids[np.argwhere(~finite)[0][0]]!r} has a non-finite feature")
    features.flags.writeable = False
    return tuple(ids), features


def _reject_repeats(ids: list) -> None:
    repeated = [ident for ident, count in Counter(ids).items() if count > 1]
    if repeated:
        raise ValueError(f"id {repeated[0]!r} appears more than once")


def _read_splits(path) -> dict:
    with open(path) as fh:
        splits = json.load(fh)
    if not isinstance(splits, dict):
        raise ValueError("not a JSON object")
    for name, qs in splits.items():
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}, not one of {', '.join(SPLIT_NAMES)}")
        if not isinstance(qs, list) or not all(isinstance(q, str) for q in qs):
            raise TypeError(f"split {name!r} is not a list of query ids")
    split_of = {q: name for name, qs in splits.items() for q in qs}
    # A query listed twice leaves the map shorter than the lists; only then name it.
    if len(split_of) < sum(map(len, splits.values())):
        _reject_repeats([q for qs in splits.values() for q in qs])
    return split_of


def _read_hubs(path) -> list:
    with open(path) as fh:
        hubs = json.load(fh)
    if not isinstance(hubs, list) or not all(isinstance(d, str) for d in hubs):
        raise TypeError("not a list of doc ids")
    _reject_repeats(hubs)
    return hubs


def load_task(outdir: str) -> SyntheticTask:
    """Rebuild a task from its five exported files.

    A file that does not parse, or a line that lacks a field, has one of
    the wrong type or a non-finite feature, raises CorruptArtifact naming
    it, and so do a doc, query or hub id listed twice (in splits.json, under
    one split or two), a qrels or hub doc id absent from the corpus, a
    qrels or splits.json query id absent from queries.jsonl, a split name
    other than train, val and test, a query without a line in qrels.txt
    and a query without a split.  Both feature matrices must be 2-D with one width
    of at least 1: corpus.jsonl is named for a width of 0 (or rows that
    are not lists), queries.jsonl for a width the corpus does not have.

    Every call builds a new task, with its own id lists, row maps and
    split memos, and parses qrels.txt, splits.json and hubs.json anew.
    The two feature files are parsed once per content in a process: a
    feature file whose bytes hash (sha256) to one of the last two parsed
    reuses that parse, sharing its features array.  Both feature arrays
    are read-only.
    """
    from .metrics import read_qrels

    def read(name, reader):
        path = os.path.join(outdir, name)
        try:
            return reader(path)
        except (KeyError, TypeError, ValueError) as e:
            raise CorruptArtifact(f"{path} is malformed ({type(e).__name__}: {e})") from None

    doc_ids, doc_features = read("corpus.jsonl", _read_jsonl)
    query_ids, query_features = read("queries.jsonl", _read_jsonl)
    if doc_features.ndim != 2 or doc_features.shape[1] < 1:
        path = os.path.join(outdir, "corpus.jsonl")
        raise CorruptArtifact(f"{path} needs rows of at least one feature, got shape {doc_features.shape}")
    if query_features.shape[1:] != doc_features.shape[1:]:
        path = os.path.join(outdir, "queries.jsonl")
        raise CorruptArtifact(
            f"{path} has feature rows of shape {query_features.shape}, "
            f"corpus.jsonl rows have {doc_features.shape[1]} features"
        )
    qrels = read("qrels.txt", read_qrels)
    split_of = read("splits.json", _read_splits)
    hub_ids = read("hubs.json", _read_hubs)
    judged = {d for grades in qrels.values() for d in grades}
    for name, named in (("qrels.txt", judged), ("hubs.json", hub_ids)):
        unknown = sorted(set(named) - set(doc_ids))
        if unknown:
            path = os.path.join(outdir, name)
            raise CorruptArtifact(f"{path} names doc {unknown[0]!r}, which corpus.jsonl lacks")
    for name, named, lacks in (
        ("qrels.txt", qrels, "judges no doc for"), ("splits.json", split_of, "assigns no split to")
    ):
        path = os.path.join(outdir, name)
        missing = [q for q in query_ids if q not in named]
        if missing:
            raise CorruptArtifact(f"{path} {lacks} query {missing[0]!r}")
        # named holds every (distinct) query id, so any more are unknown.
        if len(named) > len(query_ids):
            unknown = sorted(set(named) - set(query_ids))
            raise CorruptArtifact(f"{path} names query {unknown[0]!r}, which queries.jsonl lacks")
    return SyntheticTask(
        doc_ids=doc_ids,
        query_ids=query_ids,
        doc_features=doc_features,
        query_features=query_features,
        qrels=qrels,
        split_of=split_of,
        hub_ids=hub_ids,
    )
