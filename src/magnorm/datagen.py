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

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptArtifact, InfeasibleSpec
from .metrics import Qrels, ranked_list, write_qrels

Array = np.ndarray

SPLIT_NAMES = ("train", "val", "test")

# Same-cluster documents added as grade-1 positives per query, beyond the
# grade-2 generating document.  One keeps organic relevance counts low
# enough that hub counts dominate by a wide factor.
EXTRA_POSITIVES = 1

# Angular decay scale (radians) for hub-to-query assignment weights.
HUB_ANGLE_SCALE = math.pi / 4


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

    doc_cluster, hub_ids, and spec are generation-side metadata; they are
    not exported and are absent (None) on tasks loaded from disk.
    relevance_count is derived from qrels: per document, the number of
    queries that judge it grade >= 1.
    """

    doc_ids: list
    query_ids: list
    doc_features: Array
    query_features: Array
    qrels: Qrels
    split_of: dict
    doc_cluster: Array | None = None
    hub_ids: list | None = None
    spec: TaskSpec | None = None
    _doc_row: dict = field(default_factory=dict, repr=False)
    _query_row: dict = field(default_factory=dict, repr=False)
    relevance_count: dict = field(init=False)

    def __post_init__(self):
        self.relevance_count = {d: 0 for d in self.doc_ids}
        for grades in self.qrels.values():
            for d, g in grades.items():
                if g >= 1:
                    self.relevance_count[d] += 1
        if not self._doc_row:
            self._doc_row = {d: i for i, d in enumerate(self.doc_ids)}
        if not self._query_row:
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

    def relevant_of(self, query_id: str) -> list:
        """Doc ids with grade >= 1 for this query, sorted for determinism."""
        return sorted(d for d, g in self.qrels[query_id].items() if g >= 1)

    def positive_of(self, query_id: str) -> str:
        """The generating document: the unique grade-2 judgment."""
        for d, g in self.qrels[query_id].items():
            if g == 2:
                return d
        raise KeyError(f"query {query_id!r} has no grade-2 document")


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
    angular distance between query and hub.
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
    for hub in hub_rows:
        eligible = [
            qi
            for qi in range(spec.n_queries)
            if cluster[gen_doc[qi]] != cluster[hub]
            and doc_ids[hub] not in qrels[query_ids[qi]]
        ]
        if len(eligible) < spec.hub_multiplicity:
            raise InfeasibleSpec(
                f"hub doc {doc_ids[hub]} has {len(eligible)} eligible queries, "
                f"needs {spec.hub_multiplicity}"
            )
        weights = _angular_weights(query_features[eligible], doc_features[hub])
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
        doc_cluster=cluster,
        hub_ids=[doc_ids[h] for h in hub_rows],
        spec=spec,
    )


def _nearest_same_cluster(doc_features: Array, cluster: Array, k: int) -> list:
    """Per document, indices of its k nearest same-cluster neighbors."""
    out = []
    for i in range(doc_features.shape[0]):
        mates = np.flatnonzero(cluster == cluster[i])
        mates = mates[mates != i]
        if mates.size == 0 or k == 0:
            out.append([])
            continue
        dists = np.linalg.norm(doc_features[mates] - doc_features[i], axis=1)
        order = np.argsort(dists, kind="stable")
        out.append([int(mates[j]) for j in order[:k]])
    return out


def _angular_weights(queries: Array, hub: Array) -> Array:
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    hn = hub / np.linalg.norm(hub)
    cos = np.clip(qn @ hn, -1.0, 1.0)
    theta = np.arccos(cos)
    w = np.exp(-theta / HUB_ANGLE_SCALE)
    return w / w.sum()


def _assign_splits(query_ids, fractions, rng) -> dict:
    n = len(query_ids)
    perm = rng.permutation(n)
    b1 = int(round(fractions[0] * n))
    b2 = int(round((fractions[0] + fractions[1]) * n))
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


def oracle_run(task: SyntheticTask, query_ids=None) -> list:
    """Rankings from the latent geometry the generator drew.

    Scores each document by the cosine between query and document
    features, the noiseless carrier of cluster identity.  Used to certify
    that a task is solvable before any training happens.
    """
    if query_ids is None:
        query_ids = task.query_ids
    qn = task.query_features / np.linalg.norm(task.query_features, axis=1, keepdims=True)
    dn = task.doc_features / np.linalg.norm(task.doc_features, axis=1, keepdims=True)
    runs = []
    for qid in query_ids:
        scores = qn[task.query_row(qid)] @ dn.T
        runs.append(ranked_list(qid, zip(task.doc_ids, scores.tolist())))
    return runs


# ---------------------------------------------------------------------------
# Disk layout: corpus.jsonl, queries.jsonl, qrels.txt, splits.json
# ---------------------------------------------------------------------------

TASK_FILES = ("corpus.jsonl", "queries.jsonl", "qrels.txt", "splits.json")


def export_task(task: SyntheticTask, outdir: str, force: bool = False) -> list:
    """Write the four task files; refuses to overwrite unless forced."""
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, name) for name in TASK_FILES]
    if not force:
        for p in paths:
            if os.path.exists(p):
                raise FileExistsError(f"{p} exists; pass force to overwrite")
    _write_jsonl(paths[0], task.doc_ids, task.doc_features)
    _write_jsonl(paths[1], task.query_ids, task.query_features)
    write_qrels(paths[2], task.qrels)
    splits = {name: task.split_queries(name) for name in SPLIT_NAMES}
    with open(paths[3], "w") as fh:
        json.dump(splits, fh, indent=1)
        fh.write("\n")
    return paths


def _write_jsonl(path, ids, features: Array) -> None:
    with open(path, "w") as fh:
        for i, ident in enumerate(ids):
            fh.write(json.dumps({"id": ident, "features": features[i].tolist()}) + "\n")


def _read_jsonl(path) -> tuple:
    ids, rows = [], []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if not isinstance(rec["id"], str):
                raise TypeError(f"id {rec['id']!r} is not a string")
            ids.append(rec["id"])
            rows.append(rec["features"])
    return ids, np.asarray(rows, dtype=np.float64)


def _read_splits(path) -> dict:
    with open(path) as fh:
        splits = json.load(fh)
    if not isinstance(splits, dict):
        raise ValueError("not a JSON object")
    for name, qs in splits.items():
        if not isinstance(qs, list) or not all(isinstance(q, str) for q in qs):
            raise TypeError(f"split {name!r} is not a list of query ids")
    return {q: name for name, qs in splits.items() for q in qs}


def load_task(outdir: str) -> SyntheticTask:
    """Rebuild a task from its four exported files.

    Generation metadata (clusters, hub list, spec) is not persisted and
    comes back as None.  A file that does not parse, or a line that lacks
    a field or has one of the wrong type, raises CorruptArtifact naming it,
    and so do a qrels doc id absent from the corpus and a query without a
    split.
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
    qrels = read("qrels.txt", read_qrels)
    split_of = read("splits.json", _read_splits)
    unknown = sorted({d for grades in qrels.values() for d in grades} - set(doc_ids))
    if unknown:
        path = os.path.join(outdir, "qrels.txt")
        raise CorruptArtifact(f"{path} names doc {unknown[0]!r}, which corpus.jsonl lacks")
    unsplit = [q for q in query_ids if q not in split_of]
    if unsplit:
        path = os.path.join(outdir, "splits.json")
        raise CorruptArtifact(f"{path} assigns no split to query {unsplit[0]!r}")
    return SyntheticTask(
        doc_ids=doc_ids,
        query_ids=query_ids,
        doc_features=doc_features,
        query_features=query_features,
        qrels=qrels,
        split_of=split_of,
    )
