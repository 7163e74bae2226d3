"""Magnitude diagnostics and ranking-equivalence verification.

The statistics here read raw embedding norms, before any normalization a
similarity variant might apply, because the question under study is what
the encoder itself learned to encode in magnitude.  Relevance splits the
document set in two: a document is "relevant" if at least one query of
the chosen split lists it with grade >= 1.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import simcore
from .datagen import SyntheticTask
from .errors import DegenerateInput, DegenerateVariance, EmptyInput, TooFewSamples
from .model import TwoTowerEncoder, embed_split

Array = np.ndarray


@dataclass(frozen=True)
class MagnitudeSample:
    """Embedding norms for one population of items."""

    label: str
    values: tuple

    def __post_init__(self):
        if len(self.values) == 0:
            raise EmptyInput(f"magnitude sample {self.label!r} is empty")


def cohens_d(group_a, group_b) -> float:
    """Standardized mean difference (a minus b) with pooled sample variance."""
    a = [float(x) for x in group_a]
    b = [float(x) for x in group_b]
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise TooFewSamples(f"need >= 2 samples per group, got {na} and {nb}")
    ma = sum(a) / na
    mb = sum(b) / nb
    va = sum((x - ma) ** 2 for x in a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in b) / (nb - 1)
    pooled = ((na - 1) * va + (nb - 1) * vb) / (na + nb - 2)
    if pooled == 0.0:
        raise DegenerateVariance(
            f"pooled variance is zero (group sizes {na} and {nb})"
        )
    return (ma - mb) / math.sqrt(pooled)


def cv(values) -> float:
    """Coefficient of variation: population standard deviation over mean."""
    xs = [float(x) for x in values]
    if not xs:
        raise EmptyInput("coefficient of variation of an empty sample")
    mean = sum(xs) / len(xs)
    if mean <= 0.0:
        raise DegenerateInput(f"coefficient of variation needs mean > 0, got {mean}")
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    return math.sqrt(var) / mean


def rank_documents(kind, q, docs) -> list:
    """Doc ids ordered by descending similarity; ties break lexicographically."""
    scored = []
    for doc_id, d in docs:
        scored.append((doc_id, simcore.similarity(kind, q, d)))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return [doc_id for doc_id, _ in scored]


# ---------------------------------------------------------------------------
# Ranking-equivalence verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of randomized ranking-equivalence checks.

    cosine_dnorm_ok: per-query orders under cosine and doc-only
    normalization agreed on every instance.
    qnorm_dot_ok: same for query-only normalization versus dot.
    gamma_q_invariant_ok: changing the query exponent at fixed doc
    exponent never changed an order.
    counterexample: first disagreement found, as a readable string.
    """

    trials: int
    seed: int
    cosine_dnorm_ok: bool
    qnorm_dot_ok: bool
    gamma_q_invariant_ok: bool
    counterexample: str | None = None

    @property
    def all_ok(self) -> bool:
        return self.cosine_dnorm_ok and self.qnorm_dot_ok and self.gamma_q_invariant_ok


def _order(kind, q, docs) -> tuple:
    return tuple(rank_documents(kind, q, [(f"d{j}", d) for j, d in enumerate(docs)]))


def verify_ranking_equivalence(dim: int, n_docs: int, trials: int, seed: int) -> EquivalenceVerdict:
    """Randomized check of which variants induce identical rankings.

    Each trial draws one query and n_docs documents, ranks them under
    every variant, and compares the resulting orders
    exactly (no tolerance: ranking is discrete).  Never raises on a
    mismatch; the verdict carries the first counterexample instead.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    cos_dnorm = True
    qnorm_dot = True
    gamma_q_inv = True
    counterexample = None

    for t in range(trials):
        q = rng.standard_normal(dim)
        docs = [rng.standard_normal(dim) for _ in range(n_docs)]
        # Rescale by lognormal factors so magnitudes actually vary.
        q = q * float(rng.lognormal(0.0, 0.7))
        docs = [d * float(rng.lognormal(0.0, 0.7)) for d in docs]
        o_cos = _order(simcore.COSINE, q, docs)
        o_dnorm = _order(simcore.DNORM, q, docs)
        o_qnorm = _order(simcore.QNORM, q, docs)
        o_dot = _order(simcore.DOT, q, docs)
        if o_cos != o_dnorm and cos_dnorm:
            cos_dnorm = False
            counterexample = counterexample or f"trial {t}: cosine {o_cos} vs dnorm {o_dnorm}"
        if o_qnorm != o_dot and qnorm_dot:
            qnorm_dot = False
            counterexample = counterexample or f"trial {t}: qnorm {o_qnorm} vs dot {o_dot}"
        gd = float(rng.uniform(0.0, 1.0))
        ga, gb = sorted(float(rng.uniform(0.0, 1.0)) for _ in range(2))
        o_a = _order(simcore.learnable(ga, gd), q, docs)
        o_b = _order(simcore.learnable(gb, gd), q, docs)
        if o_a != o_b and gamma_q_inv:
            gamma_q_inv = False
            counterexample = (
                counterexample
                or f"trial {t}: gamma_q {ga:.3f} vs {gb:.3f} at gamma_d {gd:.3f}: {o_a} vs {o_b}"
            )
    return EquivalenceVerdict(
        trials=trials,
        seed=seed,
        cosine_dnorm_ok=cos_dnorm,
        qnorm_dot_ok=qnorm_dot,
        gamma_q_invariant_ok=gamma_q_inv,
        counterexample=counterexample,
    )


# ---------------------------------------------------------------------------
# Magnitude reports over a task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsReport:
    split: str
    kind: str
    cohens_d: float
    n_rel: int
    n_irrel: int
    query_cv: float
    doc_cv: float
    delta_cv: float | None = None

    def to_json(self) -> str:
        payload = asdict(self)
        return json.dumps(payload, indent=1) + "\n"


REPORT_COLUMNS = ("split", "kind", "cohens_d", "n_rel", "n_irrel", "query_cv", "doc_cv")


def relevant_doc_ids(task: SyntheticTask, split: str) -> set:
    """Docs with grade >= 1 for at least one query of the split."""
    rel = set()
    for qid in task.split_queries(split):
        for did, grade in task.qrels.get(qid, {}).items():
            if grade >= 1:
                rel.add(did)
    return rel


def magnitude_report(
    encoder: TwoTowerEncoder,
    task: SyntheticTask,
    kind,
    split: str = "test",
) -> DiagnosticsReport:
    """Magnitude separation and dispersion of one trained encoder.

    Documents are grouped by whether any split query marks them relevant;
    Cohen's d compares relevant against irrelevant document norms.
    """
    qids, Q, D = embed_split(encoder, task, split)
    if not qids:
        raise EmptyInput(f"split {split!r} has no queries")
    d_mags = np.linalg.norm(D, axis=1)
    q_mags = np.linalg.norm(Q, axis=1)
    rel_ids = relevant_doc_ids(task, split)
    rel = [float(d_mags[task.doc_row(did)]) for did in task.doc_ids if did in rel_ids]
    irrel = [float(d_mags[task.doc_row(did)]) for did in task.doc_ids if did not in rel_ids]
    d = cohens_d(rel, irrel)
    return DiagnosticsReport(
        split=split,
        kind=simcore.kind_name(kind),
        cohens_d=d,
        n_rel=len(rel),
        n_irrel=len(irrel),
        query_cv=cv(q_mags),
        doc_cv=cv(d_mags),
    )


def with_delta_cv(report: DiagnosticsReport, dot_query_cv: float) -> DiagnosticsReport:
    """Attach the query-dispersion ratio against a dot-trained baseline.

    delta_cv is the query magnitude CV of this (doc-normalized) run divided
    by the query magnitude CV of the unnormalized baseline run.
    """
    if dot_query_cv <= 0.0:
        raise DegenerateInput("baseline query dispersion must be positive")
    return replace(report, delta_cv=report.query_cv / dot_query_cv)


def write_report_csv(path, reports) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(REPORT_COLUMNS)
        for r in reports:
            w.writerow(
                [
                    r.split,
                    r.kind,
                    f"{r.cohens_d:.10g}",
                    r.n_rel,
                    r.n_irrel,
                    f"{r.query_cv:.10g}",
                    f"{r.doc_cv:.10g}",
                ]
            )
