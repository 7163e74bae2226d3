"""Magnitude diagnostics and the paper's claims as executable property suites.

The statistics here read raw embedding norms, before any normalization a
similarity variant might apply, because the question under study is what
the encoder itself learned to encode in magnitude.  Relevance splits the
document set in two: a document is "relevant" if at least one query of
the chosen split lists it with grade >= 1.  SUITES are the property checks
`magnorm verify` runs; the acceptance tests call them with their own
generators and trial counts.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from . import grad, simcore
from .datagen import SyntheticTask
from .errors import DegenerateInput, DegenerateVariance, EmptyInput, TooFewSamples
from .metrics import pearson, ranked_list
from .model import TwoTowerEncoder, embed_split
from .objective import ContrastiveBatch, LossConfig

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
    ids = [doc_id for doc_id, _ in docs]
    D = np.stack([simcore.as_embedding(d) for _, d in docs])
    scores = simcore.similarity_matrix(kind, simcore.as_embedding(q)[None, :], D)[0]
    return ranked_list("", zip(ids, scores.tolist())).doc_ids()


# ---------------------------------------------------------------------------
# Property suites: ranking equivalence first, then the closed-form identities
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


class SuiteResult(NamedTuple):
    """One verify row; parts names the residuals err is the maximum of, if several."""

    err: float
    tol: str
    ok: bool
    note: str | None = None
    parts: dict | None = None


def _rand_vec(rng, dim: int):
    v = rng.standard_normal(dim)
    if np.linalg.norm(v) < 1e-3:
        v = v + 0.5
    return v * float(rng.lognormal(0.0, 0.7))


def suite_ranking(rng, trials: int, seed: int) -> SuiteResult:
    verdict = verify_ranking_equivalence(dim=8, n_docs=16, trials=trials, seed=seed)
    return SuiteResult(0.0 if verdict.all_ok else 1.0, "exact", verdict.all_ok, verdict.counterexample)


def suite_corners(rng, trials: int, _seed=None) -> SuiteResult:
    """Each discrete kind equals learnable at its corner gammas."""
    discrete = (simcore.COSINE, simcore.DOT, simcore.QNORM, simcore.DNORM)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(2, 17))
        q = _rand_vec(rng, dim)
        d = _rand_vec(rng, dim)
        for kind in discrete:
            gq, gd = simcore.effective_gammas(kind)
            a = simcore.similarity(simcore.learnable(gq, gd), q, d)
            b = simcore.similarity(kind, q, d)
            worst = max(worst, abs(a - b))
    return SuiteResult(worst, "1e-12", worst <= 1e-12)


def suite_symmetry(rng, trials: int, _seed=None) -> SuiteResult:
    """Cosine and dot are exactly symmetric; qnorm's asymmetry is (|b| - |a|) cos."""
    exact = identity = 0.0
    for _ in range(trials):
        dim = int(rng.integers(2, 17))
        a = _rand_vec(rng, dim)
        b = _rand_vec(rng, dim)
        for kind in (simcore.COSINE, simcore.DOT):
            x, y = simcore.similarity(kind, a, b), simcore.similarity(kind, b, a)
            if x != y:  # a NaN compares unequal, but max() would pass it over
                exact = max(exact, math.inf if math.isnan(x - y) else abs(x - y))
        na, nb, cos = simcore.decompose(a, b)
        asym = simcore.similarity(simcore.QNORM, a, b) - simcore.similarity(simcore.QNORM, b, a)
        identity = max(identity, abs(asym - (nb - na) * cos))
    note = None if exact == 0.0 else f"cosine/dot asymmetry {exact:.3e} (must be exactly 0)"
    ok = exact == 0.0 and identity <= 1e-12
    return SuiteResult(max(exact, identity), "1e-12", ok, note, {"cosine/dot": exact, "qnorm": identity})


def suite_jacobian(rng, trials: int, _seed=None) -> SuiteResult:
    """The tangent projector is idempotent, kills v, and has trace n - 1."""
    tight = trace = 0.0
    ok = True
    for n in (2, 8, 64):
        for _ in range(trials):
            v = _rand_vec(rng, n)
            P = grad.tangent_projector(v)
            vhat = v / np.linalg.norm(v)
            r_idem = float(np.abs(P @ P - P).max())
            r_null = float(np.linalg.norm(P @ vhat))
            r_trace = abs(float(np.trace(P)) - (n - 1))
            tight = max(tight, r_idem, r_null)
            trace = max(trace, r_trace)
            ok = ok and r_idem <= 1e-12 and r_null <= 1e-12 and r_trace <= 1e-9
    return SuiteResult(max(tight, trace), "1e-12/1e-9", ok, None, {"idempotency/null": tight, "trace": trace})


def suite_radial(rng, trials: int, _seed=None) -> SuiteResult:
    """Cosine InfoNCE query gradients are orthogonal to the queries."""
    cfg = LossConfig(kind=simcore.COSINE, tau=1.0, alpha=20.0)
    worst = 0.0
    for _ in range(trials):
        B, dim = 8, 8
        Q = np.vstack([_rand_vec(rng, dim) for _ in range(B)])
        D = np.vstack([_rand_vec(rng, dim) for _ in range(B)])
        g = grad.infonce_grad(ContrastiveBatch(Q, D), cfg)
        for i in range(B):
            gn = float(np.linalg.norm(g.d_queries[i]))
            qn = float(np.linalg.norm(Q[i]))
            if gn > 0.0:
                worst = max(worst, abs(float(g.d_queries[i] @ Q[i])) / (gn * qn))
    return SuiteResult(worst, "1e-10", worst <= 1e-10)


def suite_gamma_grad(rng, trials: int, _seed=None) -> SuiteResult:
    worst_rel = 0.0
    ok = True
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        q = _rand_vec(rng, dim)
        d = _rand_vec(rng, dim)
        gq = float(rng.uniform(0.05, 0.95))
        gd = float(rng.uniform(0.05, 0.95))
        kind = simcore.learnable(gq, gd)
        g = grad.sim_grad(kind, q, d)
        s = simcore.similarity(kind, q, d)
        nq, nd, _ = simcore.decompose(q, d)
        ok = ok and abs(g.d_gamma_q + math.log(nq) * s) <= 1e-12
        ok = ok and abs(g.d_gamma_d + math.log(nd) * s) <= 1e-12

        def f(gm):
            return simcore.similarity(simcore.learnable(float(gm[0]), float(gm[1])), q, d)

        fd = grad.finite_difference(f, np.array([gq, gd]))
        worst_rel = max(
            worst_rel,
            grad.rel_error(np.array([g.d_gamma_q, g.d_gamma_d]), fd),
        )
    ok = ok and worst_rel <= 1e-6
    return SuiteResult(worst_rel, "1e-6", ok)


def suite_gradcheck(rng, trials: int, seed: int) -> SuiteResult:
    kinds = [
        simcore.COSINE,
        simcore.DOT,
        simcore.QNORM,
        simcore.DNORM,
        simcore.learnable(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))),
    ]
    worst = 0.0
    ok = True
    note = None
    for i, kind in enumerate(kinds):
        report = grad.gradcheck(kind, trials=trials, seed=seed + 1000 * (i + 1))
        worst = max(worst, report.max_rel_err)
        if not report.passed:
            ok = False
            note = note or f"{simcore.kind_name(kind)} max rel err {report.max_rel_err:.3e}"
    return SuiteResult(worst, "1e-6", ok, note)


# `magnorm verify --seed S` calls suite i as suite(default_rng([S, i]), trials, S).
# Only the ranking and gradcheck suites read S, to seed their own checks.
SUITES = (
    ("ranking-equivalence", suite_ranking),
    ("corner-degeneracy", suite_corners),
    ("symmetry", suite_symmetry),
    ("jacobian-spectral", suite_jacobian),
    ("radial-gradient", suite_radial),
    ("gamma-gradient", suite_gamma_grad),
    ("gradcheck", suite_gradcheck),
)


# ---------------------------------------------------------------------------
# Magnitude reports over a task
# ---------------------------------------------------------------------------


def relevance_counter(mags: Array, task: SyntheticTask) -> tuple:
    """(Pearson r of doc norms with relevance_count, hubs' Cohen's d); mags in doc_ids order."""
    r = pearson(mags.tolist(), [task.relevance_count[d] for d in task.doc_ids])
    hubs = np.isin(task.doc_ids, task.hub_ids)
    return r, cohens_d(mags[hubs].tolist(), mags[~hubs].tolist())


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
