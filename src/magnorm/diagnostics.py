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

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import grad, simcore
from .datagen import SyntheticTask
from .errors import DegenerateInput, DegenerateVariance, DimensionMismatch, EmptyInput, NonFiniteEvaluation, TooFewSamples
from .metrics import id_order, left_sum, pearson, rank_order, write_csv
from .model import TwoTowerEncoder, embed_split
from .objective import ContrastiveBatch, LossConfig

Array = np.ndarray


def cohens_d(group_a, group_b) -> float:
    """Standardized mean difference (a minus b) with pooled sample variance."""
    a = [float(x) for x in group_a]
    b = [float(x) for x in group_b]
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise TooFewSamples(f"need >= 2 samples per group, got {na} and {nb}")
    ma = left_sum(a) / na
    mb = left_sum(b) / nb
    va = left_sum((x - ma) ** 2 for x in a) / (na - 1)
    vb = left_sum((x - mb) ** 2 for x in b) / (nb - 1)
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
    mean = left_sum(xs) / len(xs)
    if mean <= 0.0:
        raise DegenerateInput(f"coefficient of variation needs mean > 0, got {mean}")
    var = left_sum((x - mean) ** 2 for x in xs) / len(xs)
    return math.sqrt(var) / mean


def rank_documents(kinds, Q, D, ids) -> Array:
    """Rank each trial's documents under each of its kinds: (trials, kinds, n_docs) row indices.

    A block of T trials: Q is (T, dim), D is (T, n_docs, dim), ids names
    the rows of every D[i], and kinds[i] is trial i's sequence of kinds,
    one per variant, alike in length.  One batched Q @ D^T and one norm
    per side, by the operations similarity_matrix performs, serve every
    variant, so each score keeps similarity_matrix's bits for its trial;
    each variant then costs one divide_by_norms (and its zero-norm rule),
    with per-trial gamma arrays where its kinds' gammas differ; rank_order sorts them all.
    A non-finite score raises NonFiniteEvaluation naming its trial, as GradeTable.rank does.
    """
    Q = np.asarray(Q, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    if len({len(k) for k in kinds}) != 1:
        raise ValueError("need at least one trial, each with the same number of kinds")
    T = len(kinds)
    if Q.ndim != 2 or Q.shape[0] != T or Q.shape[1] < 1 or D.shape != (T, len(ids), Q.shape[1]):
        raise DimensionMismatch(f"expected ({T}, dim) queries and ({T}, {len(ids)}, dim) documents, got {Q.shape} and {D.shape}")
    if not (np.isfinite(Q).all() and np.isfinite(D).all()):
        raise DimensionMismatch("query and document entries must be finite")
    t = (Q[:, None, :] @ D.transpose(0, 2, 1))[:, 0]
    nq = np.linalg.norm(Q, axis=1)[:, None]
    nd = np.linalg.norm(D, axis=2)
    S = np.stack([simcore.divide_by_norms(_trial_gammas(v), t, nq, nd) for v in zip(*kinds)], axis=1)
    if not np.isfinite(S).all():
        raise NonFiniteEvaluation(f"non-finite score in ranking for trial {np.argmin(np.isfinite(S).all(axis=(1, 2)))}")
    return rank_order(S, id_order(ids))


def _trial_gammas(variant) -> tuple:
    """One variant's (gamma_q, gamma_d) over a block's trials: a float where all trials share it, else a (T, 1) column."""
    G = np.array([kind.gammas for kind in variant])
    return tuple(float(g[0]) if (g == g[0]).all() else g[:, None] for g in G.T)


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


# The variant pairs verify_ranking_equivalence compares, as positions in a trial's kinds.
_EQUIVALENT_PAIRS = ((0, 1), (2, 3), (4, 5))


def verify_ranking_equivalence(dim: int, n_docs: int, trials: int, seed: int) -> EquivalenceVerdict:
    """Randomized check of which variants induce identical rankings.

    Each trial draws one query and n_docs documents d0, d1, ... and ranks
    them under every variant; blocks of grad.PROBE_BLOCK trials share one
    rank_documents call (_equivalence_block): one score tensor, one sort,
    ties to the lexicographically smaller doc id.  The orders are compared
    exactly (no tolerance: ranking is discrete).  Never raises on a
    mismatch; the verdict carries the first counterexample, in trial order
    and then check order, instead; a non-finite score raises NonFiniteEvaluation.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    ids = [f"d{j}" for j in range(n_docs)]
    ok = [True, True, True]
    counterexample = None

    def order(row) -> tuple:
        return tuple(ids[j] for j in row.tolist())

    for start in range(0, trials, grad.PROBE_BLOCK):
        try:
            O, ga, gb, gd = _equivalence_block(rng, min(grad.PROBE_BLOCK, trials - start), dim, ids)
        except NonFiniteEvaluation as e:
            raise NonFiniteEvaluation(f"block from trial {start}: {e}") from None
        agree = np.stack([(O[:, x] == O[:, y]).all(axis=1) for x, y in _EQUIVALENT_PAIRS], axis=1)
        # nonzero walks the (trial, check) grid row by row: trial order, then check order.
        for i, c in zip(*np.nonzero(~agree)):
            if not ok[c]:
                continue
            ok[c] = False
            x, y = (order(O[i, v]) for v in _EQUIVALENT_PAIRS[c])
            found = (f"cosine {x} vs dnorm {y}", f"qnorm {x} vs dot {y}",
                     f"gamma_q {ga[i]:.3f} vs {gb[i]:.3f} at gamma_d {gd[i]:.3f}: {x} vs {y}")[c]
            counterexample = counterexample or f"trial {start + i}: {found}"
        del O  # the next block's draws need not share the peak with this block's orders
    return EquivalenceVerdict(trials, seed, *ok, counterexample=counterexample)


def _equivalence_block(rng, T: int, dim: int, ids) -> tuple:
    """Draw T trials of verify_ranking_equivalence and rank them: (orders, gamma_q a, gamma_q b, gamma_d).

    A trial's draws are one normal vector (query, then documents), one
    lognormal vector (their scales, so magnitudes actually vary) and three
    uniforms (gamma_d, then two gamma_q, sorted): the stream of separate
    draws for each, merged where two of one distribution follow each other.
    """
    n_docs = len(ids)
    X = np.empty((T, dim + n_docs * dim))
    scales = np.empty((T, n_docs + 1))
    U = np.empty((T, 3))
    for i in range(T):
        rng.standard_normal(out=X[i])
        scales[i] = rng.lognormal(0.0, 0.7, n_docs + 1)
        U[i] = rng.uniform(0.0, 1.0, 3)
    Q = X[:, :dim]
    Q *= scales[:, :1]
    D = X[:, dim:].reshape(T, n_docs, dim)
    D *= scales[:, 1:, None]
    gd = U[:, 0].tolist()
    ga, gb = np.sort(U[:, 1:], axis=1).T.tolist()
    kinds = [
        (simcore.COSINE, simcore.DNORM, simcore.QNORM, simcore.DOT, simcore.learnable(a, g), simcore.learnable(b, g))
        for a, b, g in zip(ga, gb, gd)
    ]
    return rank_documents(kinds, Q, D, ids), ga, gb, gd


class SuiteResult(NamedTuple):
    """One verify row; parts names the residuals err is the maximum of, if several."""

    err: float
    tol: str
    ok: bool
    note: str | None = None
    parts: dict | None = None


def _rand_vec(rng, dim: int):
    v = rng.standard_normal(dim)
    if simcore.norm(v) < 1e-3:
        v = v + 0.5
    return v * float(rng.lognormal(0.0, 0.7))


def suite_ranking(rng, trials: int, seed: int) -> SuiteResult:
    try:
        verdict = verify_ranking_equivalence(dim=8, n_docs=16, trials=trials, seed=seed)
    except NonFiniteEvaluation as e:
        return SuiteResult(math.nan, "exact", False, str(e))
    return SuiteResult(0.0 if verdict.all_ok else 1.0, "exact", verdict.all_ok, verdict.counterexample)


def _pair_draws(rng, trials: int):
    """Each trial's dim in [2, 16], then its two _rand_vec sides, drawn one trial at a time."""
    for _ in range(trials):
        dim = int(rng.integers(2, 17))
        yield _rand_vec(rng, dim), _rand_vec(rng, dim)


def suite_corners(rng, trials: int, _seed=None) -> SuiteResult:
    """Each discrete kind equals learnable at its corner gammas."""
    worst = 0.0
    for Q, D in grad._probe_blocks(_pair_draws(rng, trials)):
        for kind in (simcore.COSINE, simcore.DOT, simcore.QNORM, simcore.DNORM):
            a = simcore.row_scores(simcore.learnable(*kind.gammas).gammas, Q, D)[0]
            b = simcore.row_scores(kind.gammas, Q, D)[0]
            worst = float(np.maximum(worst, np.max(np.abs(a - b))))  # max() would drop a NaN
    return SuiteResult(worst, "1e-12", worst <= 1e-12)


def suite_symmetry(rng, trials: int, _seed=None) -> SuiteResult:
    """Cosine and dot are exactly symmetric; qnorm's asymmetry is (|b| - |a|) cos."""
    exact = identity = 0.0
    for A, B in grad._probe_blocks(_pair_draws(rng, trials)):
        for kind in (simcore.COSINE, simcore.DOT):
            x, y = simcore.row_scores(kind.gammas, A, B)[0], simcore.row_scores(kind.gammas, B, A)[0]
            gap = np.abs(x - y)[x != y]
            exact = float(np.max(np.where(np.isnan(gap), np.inf, gap), initial=exact))  # a NaN side reads inf
        s, t, na, nb = simcore.row_scores(simcore.QNORM.gammas, A, B)
        cos = np.clip(t / (na * nb), -1.0, 1.0)
        asym = s - simcore.row_scores(simcore.QNORM.gammas, B, A)[0]
        identity = float(np.maximum(identity, np.max(np.abs(asym - (nb - na) * cos))))
    note = None if exact == 0.0 else f"cosine/dot asymmetry {exact:.3e} (must be exactly 0)"
    ok = exact == 0.0 and identity <= 1e-12
    return SuiteResult(float(np.maximum(exact, identity)), "1e-12", ok, note, {"cosine/dot": exact, "qnorm": identity})


# Entries of a block's projectors (suite_jacobian) or batches, queries and positives (suite_radial),
# so memory stays flat in the trial count.
SUITE_BLOCK_ENTRIES = 8192


def suite_jacobian(rng, trials: int, _seed=None) -> SuiteResult:
    """The tangent projector is idempotent, kills v, and has trace n - 1: blocks of trials, each with its own bits."""
    tight = trace = 0.0
    for n in (2, 8, 64):
        draws = ((_rand_vec(rng, n),) for _ in range(trials))
        for (V,) in grad._probe_blocks(draws, SUITE_BLOCK_ENTRIES // n**2):
            P = grad.tangent_projector(V)
            vhat = V / np.sqrt(simcore.row_dots(V, V))[:, None]
            r_idem = np.abs(P @ P - P).max(axis=(1, 2))
            null = (P @ vhat[..., None])[..., 0]  # one gemv per vector, as P @ vhat alone
            r_null = np.sqrt(simcore.row_dots(null, null))
            r_trace = np.abs(np.trace(P, axis1=1, axis2=2) - (n - 1))
            tight = float(np.max([r_idem, r_null], initial=tight))  # max() would drop a NaN
            trace = float(np.max(r_trace, initial=trace))
    parts = {"idempotency/null": tight, "trace": trace}  # a NaN residual reads NaN here, and fails
    return SuiteResult(float(np.maximum(tight, trace)), "1e-12/1e-9", tight <= 1e-12 and trace <= 1e-9, None, parts)


def suite_radial(rng, trials: int, _seed=None) -> SuiteResult:
    """Cosine InfoNCE query gradients are orthogonal to the queries: one infonce_grad per block of 8x8 batches."""
    cfg = LossConfig(kind=simcore.COSINE, tau=1.0, alpha=20.0)
    B = dim = 8
    draws = (tuple(np.vstack([_rand_vec(rng, dim) for _ in range(B)]) for _ in "QD") for _ in range(trials))
    worst = 0.0
    for Q, D in grad._probe_blocks(draws, SUITE_BLOCK_ENTRIES // (2 * B * dim)):
        dQ = grad.infonce_grad(ContrastiveBatch(Q, D), cfg).d_queries
        gn, qn = (np.sqrt(simcore.row_dots(M, M)) for M in (dQ, Q))
        checked = gn != 0.0  # a NaN gradient is checked, and fails
        worst = float(np.max(np.abs(simcore.row_dots(dQ, Q))[checked] / (gn * qn)[checked], initial=worst))
    return SuiteResult(worst, "1e-10", worst <= 1e-10)


def suite_gamma_grad(rng, trials: int, _seed=None) -> SuiteResult:
    """Learnable gamma gradients are -ln|v| s and match finite differences."""

    def draws():
        for _ in range(trials):
            dim = int(rng.integers(2, 9))
            q, d = _rand_vec(rng, dim), _rand_vec(rng, dim)
            yield q, d, float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95))

    worst_rel, ok = grad.gamma_check(draws())
    return SuiteResult(worst_rel, "1e-6", ok and worst_rel <= 1e-6)


def suite_gradcheck(rng, trials: int, seed: int) -> SuiteResult:
    learn = simcore.learnable(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9)))
    kinds = [simcore.COSINE, simcore.DOT, simcore.QNORM, simcore.DNORM, learn]
    worst = 0.0
    ok = True
    note = None
    for i, kind in enumerate(kinds):
        report = grad.gradcheck(kind, trials=trials, seed=seed + 1000 * (i + 1))
        worst = float(np.maximum(worst, report.max_rel_err))  # max() would drop a NaN
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


def _or_nan(statistic, a, b) -> float:
    try:
        return statistic(a, b)
    except (DegenerateInput, DegenerateVariance, TooFewSamples):
        return math.nan


def relevance_counter(mags: Array, task: SyntheticTask) -> tuple:
    """(Pearson r of doc norms with relevance_count, hubs' Cohen's d); mags in doc_ids order.

    A statistic the input leaves undefined is nan: constant norms or
    counts, fewer than two hubs or non-hubs, or zero pooled variance.
    """
    r = _or_nan(pearson, mags.tolist(), [task.relevance_count[d] for d in task.doc_ids])
    hubs = np.isin(task.doc_ids, task.hub_ids)
    return r, _or_nan(cohens_d, mags[hubs].tolist(), mags[~hubs].tolist())


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


REPORT_COLUMNS = ("split", "kind", "cohens_d", "n_rel", "n_irrel", "query_cv", "doc_cv")


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
    table = task.grade_table(split)
    if not table.query_ids:
        raise EmptyInput(f"split {split!r} has no queries")
    q_mags, d_mags = embed_split(encoder, task, table.query_ids)[2]
    relevant = table.levels.any(axis=0)
    rel, irrel = d_mags[relevant].tolist(), d_mags[~relevant].tolist()
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
    rows = [(r.split, r.kind, r.cohens_d, r.n_rel, r.n_irrel, r.query_cv, r.doc_cv) for r in reports]
    write_csv(path, REPORT_COLUMNS, rows)
