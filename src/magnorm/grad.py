"""Closed-form gradients of the similarity family and of InfoNCE.

Everything here is hand-derived; there is no autodiff engine.  One
formula, _stack_grad, serves the whole family for a pool of candidates
shared by every query: in-batch InfoNCE's positives, sim_grad's single
document, and a diagonal pool for gradcheck's block of trials; a stack
(..., B, n) of blocks gives each block its bits alone, so a batch is a
one-block stack.  The normalization Jacobian d(v/|v|)/dv =
(I - vv^T/|v|^2)/|v| factors as the tangent-space projector P_v =
I - vhat vhat^T divided by the norm.  P_v is symmetric, idempotent,
annihilates the radial direction, and has trace n - 1.  A side's row
norms are taken only if its gamma is positive or under learnable (whose
gamma gradients need ln|v|), by infonce_grad once for its scores and
gradients; a gamma-0 side skips every division by |v|**0, and a gamma-1
side the power |v|**1 and the product 1.0 * x.

A central finite-difference oracle and a seeded gradcheck harness verify
every analytic formula against numerics, a block of trials of one dim at
once: _stack_grad over a diagonal pool, and every probe point scored by
simcore.row_scores, the scorer similarity() runs on one row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import simcore
from .errors import DimensionMismatch, NonFiniteEvaluation, ZeroMagnitude
from .objective import ContrastiveBatch, LossConfig, candidate_logits, infonce_terms
from .simcore import SimilarityKind

Array = np.ndarray


@dataclass(frozen=True)
class SimGradient:
    """Gradients of one similarity score.

    d_q and d_d match the input shapes; d_gamma_q and d_gamma_d are
    present (non-None) only for the learnable variant, where they equal
    -ln|q| * s and -ln|d| * s.
    """

    d_q: Array
    d_d: Array
    d_gamma_q: float | None = None
    d_gamma_d: float | None = None


@dataclass(frozen=True)
class InfoNCEGradients:
    """Gradients of the batch-mean InfoNCE loss.

    The positives are a pool every query scores, so d_positives sums
    over queries.  A stack of batches has a loss and gamma gradients per batch.
    """

    loss: float
    d_queries: Array
    d_positives: Array
    d_gamma_q: float | None = None
    d_gamma_d: float | None = None


def tangent_projector(v) -> Array:
    """P_v = I - vhat vhat^T, the projector onto the tangent space at vhat, of each vector of a (..., n) stack."""
    V = np.ascontiguousarray(v, dtype=np.float64)  # |v| is simcore.norm's, over a contiguous copy
    if np.ndim(v) < 1 or V.shape[-1] < 1 or not np.isfinite(V).all():
        raise DimensionMismatch(f"vectors must be a finite (..., n) stack with n >= 1, got shape {np.shape(v)}")
    n = np.sqrt(simcore.row_dots(V, V))[..., None]
    if not n.all():
        raise ZeroMagnitude("tangent space undefined at the origin")
    vhat = V / n
    return np.eye(V.shape[-1]) - vhat[..., :, None] * vhat[..., None, :]


def sim_grad(kind: SimilarityKind, q, d) -> SimGradient:
    """Analytic gradient of similarity(kind, q, d) in q, d, and gammas.

    Writing the whole family as s = (q.d) / (|q|^gq |d|^gd):

        ds/dq = d / (|q|^gq |d|^gd) - gq * s * q / |q|^2
        ds/dd = q / (|q|^gq |d|^gd) - gd * s * d / |d|^2
        ds/dgq = -ln|q| * s          ds/dgd = -ln|d| * s
    """
    q, d = simcore.check_pair(q, d)
    Q, D = q[None, :], d[None, :]
    norms = _row_norms(kind, Q, D)
    if kind.tag == "learnable" and 0.0 in (norms[0][0], norms[1][0]):
        # The gamma gradients carry ln of both norms, so that variant needs
        # both sides nonzero even at gamma = 0.
        raise ZeroMagnitude("learnable gamma gradients need a nonzero query and document")
    s = simcore.row_scores(kind.gammas, Q, D)[0]
    dQ, dC, *terms = _stack_grad(kind, np.ones((1, 1)), s[:, None], Q, D, norms)
    return SimGradient(dQ[0], dC[0], *_gamma_sums(*terms))


def _row_norms(kind: SimilarityKind, Q: Array, C: Array) -> tuple:
    """Row norms of Q and C where _stack_grad reads them (gamma > 0, or learnable), else None."""
    gq, gd = kind.gammas
    learn = kind.tag == "learnable"
    return tuple(simcore.row_norms(M) if g > 0.0 or learn else None for M, g in ((Q, gq), (C, gd)))


def _stack_grad(kind: SimilarityKind, G: Array, S: Array, Q: Array, C: Array, norms=None) -> tuple:
    """Gradients of sum_bk G[b, k] * s(Q[b], C[k]), S holding the scores s.

    Q is (..., B, n) and C a (..., K, n) pool every query of its block
    scores: in-batch positives, or sim_grad's 1x1 pool.  A candidate's
    gradient sums over its block's queries.  Returns (dQ, dC, tq, tc),
    tq[..., b] = ln|Q[b]| sum_k G[b, k] s_bk the per-row terms of
    d_gamma_q = -sum(tq) (_gamma_sums), likewise tc, both None unless learnable.  norms is _row_norms(kind, Q, C), taken
    here unless given.  A zero norm on a side divided here was already
    rejected by the scores S came from.
    """
    gq, gd = kind.gammas
    learn = kind.tag == "learnable"
    nq, nd = _row_norms(kind, Q, C) if norms is None else norms
    # A side with gamma 0 would divide by |v|**0, all ones, and subtract
    # nothing; at gamma 1, |v|**1 is |v| and 1.0 * x is x.  Each skip is
    # exact, so the bits stay.
    scale_q = (nq if gq == 1.0 else nq**gq)[..., None] if gq > 0.0 else None
    scale_d = (nd if gd == 1.0 else nd**gd) if gd > 0.0 else None
    dQ = (G if scale_d is None else G / scale_d[..., None, :]) @ C
    dC = (G if scale_q is None else G / scale_q).swapaxes(-1, -2) @ Q
    if gq > 0.0 or gd > 0.0 or learn:
        GS = G * S
        GS_q, GS_c = np.add.reduce(GS, axis=-1), np.add.reduce(GS, axis=-2)
    if gq > 0.0:
        dQ /= scale_q
        radial = (GS_q / nq**2)[..., None]
        dQ -= (radial if gq == 1.0 else gq * radial) * Q
    if gd > 0.0:
        dC /= scale_d[..., None]
        radial = (GS_c / nd**2)[..., None]
        dC -= (radial if gd == 1.0 else gd * radial) * C
    if not learn:
        return dQ, dC, None, None
    return dQ, dC, GS_q * np.log(nq), GS_c * np.log(nd)


def _gamma_sums(tq, tc) -> tuple:
    """d_gamma_q and d_gamma_d from _stack_grad's per-row terms, per block (floats for one), or (None, None)."""
    sums = (None, None) if tq is None else (-np.add.reduce(t, axis=-1) for t in (tq, tc))
    return tuple(x if x is None or x.ndim else float(x) for x in sums)


def infonce_grad(batch: ContrastiveBatch, cfg: LossConfig) -> InfoNCEGradients:
    """Loss and gradients of infonce_loss for every embedding and gamma.

    With logits z_ij = (alpha/tau) s_ij and softmax rows p_i, the chain
    rule gives dL/ds_ij = (alpha/tau)(p_ij - [j = i]) / B, after which
    _stack_grad distributes the signal onto queries, the pool of
    positives, and gammas, each batch of a stack on its own.
    """
    norms = _row_norms(cfg.kind, batch.queries, batch.positives)
    logits = candidate_logits(batch, cfg, norms)
    B = logits.shape[-1]
    loss, e, e_sum = infonce_terms(logits)
    G = np.divide(e, e_sum, out=e)
    G.reshape(*G.shape[:-2], -1)[..., :: B + 1] -= 1.0  # each diagonal, through a flat view of the contiguous G
    G *= cfg.alpha / cfg.tau / B

    # _stack_grad reads the scores where a side divides or under learnable:
    # under every kind but dot.  Multiplying by a tau of 1.0 is exact, so it is skipped.
    S = None
    if cfg.kind.tag != "dot":
        if cfg.tau != 1.0:
            np.multiply(logits, cfg.tau, out=logits)
        S = np.divide(logits, cfg.alpha, out=logits)
    dQ, dC, *terms = _stack_grad(cfg.kind, G, S, batch.queries, batch.positives, norms)
    return InfoNCEGradients(loss, dQ, dC, *_gamma_sums(*terms))


def finite_difference(f, x, h: float = 1e-5) -> Array:
    """Central differences (f(x + h e_i) - f(x - h e_i)) / 2h per coordinate."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    flat = x.ravel()
    out_flat = out.ravel()
    two_h = 2.0 * h
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise NonFiniteEvaluation(f"non-finite probe at coordinate {i}")
        out_flat[i] = (hi - lo) / two_h
    return out


def rel_error(analytic: Array, numeric: Array) -> float:
    """Max over entries of |a - n| / max(1, |a|, |n|).

    The denominator floor avoids blow-ups at near-zero gradient entries.
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


@dataclass(frozen=True)
class GradcheckReport:
    kind: str
    trials: int
    seed: int
    max_rel_err: float
    passed: bool
    group_errors: dict


def gradcheck(kind: SimilarityKind, trials: int, seed: int) -> GradcheckReport:
    """Compare _stack_grad's pair gradients (sim_grad's bits) with block finite differences of step 1e-5.

    Deterministic given seed: each trial's pair comes from its own
    generator, spawned from one seed sequence.  Fails iff any parameter
    group's relative error exceeds 1e-6 or is NaN.  A gamma probe outside
    [0, 1] raises ValueError as learnable() does.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gq, gd = gammas = kind.gammas
    names = ("q", "d", "gamma_q", "gamma_d") if kind.tag == "learnable" else ("q", "d")
    groups = dict.fromkeys(names, 0.0)

    def pairs():
        spawner = np.random.SeedSequence(seed)
        for _ in range(trials):
            rng = np.random.default_rng(spawner.spawn(1)[0])
            dim = int(rng.integers(2, 9))
            yield _well_conditioned(rng, dim), _well_conditioned(rng, dim)

    for Q, D in _probe_blocks(pairs()):
        s, t, nq, nd = simcore.row_scores(gammas, Q, D)
        dQ, dD, tq, td = _stack_grad(kind, np.eye(len(s)), np.diag(s), Q, D)
        errors = [rel_error(dQ, _vector_differences(gammas, Q, D, 1e-5, True))]
        errors.append(rel_error(dD, _vector_differences(gammas, D, Q, 1e-5, False)))
        if tq is not None:
            num_g = _gamma_differences(gq, gd, t, nq, nd, 1e-5)
            errors += [rel_error(-tq, num_g[:, 0]), rel_error(-td, num_g[:, 1])]
        for name, err in zip(names, errors):
            groups[name] = float(np.maximum(groups[name], err))  # max() would drop a NaN
    worst = float(np.max(list(groups.values())))
    return GradcheckReport(
        kind=simcore.kind_name(kind),
        trials=trials,
        seed=seed,
        max_rel_err=worst,
        passed=worst <= 1e-6,
        group_errors=groups,
    )


def gamma_check(draws) -> tuple:
    """Learnable gamma gradients of (q, d, gamma_q, gamma_d) draws: (worst rel_error
    against finite differences of step 1e-5, whether each is -ln|v| s within 1e-12).  _stack_grad's
    gamma terms read the gammas only through the scores: one learnable kind serves all."""
    worst, ok = 0.0, True
    for Q, D, gq, gd in _probe_blocks(draws):
        s, t, nq, nd = simcore.row_scores((gq, gd), Q, D)
        tq, td = _stack_grad(simcore.learnable(0.0, 0.0), np.eye(len(s)), np.diag(s), Q, D)[2:]
        ok = ok and all(np.all(np.abs(np.log(n) * s - terms) <= 1e-12) for n, terms in ((nq, tq), (nd, td)))
        err = rel_error(-np.stack([tq, td], axis=1), _gamma_differences(gq, gd, t, nq, nd, 1e-5))
        worst = float(np.maximum(worst, err))
    return worst, ok


# Trials per block of _probe_blocks' callers and of diagnostics.verify_ranking_equivalence,
# so memory stays flat in the trial count.
PROBE_BLOCK = 128


def _probe_blocks(draws, size=PROBE_BLOCK):
    """The draws, tuples of arrays, size at a time, grouped by the first array's
    size in order of first appearance: each group's entries stacked."""
    draws = iter(draws)
    while block := list(itertools.islice(draws, size)):
        for dim in dict.fromkeys(row[0].size for row in block):
            yield [np.array(column) for column in zip(*(row for row in block if row[0].size == dim))]


def _vector_differences(gammas, V: Array, W: Array, h: float, query: bool) -> Array:
    """Central differences (T, n) in V's rows of their scores against W's rows;
    query says whether V holds the queries."""
    X = np.repeat(V[:, None, None, :], V.shape[1], axis=1).repeat(2, axis=2)  # (T, n, +-h, n)
    i = np.arange(V.shape[1])
    X[:, i, 0, i] += h
    X[:, i, 1, i] -= h
    W = W[:, None, None]
    return _differences(simcore.row_scores(gammas, *((X, W) if query else (W, X)))[0], h)


def _differences(S: Array, h: float) -> Array:
    """finite_difference's (f(x + h e_i) - f(x - h e_i)) / 2h, and its error, from probe scores S (..., 2)."""
    finite = np.isfinite(S).all(axis=-1)
    if not finite.all():
        raise NonFiniteEvaluation(f"non-finite probe at coordinate {np.argwhere(~finite)[0, -1]}")
    return (S[..., 0] - S[..., 1]) / (2.0 * h)


def _gamma_differences(gq, gd, t: Array, nq: Array, nd: Array, h: float) -> Array:
    """Central differences (T, 2) of t / (nq**gq * nd**gd) in the gammas, floats or per-row
    arrays; a probe outside [0, 1] raises learnable()'s ValueError."""
    probes = ((gq + h, gd), (gq - h, gd), (gq, gd + h), (gq, gd - h))
    for a, b in probes:
        simcore.learnable(np.min(a), np.min(b)), simcore.learnable(np.max(a), np.max(b))
    S = np.stack([simcore.divide_by_norms(g, t, nq, nd) for g in probes], axis=-1)
    return _differences(S.reshape(-1, 2, 2), h)


def _well_conditioned(rng, dim: int) -> Array:
    """Standard normal sample, redrawn until its norm clears 0.3."""
    v = rng.standard_normal(dim)
    while simcore.norm(v) < 0.3:
        v = rng.standard_normal(dim)
    return v
