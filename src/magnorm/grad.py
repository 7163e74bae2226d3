"""Closed-form gradients of the similarity family and of InfoNCE.

Everything here is hand-derived; there is no autodiff engine.  One
formula, _stack_grad, serves the whole family for a pool of candidates
shared by every query: in-batch InfoNCE's positives, and sim_grad's
single document.  The normalization Jacobian d(v/|v|)/dv =
(I - vv^T/|v|^2)/|v| factors as the tangent-space projector
P_v = I - vhat vhat^T divided by the norm.  P_v is symmetric,
idempotent, annihilates the radial direction, and has trace n - 1.
A side's row norms are taken only if its gamma is positive or under
learnable (whose gamma gradients need ln|v|), by infonce_grad once for
its scores and gradients; a gamma-0 side skips every division by |v|**0,
and a gamma-1 side the power |v|**1 and the product 1.0 * x.

A central finite-difference oracle and a seeded gradcheck harness verify
every analytic formula against numerics.  A pair is checked once, by
sim_grad; the probes then run simcore.pair_score, the arithmetic
similarity() runs, with the fixed side's norm taken once per pair, so
they get similarity()'s bits and errors without its re-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simcore
from .errors import NonFiniteEvaluation, ZeroMagnitude
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
    over queries.
    """

    loss: float
    d_queries: Array
    d_positives: Array
    d_gamma_q: float | None = None
    d_gamma_d: float | None = None


def tangent_projector(v) -> Array:
    """P_v = I - vhat vhat^T, the projector onto the tangent space at vhat."""
    v = simcore.as_embedding(v)
    n = simcore.norm(v)
    if n == 0.0:
        raise ZeroMagnitude("tangent space undefined at the origin")
    vhat = v / n
    return np.eye(v.size) - np.outer(vhat, vhat)


def sim_grad(kind: SimilarityKind, q, d) -> SimGradient:
    """Analytic gradient of similarity(kind, q, d) in q, d, and gammas.

    Writing the whole family as s = (q.d) / (|q|^gq |d|^gd):

        ds/dq = d / (|q|^gq |d|^gd) - gq * s * q / |q|^2
        ds/dd = q / (|q|^gq |d|^gd) - gd * s * d / |d|^2
        ds/dgq = -ln|q| * s          ds/dgd = -ln|d| * s
    """
    q, d = simcore.check_pair(q, d)
    nq = nd = None
    if kind.tag == "learnable":
        # The gamma gradients carry ln of both norms, so that variant needs
        # both sides nonzero even at gamma = 0; the score reuses the norms.
        nq, nd = simcore.norm(q), simcore.norm(d)
        if 0.0 in (nq, nd):
            raise ZeroMagnitude("learnable gamma gradients need a nonzero query and document")
    s = simcore.pair_score(kind, q, d, nq, nd)
    dQ, dC, dgq, dgd = _stack_grad(kind, np.ones((1, 1)), np.array([[s]]), q[None, :], d[None, :])
    return SimGradient(d_q=dQ[0], d_d=dC[0], d_gamma_q=dgq, d_gamma_d=dgd)


def _row_norms(kind: SimilarityKind, Q: Array, C: Array) -> tuple:
    """Row norms of Q and C where _stack_grad reads them (gamma > 0, or learnable), else None."""
    gq, gd = kind.gammas
    learn = kind.tag == "learnable"
    return tuple(np.linalg.norm(M, axis=1) if g > 0.0 or learn else None for M, g in ((Q, gq), (C, gd)))


def _stack_grad(kind: SimilarityKind, G: Array, S: Array, Q: Array, C: Array, norms=None) -> tuple:
    """Gradients of sum_bk G[b, k] * s(Q[b], C[k]), S holding the scores s.

    Q is (B, n) and C a (K, n) pool every query scores: in-batch
    positives, or sim_grad's 1x1 pool.  A candidate's gradient and
    d_gamma_d sum over queries.  Returns (dQ, dC, d_gamma_q, d_gamma_d),
    gammas None unless learnable.  norms is _row_norms(kind, Q, C), taken
    here unless given.  A zero norm on a side divided here was already
    rejected by the scores S came from.
    """
    gq, gd = kind.gammas
    learn = kind.tag == "learnable"
    nq, nd = _row_norms(kind, Q, C) if norms is None else norms
    # A side with gamma 0 would divide by |v|**0, all ones, and subtract
    # nothing; at gamma 1, |v|**1 is |v| and 1.0 * x is x.  Each skip is
    # exact, so the bits stay.
    scale_q = (nq if gq == 1.0 else nq**gq)[:, None] if gq > 0.0 else None
    scale_d = (nd if gd == 1.0 else nd**gd) if gd > 0.0 else None
    dQ = (G if scale_d is None else G / scale_d) @ C
    dC = (G if scale_q is None else G / scale_q).T @ Q
    if gq > 0.0 or gd > 0.0 or learn:
        GS = G * S
        GS_q, GS_c = np.add.reduce(GS, axis=1), np.add.reduce(GS, axis=0)
    if gq > 0.0:
        dQ /= scale_q
        radial = (GS_q / nq**2)[:, None]
        dQ -= (radial if gq == 1.0 else gq * radial) * Q
    if gd > 0.0:
        dC /= scale_d[:, None]
        radial = (GS_c / nd**2)[:, None]
        dC -= (radial if gd == 1.0 else gd * radial) * C
    if not learn:
        return dQ, dC, None, None
    return dQ, dC, float(-np.add.reduce(GS_q * np.log(nq))), float(-np.add.reduce(GS_c * np.log(nd)))


def infonce_grad(batch: ContrastiveBatch, cfg: LossConfig) -> InfoNCEGradients:
    """Loss and gradients of infonce_loss for every embedding and gamma.

    With logits z_ij = (alpha/tau) s_ij and softmax rows p_i, the chain
    rule gives dL/ds_ij = (alpha/tau)(p_ij - [j = i]) / B, after which
    _stack_grad distributes the signal onto queries, the pool of
    positives, and gammas.
    """
    norms = _row_norms(cfg.kind, batch.queries, batch.positives)
    logits = candidate_logits(batch, cfg, norms)
    B = logits.shape[0]
    loss, e, e_sum = infonce_terms(logits)
    G = np.divide(e, e_sum, out=e)
    G.ravel()[:: B + 1] -= 1.0  # the diagonal, through a view of the contiguous G
    G *= cfg.alpha / cfg.tau / B

    # _stack_grad reads the scores where a side divides or under learnable:
    # under every kind but dot.  Multiplying by a tau of 1.0 is exact, so it is skipped.
    S = None
    if cfg.kind.tag != "dot":
        if cfg.tau != 1.0:
            np.multiply(logits, cfg.tau, out=logits)
        S = np.divide(logits, cfg.alpha, out=logits)
    dQ, dC, dgq, dgd = _stack_grad(cfg.kind, G, S, batch.queries, batch.positives, norms)
    return InfoNCEGradients(loss, dQ, dC, dgq, dgd)


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


def gradcheck(
    kind: SimilarityKind,
    trials: int,
    seed: int,
    tol: float = 1e-6,
    h: float = 1e-5,
) -> GradcheckReport:
    """Compare sim_grad against finite differences over seeded random pairs.

    Deterministic given seed (per-trial generators are spawned from one
    seed sequence, so trials could run in any order or in parallel).
    Fails iff any parameter group's relative error exceeds tol.  Each
    pair is checked once; every probe runs the same arithmetic as
    similarity(), so the errors carry its bits, and a gamma probe outside
    [0, 1] raises ValueError as learnable() does.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gq, gd = kind.gammas
    learn = kind.tag == "learnable"
    groups = {"q": 0.0, "d": 0.0}
    if learn:
        groups["gamma_q"] = 0.0
        groups["gamma_d"] = 0.0
    children = np.random.SeedSequence(seed).spawn(trials)
    for child in children:
        rng = np.random.default_rng(child)
        dim = int(rng.integers(2, 9))
        q = _well_conditioned(rng, dim)
        d = _well_conditioned(rng, dim)
        g = sim_grad(kind, q, d)
        # sim_grad checked the pair; each probe runs only pair_score, with
        # the fixed side's norm taken here once, or not at all at gamma 0.
        nq, nd = (simcore.norm(v) if gamma > 0.0 else None for v, gamma in ((q, gq), (d, gd)))
        num_q = finite_difference(lambda x: simcore.pair_score(kind, x, d, None, nd), q.copy(), h)
        num_d = finite_difference(lambda x: simcore.pair_score(kind, q, x, nq, None), d.copy(), h)
        groups["q"] = max(groups["q"], rel_error(g.d_q, num_q))
        groups["d"] = max(groups["d"], rel_error(g.d_d, num_d))
        if learn:

            def s_of_gammas(gm):
                return simcore.pair_score(simcore.learnable(gm[0], gm[1]), q, d, nq, nd)

            num_g = finite_difference(s_of_gammas, np.array([gq, gd]), h)
            groups["gamma_q"] = max(groups["gamma_q"], rel_error(g.d_gamma_q, num_g[0]))
            groups["gamma_d"] = max(groups["gamma_d"], rel_error(g.d_gamma_d, num_g[1]))
    worst = max(groups.values())
    return GradcheckReport(
        kind=simcore.kind_name(kind),
        trials=trials,
        seed=seed,
        max_rel_err=worst,
        passed=worst <= tol,
        group_errors=dict(groups),
    )


def _well_conditioned(rng, dim: int, min_norm: float = 0.3) -> Array:
    """Standard normal sample, redrawn until its norm clears min_norm."""
    v = rng.standard_normal(dim)
    while simcore.norm(v) < min_norm:
        v = rng.standard_normal(dim)
    return v
