"""Closed-form gradients of the similarity family and of InfoNCE.

Everything here is hand-derived; there is no autodiff engine.  The
normalization Jacobian d(v/|v|)/dv = (I - vv^T/|v|^2)/|v| factors as the
tangent-space projector P_v = I - vhat vhat^T divided by the norm.  P_v
is symmetric, idempotent, annihilates the radial direction, and has
trace n - 1 (one degree of freedom lost to the norm constraint).

A central finite-difference oracle and a seeded gradcheck harness verify
every analytic formula against numerics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import simcore
from .errors import NonFiniteEvaluation, ZeroMagnitude
from .objective import ContrastiveBatch, LossConfig, candidate_logits
from .simcore import SimilarityKind, effective_gammas

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

    d_negatives is None in in-batch mode, where every positive already
    receives its accumulated candidate-side gradient in d_positives.
    """

    loss: float
    d_queries: Array
    d_positives: Array
    d_negatives: Array | None
    d_gamma_q: float | None = None
    d_gamma_d: float | None = None


def tangent_projector(v) -> Array:
    """P_v = I - vhat vhat^T, the projector onto the tangent space at vhat."""
    v = simcore.as_embedding(v)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ZeroMagnitude("tangent space undefined at the origin")
    vhat = v / n
    return np.eye(v.size) - np.outer(vhat, vhat)


def normalization_jacobian(v) -> Array:
    """J = d(v/|v|)/dv = P_v / |v|."""
    v = simcore.as_embedding(v)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ZeroMagnitude("normalization Jacobian undefined at the origin")
    return tangent_projector(v) / n


def sim_grad(kind: SimilarityKind, q, d) -> SimGradient:
    """Analytic gradient of similarity(kind, q, d) in q, d, and gammas.

    Writing the whole family as s = (q.d) / (|q|^gq |d|^gd):

        ds/dq = d / (|q|^gq |d|^gd) - gq * s * q / |q|^2
        ds/dd = q / (|q|^gq |d|^gd) - gd * s * d / |d|^2
        ds/dgq = -ln|q| * s          ds/dgd = -ln|d| * s
    """
    q = simcore.as_embedding(q)
    d = simcore.as_embedding(d)
    # The learnable gamma gradients carry ln of both norms, so that
    # variant needs both sides nonzero even at gamma = 0.
    if kind.tag == "learnable" and 0.0 in (np.linalg.norm(q), np.linalg.norm(d)):
        raise ZeroMagnitude("learnable gamma gradients need a nonzero query and document")
    s = simcore.similarity(kind, q, d)
    dQ, dC, dgq, dgd = _stack_grad(kind, np.ones((1, 1)), np.array([[s]]), q[None, :], d[None, None, :])
    return SimGradient(d_q=dQ[0], d_d=dC[0, 0], d_gamma_q=dgq, d_gamma_d=dgd)


def _stack_grad(kind: SimilarityKind, G: Array, S: Array, Q: Array, C: Array) -> tuple:
    """Gradients of sum_bk G[b, k] * s(Q[b], C[b, k]) over candidate stacks.

    Q is (B, n), C is (B, K, n), and S holds the scores s(Q[b], C[b, k]).
    Returns (dQ, dC, d_gamma_q, d_gamma_d); the gamma entries are None
    unless the kind is learnable.  sim_grad is the case B = K = 1, G = 1.
    """
    gq, gd = effective_gammas(kind)
    nq = np.linalg.norm(Q, axis=1)
    nd = np.linalg.norm(C, axis=2)
    coeff = simcore.divide_by_norms(kind, G, nq[:, None], nd)
    GS = G * S
    dQ = np.einsum("bk,bkn->bn", coeff, C)
    if gq > 0.0:
        dQ -= gq * (GS.sum(axis=1) / nq**2)[:, None] * Q
    dC = coeff[:, :, None] * Q[:, None, :]
    if gd > 0.0:
        dC -= gd * (GS / nd**2)[:, :, None] * C
    if kind.tag != "learnable":
        return dQ, dC, None, None
    return dQ, dC, float(-(GS.sum(axis=1) * np.log(nq)).sum()), float(-(GS * np.log(nd)).sum())


def infonce_grad(batch: ContrastiveBatch, cfg: LossConfig) -> InfoNCEGradients:
    """Loss and gradients of infonce_loss for every embedding and gamma.

    With logits z_ij = (alpha/tau) s_ij and softmax rows p_i, the chain
    rule gives dL/ds_ij = (alpha/tau)(p_ij - [j = pos_i]) / B, after
    which each score's SimGradient formula distributes the signal onto
    queries, candidates, and gammas.  Explicit negatives are handled as
    one (B, K+1, n) candidate stack with each positive at index 0.
    """
    logits, pos_idx = candidate_logits(batch, cfg)
    B = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    P = e / e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(e.sum(axis=1))
    loss = float((lse - logits[np.arange(B), pos_idx]).mean())

    G = P.copy()
    G[np.arange(B), pos_idx] -= 1.0
    G *= cfg.alpha / cfg.tau / B

    Q = batch.queries
    S = logits * cfg.tau / cfg.alpha
    if not batch.in_batch:
        dQ, dC, dgq, dgd = _stack_grad(cfg.kind, G, S, Q, batch.candidates)
        return InfoNCEGradients(loss, dQ, dC[:, 0], dC[:, 1:], dgq, dgd)

    gq, gd = effective_gammas(cfg.kind)
    D = batch.positives
    nq = np.linalg.norm(Q, axis=1)
    nd = np.linalg.norm(D, axis=1)
    scale_q = nq**gq
    scale_d = nd**gd
    Gn = G / scale_d[None, :]
    dQ = (Gn @ D) / scale_q[:, None]
    dD = (G / scale_q[:, None]).T @ Q / scale_d[:, None]
    if gq > 0.0:
        gs_row = (G * S).sum(axis=1)
        dQ -= gq * (gs_row / nq**2)[:, None] * Q
    if gd > 0.0:
        gs_col = (G * S).sum(axis=0)
        dD -= gd * (gs_col / nd**2)[:, None] * D
    if cfg.kind.tag != "learnable":
        return InfoNCEGradients(loss, dQ, dD, None)
    # Each positive is a candidate for every query, so its gamma_d
    # signal is a column sum.
    dgq = float(-((G * S).sum(axis=1) * np.log(nq)).sum())
    dgd = float(-((G * S).sum(axis=0) * np.log(nd)).sum())
    return InfoNCEGradients(loss, dQ, dD, None, dgq, dgd)


def finite_difference(f, x, h: float = 1e-5) -> Array:
    """Central differences (f(x + h e_i) - f(x - h e_i)) / 2h per coordinate."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    flat = x.ravel()
    out_flat = out.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NonFiniteEvaluation(f"non-finite probe at coordinate {i}")
        out_flat[i] = (hi - lo) / (2.0 * h)
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "trials": self.trials,
                "seed": self.seed,
                "max_rel_err": self.max_rel_err,
                "pass": self.passed,
                "groups": self.group_errors,
            }
        )


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
    Fails iff any parameter group's relative error exceeds tol.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    groups = {"q": 0.0, "d": 0.0}
    if kind.tag == "learnable":
        groups["gamma_q"] = 0.0
        groups["gamma_d"] = 0.0
    children = np.random.SeedSequence(seed).spawn(trials)
    for child in children:
        rng = np.random.default_rng(child)
        dim = int(rng.integers(2, 9))
        q = _well_conditioned(rng, dim)
        d = _well_conditioned(rng, dim)
        g = sim_grad(kind, q, d)
        num_q = finite_difference(lambda x: simcore.similarity(kind, x, d), q.copy(), h)
        num_d = finite_difference(lambda x: simcore.similarity(kind, q, x), d.copy(), h)
        groups["q"] = max(groups["q"], rel_error(g.d_q, num_q))
        groups["d"] = max(groups["d"], rel_error(g.d_d, num_d))
        if kind.tag == "learnable":
            gq, gd = kind.gammas.gamma_q, kind.gammas.gamma_d

            def s_of_gammas(gm):
                return simcore.similarity(simcore.learnable(gm[0], gm[1]), q, d)

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
    while np.linalg.norm(v) < min_norm:
        v = rng.standard_normal(dim)
    return v
