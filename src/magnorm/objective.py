"""Contrastive and regression objectives built on the similarity family.

The InfoNCE loss softmax-normalizes a positive pair's scaled score
against negatives at temperature tau.  The scale alpha multiplies every
logit before the division by tau, so the effective inverse temperature
is alpha/tau.  Defaults follow the training harness convention tau = 1,
alpha = 20.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simcore
from .errors import DegenerateBatch, DimensionMismatch, EmptyInput
from .simcore import SimilarityKind

Array = np.ndarray


@dataclass(frozen=True)
class LossConfig:
    """Objective hyperparameters.

    tau is the softmax temperature, alpha the logit scale, lam the target
    scale of the symmetric MSE objective (written out because 'lambda' is
    reserved in Python).
    """

    kind: SimilarityKind
    tau: float = 1.0
    alpha: float = 20.0
    lam: float = 0.01

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.lam <= 0.0:
            raise ValueError(f"lambda must be positive, got {self.lam}")


@dataclass(frozen=True)
class ContrastiveBatch:
    """Aligned queries and positives, negatives either in-batch or explicit.

    queries and positives have shape (B, n).  negatives is None for
    in-batch mode (query i scores against all positives, its own at index
    i) or an explicit (B, K, n) array of per-query negatives.
    """

    queries: Array
    positives: Array
    negatives: Array | None = None

    def __post_init__(self):
        q = np.asarray(self.queries, dtype=np.float64)
        p = np.asarray(self.positives, dtype=np.float64)
        object.__setattr__(self, "queries", q)
        object.__setattr__(self, "positives", p)
        if q.ndim != 2 or p.shape != q.shape:
            raise DimensionMismatch(
                f"queries and positives must share shape (B, n), got {q.shape} and {p.shape}"
            )
        if self.negatives is not None:
            neg = np.asarray(self.negatives, dtype=np.float64)
            object.__setattr__(self, "negatives", neg)
            if neg.ndim != 3 or neg.shape[0] != q.shape[0] or neg.shape[2] != q.shape[1]:
                raise DimensionMismatch(
                    f"negatives must have shape (B, K, n), got {neg.shape}"
                )
        elif q.shape[0] < 2:
            raise DegenerateBatch("in-batch negatives need at least 2 queries")

    @property
    def size(self) -> int:
        return self.queries.shape[0]

    @property
    def in_batch(self) -> bool:
        return self.negatives is None

    @property
    def candidates(self) -> Array:
        """Explicit mode's (B, K+1, n) candidate stack, each positive at index 0."""
        return np.concatenate([self.positives[:, None, :], self.negatives], axis=1)


def softmax_probs(q, docs, cfg: LossConfig) -> Array:
    """Softmax distribution over candidate documents for one query.

    Logits are alpha * s(q, d_j) / tau; entries are nonnegative and sum
    to 1 up to rounding.
    """
    docs = list(docs)
    if not docs:
        raise DegenerateBatch("no candidate documents")
    q = simcore.as_embedding(q)
    D = np.stack([simcore.as_embedding(d) for d in docs])
    scores = simcore.similarity_matrix(cfg.kind, q[None, :], D)[0]
    return _stable_softmax(cfg.alpha * scores / cfg.tau)


def candidate_logits(batch: ContrastiveBatch, cfg: LossConfig) -> tuple[Array, Array]:
    """Logit matrix (B, C) and positive column index per query.

    In-batch mode shares one candidate pool (the positives); explicit
    mode places each query's positive at column 0 ahead of its negatives.
    """
    if batch.in_batch:
        S = simcore.similarity_matrix(cfg.kind, batch.queries, batch.positives)
        pos_idx = np.arange(batch.size)
    else:
        Q, C = batch.queries, batch.candidates
        nq, nd = np.linalg.norm(Q, axis=1), np.linalg.norm(C, axis=2)
        S = simcore.divide_by_norms(cfg.kind, np.einsum("bn,bkn->bk", Q, C), nq[:, None], nd)
        pos_idx = np.zeros(batch.size, dtype=int)
    return cfg.alpha * S / cfg.tau, pos_idx


def infonce_loss(batch: ContrastiveBatch, cfg: LossConfig) -> float:
    """Mean over queries of -log softmax(positive); always >= 0.

    Equals ln(k+1) exactly when all k+1 candidate logits tie, and falls
    toward 0 as the positive's score dominates.
    """
    logits, pos_idx = candidate_logits(batch, cfg)
    if logits.shape[1] == 0:
        raise DegenerateBatch("a query has zero candidates")
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    per_query = lse - logits[np.arange(batch.size), pos_idx]
    return float(per_query.mean())


def mse_symmetric_loss(pairs, cfg: LossConfig) -> float:
    """Mean of (lam * s(a, b) - target)^2 over (a, b, target) triples."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyInput("no pairs given")
    residuals = []
    for a, b, target in pairs:
        s = simcore.similarity(cfg.kind, a, b)
        residuals.append((cfg.lam * s - float(target)) ** 2)
    return float(np.mean(residuals))


def effective_temperature(
    kind: SimilarityKind, tau: float, carrier_norm: float, carrier_gamma: float | None = None
) -> float:
    """Per-example softmax temperature induced by an unnormalized side.

    The carrier is the side whose magnitude survives into the logits:
    the query under dnorm, the document under qnorm, either side under
    dot (pass the norm of the side being analyzed).  Cosine keeps no
    magnitude, so tau is returned unchanged.  For the learnable variant
    the surviving power is 1 - gamma, so pass the carrier side's gamma
    and the result is tau / carrier_norm**(1 - gamma).
    """
    if tau <= 0.0 or carrier_norm <= 0.0:
        raise ValueError("tau and carrier_norm must be positive")
    if kind.tag == "cosine":
        return tau
    if kind.tag in ("dot", "qnorm", "dnorm"):
        return tau / carrier_norm
    if carrier_gamma is None:
        raise ValueError("learnable kind needs the carrier side's gamma")
    return tau / carrier_norm ** (1.0 - carrier_gamma)


def _stable_softmax(z: Array) -> Array:
    e = np.exp(z - z.max())
    return e / e.sum()
