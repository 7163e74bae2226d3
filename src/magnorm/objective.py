"""The in-batch contrastive objective built on the similarity family.

The InfoNCE loss softmax-normalizes a positive pair's scaled score
against the batch's other positives (in-batch negatives) at temperature
tau.  The scale alpha multiplies every logit before the division by
tau, so the effective inverse temperature is alpha/tau.  Defaults follow
the training harness convention tau = 1, alpha = 20.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simcore
from .errors import DegenerateBatch, DimensionMismatch
from .simcore import SimilarityKind

Array = np.ndarray


@dataclass(frozen=True)
class LossConfig:
    """Objective hyperparameters: tau is the softmax temperature, alpha the logit scale."""

    kind: SimilarityKind
    tau: float = 1.0
    alpha: float = 20.0

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class ContrastiveBatch:
    """Aligned queries and positives, scored in-batch.

    queries and positives have shape (..., B, n), B >= 2: a batch or a stack
    of batches.  Every query scores against its batch's whole pool of positives,
    its own at index i, so the other B - 1 positives are its negatives.
    """

    queries: Array
    positives: Array

    def __post_init__(self):
        q = np.asarray(self.queries, dtype=np.float64)
        p = np.asarray(self.positives, dtype=np.float64)
        object.__setattr__(self, "queries", q)
        object.__setattr__(self, "positives", p)
        if q.ndim < 2 or p.shape != q.shape:
            raise DimensionMismatch(
                f"queries and positives must share shape (..., B, n), got {q.shape} and {p.shape}"
            )
        if q.shape[-2] < 2:
            raise DegenerateBatch("in-batch negatives need at least 2 queries")


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
    _, e, e_sum = infonce_terms(cfg.alpha * simcore.similarity_matrix(cfg.kind, q[None, :], D) / cfg.tau)
    return (e / e_sum)[0]


def candidate_logits(batch: ContrastiveBatch, cfg: LossConfig, norms=None) -> Array:
    """Logit matrix (..., B, B) of every query against its pool of positives.

    Query i's positive is column i.  norms is similarity_matrix's.
    Dividing by a tau of 1.0 is exact, so it is skipped.
    """
    S = simcore.similarity_matrix(cfg.kind, batch.queries, batch.positives, norms)
    np.multiply(cfg.alpha, S, out=S)  # S is fresh: scaled in place
    return S if cfg.tau == 1.0 else np.divide(S, cfg.tau, out=S)


def infonce_loss(batch: ContrastiveBatch, cfg: LossConfig) -> float:
    """Mean over queries of -log softmax(positive); always >= 0.

    Equals ln B exactly when all B candidate logits of every query tie,
    and falls toward 0 as the positive's score dominates.
    """
    return infonce_terms(candidate_logits(batch, cfg))[0]


def infonce_terms(logits: Array) -> tuple:
    """(mean over rows of log-sum-exp minus the diagonal, e = exp(logits - row max), e's row sums as a column),
    through the ufunc reductions that .max, .sum and .mean wrap: their bits, without the wrappers.
    A (B, C) block gives a float mean, a stack of blocks one mean per block."""
    m = np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(logits - m)
    e_sum = np.add.reduce(e, axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(e_sum[..., 0])
    loss = np.add.reduce(lse - logits.diagonal(0, -2, -1), axis=-1) / logits.shape[-2]
    return (loss if loss.ndim else float(loss)), e, e_sum
