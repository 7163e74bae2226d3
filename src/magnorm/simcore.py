"""Similarity functions over dense embeddings with explicit magnitude handling.

Five scoring variants share one bilinear core t = q.d and differ only in
how much of each side's Euclidean norm they divide away:

    cosine     t / (|q| * |d|)     both sides unit-normalized
    dot        t                   both magnitudes kept
    qnorm      t / |q|             query normalized, document magnitude kept
    dnorm      t / |d|             document normalized, query magnitude kept
    learnable  t / (|q|^gq * |d|^gd)   continuous interpolation, gq, gd in [0, 1]

The learnable variant equals |q|^(1-gq) * |d|^(1-gd) * cos(theta) and
reduces exactly to the four discrete variants at the corners of the
(gq, gd) unit square.  divide_by_norms applies that division and its
zero-norm rule for the scalar, matrix and candidate-stack scores alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroMagnitude

Array = np.ndarray


def as_embedding(values) -> Array:
    """Validate and return a finite 1-d float64 vector of dimension >= 1."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"embedding must be 1-d with dim >= 1, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DimensionMismatch("embedding entries must be finite")
    return v


@dataclass(frozen=True)
class GammaPair:
    """Normalization strengths (gamma_q, gamma_d), each in the closed [0, 1]."""

    gamma_q: float
    gamma_d: float

    def __post_init__(self):
        for name, g in (("gamma_q", self.gamma_q), ("gamma_d", self.gamma_d)):
            if not (0.0 <= g <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {g}")


@dataclass(frozen=True)
class SimilarityKind:
    """Closed enumeration of scoring variants.

    tag is one of cosine/dot/qnorm/dnorm/learnable; gammas is present
    exactly when tag is learnable.
    """

    tag: str
    gammas: GammaPair | None = None

    _TAGS = ("cosine", "dot", "qnorm", "dnorm", "learnable")

    def __post_init__(self):
        if self.tag not in self._TAGS:
            raise ValueError(f"unknown similarity tag {self.tag!r}")
        if self.tag == "learnable" and self.gammas is None:
            raise ValueError("learnable kind requires a GammaPair")
        if self.tag != "learnable" and self.gammas is not None:
            raise ValueError(f"{self.tag} kind carries no gammas")


COSINE = SimilarityKind("cosine")
DOT = SimilarityKind("dot")
QNORM = SimilarityKind("qnorm")
DNORM = SimilarityKind("dnorm")


def learnable(gamma_q: float, gamma_d: float) -> SimilarityKind:
    return SimilarityKind("learnable", GammaPair(float(gamma_q), float(gamma_d)))


def kind_from_name(name: str) -> SimilarityKind:
    """Parse a variant name like 'dot' or 'learnable:0.3,0.8'."""
    name = name.strip().lower()
    if name.startswith("learnable"):
        if ":" in name:
            body = name.split(":", 1)[1]
            gq, gd = (float(p) for p in body.split(","))
            return learnable(gq, gd)
        return learnable(0.5, 0.5)
    return SimilarityKind(name)


def kind_name(kind: SimilarityKind) -> str:
    if kind.tag == "learnable":
        return f"learnable:{kind.gammas.gamma_q:g},{kind.gammas.gamma_d:g}"
    return kind.tag


# Corner coordinates of each discrete variant on the (gamma_q, gamma_d) square.
_CORNERS = {"cosine": (1.0, 1.0), "dot": (0.0, 0.0), "qnorm": (1.0, 0.0), "dnorm": (0.0, 1.0)}


def effective_gammas(kind: SimilarityKind) -> tuple[float, float]:
    """The (gamma_q, gamma_d) pair the variant divides by."""
    if kind.tag == "learnable":
        return kind.gammas.gamma_q, kind.gammas.gamma_d
    return _CORNERS[kind.tag]


def norm(v) -> float:
    """Euclidean length; zero exactly for the zero vector."""
    return float(np.linalg.norm(as_embedding(v)))


def decompose(q, d) -> tuple[float, float, float]:
    """Split a pair into (|q|, |d|, cos theta) with the cosine clamped to [-1, 1].

    The clamp absorbs floating-point drift so that downstream angular
    identities always see a valid cosine.
    """
    q = as_embedding(q)
    d = as_embedding(d)
    _check_dims(q, d)
    nq = float(np.linalg.norm(q))
    nd = float(np.linalg.norm(d))
    if nq == 0.0 or nd == 0.0:
        raise ZeroMagnitude("angular decomposition undefined for a zero vector")
    cos_theta = float(np.dot(q, d)) / (nq * nd)
    cos_theta = min(1.0, max(-1.0, cos_theta))
    return nq, nd, cos_theta


def divide_by_norms(kind: SimilarityKind, t, nq, nd):
    """The family's one rule: raw scores t over |q|^gq * |d|^gd, divided once.

    t, nq and nd are floats or broadcastable arrays.  Raises ZeroMagnitude
    when a side with a positive gamma has a zero norm; silent zeros would
    mask generator bugs upstream.  A side with gamma 0 contributes no
    factor, which is exact since |v|**0 is 1.  Dividing by the product,
    not by one side and then the other, keeps cosine and dot exactly
    symmetric in q and d.
    """
    den = 1.0
    for side, n, g in zip(("query", "document"), (nq, nd), effective_gammas(kind)):
        if g > 0.0:
            # count_nonzero, not any(): it takes a Python bool about as fast as an array.
            if np.count_nonzero(n == 0.0):
                raise ZeroMagnitude(f"zero-norm {side}")
            den = den * n**g
    return t / den


def similarity(kind: SimilarityKind, q, d) -> float:
    """Score one (query, document) pair under the given variant.

    Raises ZeroMagnitude as divide_by_norms does.
    """
    q = as_embedding(q)
    d = as_embedding(d)
    _check_dims(q, d)
    return divide_by_norms(kind, float(np.dot(q, d)), float(np.linalg.norm(q)), float(np.linalg.norm(d)))


def scaled_logit(kind: SimilarityKind, q, d, alpha: float) -> float:
    """alpha * similarity(kind, q, d); alpha must be positive.

    The scale cannot change any ranking (it is a positive constant), so
    it matters only inside softmax-based objectives.
    """
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return alpha * similarity(kind, q, d)


def similarity_matrix(kind: SimilarityKind, Q: Array, D: Array) -> Array:
    """All-pairs scores: rows are queries, columns are documents.

    Vectorized companion of similarity() for batched objectives and
    evaluation; identical semantics including the zero-norm errors.
    """
    Q = np.asarray(Q, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    if Q.ndim != 2 or D.ndim != 2 or Q.shape[1] != D.shape[1]:
        raise DimensionMismatch(f"expected (B, n) and (C, n), got {Q.shape} and {D.shape}")
    nq = np.linalg.norm(Q, axis=1)
    nd = np.linalg.norm(D, axis=1)
    return divide_by_norms(kind, Q @ D.T, nq[:, None], nd[None, :])


def _check_dims(q: Array, d: Array) -> None:
    if q.shape != d.shape:
        raise DimensionMismatch(f"dimension mismatch: {q.shape} vs {d.shape}")

