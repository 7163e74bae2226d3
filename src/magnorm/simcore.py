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
(gq, gd) unit square; every kind carries its pair as kind.gammas.
divide_by_norms is the one place that applies that division and its
zero-norm rule, always to arrays: row_scores' row pairs (one pair is a
one-row block: similarity()), the all-pairs matrix, and
diagnostics.rank_documents' blocks of trials, whose learnable variants
pass one gamma per trial as an array.  The InfoNCE objective scores its
in-batch pool through the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroMagnitude

Array = np.ndarray


def as_embedding(values) -> Array:
    """Validate and return a finite 1-d float64 vector of dimension >= 1."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatch(f"embedding must be 1-d with dim >= 1, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise DimensionMismatch("embedding entries must be finite")
    return v


# Corner coordinates of each fixed variant on the (gamma_q, gamma_d) square.
_CORNERS = {"cosine": (1.0, 1.0), "dot": (0.0, 0.0), "qnorm": (1.0, 0.0), "dnorm": (0.0, 1.0)}


@dataclass(frozen=True)
class SimilarityKind:
    """Closed enumeration of scoring variants.

    tag is one of cosine/dot/qnorm/dnorm/learnable; gammas is the
    (gamma_q, gamma_d) pair the variant divides by: a fixed tag's corner
    of the unit square, or a learnable kind's pair, each in [0, 1].
    """

    tag: str
    gammas: tuple[float, float]

    def __post_init__(self):
        if self.tag == "learnable":
            for name, g in zip(("gamma_q", "gamma_d"), self.gammas, strict=True):
                if not (0.0 <= g <= 1.0):
                    raise ValueError(f"{name} must lie in [0, 1], got {g}")
        elif self.tag not in _CORNERS:
            raise ValueError(f"unknown similarity tag {self.tag!r}")
        elif self.gammas != _CORNERS[self.tag]:
            raise ValueError(f"{self.tag} kind divides by gammas {_CORNERS[self.tag]}, got {self.gammas}")


COSINE, DOT, QNORM, DNORM = (SimilarityKind(tag, gammas) for tag, gammas in _CORNERS.items())


def learnable(gamma_q: float, gamma_d: float) -> SimilarityKind:
    return SimilarityKind("learnable", (float(gamma_q), float(gamma_d)))


def kind_from_name(name: str) -> SimilarityKind:
    """Parse a variant name: 'cosine', 'dot', 'qnorm', 'dnorm', 'learnable' or 'learnable:0.3,0.8'."""
    name = name.strip().lower()
    tag, colon, body = name.partition(":")
    if tag == "learnable":
        if not colon:
            return learnable(0.5, 0.5)
        try:
            gq, gd = (float(p) for p in body.split(","))
        except ValueError:
            raise ValueError(f"learnable takes two gammas, 'learnable:<gq>,<gd>'; got {name!r}") from None
        return learnable(gq, gd)
    if colon or tag not in _CORNERS:
        raise ValueError(f"unknown similarity tag {name!r}")
    return SimilarityKind(tag, _CORNERS[tag])


def kind_name(kind: SimilarityKind) -> str:
    if kind.tag == "learnable":
        return "learnable:{:g},{:g}".format(*kind.gammas)
    return kind.tag


def divide_by_norms(gammas, t, nq, nd):
    """The family's one rule: raw scores t over |q|^gq * |d|^gd, divided once.

    gammas is a kind's (gq, gd) pair, kind.gammas, each a float, or
    an array of per-row exponents that broadcasts against its side's
    norms (rank_documents' per-trial learnable variants).  t, nq and nd
    are broadcastable arrays; a side whose gamma is the float 0.0 may pass
    None.  Raises ZeroMagnitude where a side with a nonzero gamma has a
    zero norm; silent zeros would mask generator bugs upstream.  A
    float-gamma side at 0 contributes no factor, which is exact since
    |v|**0 is 1, and when neither side has one (dot) t itself comes back,
    undivided.  Dividing by the product, not by one side and then the
    other, keeps cosine and dot exactly symmetric in q and d.
    """
    gq, gd = gammas
    den = _norm_power(nq, gq, "query")
    factor = _norm_power(nd, gd, "document")
    if factor is not None:
        den = factor if den is None else den * factor
    if den is None:
        return t
    if den is not nq and den is not nd and isinstance(den, np.ndarray) and den.shape == np.shape(t):
        # den is an array formed here, not a caller's norms (which a gamma
        # of 1 passes through), of the result's shape: the quotient
        # overwrites it rather than taking a third matrix.
        return np.divide(t, den, out=den)
    return t / den


def _norm_power(n, g, side):
    """One side's factor |v|**g in divide_by_norms, or None for a float gamma of 0.

    n is an array of norms and g a float or an array of gammas; one rule
    serves both.  A nonzero gamma raises ZeroMagnitude on a zero norm, and
    a gamma of 0 contributes nothing, since |v|**0 is 1 even at |0|.  |v|**1
    is exact, so a float gamma of 1 returns the norms themselves; any other
    gamma takes numpy's power.
    """
    array = isinstance(g, np.ndarray)
    if not array and g == 0.0:
        return None
    if np.count_nonzero((n == 0.0) & (g != 0.0) if array else n == 0.0):
        raise ZeroMagnitude(f"zero-norm {side}")
    return n if not array and g == 1.0 else n**g


def row_dots(A: Array, B: Array) -> Array:
    """np.dot of each row pair of A and B, broadcast, bit for bit: one ddot per row.

    Like np.dot, the ddot reads a row with a negative or zero stride from a
    contiguous copy, and one-entry rows give their product x*y, whose zero
    keeps its sign where the ddot's 0.0 + x*y would not.
    """
    if A.shape[-1] == 1:
        return (A * B)[..., 0]
    A, B = (M if M.strides[-1] > 0 else np.ascontiguousarray(M) for M in (A, B))
    return (A[..., None, :] @ B[..., :, None])[..., 0, 0]


def row_scores(gammas, Q: Array, D: Array) -> tuple:
    """Scores of each row pair of Q and D under gammas, and the terms they divide: (s, Q.D, |Q|, |D|).

    Rows broadcast as in row_dots.  The dots are np.dot's bits, taken on
    the rows as given; the norms are norm()'s, taken over a contiguous copy
    of strided rows.  Raises ZeroMagnitude as divide_by_norms does.
    """
    t = row_dots(Q, D)
    nq, nd = (np.sqrt(row_dots(M, M)) for M in map(np.ascontiguousarray, (Q, D)))
    return divide_by_norms(gammas, t, nq, nd), t, nq, nd


def similarity(kind: SimilarityKind, q, d) -> float:
    """Score one (query, document) pair under the given variant: row_scores on one row.

    Raises DimensionMismatch as check_pair does and ZeroMagnitude as
    divide_by_norms does.
    """
    q, d = check_pair(q, d)
    return float(row_scores(kind.gammas, q[None], d[None])[0][0])


def check_pair(q, d) -> tuple[Array, Array]:
    """Both sides as finite 1-d float64 vectors of one dimension, else DimensionMismatch."""
    q, d = as_embedding(q), as_embedding(d)
    if q.shape != d.shape:
        raise DimensionMismatch(f"dimension mismatch: {q.shape} vs {d.shape}")
    return q, d


def similarity_matrix(kind: SimilarityKind, Q: Array, D: Array, norms=None) -> Array:
    """All-pairs scores: rows are queries, columns are documents, per leading index.

    The all-pairs companion of row_scores for batched objectives and
    evaluation; identical semantics including the zero-norm errors.  Stacks
    (..., B, n) and (..., C, n) give each block its bits alone.  norms is
    (row_norms(Q), row_norms(D)) if the caller holds them; else a side
    takes its norms here only if its gamma is positive.
    """
    Q = np.asarray(Q, dtype=np.float64)
    D = np.asarray(D, dtype=np.float64)
    if min(Q.ndim, D.ndim) < 2 or Q.shape[:-2] != D.shape[:-2] or Q.shape[-1] != D.shape[-1]:
        raise DimensionMismatch(f"expected (..., B, n) and (..., C, n), got {Q.shape} and {D.shape}")
    gq, gd = gammas = kind.gammas
    nq, nd = norms or [row_norms(M) if g > 0.0 else None for M, g in ((Q, gq), (D, gd))]
    nq, nd = nq[..., None] if gq > 0.0 else None, nd[..., None, :] if gd > 0.0 else None
    return divide_by_norms(gammas, Q @ D.swapaxes(-1, -2), nq, nd)


def row_norms(M: Array) -> Array:
    """The norm of each row of M, over its last axis: np.linalg.norm(M, axis=-1)."""
    return np.linalg.norm(M, axis=-1)


def norm(v: Array) -> float:
    """|v| of a 1-d float64 vector: np.linalg.norm's own formula, sqrt(v.v), bit for bit.

    Like np.linalg.norm it takes the product over a contiguous copy of a
    strided vector, since a strided dot can sum in another order.
    """
    v = v.ravel("K")
    return math.sqrt(float(v.dot(v)))
