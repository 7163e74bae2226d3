"""The scalar scoring path simcore had before a pair became a one-row block, kept as a test oracle.

pair_score scored one checked pair with Python floats: np.dot for q.d,
simcore.norm for a side whose gamma is positive (unless the caller held
it), a float norm's zero-norm rule as one comparison, and a fractional
gamma's power through a 0-d array.  decompose split a pair into
(|q|, |d|, cos theta).  The tests hold simcore.similarity, grad.sim_grad
and the corner and symmetry suites to these bits.
"""

import numpy as np

from magnorm import simcore
from magnorm.errors import ZeroMagnitude
from magnorm.simcore import COSINE, DNORM, DOT, QNORM, learnable

# The fixed kinds, learnable inside the square, and learnable at its four corners.
ORACLE_KINDS = (
    COSINE, DOT, QNORM, DNORM, learnable(0.3, 0.8), learnable(0.65, 0.15),
    learnable(0.0, 0.0), learnable(1.0, 0.0), learnable(0.0, 1.0), learnable(1.0, 1.0),
)


def divide_by_float_norms(gammas, t: float, nq, nd) -> float:
    """divide_by_norms on floats: t over nq**gq * nd**gd; a side whose gamma is 0 may pass None."""
    den = _float_norm_power(nq, gammas[0], "query")
    factor = _float_norm_power(nd, gammas[1], "document")
    if factor is not None:
        den = factor if den is None else den * factor
    return t if den is None else t / den


def _float_norm_power(n, g, side):
    if g == 0.0:
        return None
    if n == 0.0:
        raise ZeroMagnitude(f"zero-norm {side}")
    return n if g == 1.0 else float(np.asarray(n) ** g)


def pair_score(kind, q, d, nq=None, nd=None) -> float:
    """similarity()'s arithmetic on a checked pair; nq and nd are the sides' simcore.norm() if held."""
    gq, gd = kind.gammas
    if nq is None and gq > 0.0:
        nq = simcore.norm(q)
    if nd is None and gd > 0.0:
        nd = simcore.norm(d)
    return divide_by_float_norms(kind.gammas, float(np.dot(q, d)), nq, nd)


def similarity(kind, q, d) -> float:
    q, d = simcore.check_pair(q, d)
    return pair_score(kind, q, d)


def decompose(q, d) -> tuple:
    """(|q|, |d|, cos theta) of a pair, the cosine clamped to [-1, 1]."""
    q, d = simcore.check_pair(q, d)
    nq = simcore.norm(q)
    nd = simcore.norm(d)
    if nq == 0.0 or nd == 0.0:
        raise ZeroMagnitude("angular decomposition undefined for a zero vector")
    cos_theta = float(np.dot(q, d)) / (nq * nd)
    return nq, nd, min(1.0, max(-1.0, cos_theta))
