"""verify's jacobian-spectral and radial-gradient suites as they ran before
they checked blocks of trials, kept as a test oracle.

Each trial drew its vectors and was checked on its own: one projector
(the per-vector tangent_projector below) per vector, one 8x8 infonce_grad
per batch, and scalar norms and dot products per row.  The tests hold
diagnostics.suite_jacobian and suite_radial to these bits.
"""

import numpy as np

from magnorm import grad, simcore
from magnorm.diagnostics import SuiteResult, _rand_vec
from magnorm.errors import ZeroMagnitude
from magnorm.objective import ContrastiveBatch, LossConfig


def tangent_projector(v) -> np.ndarray:
    """P_v = I - vhat vhat^T of one vector."""
    v = simcore.as_embedding(v)
    n = simcore.norm(v)
    if n == 0.0:
        raise ZeroMagnitude("tangent space undefined at the origin")
    vhat = v / n
    return np.eye(v.size) - np.outer(vhat, vhat)


def suite_jacobian(rng, trials: int, _seed=None) -> SuiteResult:
    tight = trace = 0.0
    ok = True
    for n in (2, 8, 64):
        for _ in range(trials):
            v = _rand_vec(rng, n)
            P = tangent_projector(v)
            vhat = v / simcore.norm(v)
            r_idem = float(np.abs(P @ P - P).max())
            r_null = simcore.norm(P @ vhat)
            r_trace = abs(float(np.trace(P)) - (n - 1))
            tight = float(np.max([tight, r_idem, r_null]))
            trace = float(np.maximum(trace, r_trace))
            ok = ok and r_idem <= 1e-12 and r_null <= 1e-12 and r_trace <= 1e-9
    parts = {"idempotency/null": tight, "trace": trace}
    return SuiteResult(float(np.maximum(tight, trace)), "1e-12/1e-9", ok, None, parts)


def suite_radial(rng, trials: int, _seed=None) -> SuiteResult:
    cfg = LossConfig(kind=simcore.COSINE, tau=1.0, alpha=20.0)
    worst = 0.0
    for _ in range(trials):
        B, dim = 8, 8
        Q = np.vstack([_rand_vec(rng, dim) for _ in range(B)])
        D = np.vstack([_rand_vec(rng, dim) for _ in range(B)])
        g = grad.infonce_grad(ContrastiveBatch(Q, D), cfg)
        for i in range(B):
            gn = simcore.norm(g.d_queries[i])
            qn = simcore.norm(Q[i])
            if gn != 0.0:
                worst = float(np.maximum(worst, abs(float(g.d_queries[i] @ Q[i])) / (gn * qn)))
    return SuiteResult(worst, "1e-10", worst <= 1e-10)
