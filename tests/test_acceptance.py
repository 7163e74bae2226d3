"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line with the measured margin; a failing
criterion fails its test.  The two training-based criteria share one
module-scoped bundle of reference runs so the suite stays under a minute.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from magnorm import diagnostics, simcore
from magnorm.cli import load_config, run_training
from magnorm.datagen import TaskSpec, gen_asymmetric, gen_symmetric
from magnorm.grad import finite_difference, gradcheck, rel_error
from magnorm.metrics import RankedList, mrr_at_k, ndcg_at_k, recall_at_k
from magnorm.model import forward, init_encoder, loss_and_grads, trained_kind
from magnorm.objective import ContrastiveBatch, LossConfig, infonce_loss, softmax_probs
from magnorm.simcore import COSINE, DNORM, DOT, QNORM, learnable

# The reference spec (task, encoder, training, kinds) is load_config's default.
REFERENCE = load_config(None)


@pytest.fixture(scope="module")
def reference_runs():
    t0 = time.perf_counter()
    task = gen_asymmetric(REFERENCE.task)
    gen_time = time.perf_counter() - t0
    results, times = {}, {}
    for name in REFERENCE.kinds:
        t0 = time.perf_counter()
        results[name] = run_training(REFERENCE, task, name, seed=0)
        times[name] = time.perf_counter() - t0
    return task, results, times, gen_time


@pytest.fixture(scope="module")
def equivalence_verdict():
    t0 = time.perf_counter()
    verdict = diagnostics.verify_ranking_equivalence(dim=8, n_docs=16, trials=1000, seed=0)
    return verdict, time.perf_counter() - t0


def test_01_ranking_equivalence(equivalence_verdict):
    verdict, elapsed = equivalence_verdict
    assert verdict.cosine_dnorm_ok, verdict.counterexample
    assert verdict.qnorm_dot_ok, verdict.counterexample
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 1: PASS  cosine=dnorm and qnorm=dot on 1000 instances "
        f"(dim 8, 16 docs) in {elapsed:.2f}s"
    )


def test_02_gamma_q_invariance(equivalence_verdict):
    verdict, _ = equivalence_verdict
    assert verdict.gamma_q_invariant_ok, verdict.counterexample
    print(
        "ACCEPTANCE 2: PASS  rankings invariant to the query exponent at fixed "
        "doc exponent on 1000 instances"
    )


def test_03_corner_degeneracy():
    worst = diagnostics.suite_corners(np.random.default_rng(3), 10_000).err
    assert worst <= 1e-12
    print(f"ACCEPTANCE 3: PASS  corner max |diff| {worst:.3e} <= 1e-12 on 10000 pairs")


def test_04_gradient_correctness():
    kinds = [COSINE, DOT, QNORM, DNORM, learnable(0.3, 0.8)]
    worst = 0.0
    for i, kind in enumerate(kinds):
        report = gradcheck(kind, trials=100, seed=40 + i)
        assert report.passed, f"{report.kind}: {report.max_rel_err:.3e}"
        worst = max(worst, report.max_rel_err)

    # Full encoder chain, normalization logits included via the sigmoid.
    rng = np.random.default_rng(44)
    enc = init_encoder(3, 5, 4, shared=False, seed=4)
    Xq, Xd = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    cfg = LossConfig(kind=learnable(0.5, 0.5), tau=0.9, alpha=5.0)
    k = enc.theta.size

    def at(flat):
        return dataclasses.replace(cfg, kind=trained_kind(cfg.kind, flat[k:]))

    def f(flat):
        enc.theta[...] = flat[:k]
        loss, _ = loss_and_grads(enc, Xq, Xd, at(flat))
        return loss

    x0 = np.append(enc.theta, [0.3, -0.2])
    _, analytic = loss_and_grads(enc, Xq, Xd, at(x0))
    err = rel_error(analytic, finite_difference(f, x0.copy()))
    worst = max(worst, err)
    assert err <= 1e-6
    print(
        f"ACCEPTANCE 4: PASS  max rel err {worst:.3e} <= 1e-6 "
        f"(100 trials x 5 variants + full encoder with gamma logits)"
    )


def test_05_jacobian_spectral():
    parts = diagnostics.suite_jacobian(np.random.default_rng(5), 100).parts
    worst_tight, worst_trace = parts["idempotency/null"], parts["trace"]
    assert worst_tight <= 1e-12 and worst_trace <= 1e-9
    print(
        f"ACCEPTANCE 5: PASS  idempotency/null {worst_tight:.3e} <= 1e-12, "
        f"trace {worst_trace:.3e} <= 1e-9 (100 v per n in 2, 8, 64)"
    )


def test_06_radial_elimination():
    worst = diagnostics.suite_radial(np.random.default_rng(6), 100).err
    assert worst <= 1e-10
    print(f"ACCEPTANCE 6: PASS  radial ratio {worst:.3e} <= 1e-10 on 100 batches")


def test_07_effective_temperature():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        q = rng.standard_normal(dim) * float(rng.lognormal(0.0, 0.7))
        docs = [rng.standard_normal(dim) * float(rng.lognormal(0.0, 0.7)) for _ in range(16)]
        tau = float(rng.uniform(0.05, 2.0))
        alpha = float(rng.uniform(1.0, 20.0))
        p_dnorm = softmax_probs(q, docs, LossConfig(kind=DNORM, tau=tau, alpha=alpha))
        qn = float(np.linalg.norm(q))
        p_cos = softmax_probs(q, docs, LossConfig(kind=COSINE, tau=tau / qn, alpha=alpha))
        worst = max(worst, float(np.abs(p_dnorm - p_cos).max()))
    assert worst <= 1e-12
    print(
        f"ACCEPTANCE 7: PASS  dnorm@tau vs cosine@tau/|q| entrywise {worst:.3e} "
        f"<= 1e-12 on 1000 instances"
    )


def test_08_symmetry():
    parts = diagnostics.suite_symmetry(np.random.default_rng(8), 10_000).parts
    worst = parts["qnorm"]
    assert parts["cosine/dot"] == 0.0
    assert worst <= 1e-12
    print(
        f"ACCEPTANCE 8: PASS  cosine/dot exactly symmetric; qnorm asymmetry "
        f"identity err {worst:.3e} <= 1e-12 on 10000 pairs"
    )


def test_09_metric_oracles():
    grades_cycle = [2, 1, 0, 1, 0, 2]
    checked = 0
    for n in range(1, 7):
        docs = [f"d{i}" for i in range(n)]
        grades = {doc: grades_cycle[i] for i, doc in enumerate(docs)}
        qrels = {"q": grades}
        ideal = sorted((g for g in grades.values() if g > 0), reverse=True)
        for order in itertools.permutations(docs):
            entries = tuple((doc, float(n - i)) for i, doc in enumerate(order))
            run = RankedList("q", entries)
            for k in range(1, n + 1):
                dcg = sum(
                    (2.0 ** grades[doc] - 1.0) / math.log2(r + 1)
                    for r, doc in enumerate(order[:k], start=1)
                )
                idcg = sum(
                    (2.0**g - 1.0) / math.log2(r + 1) for r, g in enumerate(ideal[:k], start=1)
                )
                rel = {d for d, g in grades.items() if g >= 1}
                want_ndcg = dcg / idcg if idcg else 0.0
                want_recall = (
                    sum(1 for d in order[:k] if d in rel) / len(rel) if rel else 0.0
                )
                want_mrr = next(
                    (1.0 / r for r, d in enumerate(order[:k], start=1) if d in rel), 0.0
                )
                assert abs(ndcg_at_k(run, qrels, k) - want_ndcg) <= 1e-15
                assert recall_at_k(run, qrels, k) == want_recall
                assert mrr_at_k(run, qrels, k) == want_mrr
                checked += 1

    # Worked values: one grade-1 doc at rank 2, and a uniform 4-way softmax.
    run = RankedList("q", (("a", 2.0), ("b", 1.0)))
    val = ndcg_at_k(run, {"q": {"a": 0, "b": 1}}, 2)
    assert abs(val - 1.0 / math.log2(3.0)) <= 1e-12
    Q = np.tile(np.array([1.0, 0.0]), (4, 1))
    D = np.tile(np.array([0.3, 0.4]), (4, 1))
    loss = infonce_loss(ContrastiveBatch(Q, D), LossConfig(kind=DOT, tau=1.0, alpha=20.0))
    assert abs(loss - math.log(4.0)) <= 1e-12
    print(
        f"ACCEPTANCE 9: PASS  {checked} brute-force ranking cases exact; "
        f"1/log2(3) and ln(4) reproduce within 1e-12"
    )


def test_10_relevance_counter_effect(reference_runs):
    task, results, times, gen_time = reference_runs
    mags = np.linalg.norm(forward(results["dot"].encoder, task.doc_features, "doc"), axis=1)
    r, d_effect = diagnostics.relevance_counter(mags, task)
    elapsed = gen_time + times["dot"]
    assert r >= 0.3, f"pearson {r:.4f}"
    assert d_effect >= 0.5, f"cohens_d {d_effect:.4f}"
    assert elapsed <= 300.0
    print(
        f"ACCEPTANCE 10: PASS  pearson(magnitude, relevance_count) {r:.3f} >= 0.3, "
        f"hub cohens_d {d_effect:.3f} >= 0.5 in {elapsed:.1f}s"
    )


def test_11_step_matched_sweep(reference_runs):
    task, results, _, _ = reference_runs
    grids = {name: [row.step for row in results[name].log] for name in REFERENCE.kinds}
    first = grids[REFERENCE.kinds[0]]
    assert all(grids[name] == first for name in REFERENCE.kinds)
    margins = []
    for name in REFERENCE.kinds:
        result = results[name]
        best = next(row for row in result.log if row.step == result.best.step)
        untrained = result.log[0].val_ndcg10
        assert best.val_ndcg10 > untrained, f"{name}: {best.val_ndcg10} vs {untrained}"
        margins.append(f"{name} {best.val_ndcg10:.3f}>{untrained:.3f}")
    print(
        f"ACCEPTANCE 11: PASS  identical {len(first)}-point step grids; "
        f"selected val NDCG@10 beats untrained for all 5 variants ({'; '.join(margins)})"
    )


def test_12_symmetric_task_asymmetry():
    spec = TaskSpec(
        n_docs=1, n_queries=200, feature_dim=8, n_clusters=1, noise_sigma=0.05, seed=12
    )
    pairs = gen_symmetric(spec)
    partial_asyms = []
    for a, b, _ in pairs:
        assert simcore.similarity(COSINE, a, b) - simcore.similarity(COSINE, b, a) == 0.0
        assert simcore.similarity(DOT, a, b) - simcore.similarity(DOT, b, a) == 0.0
        partial_asyms.append(
            abs(simcore.similarity(QNORM, a, b) - simcore.similarity(QNORM, b, a))
        )
    nonzero = sum(1 for x in partial_asyms if x > 0.0)
    assert nonzero == len(pairs)
    print(
        f"ACCEPTANCE 12: PASS  qnorm asymmetry nonzero on {nonzero}/{len(pairs)} generic "
        f"pairs (mean {np.mean(partial_asyms):.4f}); cosine/dot exactly zero. "
        f"Large-model symmetric-benchmark degradation is out of scope at this scale."
    )
