"""Synthetic task generation: determinism, judgments, hubs, disk layout."""

import math
import os

import numpy as np
import pytest

from magnorm.datagen import (
    SPLIT_NAMES,
    TASK_FILES,
    TaskSpec,
    export_task,
    gen_asymmetric,
    gen_symmetric,
    load_task,
)
from magnorm.errors import InfeasibleSpec
from magnorm.metrics import GradeTable
from magnorm.simcore import COSINE, similarity_matrix

SMALL = TaskSpec(
    n_docs=64,
    n_queries=256,
    feature_dim=16,
    n_clusters=8,
    hub_fraction=0.1,
    hub_multiplicity=8,
    noise_sigma=0.1,
    seed=3,
)


class TestSpecValidation:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            TaskSpec(n_docs=0, n_queries=4, feature_dim=4, n_clusters=1)

    def test_rejects_more_clusters_than_docs(self):
        with pytest.raises(ValueError):
            TaskSpec(n_docs=4, n_queries=4, feature_dim=4, n_clusters=5)

    def test_rejects_bad_hub_fraction(self):
        with pytest.raises(ValueError):
            TaskSpec(n_docs=8, n_queries=8, feature_dim=4, n_clusters=2, hub_fraction=1.5)

    def test_rejects_bad_split_fractions(self):
        with pytest.raises(ValueError):
            TaskSpec(n_docs=8, n_queries=8, feature_dim=4, n_clusters=2, splits=(0.5, 0.5, 0.5))

    def test_hub_multiplicity_beyond_queries_is_infeasible(self):
        spec = TaskSpec(
            n_docs=8,
            n_queries=4,
            feature_dim=4,
            n_clusters=2,
            hub_fraction=0.5,
            hub_multiplicity=100,
        )
        with pytest.raises(InfeasibleSpec):
            gen_asymmetric(spec)


class TestAsymmetricStructure:
    def test_every_query_has_a_grade_two_doc(self):
        task = gen_asymmetric(SMALL)
        for qid in task.query_ids:
            assert 2 in task.qrels[qid].values()
            assert len(task.relevant_of(qid)) >= 1

    def test_relevance_count_matches_qrels(self):
        task = gen_asymmetric(SMALL)
        counts = {d: 0 for d in task.doc_ids}
        for grades in task.qrels.values():
            for d, g in grades.items():
                if g >= 1:
                    counts[d] += 1
        assert counts == task.relevance_count

    def test_hub_docs_collect_more_relevance(self):
        task = gen_asymmetric(SMALL)
        hubs = set(task.hub_ids)
        assert len(hubs) == round(SMALL.hub_fraction * SMALL.n_docs)
        hub_mean = np.mean([task.relevance_count[d] for d in hubs])
        rest_mean = np.mean([task.relevance_count[d] for d in task.doc_ids if d not in hubs])
        assert hub_mean >= SMALL.hub_multiplicity
        assert hub_mean > 2.0 * rest_mean

    def test_no_hubs_when_fraction_zero(self):
        task = gen_asymmetric(TaskSpec(n_docs=32, n_queries=64, feature_dim=8, n_clusters=4))
        assert task.hub_ids == []
        assert max(task.relevance_count.values()) <= 64

    def test_splits_partition_queries(self):
        task = gen_asymmetric(SMALL)
        parts = [task.split_queries(name) for name in SPLIT_NAMES]
        joined = [q for part in parts for q in part]
        assert sorted(joined) == sorted(task.query_ids)
        for part, frac in zip(parts, SMALL.splits):
            assert abs(len(part) - frac * SMALL.n_queries) < 1.0

    def test_unknown_split_name_rejected(self):
        task = gen_asymmetric(SMALL)
        with pytest.raises(ValueError):
            task.split_queries("dev")


class TestDeterminism:
    def test_same_seed_same_task(self):
        a = gen_asymmetric(SMALL)
        b = gen_asymmetric(SMALL)
        assert np.array_equal(a.doc_features, b.doc_features)
        assert np.array_equal(a.query_features, b.query_features)
        assert a.qrels == b.qrels
        assert a.split_of == b.split_of

    def test_same_seed_same_bytes_on_disk(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        export_task(gen_asymmetric(SMALL), str(dir_a))
        export_task(gen_asymmetric(SMALL), str(dir_b))
        for name in TASK_FILES:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_different_seed_differs(self):
        other = gen_asymmetric(TaskSpec(**{**SMALL.__dict__, "seed": 4}))
        base = gen_asymmetric(SMALL)
        assert not np.array_equal(other.doc_features, base.doc_features)


class TestSymmetricPairs:
    def test_targets_encode_the_angle(self):
        # With zero noise a and b are exact scalings of the latent unit
        # directions, so their cosine must reproduce 2 * target - 1.
        spec = TaskSpec(
            n_docs=1, n_queries=200, feature_dim=6, n_clusters=1, noise_sigma=0.0, seed=5
        )
        for a, b, target in gen_symmetric(spec):
            assert 0.0 <= target <= 1.0
            cos = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos == pytest.approx(2.0 * target - 1.0, abs=1e-12)

    def test_norms_vary_between_sides(self):
        spec = TaskSpec(
            n_docs=1, n_queries=100, feature_dim=6, n_clusters=1, noise_sigma=0.0, seed=6
        )
        ratios = [
            np.linalg.norm(a) / np.linalg.norm(b) for a, b, _ in gen_symmetric(spec)
        ]
        assert max(ratios) > 1.2 and min(ratios) < 0.8

    def test_needs_two_dimensions(self):
        spec = TaskSpec(n_docs=1, n_queries=4, feature_dim=1, n_clusters=1)
        with pytest.raises(InfeasibleSpec):
            gen_symmetric(spec)

    def test_deterministic(self):
        spec = TaskSpec(n_docs=1, n_queries=16, feature_dim=4, n_clusters=1, seed=7)
        pa = gen_symmetric(spec)
        pb = gen_symmetric(spec)
        for (a1, b1, t1), (a2, b2, t2) in zip(pa, pb):
            assert np.array_equal(a1, a2) and np.array_equal(b1, b2) and t1 == t2


class TestOracle:
    def test_clean_task_is_solvable(self):
        task = gen_asymmetric(SMALL)
        qids = task.split_queries("test")
        Xq = task.query_features[[task.query_row(q) for q in qids]]
        table = GradeTable(qids, task.doc_ids, task.qrels)
        ndcg = table.rank(similarity_matrix(COSINE, Xq, task.doc_features)).ndcg(10)
        assert ndcg.mean() >= 0.8


class TestDiskLayout:
    def test_round_trip(self, tmp_path):
        task = gen_asymmetric(SMALL)
        export_task(task, str(tmp_path / "t"))
        back = load_task(str(tmp_path / "t"))
        assert back.doc_ids == task.doc_ids
        assert back.query_ids == task.query_ids
        np.testing.assert_array_equal(back.doc_features, task.doc_features)
        np.testing.assert_array_equal(back.query_features, task.query_features)
        assert back.qrels == task.qrels
        assert back.split_of == task.split_of
        assert back.relevance_count == task.relevance_count
        assert back.hub_ids == task.hub_ids
        assert back.spec is None

    def test_refuses_overwrite(self, tmp_path):
        task = gen_asymmetric(SMALL)
        export_task(task, str(tmp_path))
        with pytest.raises(FileExistsError):
            export_task(task, str(tmp_path))
        export_task(task, str(tmp_path), force=True)

    def test_writes_expected_files(self, tmp_path):
        paths = export_task(gen_asymmetric(SMALL), str(tmp_path))
        assert [os.path.basename(p) for p in paths] == list(TASK_FILES)
        for p in paths:
            assert os.path.getsize(p) > 0
