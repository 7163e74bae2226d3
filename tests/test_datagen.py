"""Synthetic task generation: determinism, judgments, hubs, disk layout, the feature-file memo."""

import contextlib
import io
import json
import math
import os
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from magnorm import datagen
from magnorm.cli import main
from magnorm.datagen import (
    SPLIT_NAMES,
    TASK_FILES,
    TaskSpec,
    export_task,
    gen_asymmetric,
    gen_symmetric,
    load_task,
)
from magnorm.errors import CorruptArtifact, InfeasibleSpec
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


def _reference_gen(spec):
    """The generator as it was before it ranked neighbors per cluster.

    One neighbor scan per document, each hub's eligible queries filtered
    against every judgment made so far, and each hub's eligible rows
    normalized afresh.  Draws, ids and judgments must match
    gen_asymmetric bit for bit.
    """
    if spec.hub_fraction > 0.0 and spec.hub_multiplicity > spec.n_queries:
        raise InfeasibleSpec(
            f"hub_multiplicity {spec.hub_multiplicity} exceeds n_queries {spec.n_queries}"
        )
    rng = np.random.default_rng(spec.seed)
    m = spec.feature_dim
    centers = datagen._unit_rows(rng, spec.n_clusters, m)
    cluster = np.arange(spec.n_docs) % spec.n_clusters
    doc_features = centers[cluster] + spec.noise_sigma * rng.standard_normal((spec.n_docs, m))
    gen_doc = rng.integers(0, spec.n_docs, size=spec.n_queries)
    query_features = doc_features[gen_doc] + spec.noise_sigma * rng.standard_normal(
        (spec.n_queries, m)
    )
    dw = max(1, len(str(spec.n_docs - 1)))
    qw = max(1, len(str(spec.n_queries - 1)))
    doc_ids = [datagen._doc_id(i, dw) for i in range(spec.n_docs)]
    query_ids = [datagen._query_id(i, qw) for i in range(spec.n_queries)]

    neighbors = []
    for i in range(spec.n_docs):
        mates = np.flatnonzero(cluster == cluster[i])
        mates = mates[mates != i]
        if mates.size == 0 or datagen.EXTRA_POSITIVES == 0:
            neighbors.append([])
            continue
        dists = np.linalg.norm(doc_features[mates] - doc_features[i], axis=1)
        order = np.argsort(dists, kind="stable")
        neighbors.append([int(mates[j]) for j in order[: datagen.EXTRA_POSITIVES]])

    qrels = {}
    for qi in range(spec.n_queries):
        di = int(gen_doc[qi])
        grades = {doc_ids[di]: 2}
        for nb in neighbors[di]:
            grades[doc_ids[nb]] = 1
        qrels[query_ids[qi]] = grades

    n_hubs = int(round(spec.hub_fraction * spec.n_docs))
    hub_rows = sorted(rng.choice(spec.n_docs, size=n_hubs, replace=False)) if n_hubs else []
    query_cluster = cluster[gen_doc]
    for hub in hub_rows:
        other = np.flatnonzero(query_cluster != cluster[hub]).tolist()
        eligible = [qi for qi in other if doc_ids[hub] not in qrels[query_ids[qi]]]
        if len(eligible) < spec.hub_multiplicity:
            raise InfeasibleSpec(
                f"hub doc {doc_ids[hub]} has {len(eligible)} eligible queries, "
                f"needs {spec.hub_multiplicity}"
            )
        queries = query_features[eligible]
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        hn = doc_features[hub] / np.linalg.norm(doc_features[hub])
        w = np.exp(-np.arccos(np.clip(qn @ hn, -1.0, 1.0)) / datagen.HUB_ANGLE_SCALE)
        chosen = rng.choice(eligible, size=spec.hub_multiplicity, replace=False, p=w / w.sum())
        for qi in chosen:
            qrels[query_ids[int(qi)]][doc_ids[hub]] = 1

    split_of = datagen._assign_splits(query_ids, spec.splits, rng)
    return doc_features, query_features, doc_ids, query_ids, qrels, split_of, [doc_ids[h] for h in hub_rows]


REFERENCE = dict(
    n_docs=512,
    n_queries=2048,
    feature_dim=32,
    n_clusters=16,
    hub_fraction=0.05,
    hub_multiplicity=32,
    noise_sigma=0.1,
)

ORACLE_SPECS = [
    *[dict(REFERENCE, seed=s) for s in range(10)],
    dict(REFERENCE, n_clusters=1, hub_fraction=0.0),
    dict(REFERENCE, n_clusters=512),
    dict(REFERENCE, noise_sigma=0.0),
    dict(REFERENCE, n_clusters=1, noise_sigma=0.0, hub_fraction=0.0),
    dict(REFERENCE, feature_dim=1),
    dict(REFERENCE, hub_fraction=0.0),
    dict(REFERENCE, hub_multiplicity=128),
    dict(REFERENCE, n_clusters=4, hub_multiplicity=128, seed=5),
    dict(REFERENCE, n_docs=301, feature_dim=50, n_clusters=1, hub_fraction=0.0),
    dict(SMALL.__dict__),
    dict(n_docs=2, n_queries=9, feature_dim=3, n_clusters=2, hub_fraction=0.5, hub_multiplicity=2),
    dict(n_docs=7, n_queries=40, feature_dim=2, n_clusters=3, noise_sigma=0.0, hub_fraction=0.3, hub_multiplicity=5),
]


class TestMatchesPerDocumentReference:
    """gen_asymmetric keeps the bits of the per-document generator."""

    @staticmethod
    def _assert_same(spec):
        doc_f, query_f, doc_ids, query_ids, qrels, split_of, hub_ids = _reference_gen(spec)
        task = gen_asymmetric(spec)
        assert task.doc_features.tobytes() == doc_f.tobytes()
        assert task.query_features.tobytes() == query_f.tobytes()
        assert (task.doc_ids, task.query_ids) == (doc_ids, query_ids)
        assert [(q, list(g.items())) for q, g in task.qrels.items()] == [
            (q, list(g.items())) for q, g in qrels.items()
        ]
        assert list(task.split_of.items()) == list(split_of.items())
        assert task.hub_ids == hub_ids

    @pytest.mark.parametrize("fields", ORACLE_SPECS)
    def test_same_task(self, fields):
        self._assert_same(TaskSpec(**fields))

    @pytest.mark.parametrize("extra", [0, 3])
    def test_same_task_with_other_neighbor_counts(self, monkeypatch, extra):
        monkeypatch.setattr(datagen, "EXTRA_POSITIVES", extra)
        self._assert_same(TaskSpec(**dict(REFERENCE, n_clusters=4, noise_sigma=0.0)))
        self._assert_same(TaskSpec(**SMALL.__dict__))

    @pytest.mark.parametrize(
        "fields",
        [
            dict(n_docs=8, n_queries=4, feature_dim=4, n_clusters=2, hub_fraction=0.5, hub_multiplicity=3),
            dict(n_docs=4, n_queries=50, feature_dim=3, n_clusters=1, hub_fraction=1.0, hub_multiplicity=1),
            dict(REFERENCE, n_clusters=2, hub_multiplicity=1500),
        ],
    )
    def test_same_infeasible_text(self, fields):
        spec = TaskSpec(**fields)
        with pytest.raises(InfeasibleSpec) as ref:
            _reference_gen(spec)
        with pytest.raises(InfeasibleSpec) as new:
            gen_asymmetric(spec)
        assert str(new.value) == str(ref.value)
        assert "eligible queries" in str(new.value)


def _traced_peak(generate, spec) -> int:
    tracemalloc.start()
    try:
        generate(spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNeighborMemory:
    def test_one_cluster_peak_stays_near_the_per_document_scan(self):
        # A full (M, M, dim) difference array here is 2048 * 2048 * 2
        # doubles, 64 MiB, against a per-document peak under 1 MiB.
        spec = TaskSpec(n_docs=2048, n_queries=256, feature_dim=2, n_clusters=1)
        warm = TaskSpec(n_docs=16, n_queries=16, feature_dim=2, n_clusters=1)
        _reference_gen(warm)
        gen_asymmetric(warm)
        reference = _traced_peak(_reference_gen, spec)
        assert _traced_peak(gen_asymmetric, spec) <= 2 * reference


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


# The small CLI task: 48 docs, 192 queries of 12 features, one epoch of dot.
_SMALL_CONFIG = {
    "task": {"n_docs": 48, "n_queries": 192, "feature_dim": 12, "n_clusters": 6,
             "hub_fraction": 0.1, "hub_multiplicity": 6, "seed": 3},
    "encoder": {"hidden": 16, "embed_dim": 8},
    "train": {"epochs": 1, "batch_size": 32, "eval_every": 4},
    "kinds": ["dot"],
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(task files by name, checkpoint bytes) of the small CLI task, generated and trained once."""
    root = tmp_path_factory.mktemp("trained")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({**_SMALL_CONFIG, "out": str(root)}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
    files = {name: (root / name).read_bytes() for name in TASK_FILES}
    return files, (root / "checkpoint_dot_0.json").read_bytes()


def _lay_out(trained, out) -> str:
    """Write the trained task files and checkpoint into out; returns the checkpoint path."""
    files, ckpt = trained
    os.makedirs(out, exist_ok=True)
    for name, raw in files.items():
        with open(os.path.join(out, name), "wb") as fh:
            fh.write(raw)
    path = os.path.join(out, "checkpoint_dot_0.json")
    with open(path, "wb") as fh:
        fh.write(ckpt)
    return path


def _eval(out, ckpt) -> tuple:
    """eval's exit code and stderr, run in-process with --force."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--checkpoint", ckpt, "--out", str(out), "--force"])
    return code, err.getvalue()


def _text_mode_read_jsonl(path) -> tuple:
    """The feature-file reader before the memo: text-mode lines of open(path)."""
    ids, rows = [], []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if not isinstance(rec["id"], str):
                raise TypeError(f"id {rec['id']!r} is not a string")
            ids.append(rec["id"])
            rows.append(rec["features"])
    repeated = [ident for ident, count in Counter(ids).items() if count > 1]
    if repeated:
        raise ValueError(f"id {repeated[0]!r} appears more than once")
    features = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(features)
    if not finite.all():
        raise ValueError(f"id {ids[np.argwhere(~finite)[0][0]]!r} has a non-finite feature")
    return ids, features


def _fields(task) -> tuple:
    """Everything load_task reads, with the feature arrays as (shape, bytes)."""
    return (
        task.doc_ids, task.query_ids,
        task.doc_features.shape, task.doc_features.tobytes(),
        task.query_features.shape, task.query_features.tobytes(),
        task.qrels, task.split_of, task.hub_ids,
    )


def _outcome(outdir) -> tuple:
    """load_task's fields, or the type and text of what it raised."""
    try:
        return ("task", _fields(load_task(outdir)))
    except Exception as e:
        return (type(e).__name__, str(e))


def _memo_free_outcome(outdir) -> tuple:
    """_outcome of a load that starts from an empty memo and leaves the memo as it was."""
    with mock.patch.dict(datagen._PARSED, clear=True):
        return _outcome(outdir)


class TestFeatureMemo:
    def test_same_length_one_ulp_edit_with_mtime_restored_is_seen(self, trained, tmp_path):
        _lay_out(trained, tmp_path)
        first = load_task(str(tmp_path))
        path = tmp_path / "corpus.jsonl"
        before = os.stat(path)
        line, rest = path.read_text().split("\n", 1)
        rec = json.loads(line)
        for col, value in enumerate(rec["features"]):
            bumped = float(np.nextafter(value, np.inf))
            if len(repr(bumped)) == len(repr(value)):
                break
        rec["features"][col] = bumped
        edited = json.dumps(rec)
        assert len(edited) == len(line)
        path.write_text(edited + "\n" + rest)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        task = load_task(str(tmp_path))
        assert task.doc_features[0, col] == bumped != first.doc_features[0, col]
        assert _fields(task) == _memo_free_outcome(str(tmp_path))[1]

    @pytest.mark.parametrize("name", ["corpus.jsonl", "queries.jsonl"])
    def test_file_garbled_after_a_good_load_exits_three(self, trained, tmp_path, name):
        ckpt = _lay_out(trained, tmp_path)
        assert _eval(tmp_path, ckpt) == (0, "")
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[:40])
        memo = dict(datagen._PARSED)
        code, err = _eval(tmp_path, ckpt)
        assert code == 3 and err.startswith(f"magnorm: corrupt artifact: {path} ")
        # A failed parse is not kept.
        assert datagen._PARSED == memo

    def test_two_loads_share_features_but_no_mutable_state(self, trained, tmp_path):
        _lay_out(trained, tmp_path)
        a, b = load_task(str(tmp_path)), load_task(str(tmp_path))
        assert a.doc_features is b.doc_features and a.query_features is b.query_features
        for x, y in ((a.doc_ids, b.doc_ids), (a.query_ids, b.query_ids), (a.qrels, b.qrels)):
            assert x == y and x is not y
        assert a.grade_table("test") is a.grade_table("test")
        assert a.grade_table("test") is not b.grade_table("test")
        a.doc_ids.append("dZZ")
        assert load_task(str(tmp_path)).doc_ids == b.doc_ids

    def test_loaded_features_are_read_only(self, trained, tmp_path):
        _lay_out(trained, tmp_path)
        with mock.patch.dict(datagen._PARSED, clear=True):
            for task in (load_task(str(tmp_path)), load_task(str(tmp_path))):  # a parse, then a hit
                for features in (task.doc_features, task.query_features):
                    with pytest.raises(ValueError, match="read-only"):
                        features[0, 0] = 1.0

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_endings_load_as_before(self, trained, tmp_path, newline):
        _lay_out(trained, tmp_path)
        expected = _fields(load_task(str(tmp_path)))
        for name in ("corpus.jsonl", "queries.jsonl"):
            path = tmp_path / name
            path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
            assert datagen._read_jsonl(path)[0] == _text_mode_read_jsonl(path)[0]
        assert _memo_free_outcome(str(tmp_path)) == ("task", expected)
        assert _fields(load_task(str(tmp_path))) == expected

    def test_raw_line_separators_inside_an_id_load_as_before(self, tmp_path):
        # str.splitlines would split these records; open(path) in text mode does not.
        path = tmp_path / "corpus.jsonl"
        ids = ["d\u2028a", "d\x85b", "d\u2029c"]
        path.write_text("".join(json.dumps({"id": d, "features": [i, 1.5]}, ensure_ascii=False) + "\n"
                                for i, d in enumerate(ids)), encoding="utf-8")
        with mock.patch.dict(datagen._PARSED, clear=True):
            for _ in range(2):  # a parse, then a hit
                got_ids, got = datagen._read_jsonl(path)
                want_ids, want = _text_mode_read_jsonl(path)
                assert got_ids == want_ids == ids
                assert got.tobytes() == want.tobytes()

    def test_raw_control_character_inside_an_id_fails_as_before(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d\x1ca", "features": [1.0]}\n')
        with pytest.raises(ValueError) as before:
            _text_mode_read_jsonl(path)
        with pytest.raises(ValueError) as after:
            datagen._read_jsonl(path)
        assert str(after.value) == str(before.value)


@st.composite
def _task_file_edit(draw, sizes):
    """(file name, edit) that cuts a task file at a byte or replaces one byte."""
    name = draw(st.sampled_from(TASK_FILES))
    at = draw(st.integers(0, sizes[name] - 1))
    if draw(st.booleans()):
        return name, lambda raw: raw[:at]
    # Digits often keep the file well-formed but change what it says.
    byte = draw(st.one_of(st.sampled_from(b"0123456789"), st.integers(0, 255)))
    return name, lambda raw: raw[:at] + bytes([byte]) + raw[at + 1:]


class TestTaskFileFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_damaged_file_after_a_good_load(self, trained, tmp_path_factory, data):
        # Per example: a good load fills the memo, then one file is cut or
        # has one byte replaced.  The memo never changes load_task's answer,
        # and eval exits with one of the documented codes.
        files, _ = trained
        out = str(tmp_path_factory.getbasetemp() / "fuzz")
        ckpt = _lay_out(trained, out)
        load_task(out)
        name, edit = data.draw(_task_file_edit({n: len(raw) for n, raw in files.items()}))
        with open(os.path.join(out, name), "wb") as fh:
            fh.write(edit(files[name]))
        got = _outcome(out)
        event(f"load_task: {got[0]}")
        assert got[0] in ("task", CorruptArtifact.__name__)
        assert got == _memo_free_outcome(out)
        code, _ = _eval(out, ckpt)
        event(f"eval exit {code}")
        assert code in range(7)
