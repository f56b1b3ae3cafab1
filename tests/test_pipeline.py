"""Aggregation pipeline: means, full builds, and distance matrices."""

import itertools
import math
from collections import namedtuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classvec.pipeline as pipeline

from classvec.errors import (
    ManifestMismatchError,
    UnknownClassError,
    ValidationError,
    ZeroVectorError,
)
from classvec.pipeline import (
    AGGREGATION_MODES,
    DEFAULT_CONFIG,
    DISTANCE_METRICS,
    ClassEmbedding,
    PipelineConfig,
    aggregate,
    build_class_embeddings,
    build_distance_matrix,
)
from classvec.vectors import (
    LayerManifest,
    SparseActivationVector,
    cosine_similarity,
    euclidean_distance,
)

from helpers import densify, random_vector, reference_aggregate, small_manifest, twelve_layer_vectors

Rec = namedtuple("Rec", "image_id class_id vector")


class TestPipelineConfig:
    def test_defaults_are_best_setting(self):
        assert DEFAULT_CONFIG.aggregation == "arithmetic"
        assert DEFAULT_CONFIG.norm_stage == "class"
        assert DEFAULT_CONFIG.norm_scope == "layer"
        assert DEFAULT_CONFIG.threshold is None
        assert DEFAULT_CONFIG.groups is None

    def test_validation(self):
        with pytest.raises(ValidationError, match="aggregation"):
            PipelineConfig(aggregation="median")
        with pytest.raises(ValidationError, match="norm_scope"):
            PipelineConfig(norm_stage="none", norm_scope="layer")
        with pytest.raises(ValidationError, match="norm_scope"):
            PipelineConfig(norm_stage="class", norm_scope="none")
        for t in (-0.5, math.nan, math.inf):
            with pytest.raises(ValidationError, match="threshold"):
                PipelineConfig(threshold=t)
        with pytest.raises(ValidationError, match="non-empty"):
            PipelineConfig(groups=())
        with pytest.raises(ValidationError, match="duplicates"):
            PipelineConfig(groups=("a", "a"))
        with pytest.raises(ValidationError, match="not the string '4a'"):
            PipelineConfig(groups="4a")  # not the groups "4" and "a"

    @pytest.mark.parametrize("threshold", ["abc", [0.5], {}], ids=["str", "list", "dict"])
    def test_threshold_that_is_not_a_number_is_a_validation_error(self, threshold):
        with pytest.raises(ValidationError, match="threshold must be a number"):
            PipelineConfig(threshold=threshold)

    def test_none_norm_is_consistent(self):
        cfg = PipelineConfig(norm_stage="none", norm_scope="none")
        assert cfg.norm_stage == "none"


class TestAggregate:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            aggregate([], "arithmetic")

    def test_single_image_identity(self):
        rng = np.random.default_rng(301)
        v = random_vector(rng, small_manifest())
        for mode in ("arithmetic", "geometric", "harmonic"):
            assert aggregate([v], mode) is v

    def test_two_point_means(self):
        m = small_manifest()
        a = SparseActivationVector(m, {"a1": ([0], [2.0])})
        b = SparseActivationVector(m, {"a1": ([0], [4.0])})
        assert densify(aggregate([a, b], "arithmetic"))[0] == 3.0
        assert densify(aggregate([a, b], "geometric"))[0] == pytest.approx(
            math.sqrt(8.0), abs=1e-15
        )
        assert densify(aggregate([a, b], "harmonic"))[0] == pytest.approx(8.0 / 3.0, abs=1e-15)

    def test_absent_feature_semantics(self):
        m = small_manifest()
        a = SparseActivationVector(m, {"a1": ([0], [2.0])})
        b = SparseActivationVector(m, {"a1": ([1], [4.0])})
        arith = densify(aggregate([a, b], "arithmetic"))
        assert arith[0] == 1.0 and arith[1] == 2.0
        assert aggregate([a, b], "geometric").is_zero
        assert aggregate([a, b], "harmonic").is_zero

    def test_mean_inequality_per_feature(self):
        rng = np.random.default_rng(307)
        m = small_manifest()
        for _ in range(25):
            images = [random_vector(rng, m, density=0.5) for _ in range(4)]
            a = densify(aggregate(images, "arithmetic"))
            g = densify(aggregate(images, "geometric"))
            h = densify(aggregate(images, "harmonic"))
            assert np.all(h <= g)
            assert np.all(g <= a)

    def test_all_equal_feature_is_exact_under_every_mode(self):
        m = small_manifest()
        value = 0.1  # deliberately not a dyadic float
        images = [SparseActivationVector(m, {"a1": ([3], [value])}) for _ in range(3)]
        for mode in ("arithmetic", "geometric", "harmonic"):
            idx, val = aggregate(images, mode).layer("a1")
            assert idx.tolist() == [3]
            assert val[0] == value

    @pytest.mark.parametrize(
        "low, high, want",
        [
            # a plain product of the 200 values underflows to 0
            (1e-4, 2e-4, math.sqrt(2.0) * 1e-4),
            # a plain product of the 200 values overflows to inf
            (50.0, 60.0, math.sqrt(3000.0)),
        ],
    )
    def test_geometric_mean_of_many_images_stays_in_range(self, low, high, want):
        m = small_manifest()
        images = [
            SparseActivationVector(m, {"a1": ([5], [low if k % 2 else high])}) for k in range(200)
        ]
        idx, val = aggregate(images, "geometric").layer("a1")
        assert idx.tolist() == [5]
        assert val[0] == pytest.approx(want, rel=1e-12)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_mean_inequality_on_random_supports(self, data):
        m = LayerManifest([("a", "g", 4), ("b", "g", 3)])
        value = st.floats(1e-6, 1e6)
        images = []
        for _ in range(data.draw(st.integers(2, 6))):
            entries = {}
            for spec in m:
                idx = sorted(data.draw(st.sets(st.integers(0, spec.dim - 1))))
                entries[spec.layer_id] = (idx, [data.draw(value) for _ in idx])
            images.append(SparseActivationVector(m, entries))
        a, g, h = (densify(aggregate(images, mode)) for mode in ("arithmetic", "geometric", "harmonic"))
        # H <= G <= A holds exactly for the true means; the computed ones may
        # round a few ulps across each other
        assert np.all(h <= g * (1 + 1e-12)) and np.all(g <= a * (1 + 1e-12))
        stacked = np.array([densify(img) for img in images])
        constant = np.all(stacked == stacked[0], axis=0) & (stacked[0] > 0)
        assert np.array_equal(h[constant], stacked[0, constant])
        assert np.array_equal(g[constant], stacked[0, constant])
        assert np.array_equal(a[constant], stacked[0, constant])
        shared = np.all(stacked > 0, axis=0)
        assert np.all(g[shared] > 0) and np.all(g[~shared] == 0)

    def test_manifest_mismatch_rejected(self):
        m1 = small_manifest()
        m2 = LayerManifest([("a1", "low", 16)])
        a = SparseActivationVector(m1, {"a1": ([0], [1.0])})
        b = SparseActivationVector(m2, {"a1": ([0], [1.0])})
        with pytest.raises(ManifestMismatchError):
            aggregate([a, b], "arithmetic")

    def test_overflowed_sum_names_the_first_layer_by_id(self):
        m = LayerManifest([("z", "g", 2), ("a", "g", 2)])
        images = [
            SparseActivationVector(m, {"z": ([0], [value]), "a": ([1], [value])})
            for value in (1e308, 1.5e308)
        ]
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="layer 'a': non-finite"):
            aggregate(images, "arithmetic")

    @settings(max_examples=150)
    @given(data=st.data())
    def test_bitwise_equal_to_the_per_layer_reference(self, data):
        # layer ids whose sorted order differs from manifest order
        ids = data.draw(st.lists(st.sampled_from("zyxab"), min_size=1, max_size=4, unique=True))
        m = LayerManifest([(lid, "g", data.draw(st.integers(1, 6))) for lid in ids])
        # non-dyadic values, extremes whose sums overflow, and subnormals
        value = st.one_of(
            st.sampled_from([0.1, 0.3, 1.0, 1e-300, 5e-324, 1e308, 1.7e308]),
            st.floats(1e-6, 1e6),
        )
        n = data.draw(st.integers(1, 6))
        entries = [{} for _ in range(n)]
        for spec in m:
            # features held by every image at one value, then random (overlapping
            # or disjoint) supports over the rest of the layer
            fixed = data.draw(st.sets(st.integers(0, spec.dim - 1)))
            fixed_values = {i: data.draw(value) for i in fixed}
            free = [i for i in range(spec.dim) if i not in fixed]
            for image in entries:
                idx = sorted(fixed | data.draw(st.sets(st.sampled_from(free)) if free else st.just(set())))
                image[spec.layer_id] = (
                    idx, [fixed_values[i] if i in fixed else data.draw(value) for i in idx]
                )
        images = [SparseActivationVector(m, e) for e in entries]

        def outcome(fn, mode):
            try:
                with np.errstate(over="ignore"):
                    return fn(images, mode)
            except ValidationError as exc:  # a sum that overflowed
                return str(exc)

        for mode in AGGREGATION_MODES:
            got, want = outcome(aggregate, mode), outcome(reference_aggregate, mode)
            if isinstance(want, str):
                assert got == want
                continue
            assert got.stored_layers == want.stored_layers
            for lid in m.layer_ids:
                for g, w in zip(got.layer(lid), want.layer(lid)):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            assert got == want and got.nnz == want.nnz

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="aggregation"):
            aggregate([SparseActivationVector(small_manifest(), {})], "mode7")


class TestBuildClassEmbeddings:
    def make_records(self, rng, manifest, classes, images_per_class):
        records = []
        for c in classes:
            for i in range(images_per_class):
                records.append(
                    Rec(f"{c}_img{i:02d}", c, random_vector(rng, manifest, density=0.4))
                )
        return records

    def test_single_image_no_norm_is_identity(self):
        rng = np.random.default_rng(311)
        m = small_manifest()
        v = random_vector(rng, m)
        cfg = PipelineConfig(norm_stage="none", norm_scope="none")
        out = build_class_embeddings([Rec("img0", "c0", v)], cfg, {"c0": "syn0"}, m)
        assert len(out) == 1
        emb = out[0]
        assert emb.class_id == "c0" and emb.synset_id == "syn0"
        assert emb.image_count == 1
        assert emb.vector == v

    def test_default_config_unit_layer_segments(self):
        rng = np.random.default_rng(313)
        m = small_manifest()
        records = self.make_records(rng, m, ["c0", "c1"], 5)
        out = build_class_embeddings(records, DEFAULT_CONFIG, {"c0": "s0", "c1": "s1"}, m)
        assert [e.class_id for e in out] == ["c0", "c1"]
        for emb in out:
            for lid in emb.vector.stored_layers:
                _, val = emb.vector.layer(lid)
                assert float(np.sqrt(val @ val)) == pytest.approx(1.0, abs=1e-12)

    def test_record_order_never_changes_bits(self):
        rng = np.random.default_rng(317)
        m = small_manifest()
        records = self.make_records(rng, m, ["c0", "c1", "c2"], 7)
        cmap = {"c0": "s0", "c1": "s1", "c2": "s2"}
        base = build_class_embeddings(records, DEFAULT_CONFIG, cmap, m)
        for seed in range(3):
            perm = list(records)
            np.random.default_rng(seed).shuffle(perm)
            again = build_class_embeddings(perm, DEFAULT_CONFIG, cmap, m)
            sized = build_class_embeddings(perm, DEFAULT_CONFIG, cmap, m, {c: 7 for c in cmap})
            for e1, e2, e3 in zip(base, again, sized, strict=True):
                assert e1.vector == e2.vector == e3.vector  # array_equal, hence bit-identical
                assert e1.image_count == e2.image_count == e3.image_count == 7

    def test_class_is_aggregated_when_its_last_record_is_read(self):
        rng = np.random.default_rng(319)
        m = small_manifest()
        records = self.make_records(rng, m, ["c0", "c1"], 3)
        aggregated = []  # (class size, records read so far) per aggregate call
        read = 0

        def stream():
            nonlocal read
            for rec in records:
                read += 1
                yield rec

        def counting(vecs, mode):
            aggregated.append((len(vecs), read))
            return aggregate(vecs, mode)

        cmap = {"c0": "s0", "c1": "s1"}
        with mock.patch("classvec.pipeline.aggregate", counting):
            out = build_class_embeddings(stream(), DEFAULT_CONFIG, cmap, m, {"c0": 3, "c1": 3})
        assert aggregated == [(3, 3), (3, 6)]
        assert out == build_class_embeddings(records, DEFAULT_CONFIG, cmap, m)
        with pytest.raises(ValidationError, match="class 'c0' has more records than class_sizes gives"):
            build_class_embeddings(records, DEFAULT_CONFIG, cmap, m, {"c0": 2})

    def test_scaling_one_class_cancels_under_normalization(self):
        rng = np.random.default_rng(331)
        m = small_manifest()
        records = self.make_records(rng, m, ["c0"], 4)
        scaled = [
            Rec(r.image_id, r.class_id, SparseActivationVector(
                m, {lid: (r.vector.layer(lid)[0], r.vector.layer(lid)[1] * 7.5)
                    for lid in r.vector.stored_layers}))
            for r in records
        ]
        for cfg in (DEFAULT_CONFIG, PipelineConfig(norm_stage="image", norm_scope="whole")):
            e1 = build_class_embeddings(records, cfg, {"c0": "s0"}, m)[0]
            e2 = build_class_embeddings(scaled, cfg, {"c0": "s0"}, m)[0]
            assert np.allclose(densify(e1.vector), densify(e2.vector), atol=1e-12)

    def test_threshold_applied_before_normalization(self):
        m = small_manifest()
        v = SparseActivationVector(m, {"a1": ([0, 1], [0.3, 0.4])})
        cfg = PipelineConfig(threshold=0.35)
        emb = build_class_embeddings([Rec("i", "c", v)], cfg, {"c": "s"}, m)[0]
        idx, val = emb.vector.layer("a1")
        assert idx.tolist() == [1]
        assert val[0] == 1.0  # survivor normalized to unit length

    def test_group_restriction_applies_last(self):
        rng = np.random.default_rng(337)
        m = small_manifest()
        records = self.make_records(rng, m, ["c0"], 3)
        cfg = PipelineConfig(groups=("mid",))
        emb = build_class_embeddings(records, cfg, {"c0": "s0"}, m)[0]
        assert set(emb.vector.stored_layers) <= {"b1", "b2"}
        for lid in emb.vector.stored_layers:
            _, val = emb.vector.layer(lid)
            # segments normalized before restriction keep unit norm after it
            assert float(np.sqrt(val @ val)) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_class_rejected(self):
        m = small_manifest()
        v = SparseActivationVector(m, {"a1": ([0], [1.0])})
        with pytest.raises(UnknownClassError):
            build_class_embeddings([Rec("i", "c9", v)], DEFAULT_CONFIG, {"c0": "s0"}, m)

    def test_duplicate_image_rejected(self):
        m = small_manifest()
        v = SparseActivationVector(m, {"a1": ([0], [1.0])})
        recs = [Rec("i0", "c0", v), Rec("i0", "c0", v)]
        with pytest.raises(ValidationError, match="duplicate image_id"):
            build_class_embeddings(recs, DEFAULT_CONFIG, {"c0": "s0"}, m)

    def test_manifest_mismatch_rejected(self):
        m = small_manifest()
        other = LayerManifest([("a1", "low", 16)])
        v = SparseActivationVector(other, {"a1": ([0], [1.0])})
        with pytest.raises(ManifestMismatchError):
            build_class_embeddings([Rec("i", "c0", v)], DEFAULT_CONFIG, {"c0": "s0"}, m)


class TestBuildDistanceMatrix:
    def make_embeddings(self, rng, m, n):
        return [
            ClassEmbedding(f"c{i:02d}", f"s{i:02d}", random_vector(rng, m), 1)
            for i in range(n)
        ]

    def test_duplicate_vectors_are_distance_zero(self):
        m = small_manifest()
        v = SparseActivationVector(m, {"a1": ([0, 2], [1.0, 0.5])})
        embs = [ClassEmbedding("a", "sa", v, 1), ClassEmbedding("b", "sb", v, 1)]
        d = build_distance_matrix(embs, "cosine")
        assert d.values[0, 1] == 0.0

    @pytest.mark.parametrize("distinct, dim, density", [(30, 1500, 0.3), (50, 800, 0.5), (25, 3000, 0.1)])
    def test_duplicates_are_exactly_zero_in_wide_layers(self, distinct, dim, density):
        # at these sizes a BLAS Gram product (X @ X.T) rounds some duplicate
        # pairs differently from their diagonal entries
        rng = np.random.default_rng(359)
        m = LayerManifest([("wide", "g", dim), ("narrow", "g", 7)])
        vecs = [random_vector(rng, m, density=density) for _ in range(distinct)]
        vecs += vecs[::-1]
        embs = [ClassEmbedding(f"c{i:03d}", "s", v, 1) for i, v in enumerate(vecs)]
        n = len(vecs)
        for metric in ("cosine", "euclidean"):
            d = build_distance_matrix(embs, metric).values
            assert all(d[i, n - 1 - i] == 0.0 for i in range(distinct)), metric

    def test_orthogonal_vectors_are_distance_one(self):
        m = small_manifest()
        a = SparseActivationVector(m, {"a1": ([0], [1.0])})
        b = SparseActivationVector(m, {"a1": ([1], [2.0])})
        embs = [ClassEmbedding("a", "sa", a, 1), ClassEmbedding("b", "sb", b, 1)]
        d = build_distance_matrix(embs, "cosine")
        assert d.values[0, 1] == 1.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(347)
        m = small_manifest()
        embs = self.make_embeddings(rng, m, 10)
        d_cos = build_distance_matrix(embs, "cosine")
        d_euc = build_distance_matrix(embs, "euclidean")
        dense = [densify(e.vector) for e in embs]
        for i in range(10):
            for j in range(10):
                if i == j:
                    assert d_cos.values[i, j] == 0.0
                    continue
                cos = dense[i] @ dense[j] / (
                    np.linalg.norm(dense[i]) * np.linalg.norm(dense[j])
                )
                assert d_cos.values[i, j] == pytest.approx(1.0 - cos, abs=1e-12)
                assert d_euc.values[i, j] == pytest.approx(
                    float(np.linalg.norm(dense[i] - dense[j])), abs=1e-12
                )

    def test_rows_sorted_by_class_id(self):
        rng = np.random.default_rng(349)
        m = small_manifest()
        embs = self.make_embeddings(rng, m, 5)
        d = build_distance_matrix(list(reversed(embs)), "cosine")
        assert d.labels == tuple(f"c{i:02d}" for i in range(5))

    def test_cosine_range(self):
        rng = np.random.default_rng(353)
        m = small_manifest()
        d = build_distance_matrix(self.make_embeddings(rng, m, 8), "cosine")
        assert np.all(d.values >= 0.0) and np.all(d.values <= 1.0)

    def test_zero_vector_under_cosine_raises(self):
        m = small_manifest()
        z = SparseActivationVector(m, {})
        v = SparseActivationVector(m, {"a1": ([0], [1.0])})
        embs = [ClassEmbedding("a", "sa", z, 1), ClassEmbedding("b", "sb", v, 1)]
        with pytest.raises(ZeroVectorError):
            build_distance_matrix(embs, "cosine")
        d = build_distance_matrix(embs, "euclidean")
        assert d.values[0, 1] == 1.0

    def test_duplicate_class_id_rejected(self):
        m = small_manifest()
        v = SparseActivationVector(m, {"a1": ([0], [1.0])})
        embs = [ClassEmbedding("a", "s1", v, 1), ClassEmbedding("a", "s2", v, 1)]
        with pytest.raises(ValidationError, match="duplicate class_id"):
            build_distance_matrix(embs)

    def test_unknown_metric_rejected(self):
        m = small_manifest()
        v = SparseActivationVector(m, {"a1": ([0], [1.0])})
        with pytest.raises(ValidationError, match="metric"):
            build_distance_matrix([ClassEmbedding("a", "s", v, 1)], "manhattan")

    def test_mixed_manifests_rejected(self):
        wide = LayerManifest([("a1", "low", 16), ("a2", "low", 8)])
        a = SparseActivationVector(small_manifest(), {"a1": ([0], [1.0])})
        b = SparseActivationVector(wide, {"a1": ([0], [1.0])})
        embs = [ClassEmbedding("a", "sa", a, 1), ClassEmbedding("b", "sb", b, 1)]
        for metric in ("cosine", "euclidean"):
            with pytest.raises(ManifestMismatchError):
                build_distance_matrix(embs, metric)

    def test_duplicate_of_last_row_is_exactly_zero_apart(self):
        # einsum summed the last row's lone diagonal in another order than the
        # rows above it, so this pair came out 2.2e-16 apart
        m = LayerManifest([("L0", "g", 3), ("L1", "g", 1)])
        v = SparseActivationVector(m, {"L0": ([0, 1, 2], [15.379706390101518, 43.5, 1.9836379760285467])})
        embs = [ClassEmbedding("c0", "s0", v, 1), ClassEmbedding("c1", "s1", v, 1)]
        assert np.all(build_distance_matrix(embs, "cosine").values == 0.0)

    @pytest.mark.parametrize("s", [1e-170, 1e-100, 1e100, 1e160, 1e300, 8e307])
    def test_extreme_scales_match_pairwise_functions(self, s):
        # squared norms that overflow or underflow, under --norm none
        m = LayerManifest([("L", "g", 2)])
        a = SparseActivationVector(m, {"L": ([0, 1], [s, 2 * s])})
        b = SparseActivationVector(m, {"L": ([0], [s])})
        embs = [ClassEmbedding(c, "s", v, 1) for c, v in zip("abc", (a, a, b))]
        cos = build_distance_matrix(embs, "cosine").values
        euc = build_distance_matrix(embs, "euclidean").values
        assert cos[0, 1] == euc[0, 1] == 0.0
        assert cos[0, 2] == pytest.approx(1.0 - cosine_similarity(a, b), abs=1e-12)
        assert cos[0, 2] == pytest.approx(1.0 - 1.0 / math.sqrt(5.0), abs=1e-12)
        assert euc[0, 2] == pytest.approx(euclidean_distance(a, b), rel=1e-12)
        assert euc[0, 2] == pytest.approx(2.0 * s, rel=1e-12)
        # a row far larger than the others must not take the small pairs below the subnormals
        big = SparseActivationVector(m, {"L": ([0], [1e300])})
        vecs = (big, a, b)
        euc = build_distance_matrix([ClassEmbedding(c, "s", v, 1) for c, v in zip("abc", vecs)], "euclidean")
        for i, j in itertools.combinations(range(3), 2):
            assert euc.values[i, j] == euc.values[j, i] == euclidean_distance(vecs[i], vecs[j])
        assert euc.values[1, 2] == pytest.approx(2.0 * s, rel=1e-12)

    @pytest.mark.parametrize("metric", DISTANCE_METRICS)
    def test_only_pairs_with_an_out_of_range_row_use_the_pair_function(self, metric):
        # under --norm none: rows whose squared norms overflow or underflow. Cosine takes
        # every row as cosine_similarity does, so only euclidean needs its pair function
        rng = np.random.default_rng(367)
        m = small_manifest()
        base = [random_vector(rng, m) for _ in range(12)]
        n = len(base)
        cases = [  # the scale of each out-of-range row, and euclidean's number of pair calls
            ({3: 1e200, 8: 1e-170}, 2 * (n - 1) - 1),
            (dict.fromkeys(range(n), 1e200), n * (n - 1) // 2),
            (dict.fromkeys(range(n), 1e-170), n * (n - 1) // 2),
        ]
        name = "cosine_similarity" if metric == "cosine" else "euclidean_distance"
        for scales, pair_calls in cases:
            vecs = list(base)
            for k, s in scales.items():
                layers = {lid: vecs[k].layer(lid) for lid in vecs[k].stored_layers}
                vecs[k] = SparseActivationVector(m, {lid: (idx, val * s) for lid, (idx, val) in layers.items()})
            embs = [ClassEmbedding(f"c{i:02d}", "s", v, 1) for i, v in enumerate(vecs)]
            with mock.patch.object(pipeline, name, wraps=getattr(pipeline, name)) as spy:
                d = build_distance_matrix(embs, metric).values
            row = {id(v): i for i, v in enumerate(vecs)}
            calls = [frozenset(row[id(v)] for v in call.args) for call in spy.call_args_list]
            assert np.array_equal(d, d.T)
            assert np.all(d.diagonal() == 0.0)
            if metric == "cosine":
                assert not calls
                for i, j in itertools.combinations(range(n), 2):
                    assert d[i, j] == 1.0 - cosine_similarity(vecs[i], vecs[j]), (i, j)
                continue
            extreme = {frozenset((i, j)) for i in scales for j in range(n) if j != i}
            assert len(calls) == len(extreme) == pair_calls
            assert set(calls) == extreme
            for i, j in itertools.combinations(range(n), 2):
                if {i, j} & scales.keys():
                    assert d[i, j] == euclidean_distance(vecs[i], vecs[j]), (i, j)
                else:
                    assert d[i, j] == pytest.approx(euclidean_distance(vecs[i], vecs[j]), abs=1e-12), (i, j)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_matches_pairwise_functions(self, data):
        dims = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
        m = LayerManifest([(f"L{k}", "g", dim) for k, dim in enumerate(dims)])
        vecs = []
        for _ in range(data.draw(st.integers(1, 7))):
            copy = data.draw(st.integers(-1, len(vecs) - 1))
            if copy >= 0:
                vecs.append(vecs[copy])
                continue
            entries = {}
            for spec in m:  # empty index sets leave silent layers and zero vectors
                idx = sorted(data.draw(st.sets(st.integers(0, spec.dim - 1), max_size=spec.dim)))
                entries[spec.layer_id] = (idx, [data.draw(st.floats(1e-3, 1e2)) for _ in idx])
            vecs.append(SparseActivationVector(m, entries))
        embs = [ClassEmbedding(f"c{i}", f"s{i}", v, 1) for i, v in enumerate(vecs)]
        # small blocks split the layers into several column blocks
        cells = data.draw(st.sampled_from([1, 2, 5, 1 << 21]))
        has_zero = any(v.is_zero for v in vecs)
        with mock.patch.object(pipeline, "_BLOCK_CELLS", cells):
            euc = build_distance_matrix(embs, "euclidean").values
            if has_zero:
                with pytest.raises(ZeroVectorError):
                    build_distance_matrix(embs, "cosine")
                cos = None
            else:
                cos = build_distance_matrix(embs, "cosine").values
        dense = [densify(v) for v in vecs]
        for mat in (euc, cos):
            if mat is not None:
                assert np.array_equal(mat, mat.T)
                assert np.all(mat.diagonal() == 0.0)
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                assert euc[i, j] == pytest.approx(euclidean_distance(vecs[i], vecs[j]), abs=1e-12)
                if vecs[i] == vecs[j]:
                    assert euc[i, j] == 0.0
                if cos is None:
                    continue
                assert cos[i, j] == pytest.approx(1.0 - cosine_similarity(vecs[i], vecs[j]), abs=1e-12)
                # every drawn row's squared norm is in [_SQ_LO, _SQ_HI), so the
                # Gram adds each cell's terms as cosine_similarity does
                assert cos[i, j] == 1.0 - cosine_similarity(vecs[i], vecs[j])
                if vecs[i] == vecs[j]:
                    assert cos[i, j] == 0.0
                if not np.any((dense[i] > 0) & (dense[j] > 0)):
                    assert cos[i, j] == 1.0

    def test_cosine_cells_are_one_minus_cosine_similarity_bit_for_bit(self):
        # seeded companion of the bitwise check in test_matches_pairwise_functions,
        # whose small drawn vectors seldom reach a cell that another summing order rounds differently
        vecs = twelve_layer_vectors(379, 30)
        d = build_distance_matrix([ClassEmbedding(f"c{i:02d}", "s", v, 1) for i, v in enumerate(vecs)]).values
        for i, j in itertools.combinations(range(len(vecs)), 2):
            assert d[i, j] == 1.0 - cosine_similarity(vecs[i], vecs[j]), (i, j)

    @pytest.mark.parametrize("keep", [slice(0, 20), slice(0, None, 2)], ids=["prefix", "every-other"])
    def test_cosine_cell_does_not_depend_on_the_other_rows(self, keep):
        # small blocks: a block layout that depends on the row count must not reach a cell
        rng = np.random.default_rng(373)
        m = LayerManifest([("wide", "g", 2000), ("mid", "g", 300), ("narrow", "h", 7)])
        embs = [ClassEmbedding(f"c{i:02d}", "s", random_vector(rng, m, density=0.2), 1) for i in range(45)]
        with mock.patch.object(pipeline, "_BLOCK_CELLS", 4096):
            full = build_distance_matrix(embs, "cosine").values
            part = build_distance_matrix(embs[keep], "cosine").values
        rows = np.arange(len(embs))[keep]
        assert np.array_equal(part, full[np.ix_(rows, rows)])


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), cells=st.sampled_from([1, 3, 8, 1 << 21]))
def test_blocks_are_the_dense_rows_without_empty_columns(seed, n, cells):
    rng = np.random.default_rng(seed)
    m = small_manifest()
    vecs = [random_vector(rng, m, density=float(rng.uniform(0.0, 0.4)), allow_zero=True) for _ in range(n)]
    with mock.patch.object(pipeline, "_BLOCK_CELLS", cells):
        blocks = list(pipeline._blocks(*pipeline._pack(vecs), m, n))
    assert all(b.shape[0] == n and b.size <= max(cells, n) for b in blocks)
    dense = np.array([densify(v) for v in vecs])
    got = np.hstack(blocks) if blocks else np.zeros((n, 0))
    assert np.array_equal(got, dense[:, dense.any(axis=0)])
