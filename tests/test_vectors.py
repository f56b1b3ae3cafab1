"""Vector core: construction, validation, and agreement with dense arithmetic."""

import copy
import math
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classvec.vectors as vectors

from classvec.errors import (
    ManifestError,
    ManifestMismatchError,
    ValidationError,
    ZeroVectorError,
)
from classvec.vectors import (
    LayerManifest,
    SparseActivationVector,
    apply_threshold,
    cosine_similarity,
    dot,
    euclidean_distance,
    l2_norm,
    normalize_by_layer,
    normalize_whole,
    restrict_to_groups,
    subtract,
)

from classvec.correlation import RhoDistribution
from classvec.manifold import DistanceMatrix, EmbeddingCoordinates, NeighborGraph
from classvec.pipeline import AGGREGATION_MODES, aggregate

from helpers import (
    densify,
    flat_entries,
    left_to_right_sum,
    random_vector,
    reference_dot,
    small_manifest,
    sparsify,
)


class TestLayerManifest:
    def test_offsets_partition_the_axis(self):
        m = small_manifest()
        assert m.total_dim == 16 + 8 + 32 + 4 + 12
        assert m.offset_of("a1") == 0
        assert m.offset_of("a2") == 16
        assert m.offset_of("c1") == 16 + 8 + 32 + 4

    def test_groups_in_first_appearance_order(self):
        m = small_manifest()
        assert m.groups == ("low", "mid", "top")
        assert m.layers_in_groups(["mid"]) == ("b1", "b2")
        assert m.layers_in_groups(["top", "low"]) == ("a1", "a2", "c1")

    def test_unknown_group_rejected(self):
        with pytest.raises(ValidationError, match="unknown group"):
            small_manifest().layers_in_groups(["nope"])

    def test_bare_string_is_not_a_list_of_groups(self):
        m = LayerManifest([("x", "4a", 2), ("y", "a", 2), ("z", "4", 2)])
        assert m.layers_in_groups(["4a"]) == ("x",)
        v = SparseActivationVector(m, {"x": ([0], [1.0]), "y": ([0], [2.0]), "z": ([1], [3.0])})
        with pytest.raises(ValidationError, match="not the string '4a'"):
            m.layers_in_groups("4a")
        with pytest.raises(ValidationError, match="not the string '4a'"):
            restrict_to_groups(v, "4a")

    def test_duplicate_layer_rejected(self):
        with pytest.raises(ManifestError, match="duplicate"):
            LayerManifest([("x", "g", 4), ("x", "g", 4)])

    def test_bad_dim_rejected(self):
        with pytest.raises(ManifestError, match="non-positive"):
            LayerManifest([("x", "g", 0)])

    def test_empty_rejected(self):
        with pytest.raises(ManifestError, match="at least one"):
            LayerManifest([])

    @pytest.mark.parametrize(
        "layer, message",
        [
            (("conv 1", "g", 4), "layer_id 'conv 1' is empty or contains whitespace"),
            (("", "g", 4), "layer_id '' is empty or contains whitespace"),
            (("a\u00a0b", "g", 4), "layer_id 'a\\xa0b' is empty or contains whitespace"),
            (("x", "a\tb", 4), "layer 'x': group 'a\\tb' contains tab/newline"),
            (("x", "x\ny", 4), "layer 'x': group 'x\\ny' contains tab/newline"),
            (("x", "p\rq", 4), "layer 'x': group 'p\\rq' contains tab/newline"),
            (("x", "g", 4.5), "layer 'x': dim must be an integer, got 4.5"),
            (("x", "g", True), "layer 'x': dim must be an integer, got True"),
            (("x", "g", "4"), "layer 'x': dim must be an integer, got '4'"),
        ],
    )
    def test_layer_rule(self, layer, message):
        with pytest.raises(ManifestError) as err:
            LayerManifest([("ok", "g", 2), layer])
        assert str(err.value) == message

    def test_equality_is_structural(self):
        m1 = small_manifest()
        m2 = small_manifest()
        assert m1 == m2 and m1 is not m2
        m3 = LayerManifest([("a1", "low", 16)])
        assert m1 != m3

    def test_digest_tracks_content(self):
        assert small_manifest().digest == small_manifest().digest
        other = LayerManifest([("a1", "low", 17)])
        assert small_manifest().digest != other.digest


class TestConstruction:
    def test_entries_sorted_and_locked(self):
        m = small_manifest()
        v = SparseActivationVector(m, {"a1": ([5, 2, 9], [1.0, 2.0, 3.0])})
        idx, val = v.layer("a1")
        assert idx.tolist() == [2, 5, 9]
        assert val.tolist() == [2.0, 1.0, 3.0]
        assert not idx.flags.writeable and not val.flags.writeable

    def test_zero_values_dropped(self):
        m = small_manifest()
        v = SparseActivationVector(m, {"a1": ([0, 1, 2], [0.5, 0.0, 0.25])})
        idx, _ = v.layer("a1")
        assert idx.tolist() == [0, 2]
        assert v.nnz == 2

    def test_all_zero_layer_not_stored(self):
        m = small_manifest()
        v = SparseActivationVector(m, {"a1": ([3], [0.0])})
        assert v.is_zero
        assert v.stored_layers == ()

    def test_negative_value_rejected(self):
        m = small_manifest()
        with pytest.raises(ValidationError, match="negative"):
            SparseActivationVector(m, {"a1": ([0], [-1.0])})

    def test_nan_rejected(self):
        m = small_manifest()
        with pytest.raises(ValidationError, match="non-finite"):
            SparseActivationVector(m, {"a1": ([0], [float("nan")])})

    def test_duplicate_index_rejected(self):
        m = small_manifest()
        with pytest.raises(ValidationError, match="duplicate"):
            SparseActivationVector(m, {"a1": ([4, 4], [1.0, 2.0])})

    def test_out_of_range_index_rejected(self):
        m = small_manifest()
        with pytest.raises(ValidationError, match="out of range"):
            SparseActivationVector(m, {"a2": ([8], [1.0])})
        with pytest.raises(ValidationError, match="out of range"):
            SparseActivationVector(m, {"a2": ([-1], [1.0])})

    def test_unknown_layer_rejected(self):
        m = small_manifest()
        with pytest.raises(ValidationError, match="unknown layer"):
            SparseActivationVector(m, {"zz": ([0], [1.0])})

    def test_pair_form_accepted(self):
        m = small_manifest()
        v = SparseActivationVector(m, {"b1": [(7, 0.5), (3, 1.5)]})
        idx, val = v.layer("b1")
        assert idx.tolist() == [3, 7]
        assert val.tolist() == [1.5, 0.5]

    def test_non_integral_index_rejected(self):
        m = LayerManifest([("L", "g", 4)])
        # two pairs in a tuple read as (indices, values): index 0.5 is refused
        with pytest.raises(ValidationError, match="not an integer"):
            SparseActivationVector(m, {"L": ((1, 0.5), (2, 0.3))})
        with pytest.raises(ValidationError, match="not an integer"):
            SparseActivationVector(m, {"L": [(1.5, 1.0)]})
        with pytest.raises(ValidationError, match="not an integer"):
            SparseActivationVector(m, {"L": (np.array([np.nan]), np.array([1.0]))})

    def test_whole_float_indices_accepted(self):
        m = LayerManifest([("L", "g", 4)])
        v = SparseActivationVector(m, {"L": (np.array([3.0, 1.0]), np.array([0.5, 0.25]))})
        assert v == SparseActivationVector(m, {"L": ([3, 1], [0.5, 0.25])})

    def test_silent_layer_reads_empty(self):
        v = SparseActivationVector(small_manifest(), {})
        idx, val = v.layer("c1")
        assert idx.size == 0 and val.size == 0

    def test_roundtrip_through_dense(self):
        rng = np.random.default_rng(7)
        m = small_manifest()
        for _ in range(20):
            v = random_vector(rng, m)
            assert sparsify(m, densify(v)) == v

    def test_layers_stored_in_manifest_order(self):
        m = small_manifest()
        entries = {"c1": ([1], [0.1]), "a2": ([0], [0.7]), "b1": ([3], [0.3]), "a1": ([2], [0.9])}
        forward = SparseActivationVector(m, dict(sorted(entries.items())))
        backward = SparseActivationVector(m, entries)
        assert backward.stored_layers == forward.stored_layers == ("a1", "a2", "b1", "c1")
        assert backward == forward
        other = random_vector(np.random.default_rng(3), m, 0.8)
        assert dot(backward, other) == dot(forward, other)
        assert l2_norm(backward) == l2_norm(forward)

    def test_stored_arrays_cannot_be_made_writeable(self):
        v = SparseActivationVector(small_manifest(), {"a1": ([2, 0], [1.0, 2.0]), "b1": ([1], [3.0])})
        for layer_id in v.stored_layers:
            for arr in v.layer(layer_id):
                with pytest.raises(ValueError):
                    arr.setflags(write=True)

    @pytest.mark.parametrize(
        "entries, message",
        [
            # the first faulty layer in the order given is reported, whatever its fault
            ({"b1": ([40], [1.0]), "a1": ([1, 1], [1.0, 1.0])}, "'b1': feature index 40 out of range"),
            ({"a1": ([1, 1], [1.0, 1.0]), "b1": ([40], [1.0])}, "'a1': duplicate feature index 1"),
            ({"a2": ([0], [np.inf]), "a1": ([0], [-2.0])}, "'a2': non-finite"),
            ({"a1": ([1, 1], [1.0, 1.0]), "zz": ([0], [1.0])}, "'a1': duplicate feature index 1"),
            ({"zz": ([0], [1.0]), "a1": ([1, 1], [1.0, 1.0])}, "unknown layer_id 'zz'"),
            ({"a1": ([0], [1.0]), "a2": ([0, 1], [1.0])}, "'a2': index/value arrays differ"),
            # a bare (index, value) pair is neither form
            ({"a1": ([0], [1.0]), "a2": (0, 1.0)}, r"'a2': not \(indices, values\) or \(index, value"),
            # nor is a pair with a third item, which would otherwise be dropped
            ({"a1": ([0], [1.0]), "a2": [(0, 1.0, 9)]}, r"'a2': not \(indices, values\) or \(index, value"),
            # an index or value that is not a number
            ({"a1": ([0], [1.0]), "a2": [("x", 1.0)]}, "'a2': an index or value is not a number"),
            ({"a2": ([0], ["y"]), "a1": ([0], [1.0])}, "'a2': an index or value is not a number"),
            # an index beyond int64 is out of range, named as given, with no warning
            (
                {"a1": ([0], [1.0]), "a2": ([10**20], [1.0])},
                "'a2': feature index 100000000000000000000 out of range",
            ),
            ({"a2": ([-(2**63) - 1], [1.0])}, "'a2': feature index -9223372036854775809 out of range"),
            ({"a2": ([2**63], [1.0])}, "'a2': feature index 9223372036854775808 out of range"),
            (
                {"a2": (np.array([2**63], dtype=np.uint64), [1.0])},
                "'a2': feature index 9223372036854775808 out of range",
            ),
            ({"a2": ([1e20], [1.0])}, r"'a2': feature index 1e\+20 out of range"),
        ],
    )
    def test_first_faulty_layer_reported(self, entries, message):
        with pytest.raises(ValidationError, match=message):
            SparseActivationVector(small_manifest(), entries)

    @settings(max_examples=80)
    @given(data=st.data())
    def test_construction_matches_dense_reference(self, data):
        m = small_manifest()
        layer_ids = data.draw(st.permutations(m.layer_ids))
        entries = {}
        dense = np.zeros(m.total_dim)
        for lid in layer_ids[: data.draw(st.integers(0, len(m)))]:
            dim = m.spec_of(lid).dim
            idx = data.draw(st.lists(st.integers(0, dim - 1), max_size=dim, unique=True))
            val = [data.draw(st.sampled_from([0.0, 1e-300, 0.5, 3.0, 1e300])) for _ in idx]
            dense[m.offset_of(lid) + np.array(idx, dtype=np.int64)] = val
            entries[lid] = data.draw(st.sampled_from([(idx, val), list(zip(idx, val))]))
        v = SparseActivationVector(m, entries)
        assert np.array_equal(densify(v), dense)
        assert v.stored_layers == tuple(
            lid for lid in m.layer_ids if dense[m.offset_of(lid) : m.offset_of(lid) + m.spec_of(lid).dim].any()
        )
        for lid in v.stored_layers:
            idx, val = v.layer(lid)
            assert np.all(np.diff(idx) > 0) and np.all(val > 0)


class TestOperations:
    def test_manifest_mismatch_rejected(self):
        m1 = small_manifest()
        m2 = LayerManifest([("a1", "low", 16)])
        v1 = SparseActivationVector(m1, {"a1": ([0], [1.0])})
        v2 = SparseActivationVector(m2, {"a1": ([0], [1.0])})
        with pytest.raises(ManifestMismatchError):
            dot(v1, v2)
        with pytest.raises(ManifestMismatchError):
            subtract(v1, v2)

    def test_dot_matches_dense(self):
        rng = np.random.default_rng(11)
        m = small_manifest()
        for _ in range(50):
            a, b = random_vector(rng, m), random_vector(rng, m)
            assert dot(a, b) == pytest.approx(float(densify(a) @ densify(b)), abs=1e-12)

    def test_euclidean_matches_dense(self):
        rng = np.random.default_rng(13)
        m = small_manifest()
        for _ in range(50):
            a, b = random_vector(rng, m), random_vector(rng, m)
            want = float(np.linalg.norm(densify(a) - densify(b)))
            assert euclidean_distance(a, b) == pytest.approx(want, abs=1e-12)

    def test_cosine_matches_dense(self):
        rng = np.random.default_rng(17)
        m = small_manifest()
        for _ in range(50):
            a, b = random_vector(rng, m), random_vector(rng, m)
            da, db = densify(a), densify(b)
            want = float(da @ db / (np.linalg.norm(da) * np.linalg.norm(db)))
            assert cosine_similarity(a, b) == pytest.approx(want, abs=1e-12)

    def test_cosine_self_is_exactly_one(self):
        rng = np.random.default_rng(19)
        m = small_manifest()
        for _ in range(50):
            v = random_vector(rng, m)
            assert cosine_similarity(v, v) == 1.0

    def test_cosine_zero_vector_raises(self):
        m = small_manifest()
        z = SparseActivationVector(m, {})
        v = SparseActivationVector(m, {"a1": ([0], [1.0])})
        with pytest.raises(ZeroVectorError):
            cosine_similarity(z, v)
        with pytest.raises(ZeroVectorError):
            cosine_similarity(v, z)

    def test_disjoint_cosine_is_zero(self):
        m = small_manifest()
        a = SparseActivationVector(m, {"a1": ([0, 1], [1.0, 2.0])})
        b = SparseActivationVector(m, {"a1": ([2, 3], [1.0, 2.0])})
        assert cosine_similarity(a, b) == 0.0

    def test_subtract_matches_clamped_dense(self):
        rng = np.random.default_rng(23)
        m = small_manifest()
        for _ in range(50):
            a, b = random_vector(rng, m), random_vector(rng, m)
            want = np.maximum(densify(a) - densify(b), 0.0)
            assert np.allclose(densify(subtract(a, b)), want, atol=0)

    def test_subtract_self_is_zero(self):
        rng = np.random.default_rng(29)
        v = random_vector(rng, small_manifest())
        assert subtract(v, v).is_zero

    def test_subtract_result_is_immutable(self):
        m = small_manifest()
        a = SparseActivationVector(m, {"a1": ([0, 1], [3.0, 1.0])})
        b = SparseActivationVector(m, {"a1": ([0], [1.0])})
        d = subtract(a, b)
        idx, val = d.layer("a1")
        assert not val.flags.writeable
        assert densify(d)[0] == 2.0 and densify(d)[1] == 1.0

    def test_threshold_zero_is_identity(self):
        rng = np.random.default_rng(31)
        v = random_vector(rng, small_manifest())
        assert apply_threshold(v, 0.0) is v

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, t):
        with pytest.raises(ValidationError, match="finite"):
            apply_threshold(random_vector(np.random.default_rng(37), small_manifest()), t)

    def test_threshold_keeps_values_at_or_above(self):
        m = small_manifest()
        v = SparseActivationVector(m, {"a1": ([0, 1, 2], [0.1, 0.5, 0.9])})
        t = apply_threshold(v, 0.5)
        idx, val = t.layer("a1")
        assert idx.tolist() == [1, 2]
        assert val.tolist() == [0.5, 0.9]

    def test_threshold_negative_rejected(self):
        v = SparseActivationVector(small_manifest(), {})
        with pytest.raises(ValidationError):
            apply_threshold(v, -0.1)

    @pytest.mark.parametrize("t", ["0.5", True, None], ids=["str", "bool", "none"])
    def test_threshold_that_is_not_a_number_rejected(self, t):
        v = SparseActivationVector(small_manifest(), {"a1": ([0], [1.0])})
        with pytest.raises(ValidationError, match="threshold must be a number"):
            apply_threshold(v, t)

    def test_normalize_by_layer_unit_segments(self):
        rng = np.random.default_rng(37)
        m = small_manifest()
        for _ in range(20):
            v = random_vector(rng, m)
            n = normalize_by_layer(v)
            for lid in n.stored_layers:
                _, val = n.layer(lid)
                assert float(np.sqrt(val @ val)) == pytest.approx(1.0, abs=1e-12)
            assert n.stored_layers == v.stored_layers

    def test_normalize_by_layer_sums_each_layer_alone(self):
        # one summing pass for all 300 layers, not one pass (or search) per layer
        m = LayerManifest([(f"L{i}", "g", 4) for i in range(300)])
        v = SparseActivationVector(m, {f"L{i}": ([i % 4], [1.0 + i]) for i in range(0, 300, 2)})
        with mock.patch.object(vectors, "_sums", wraps=vectors._sums) as sums:
            n = normalize_by_layer(v)
        assert sums.call_count == 1
        assert sums.call_args.args[1].tolist() == list(range(0, 300, 2))
        assert n.stored_layers == v.stored_layers
        assert all(n.layer(lid)[1].tolist() == [1.0] for lid in n.stored_layers)

    def test_normalize_whole_unit_norm(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            v = random_vector(rng, small_manifest())
            assert l2_norm(normalize_whole(v)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "normalize, values, want",
        [
            # squares that overflow, underflow to 0, and sum to a subnormal
            (normalize_by_layer, [5e-324, 1e300], {1: 1.0}),
            (normalize_by_layer, [1e-170], {0: 1.0}),
            (normalize_by_layer, [1e-160, 1e-160], {0: 1 / np.sqrt(2.0), 1: 1 / np.sqrt(2.0)}),
            (normalize_whole, [1e-170], {0: 1.0}),
        ],
    )
    def test_normalize_at_extreme_scales(self, normalize, values, want):
        v = SparseActivationVector(small_manifest(), {"a1": (range(len(values)), values)})
        idx, val = normalize(v).layer("a1")
        assert dict(zip(idx.tolist(), val.tolist())) == want

    def test_normalize_whole_zero_stays_zero(self):
        z = SparseActivationVector(small_manifest(), {})
        assert normalize_whole(z).is_zero

    @pytest.mark.parametrize("s", [1e-170, 1e-100, 1e100, 1e160, 1e200, 1e300])
    def test_norms_and_cosine_at_extreme_scales(self, s):
        # squares of s, or their sums or products, overflow or fall below the normal floats
        m = LayerManifest([("a", "g", 2)])
        two = SparseActivationVector(m, {"a": ([0, 1], [s, 2 * s])})
        one = SparseActivationVector(m, {"a": ([0], [s])})
        assert cosine_similarity(two, two) == 1.0
        assert cosine_similarity(two, one) == pytest.approx(1 / np.sqrt(5.0), rel=1e-15)
        assert euclidean_distance(two, one) == 2 * s
        assert euclidean_distance(two, two) == 0.0
        assert l2_norm(two) == pytest.approx(np.sqrt(5.0) * s, rel=1e-15)

    def test_restrict_to_groups(self):
        m = small_manifest()
        v = SparseActivationVector(
            m,
            {
                "a1": ([0], [1.0]),
                "b1": ([1], [2.0]),
                "c1": ([2], [3.0]),
            },
        )
        r = restrict_to_groups(v, ["mid"])
        assert r.stored_layers == ("b1",)
        assert r.manifest is m
        with pytest.raises(ValidationError, match="unknown group"):
            restrict_to_groups(v, ["nope"])

    def test_restrict_preserves_distances_on_surviving_axes(self):
        rng = np.random.default_rng(43)
        m = small_manifest()
        a, b = random_vector(rng, m), random_vector(rng, m)
        ra, rb = restrict_to_groups(a, ["low"]), restrict_to_groups(b, ["low"])
        da, db = densify(ra), densify(rb)
        assert euclidean_distance(ra, rb) == pytest.approx(
            float(np.linalg.norm(da - db)), abs=1e-12
        )


_TINY = float(np.finfo(np.float64).tiny)
_SQ_LO, _SQ_HI = math.sqrt(_TINY), math.sqrt(sys.float_info.max)
# at 1e-170, 1e-160, 1e160 and 1e300 squares or their sums overflow or are not
# normal floats, so the rescaled sums run; at 1e-77 and 1e77 a squared norm
# falls on either side of _SQ_LO or _SQ_HI, where cosine's scale rule turns
_SCALES = st.sampled_from([1e-170, 1e-160, 1e-77, 1e-3, 1.0, 1e3, 1e77, 1e160, 1e300])


@st.composite
def _vector_sets(draw):
    """2-4 vectors over a random manifest, with silent layers, zero vectors,
    and each vector's values at one or two of _SCALES."""
    dims = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    m = LayerManifest([(f"L{i}", "g", d) for i, d in enumerate(dims)])
    vecs = []
    for _ in range(draw(st.integers(2, 4))):
        scales = draw(st.lists(_SCALES, min_size=1, max_size=2))
        entries = {}
        for spec in m:
            idx = draw(st.lists(st.integers(0, spec.dim - 1), max_size=spec.dim, unique=True))
            mantissas = draw(
                st.lists(st.floats(1.0, 10.0, exclude_max=True), min_size=len(idx), max_size=len(idx))
            )
            entries[spec.layer_id] = (idx, [x * draw(st.sampled_from(scales)) for x in mantissas])
        vecs.append(SparseActivationVector(m, entries))
    return vecs


def _reference_scaled_sq(values: list[float]) -> tuple[float, float]:
    """(scale, sum of squares / scale) in Python floats, left to right; summed
    again over the largest |value| when the plain sum is not a normal float."""
    sq = left_to_right_sum(x * x for x in values)
    if _TINY <= sq < math.inf or not any(values):
        return 1.0, sq
    scale = max(abs(x) for x in values)
    return scale, left_to_right_sum((x / scale) * (x / scale) for x in values)


def _reference_norm(values: list[float]) -> float:
    scale, sq = _reference_scaled_sq(values)
    return scale * math.sqrt(sq)


def _reference_unit(entries: dict[int, float]) -> dict[int, float]:
    scale, sq = _reference_scaled_sq(list(entries.values()))
    unit = {k: x / scale / math.sqrt(sq) for k, x in entries.items()}
    return {k: x for k, x in unit.items() if x > 0}


def _reference_cosine(a, b) -> float:
    """Each operand at unit length, on its own, when its squared norm is out of [_SQ_LO, _SQ_HI)."""

    def operand(v):
        sq = reference_dot(v, v)
        if not _SQ_LO <= sq < _SQ_HI:
            v = _vector(v.manifest, _reference_unit(flat_entries(v)))
            sq = reference_dot(v, v)
        return v, sq

    (a, sq_a), (b, sq_b) = operand(a), operand(b)
    return min(1.0, reference_dot(a, b) / math.sqrt(sq_a * sq_b))


def _reference_aggregate(images, mode: str) -> dict[int, float]:
    n = len(images)
    per_key: dict[int, list[float]] = {}
    for img in images:
        for k, x in flat_entries(img).items():
            per_key.setdefault(k, []).append(x)
    out = {}
    for k in sorted(per_key):
        xs = per_key[k]
        if len(xs) == n and min(xs) == max(xs):
            mean = xs[0]
        elif mode == "arithmetic":
            mean = left_to_right_sum(xs) * (1.0 / n)
        elif len(xs) < n:
            continue
        elif mode == "geometric":
            mean = float(np.exp(left_to_right_sum(np.log(xs).tolist()) * (1.0 / n)))
        else:
            mean = n / left_to_right_sum(1.0 / x for x in xs)
        if mean > 0:
            out[k] = mean
    return out


def _vector(m: LayerManifest, entries: dict[int, float]) -> SparseActivationVector:
    dense = np.zeros(m.total_dim)
    dense[list(entries)] = list(entries.values())
    return sparsify(m, dense)


class TestAgainstPerLayerReference:
    @settings(max_examples=150, deadline=None)
    @given(vecs=_vector_sets())
    def test_sums_match_reference_bitwise(self, vecs):
        # every sum adds its terms left to right in ascending flattened index
        m = vecs[0].manifest
        for a, b in zip(vecs, vecs[1:]):
            fa, fb = flat_entries(a), flat_entries(b)
            assert dot(a, b) == reference_dot(a, b)
            assert l2_norm(a) == _reference_norm(list(fa.values()))
            diff = [fa.get(k, 0.0) - fb.get(k, 0.0) for k in sorted(fa.keys() | fb.keys())]
            assert euclidean_distance(a, b) == _reference_norm(diff)
            if a.is_zero or b.is_zero:
                with pytest.raises(ZeroVectorError):
                    cosine_similarity(a, b)
            else:
                assert cosine_similarity(a, b) == _reference_cosine(a, b)
            assert flat_entries(normalize_whole(a)) == _reference_unit(fa)
            by_layer: dict[str, dict[int, float]] = {}
            for lid, i, x in a.iter_entries():
                by_layer.setdefault(lid, {})[m.offset_of(lid) + i] = x
            want = {}
            for entries in by_layer.values():
                want.update(_reference_unit(entries))
            assert flat_entries(normalize_by_layer(a)) == want
        for mode in AGGREGATION_MODES:
            assert flat_entries(aggregate(vecs, mode)) == _reference_aggregate(vecs, mode)

    def test_euclidean_does_not_depend_on_hash_seed(self):
        script = textwrap.dedent("""
            import numpy as np
            from classvec.vectors import LayerManifest, SparseActivationVector, euclidean_distance
            from helpers import twelve_layer_vectors
            m = LayerManifest([(f"L{i}", "g", 1) for i in range(8)])
            a = SparseActivationVector(m, {f"L{i}": ([0], [1.0 if i == 0 else 2.0**-27]) for i in range(8)})
            got = [euclidean_distance(a, SparseActivationVector.empty(m))]
            vecs = twelve_layer_vectors(7, 60)
            got += [euclidean_distance(x, y) for x, y in zip(vecs, vecs[1:])]
            print(np.array(got).tobytes().hex())
        """)
        here = Path(__file__).parent
        path = os.pathsep.join([str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH", "")])
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in range(8)
        }
        assert len(outputs) == 1
        # manifest order: 1.0 first, and each 2**-54 square then rounds away
        assert outputs.pop()[:16] == np.float64(1.0).tobytes().hex()


# -- every construction path against the dense mirror -----------------------------

PATHS = ("dict-tuples", "dict-pairs", "from-checked", "op-subtract", "op-restrict")


@st.composite
def dense_manifests(draw):
    """A manifest of 1-4 layers in 1-3 groups, layer ids in no sorted order."""
    ids = draw(st.lists(st.sampled_from("zyxab"), min_size=1, max_size=4, unique=True))
    return LayerManifest(
        [(lid, draw(st.sampled_from(["g1", "g2", "g3"])), draw(st.integers(1, 6))) for lid in ids]
    )


def draw_dense(data, m: LayerManifest) -> np.ndarray:
    """Dyadic values k/8: every sum, dense or sparse, in any order, is exact."""
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=m.total_dim, max_size=m.total_dim)))
    ks = data.draw(st.lists(st.integers(1, 64), min_size=m.total_dim, max_size=m.total_dim))
    return np.where(mask, np.array(ks) / 8.0, 0.0)


def build_by_path(data, m: LayerManifest, dense: np.ndarray, path: str) -> SparseActivationVector:
    """The vector of ``dense``, given as the path takes it: layers and entries
    in drawn order, with explicit zeros among them."""
    pos, idx = [], []
    for p, spec in enumerate(m):
        off = m.offset_of(spec.layer_id)
        seg = dense[off : off + spec.dim]
        chosen = set(np.flatnonzero(seg).tolist()) | data.draw(st.sets(st.integers(0, spec.dim - 1)))
        for i in data.draw(st.permutations(sorted(chosen))):
            pos.append(p)
            idx.append(i)
    order = data.draw(st.permutations(range(len(pos))))
    pos = np.array([pos[k] for k in order], dtype=np.intp)
    idx = np.array([idx[k] for k in order], dtype=np.int64)
    val = dense[m._starts[pos] + idx] if idx.size else np.empty(0)
    if path == "from-checked":
        return SparseActivationVector._from_checked(m, pos, idx, val)
    entries = {}
    for p in dict.fromkeys(pos.tolist()):
        sel = pos == p
        lid = m.layers[p].layer_id
        if path == "dict-pairs":
            entries[lid] = list(zip(idx[sel].tolist(), val[sel].tolist()))
        else:
            entries[lid] = (idx[sel], val[sel])
    v = SparseActivationVector(m, entries)
    if path == "op-subtract":
        return subtract(v, SparseActivationVector.empty(m))
    if path == "op-restrict":
        return restrict_to_groups(v, m.groups)
    return v


def layer_mask(m: LayerManifest, layer_ids) -> np.ndarray:
    """True on the coordinates of the given layers."""
    mask = np.zeros(m.total_dim, dtype=bool)
    for lid in layer_ids:
        mask[m.offset_of(lid) : m.offset_of(lid) + m.spec_of(lid).dim] = True
    return mask


class TestEveryPathAgainstDense:
    @settings(max_examples=80)
    @given(m=dense_manifests(), data=st.data())
    def test_paths_give_one_vector(self, m, data):
        dense = draw_dense(data, m)
        built = [build_by_path(data, m, dense, path) for path in PATHS]
        first = built[0]
        stored = tuple(s.layer_id for s in m if layer_mask(m, [s.layer_id])[dense > 0].any())
        for v in built:
            assert np.array_equal(densify(v), dense)
            assert v == first
            assert v.nnz == int(np.count_nonzero(dense)) and v.is_zero == (not dense.any())
            assert v.stored_layers == stored
            for lid in m.layer_ids:
                for got, want in zip(v.layer(lid), first.layer(lid)):
                    assert got.dtype == want.dtype and np.array_equal(got, want)
                    assert not got.flags.writeable

    @settings(max_examples=120)
    @given(m=dense_manifests(), data=st.data())
    def test_ops_match_dense_arithmetic(self, m, data):
        da, db = draw_dense(data, m), draw_dense(data, m)
        a = build_by_path(data, m, da, data.draw(st.sampled_from(PATHS)))
        b = build_by_path(data, m, db, data.draw(st.sampled_from(PATHS)))
        # dyadic values: the sparse and dense sums agree exactly
        assert dot(a, b) == float(da @ db)
        assert euclidean_distance(a, b) == float(np.sqrt((da - db) @ (da - db)))
        if da.any() and db.any():
            want = min(1.0, float(da @ db) / float(np.sqrt((da @ da) * (db @ db))))
            assert cosine_similarity(a, b) == want
        else:
            with pytest.raises(ZeroVectorError):
                cosine_similarity(a, b)
        assert np.array_equal(densify(subtract(a, b)), np.maximum(da - db, 0.0))
        t = data.draw(st.sampled_from([0.0, 0.125, 1.0, 4.0, 9.0]))
        assert np.array_equal(densify(apply_threshold(a, t)), np.where(da >= t, da, 0.0))
        want = da / np.sqrt(da @ da) if da.any() else da
        assert np.array_equal(densify(normalize_whole(a)), want)
        want = da.copy()
        for lid in m.layer_ids:
            mask = layer_mask(m, [lid])
            if da[mask].any():
                want[mask] = da[mask] / np.sqrt(da[mask] @ da[mask])
        assert np.array_equal(densify(normalize_by_layer(a)), want)
        groups = data.draw(st.sets(st.sampled_from(m.groups), min_size=1))
        keep = layer_mask(m, m.layers_in_groups(groups))
        assert np.array_equal(densify(restrict_to_groups(a, groups)), np.where(keep, da, 0.0))


# -- pickle and deepcopy keep arrays locked -----------------------------------------


def _locked_objects():
    """(object, names of its read-only arrays) for each class that locks arrays."""
    m = small_manifest()
    return {
        "DistanceMatrix": (DistanceMatrix(["a", "b"], [[0.0, 1.5], [1.5, 0.0]]), ["values"]),
        "EmbeddingCoordinates": (
            EmbeddingCoordinates(["a", "b"], [[1.0], [-1.0]], [2.0, 0.0]),
            ["coords", "eigenvalues"],
        ),
        "RhoDistribution": (RhoDistribution("path", None, ["a", "b"], [0.5, -0.25]), ["rhos"]),
        "NeighborGraph": (
            NeighborGraph(["a", "b"], [[(1, 0.5)], [(0, 0.5)]]),
            ["indptr", "indices", "weights"],
        ),
        "SparseActivationVector": (
            SparseActivationVector(m, {"a2": ([1, 5], [0.5, 2.0]), "c1": ([0], [3.0])}),
            ["_keys", "_values"],
        ),
        "LayerManifest": (m, ["_starts"]),
    }


@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
@pytest.mark.parametrize("kind", list(_locked_objects()))
def test_copies_keep_arrays_read_only(kind, how):
    obj, names = _locked_objects()[kind]
    clone = pickle.loads(pickle.dumps(obj)) if how == "pickle" else copy.deepcopy(obj)
    assert type(clone) is type(obj)
    for name in names:
        arr, want = getattr(clone, name), getattr(obj, name)
        assert not arr.flags.writeable, name
        assert arr.dtype == want.dtype and np.array_equal(arr, want), name
        with pytest.raises(ValueError):
            arr[...] = 0
