"""Vector equations: retrieval ranking, difference queries, regularity probe."""

import numpy as np
import pytest

from classvec.equations import (
    EquationResult,
    apply_difference,
    nearest_classes,
    solve_difference,
)
from classvec.errors import (
    EmptyDifferenceError,
    UnknownClassError,
    ValidationError,
)
from classvec.pipeline import ClassEmbedding
from classvec.vectors import LayerManifest, SparseActivationVector, cosine_similarity

from helpers import densify, random_vector, small_manifest


def emb(class_id, vector):
    return ClassEmbedding(class_id, f"syn_{class_id}", vector, 1)


def block_vector(manifest, layer, indices, value=1.0):
    idx = np.asarray(indices, dtype=np.int64)
    return SparseActivationVector(manifest, {layer: (idx, np.full(idx.size, value))})


class TestEquationResult:
    def test_validation(self):
        with pytest.raises(ValidationError, match="non-increasing"):
            EquationResult("q", [("a", 0.5), ("b", 0.9)], [])
        with pytest.raises(ValidationError, match="excluded"):
            EquationResult("q", [("a", 0.5)], ["a"])

    def test_fields(self):
        r = EquationResult("q", [("b", 0.9), ("a", 0.9)], ["z", "y"])
        assert r.neighbors == (("b", 0.9), ("a", 0.9))
        assert r.excluded == ("y", "z")
        assert len(r) == 2


class TestNearestClasses:
    def test_self_retrieval_scores_exactly_one(self):
        rng = np.random.default_rng(501)
        m = small_manifest()
        embs = [emb(f"c{i}", random_vector(rng, m)) for i in range(5)]
        r = nearest_classes(embs[2].vector, embs, top_k=5)
        assert r.neighbors[0][0] == "c2"
        assert r.neighbors[0][1] == 1.0

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(503)
        m = small_manifest()
        embs = [emb(f"c{i}", random_vector(rng, m)) for i in range(5)]
        for _ in range(10):
            q = random_vector(rng, m)
            want = sorted(
                ((cosine_similarity(q, e.vector), e.class_id) for e in embs),
                key=lambda t: (-t[0], t[1]),
            )
            got = nearest_classes(q, embs, top_k=5)
            assert [cid for cid, _ in got.neighbors] == [cid for _, cid in want]
            assert [s for _, s in got.neighbors] == [s for s, _ in want]

    def test_ties_break_by_class_id(self):
        m = small_manifest()
        v = block_vector(m, "a1", [0, 1])
        embs = [emb("zz", v), emb("aa", v), emb("mm", v)]
        r = nearest_classes(v, embs, top_k=3)
        assert [cid for cid, _ in r.neighbors] == ["aa", "mm", "zz"]

    def test_exclusion_and_top_k(self):
        rng = np.random.default_rng(509)
        m = small_manifest()
        embs = [emb(f"c{i}", random_vector(rng, m)) for i in range(6)]
        r = nearest_classes(embs[0].vector, embs, top_k=2, exclude=["c0"])
        assert len(r) == 2
        assert all(cid != "c0" for cid, _ in r.neighbors)
        r_all = nearest_classes(embs[0].vector, embs, top_k=100)
        assert len(r_all) == 6

    def test_zero_query_rejected(self):
        m = small_manifest()
        z = SparseActivationVector(m, {})
        embs = [emb("c0", block_vector(m, "a1", [0]))]
        with pytest.raises(EmptyDifferenceError, match="feature-wise dominated"):
            nearest_classes(z, embs)

    def test_bad_top_k_rejected(self):
        m = small_manifest()
        v = block_vector(m, "a1", [0])
        with pytest.raises(ValidationError, match="top_k must be >= 1"):
            nearest_classes(v, [emb("c0", v)], top_k=0)
        for top_k in (2.9, 1.0, "x", True):
            with pytest.raises(ValidationError, match="top_k must be an integer"):
                nearest_classes(v, [emb("c0", v)], top_k=top_k)


class TestSolveDifference:
    def test_identical_operands_empty_difference(self):
        m = small_manifest()
        v = block_vector(m, "a1", [0, 1, 2])
        embs = [emb("a", v), emb("b", block_vector(m, "a1", [5]))]
        with pytest.raises(EmptyDifferenceError):
            solve_difference("a", "a", embs)

    def test_disjoint_support_returns_next_nearest(self):
        m = small_manifest()
        a = block_vector(m, "a1", [0, 1])
        b = block_vector(m, "b1", [0, 1])
        near_a = block_vector(m, "a1", [0, 1, 2])
        embs = [emb("a", a), emb("b", b), emb("n", near_a)]
        r = solve_difference("a", "b", embs)
        # diff == a, but a itself is excluded, so its closest cousin wins
        assert r.neighbors[0][0] == "n"
        assert r.excluded == ("a", "b")
        assert r.query == "a - b"

    def test_composite_minus_part_recovers_other_part(self):
        m = small_manifest()
        part1 = block_vector(m, "b1", range(0, 8))
        part2 = block_vector(m, "b1", range(8, 16))
        composite = block_vector(m, "b1", range(0, 16))
        distractor = block_vector(m, "b1", range(20, 28))
        embs = [
            emb("composite", composite),
            emb("part1", part1),
            emb("part2", part2),
            emb("distractor", distractor),
        ]
        r = solve_difference("composite", "part1", embs)
        assert r.neighbors[0][0] == "part2"
        assert r.neighbors[0][1] == 1.0

    def test_asymmetry_on_asymmetric_support(self):
        m = small_manifest()
        a = SparseActivationVector(m, {"a1": ([0, 1, 2], [3.0, 3.0, 0.5])})
        b = SparseActivationVector(m, {"a1": ([1, 2, 3], [1.0, 2.0, 2.0])})
        ref1 = block_vector(m, "a1", [0])
        ref2 = block_vector(m, "a1", [3])
        embs = [emb("a", a), emb("b", b), emb("x", ref1), emb("y", ref2)]
        fwd = solve_difference("a", "b", embs)
        rev = solve_difference("b", "a", embs)
        assert fwd.neighbors[0][0] == "x"
        assert rev.neighbors[0][0] == "y"

    def test_operand_exclusion_can_be_disabled(self):
        m = small_manifest()
        a = block_vector(m, "a1", [0, 1])
        b = block_vector(m, "b1", [0])
        embs = [emb("a", a), emb("b", b)]
        r = solve_difference("a", "b", embs, exclude_operands=False)
        assert r.neighbors[0][0] == "a"  # diff == a, so a wins trivially
        assert r.excluded == ()

    def test_unknown_class_rejected(self):
        m = small_manifest()
        embs = [emb("a", block_vector(m, "a1", [0]))]
        with pytest.raises(UnknownClassError):
            solve_difference("a", "nope", embs)


class TestApplyDifference:
    def make_attribute_world(self):
        """Classes are base patterns optionally unioned with an attribute."""
        m = small_manifest()
        base1 = list(range(0, 8))
        base2 = list(range(8, 16))
        attr = list(range(24, 30))
        plain1 = block_vector(m, "b1", base1)
        with_attr1 = block_vector(m, "b1", base1 + attr)
        plain2 = block_vector(m, "b1", base2)
        with_attr2 = block_vector(m, "b1", base2 + attr)
        return m, [
            emb("plain1", plain1),
            emb("attr1", with_attr1),
            emb("plain2", plain2),
            emb("attr2", with_attr2),
        ]

    def test_regularity_probe_recovers_analogue(self):
        # attr2 is to plain2 as attr1 is to plain1
        _, embs = self.make_attribute_world()
        r = apply_difference("attr2", "attr1", "plain1", embs)
        assert r.query == "attr2 - (attr1 - plain1)"
        assert r.neighbors[0][0] == "plain2"
        assert r.neighbors[0][1] == 1.0
        assert set(r.excluded) == {"attr1", "attr2", "plain1"}

    def test_zero_direction_degenerates_to_plain_neighbors(self):
        _, embs = self.make_attribute_world()
        r = apply_difference("attr2", "plain1", "plain1", embs)
        plain = nearest_classes(
            next(e.vector for e in embs if e.class_id == "attr2"),
            embs,
            exclude=["attr2", "plain1"],
        )
        assert r.neighbors == plain.neighbors

    def test_attribute_direction_matches_planted_attribute(self):
        # jittered copies keep the recovered direction aligned with the
        # attribute pattern itself
        m = small_manifest()
        rng = np.random.default_rng(521)
        attr_idx = np.arange(24, 30)
        base_idx = np.arange(0, 8)
        with_attr = SparseActivationVector(
            m,
            {
                "b1": (
                    np.concatenate([base_idx, attr_idx]),
                    np.concatenate(
                        [rng.uniform(0.9, 1.1, 8), rng.uniform(0.9, 1.1, 6)]
                    ),
                )
            },
        )
        plain = SparseActivationVector(
            m, {"b1": (base_idx, rng.uniform(0.9, 1.1, 8))}
        )
        diff = solve_difference(
            "with", "plain",
            [emb("with", with_attr), emb("plain", plain),
             emb("attr", block_vector(m, "b1", attr_idx))],
            top_k=1,
        )
        assert diff.neighbors[0][0] == "attr"
        assert diff.neighbors[0][1] >= 0.9

    def test_unknown_class_rejected(self):
        _, embs = self.make_attribute_world()
        with pytest.raises(UnknownClassError):
            apply_difference("attr2", "ghost", "plain1", embs)
