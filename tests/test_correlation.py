"""Rank correlation: tie handling, rho exactness, per-class evaluation."""

from collections import namedtuple

import numpy as np
import pytest

import classvec
from classvec import correlation, taxonomy
from classvec.correlation import (
    HISTOGRAM_EDGES,
    RhoDistribution,
    SweepEntry,
    evaluate_all,
    evaluate_class,
    layer_subset_sweep,
    rank_with_ties,
    spearman_rho,
)
from classvec.errors import CorrelationError, UnknownClassError, ValidationError
from classvec.equations import EquationResult
from classvec.manifold import DistanceMatrix, EmbeddingCoordinates
from classvec.pipeline import ClassEmbedding, PipelineConfig, build_distance_matrix
from classvec.taxonomy import SIMILARITY_MEASURES, ICTable, Taxonomy
from classvec.vectors import LayerManifest, SparseActivationVector

from helpers import random_dag_edges

Rec = namedtuple("Rec", "image_id class_id vector")


def rank_oracle(values):
    """O(n^2) comparison counting: 1 + smaller-count + half the tie count."""
    out = []
    for v in values:
        smaller = sum(1 for w in values if w < v)
        ties = sum(1 for w in values if w == v) - 1
        out.append(1.0 + smaller + ties / 2.0)
    return np.array(out)


def spearman_oracle(x, y):
    """Textbook covariance form on tie-averaged ranks."""
    rx, ry = rank_oracle(x), rank_oracle(y)
    dx, dy = rx - rx.mean(), ry - ry.mean()
    return float((dx @ dy) / np.sqrt((dx @ dx) * (dy @ dy)))


class TestRankWithTies:
    def test_basic_ascending(self):
        assert rank_with_ties([3, 1, 2]).tolist() == [3.0, 1.0, 2.0]

    def test_all_equal(self):
        assert rank_with_ties([5.0] * 7).tolist() == [4.0] * 7

    def test_tie_averaging(self):
        assert rank_with_ties([1, 2, 2, 3]).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(401)
        for _ in range(50):
            vals = rng.integers(0, 6, size=30).astype(float)
            assert np.array_equal(rank_with_ties(vals), rank_oracle(vals))

    def test_ranks_sum_exactly(self):
        rng = np.random.default_rng(409)
        for n in (1, 2, 10, 99, 500):
            vals = rng.integers(0, 5, size=n).astype(float)
            assert rank_with_ties(vals).sum() == n * (n + 1) / 2

    def test_empty_rejected(self):
        with pytest.raises(CorrelationError, match="empty"):
            rank_with_ties([])

    def test_non_finite_rejected(self):
        with pytest.raises(CorrelationError, match="non-finite"):
            rank_with_ties([1.0, float("nan")])


class TestSpearmanRho:
    def test_identity_is_exactly_one(self):
        rng = np.random.default_rng(419)
        for _ in range(20):
            x = rng.integers(0, 10, size=50).astype(float)
            if np.all(x == x[0]):
                continue
            assert spearman_rho(x, x) == 1.0
            assert spearman_rho(x, np.exp(x)) == 1.0

    def test_reversal_is_exactly_minus_one(self):
        rng = np.random.default_rng(421)
        for _ in range(20):
            x = rng.integers(0, 10, size=51).astype(float)
            if np.all(x == x[0]):
                continue
            assert spearman_rho(x, -x) == -1.0

    def test_matches_covariance_oracle_with_ties(self):
        rng = np.random.default_rng(431)
        for _ in range(100):
            x = rng.integers(0, 7, size=40).astype(float)
            y = rng.integers(0, 7, size=40).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert spearman_rho(x, y) == pytest.approx(spearman_oracle(x, y), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(433)
        x = rng.random(30)
        y = rng.random(30)
        base = spearman_rho(x, y)
        assert spearman_rho(np.exp(x), y) == base
        assert spearman_rho(x, y**3 + 2.0) == base

    def test_constant_input_rejected(self):
        with pytest.raises(CorrelationError, match="constant"):
            spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(CorrelationError, match="constant"):
            spearman_rho([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])

    def test_shape_errors(self):
        with pytest.raises(CorrelationError):
            spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(CorrelationError):
            spearman_rho([1.0], [2.0])


ZOO_EDGES = [
    ("animal", "root"),
    ("vehicle", "root"),
    ("dog", "animal"),
    ("cat", "animal"),
    ("wolf", "animal"),
    ("car", "vehicle"),
    ("truck", "vehicle"),
]


@pytest.fixture
def zoo():
    return Taxonomy(ZOO_EDGES)


def matrix_from_coords(points: dict[str, np.ndarray]) -> DistanceMatrix:
    labels = sorted(points)
    n = len(labels)
    vals = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(points[labels[i]] - points[labels[j]]))
            vals[i, j] = vals[j, i] = d
    return DistanceMatrix(labels, vals)


def test_measure_families_come_from_the_taxonomy():
    for module in (correlation, classvec):
        assert module.GRAPH_MEASURES is taxonomy.GRAPH_MEASURES
        assert module.IC_MEASURES is taxonomy.IC_MEASURES
    assert taxonomy.GRAPH_MEASURES + taxonomy.IC_MEASURES == SIMILARITY_MEASURES


class TestEvaluateClass:
    def test_hand_computed_three_class_case(self, zoo):
        # dog sits nearer cat than car in vector space and in the taxonomy,
        # so both rankings over {cat, car} agree: rho = 1
        points = {
            "dog": np.array([0.0, 0.0]),
            "cat": np.array([1.0, 0.0]),
            "car": np.array([5.0, 0.0]),
        }
        d = matrix_from_coords(points)
        assert evaluate_class("dog", d, "path", zoo) == 1.0
        # flip the vector space so car is the closer one: rho = -1
        points["car"], points["cat"] = points["cat"], points["car"]
        d = matrix_from_coords(points)
        assert evaluate_class("dog", d, "path", zoo) == -1.0

    def test_needs_three_classes(self, zoo):
        d = DistanceMatrix(["cat", "dog"], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(CorrelationError, match="at least 3"):
            evaluate_class("dog", d, "path", zoo)

    def test_positive_scaling_of_distances_is_invisible(self, zoo):
        rng = np.random.default_rng(439)
        labels = ["cat", "dog", "wolf", "car", "truck"]
        pts = {lab: rng.random(3) for lab in labels}
        d1 = matrix_from_coords(pts)
        scaled = d1.values * 3.75
        d2 = DistanceMatrix(d1.labels, scaled)
        shifted = d1.values + 0.5
        np.fill_diagonal(shifted, 0.0)
        d3 = DistanceMatrix(d1.labels, shifted)
        for lab in labels:
            base = evaluate_class(lab, d1, "wup", zoo)
            assert evaluate_class(lab, d2, "wup", zoo) == base
            assert evaluate_class(lab, d3, "wup", zoo) == base

    def test_class_to_synset_mapping(self, zoo):
        points = {
            "c_dog": np.array([0.0]),
            "c_cat": np.array([1.0]),
            "c_car": np.array([5.0]),
        }
        d = matrix_from_coords(points)
        cmap = {"c_dog": "dog", "c_cat": "cat", "c_car": "car"}
        assert evaluate_class("c_dog", d, "path", zoo, class_to_synset=cmap) == 1.0

    @pytest.mark.parametrize("evaluate", ["class", "all"])
    def test_label_missing_from_class_map_is_named(self, zoo, evaluate):
        points = {"c_car": np.array([5.0]), "c_cat": np.array([1.0]), "c_dog": np.array([0.0])}
        d = matrix_from_coords(points)
        cmap = {"c_dog": "dog"}  # c_car and c_cat missing; c_car comes first
        with pytest.raises(UnknownClassError, match="'c_car'"):
            if evaluate == "class":
                evaluate_class("c_dog", d, "path", zoo, class_to_synset=cmap)
            else:
                evaluate_all(d, zoo, class_to_synset=cmap)


class TestEvaluateAll:
    def make_matrix(self, zoo, seed=443):
        rng = np.random.default_rng(seed)
        labels = ["cat", "dog", "wolf", "car", "truck"]
        pts = {}
        for lab in labels:
            base = np.zeros(4)
            base[0] = 1.0 if lab in ("cat", "dog", "wolf") else -1.0
            pts[lab] = base + rng.normal(0, 0.3, size=4)
        return matrix_from_coords(pts)

    def test_setting_fanout_and_order(self, zoo):
        d = self.make_matrix(zoo)
        ics = {
            "brown": ICTable.from_counts(zoo, {s: 5 for s in zoo.synsets}),
            "bnc": ICTable.from_counts(zoo, {s: 3 for s in zoo.synsets}),
        }
        dists = evaluate_all(d, zoo, ics=ics)
        assert [x.label for x in dists] == [
            "path",
            "lch",
            "wup",
            "res-bnc",
            "res-brown",
            "jcn-bnc",
            "jcn-brown",
            "lin-bnc",
            "lin-brown",
        ]

    def test_graph_only_by_default_without_ics(self, zoo):
        dists = evaluate_all(self.make_matrix(zoo), zoo)
        assert [x.label for x in dists] == ["path", "lch", "wup"]

    def test_ic_measure_without_table_rejected(self, zoo):
        with pytest.raises(ValidationError):
            evaluate_all(self.make_matrix(zoo), zoo, measures=["res"])

    def test_unknown_measure_rejected(self, zoo):
        with pytest.raises(ValidationError, match="unknown measure"):
            evaluate_all(self.make_matrix(zoo), zoo, measures=["euclid"])

    def test_matches_per_class_recomputation(self, zoo):
        d = self.make_matrix(zoo)
        counts = {"dog": 5, "cat": 3, "wolf": 4, "car": 2, "truck": 1}
        ics = {"brown": ICTable.from_counts(zoo, counts)}
        dists = evaluate_all(d, zoo, ics=ics)
        assert [x.measure for x in dists] == list(SIMILARITY_MEASURES)
        for dist in dists:
            table = ics[dist.corpus] if dist.corpus is not None else None
            want = [evaluate_class(c, d, dist.measure, zoo, ic=table) for c in dist.class_ids]
            assert dist.rhos.tobytes() == np.array(want).tobytes(), dist.label
            assert dist.mean == pytest.approx(float(np.mean(dist.rhos)), abs=0)

    def test_random_dag_matches_per_class_recomputation(self):
        rng = np.random.default_rng(457)
        taxonomy = Taxonomy(random_dag_edges(rng, 40, 12))
        names = taxonomy.synsets
        labels = [f"k{i:02d}" for i in range(18)]
        cmap = {lab: names[int(rng.integers(1, len(names)))] for lab in labels}
        cmap["k00"] = cmap["k01"]  # two labels on one synset
        counts = {s: int(c) for s, c in zip(names, rng.integers(1, 6, size=len(names)))}
        ic = ICTable.from_counts(taxonomy, counts)
        d = matrix_from_coords({lab: rng.random(3) for lab in labels})
        for dist in evaluate_all(d, taxonomy, ics={"c": ic}, class_to_synset=cmap):
            want = [
                evaluate_class(c, d, dist.measure, taxonomy, ic=ic, class_to_synset=cmap)
                for c in dist.class_ids
            ]
            assert dist.rhos.tobytes() == np.array(want).tobytes(), dist.label

    def test_needs_three_classes(self, zoo):
        d = DistanceMatrix(["cat", "dog"], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(CorrelationError, match="at least 3"):
            evaluate_all(d, zoo)

    def test_histogram_totals(self, zoo):
        d = self.make_matrix(zoo)
        for dist in evaluate_all(d, zoo):
            edges, counts = dist.histogram()
            assert np.array_equal(edges, HISTOGRAM_EDGES)
            assert counts.sum() == len(dist)

    def test_extreme_rhos_land_in_end_bins(self):
        dist = RhoDistribution("path", None, ["a", "b"], [-1.0, 1.0])
        _, counts = dist.histogram()
        assert counts[0] == 1 and counts[-1] == 1
        assert counts.sum() == 2


class TestRhoDistribution:
    def test_validation(self):
        with pytest.raises(ValidationError, match="per class_id"):
            RhoDistribution("path", None, ["a"], [0.1, 0.2])
        with pytest.raises(ValidationError, match=r"\[-1, 1\]"):
            RhoDistribution("path", None, ["a"], [1.5])
        with pytest.raises(ValidationError, match="at least one"):
            RhoDistribution("path", None, [], [])

    def test_label_includes_corpus(self):
        assert RhoDistribution("res", "brown", ["a"], [0.5]).label == "res-brown"
        assert RhoDistribution("path", None, ["a"], [0.5]).label == "path"


RECORDS = {
    "DistanceMatrix": lambda: DistanceMatrix(["a", "b"], [[0.0, 1.0], [1.0, 0.0]]),
    "EmbeddingCoordinates": lambda: EmbeddingCoordinates(["a", "b"], [[1.0], [-1.0]], [2.0, 0.0]),
    "RhoDistribution": lambda: RhoDistribution("res", "brown", ["a", "b"], [0.5, -0.25]),
    "EquationResult": lambda: EquationResult("a - b", [("c", 0.9), ("d", 0.5)], ["a", "b"]),
    "SweepEntry": lambda: SweepEntry("mid", ("mid",), 0.75, 8),
}
FIELDS = {
    "DistanceMatrix": ("labels", "values"),
    "EmbeddingCoordinates": ("labels", "coords", "eigenvalues"),
    "RhoDistribution": ("measure", "corpus", "class_ids", "rhos"),
    "EquationResult": ("query", "neighbors", "excluded"),
    "SweepEntry": ("label", "groups", "mean_rho", "n_classes"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_result_records_are_immutable(name):
    record = RECORDS[name]()
    for field in FIELDS[name]:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                value[0] = value[0]
    if name == "DistanceMatrix":
        assert record == RECORDS[name]() and record != DistanceMatrix(["a"], [[0.0]])
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)


def planted_records(rng, manifest):
    """Eight classes in four sibling pairs; only "mid" layers carry the
    pair structure, "low" and "top" are identically distributed noise."""
    records = []
    for ci in range(8):
        pair = ci // 2
        for img in range(6):
            entries = {}
            # shared per-pair block in the mid layer, plus tiny jitter
            base = np.zeros(32)
            base[pair * 8 : pair * 8 + 8] = 1.0
            jitter = rng.uniform(0.9, 1.1, size=32)
            mid = base * jitter
            nz = np.flatnonzero(mid)
            entries["b1"] = (nz, mid[nz])
            # noise layers: same distribution for every class
            for lid, dim in (("a1", 16), ("c1", 12)):
                mask = rng.random(dim) < 0.4
                nzn = np.flatnonzero(mask)
                if nzn.size:
                    entries[lid] = (nzn, rng.random(nzn.size) + 0.1)
            records.append(
                Rec(f"c{ci}_i{img}", f"c{ci}", SparseActivationVector(manifest, entries))
            )
    return records


PLANT_EDGES = [
    ("p0", "root"),
    ("p1", "root"),
    ("p2", "root"),
    ("p3", "root"),
] + [(f"c{i}", f"p{i // 2}") for i in range(8)]


class TestLayerSubsetSweep:
    def setup_method(self):
        self.manifest = LayerManifest(
            [("a1", "low", 16), ("b1", "mid", 32), ("c1", "top", 12)]
        )
        self.taxonomy = Taxonomy(PLANT_EDGES)
        self.class_map = {f"c{i}": f"c{i}" for i in range(8)}
        rng = np.random.default_rng(449)
        self.records = planted_records(rng, self.manifest)

    def test_identity_subset_equals_baseline(self):
        cfg = PipelineConfig()
        entries = layer_subset_sweep(
            self.records,
            cfg,
            [None, ("low", "mid", "top")],
            self.taxonomy,
            self.class_map,
            self.manifest,
        )
        assert entries[0].label == "all"
        assert entries[0].mean_rho == entries[1].mean_rho

    def test_planted_signal_isolated_by_mid_group(self):
        entries = layer_subset_sweep(
            self.records,
            PipelineConfig(),
            [("low",), ("mid",), ("top",)],
            self.taxonomy,
            self.class_map,
            self.manifest,
        )
        by_label = {e.label: e.mean_rho for e in entries}
        assert by_label["mid"] > by_label["low"]
        assert by_label["mid"] > by_label["top"]
        assert by_label["mid"] > 0.9

    def test_empty_group_set_rejected(self):
        with pytest.raises(ValidationError):
            layer_subset_sweep(
                self.records,
                PipelineConfig(),
                [()],
                self.taxonomy,
                self.class_map,
                self.manifest,
            )
        with pytest.raises(ValidationError, match="at least one"):
            layer_subset_sweep(
                self.records,
                PipelineConfig(),
                [],
                self.taxonomy,
                self.class_map,
                self.manifest,
            )

    def test_string_group_set_rejected(self):
        with pytest.raises(ValidationError, match="not the string 'mid'"):
            layer_subset_sweep(
                self.records,
                PipelineConfig(),
                [("low",), "mid"],
                self.taxonomy,
                self.class_map,
                self.manifest,
            )
