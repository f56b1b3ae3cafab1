"""Hierarchy queries and similarity measures against brute-force oracles."""

import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classvec.errors import TaxonomyError, UnknownSynsetError, ValidationError
from classvec.taxonomy import (
    SIMILARITY_MEASURES,
    ICTable,
    Taxonomy,
    jcn_sim,
    lch_sim,
    lin_sim,
    path_sim,
    res_sim,
    similarity,
    similarity_matrices,
    wup_sim,
)

from helpers import DagOracle, random_dag_edges, random_tree_edges

ZOO_EDGES = [
    ("animal", "root"),
    ("vehicle", "root"),
    ("dog", "animal"),
    ("cat", "animal"),
    ("car", "vehicle"),
]


@pytest.fixture
def zoo():
    return Taxonomy(ZOO_EDGES)


@pytest.fixture
def zoo_ic(zoo):
    return ICTable.from_counts(zoo, {"dog": 5, "cat": 3, "car": 2})


class TestTaxonomyStructure:
    def test_depths_and_root(self, zoo):
        assert zoo.root == "root"
        assert zoo.depth("root") == 1
        assert zoo.depth("animal") == 2
        assert zoo.depth("dog") == 3
        assert zoo.max_depth == 3
        assert len(zoo) == 6

    def test_ancestors_include_self(self, zoo):
        assert zoo.ancestors("dog") == {"dog", "animal", "root"}
        assert zoo.ancestors("root") == {"root"}

    def test_multiple_roots_rejected(self):
        with pytest.raises(TaxonomyError, match="exactly one root"):
            Taxonomy([("a", "r1"), ("b", "r2")])

    def test_cycle_rejected(self):
        with pytest.raises(TaxonomyError, match="cycle"):
            Taxonomy([("a", "root"), ("b", "a"), ("a", "b")])

    def test_self_loop_rejected(self):
        with pytest.raises(TaxonomyError, match="self-loop"):
            Taxonomy([("a", "a")])

    def test_unknown_synset_raises(self, zoo):
        with pytest.raises(UnknownSynsetError):
            zoo.depth("unicorn")
        with pytest.raises(UnknownSynsetError):
            zoo.lcs("dog", "unicorn")

    def test_multi_parent_min_depth(self):
        # "deep" hangs below both a depth-2 and a depth-3 node
        t = Taxonomy(
            [
                ("mid", "root"),
                ("low", "mid"),
                ("deep", "mid"),
                ("deep", "low"),
            ]
        )
        assert t.depth("deep") == 3
        assert t.ancestors("deep") == {"deep", "low", "mid", "root"}

    def test_lcs_basics(self, zoo):
        assert zoo.lcs("dog", "dog") == "dog"
        assert zoo.lcs("dog", "cat") == "animal"
        assert zoo.lcs("dog", "car") == "root"
        assert zoo.lcs("animal", "dog") == "animal"

    def test_lcs_depth_tie_prefers_smaller_id(self):
        # x has two depth-2 ancestors p and q; y shares both; tie -> "p"
        t = Taxonomy(
            [
                ("q", "root"),
                ("p", "root"),
                ("x", "q"),
                ("x", "p"),
                ("y", "q"),
                ("y", "p"),
            ]
        )
        assert t.lcs("x", "y") == "p"


class TestGraphMeasures:
    def test_hand_checked_values(self, zoo):
        assert path_sim(zoo, "dog", "dog") == 1.0
        assert path_sim(zoo, "dog", "animal") == 0.5
        assert path_sim(zoo, "dog", "cat") == pytest.approx(1 / 3, abs=0)
        assert wup_sim(zoo, "dog", "dog") == 1.0
        assert wup_sim(zoo, "dog", "cat") == pytest.approx(2 / 3, abs=1e-15)
        assert lch_sim(zoo, "dog", "cat") == pytest.approx(math.log(2), abs=1e-15)

    def test_symmetry(self, zoo):
        pairs = itertools.combinations(["root", "animal", "dog", "cat", "car"], 2)
        for a, b in pairs:
            assert path_sim(zoo, a, b) == path_sim(zoo, b, a)
            assert lch_sim(zoo, a, b) == lch_sim(zoo, b, a)
            assert wup_sim(zoo, a, b) == wup_sim(zoo, b, a)

    def test_random_trees_match_oracle(self):
        rng = np.random.default_rng(211)
        for _ in range(30):
            edges = random_tree_edges(rng, 20)
            t = Taxonomy(edges)
            oracle = DagOracle(edges)
            assert t.max_depth == oracle.max_depth
            for a, b in itertools.combinations(oracle.nodes, 2):
                length = oracle.path_length(a, b)
                assert t.path_length(a, b) == length
                assert path_sim(t, a, b) == 1.0 / (1.0 + length)
                assert lch_sim(t, a, b) == -math.log(
                    (length + 1) / (2.0 * oracle.max_depth)
                )
                shared = oracle.lcs(a, b)
                assert t.lcs(a, b) == shared
                want = 2.0 * oracle.depth[shared] / (oracle.depth[a] + oracle.depth[b])
                assert wup_sim(t, a, b) == want

    def test_random_dags_match_oracle(self):
        rng = np.random.default_rng(223)
        for _ in range(20):
            edges = random_dag_edges(rng, 15, extra=5)
            t = Taxonomy(edges)
            oracle = DagOracle(edges)
            for a, b in itertools.combinations(oracle.nodes, 2):
                assert t.lcs(a, b) == oracle.lcs(a, b)
                assert t.path_length(a, b) == oracle.path_length(a, b)
                assert t.depth(a) == oracle.depth[a]

    def test_path_and_lch_rank_identically(self):
        rng = np.random.default_rng(227)
        edges = random_tree_edges(rng, 20)
        t = Taxonomy(edges)
        nodes = sorted({e[0] for e in edges} | {e[1] for e in edges})
        a = nodes[0]
        path_scores = [path_sim(t, a, b) for b in nodes[1:]]
        lch_scores = [lch_sim(t, a, b) for b in nodes[1:]]
        assert np.array_equal(np.argsort(path_scores), np.argsort(lch_scores))


class TestICTable:
    def test_cumulative_counts(self, zoo, zoo_ic):
        assert zoo_ic.cum("dog") == 5
        assert zoo_ic.cum("animal") == 8
        assert zoo_ic.cum("vehicle") == 2
        assert zoo_ic.cum("root") == 10
        assert zoo_ic.total == 10

    def test_ic_values(self, zoo_ic):
        assert zoo_ic.ic("root") == 0.0
        assert zoo_ic.ic("animal") == -math.log(0.8)
        assert zoo_ic.ic("dog") == -math.log(0.5)

    def test_monotone_up_the_hierarchy(self):
        rng = np.random.default_rng(229)
        edges = random_dag_edges(rng, 25, extra=6)
        t = Taxonomy(edges)
        counts = {s: int(rng.integers(0, 50)) for s in t.synsets}
        table = ICTable.from_counts(t, counts)
        for child, parent in edges:
            assert table.cum(parent) >= table.cum(child)
            assert table.ic(child) >= table.ic(parent)

    def test_zero_count_synset_has_infinite_ic(self, zoo):
        table = ICTable.from_counts(zoo, {"dog": 5})
        assert table.cum("vehicle") == 0
        assert math.isinf(table.ic("vehicle"))

    def test_unknown_synset_count_rejected(self, zoo):
        with pytest.raises(UnknownSynsetError):
            ICTable.from_counts(zoo, {"unicorn": 1})

    def test_negative_count_rejected(self, zoo):
        with pytest.raises(ValidationError):
            ICTable.from_counts(zoo, {"dog": -1})

    def test_all_zero_rejected(self, zoo):
        with pytest.raises(TaxonomyError, match="zero"):
            ICTable.from_counts(zoo, {})

    def test_missing_synset_lookup_raises(self, zoo_ic):
        with pytest.raises(UnknownSynsetError):
            zoo_ic.ic("unicorn")


class TestICMeasures:
    def test_hand_checked_values(self, zoo, zoo_ic):
        assert res_sim(zoo, "dog", "cat", zoo_ic) == -math.log(0.8)
        assert res_sim(zoo, "dog", "car", zoo_ic) == 0.0
        assert lin_sim(zoo, "dog", "dog", zoo_ic) == 1.0
        assert jcn_sim(zoo, "dog", "dog", zoo_ic) == 1e10
        ic_d, ic_c, ic_a = zoo_ic.ic("dog"), zoo_ic.ic("cat"), zoo_ic.ic("animal")
        assert jcn_sim(zoo, "dog", "cat", zoo_ic) == 1.0 / (ic_d + ic_c - 2 * ic_a)
        assert lin_sim(zoo, "dog", "cat", zoo_ic) == 2 * ic_a / (ic_d + ic_c)

    def test_lin_zero_over_zero_is_zero(self, zoo, zoo_ic):
        assert lin_sim(zoo, "root", "root", zoo_ic) == 0.0

    def test_random_trees_match_recomputation(self):
        rng = np.random.default_rng(233)
        for _ in range(20):
            edges = random_tree_edges(rng, 20)
            t = Taxonomy(edges)
            oracle = DagOracle(edges)
            counts = {s: int(rng.integers(1, 100)) for s in oracle.nodes}
            table = ICTable.from_counts(t, counts)
            cum = oracle.descendant_cum(counts)
            total = cum[oracle.root]
            ic = {s: -math.log(cum[s] / total) for s in oracle.nodes}
            for a, b in itertools.combinations(oracle.nodes, 2):
                shared = oracle.lcs(a, b)
                assert res_sim(t, a, b, table) == ic[shared]
                dist = max(ic[a] + ic[b] - 2.0 * ic[shared], 1e-10)
                assert jcn_sim(t, a, b, table) == 1.0 / dist
                want_lin = 0.0
                if 2.0 * ic[shared] != 0.0:
                    want_lin = 2.0 * ic[shared] / (ic[a] + ic[b])
                assert lin_sim(t, a, b, table) == want_lin

    def test_symmetry(self, zoo, zoo_ic):
        for fn in (res_sim, jcn_sim, lin_sim):
            for a, b in itertools.combinations(["dog", "cat", "car", "animal"], 2):
                assert fn(zoo, a, b, zoo_ic) == fn(zoo, b, a, zoo_ic)


class TestDispatch:
    def test_all_measures_reachable(self, zoo, zoo_ic):
        for name in SIMILARITY_MEASURES:
            value = similarity(zoo, name, "dog", "cat", ic=zoo_ic)
            assert isinstance(value, float)

    def test_graph_measures_ignore_missing_table(self, zoo):
        assert similarity(zoo, "path", "dog", "cat") == pytest.approx(1 / 3)

    def test_ic_measure_requires_table(self, zoo):
        with pytest.raises(ValidationError, match="information content"):
            similarity(zoo, "res", "dog", "cat")

    def test_unknown_measure_rejected(self, zoo):
        with pytest.raises(ValidationError, match="unknown measure"):
            similarity(zoo, "cosine", "dog", "cat")


def assert_matrices_match_pairs(taxonomy, synsets, ic):
    """Every measure's matrix equals per-pair similarity() bit for bit."""
    matrices = similarity_matrices(taxonomy, synsets, [(m, ic) for m in SIMILARITY_MEASURES])
    for measure, matrix in zip(SIMILARITY_MEASURES, matrices):
        want = np.array(
            [[similarity(taxonomy, measure, a, b, ic=ic) for b in synsets] for a in synsets]
        )
        assert matrix.dtype == np.float64 and matrix.shape == want.shape
        assert matrix.tobytes() == want.tobytes(), measure


class TestSimilarityMatrices:
    # depth(z) = 3 but its ancestor w has depth 4, so lcs(z, z) is w, not z;
    # x and y share the depth-2 ancestors a and b, a depth tie won by "a"
    TIE_EDGES = [
        ("a", "root"),
        ("b", "root"),
        ("x", "a"),
        ("x", "b"),
        ("y", "a"),
        ("y", "b"),
        ("w", "x"),
        ("z", "w"),
        ("z", "a"),
        ("leaf", "y"),
    ]

    def test_depth_ties_deep_ancestors_and_shared_synsets(self):
        t = Taxonomy(self.TIE_EDGES)
        assert t.lcs("x", "y") == "a"
        assert t.lcs("z", "z") == "w"
        ic = ICTable.from_counts(t, {"w": 2, "y": 1, "leaf": 3, "b": 1})
        synsets = ["z", "x", "leaf", "y", "z", "root", "w", "b"]
        assert_matrices_match_pairs(t, synsets, ic)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nodes=st.integers(2, 30),
        dag=st.booleans(),
        classes=st.integers(1, 12),
    )
    def test_random_hierarchies_match_pairs(self, seed, nodes, dag, classes):
        rng = np.random.default_rng(seed)
        if dag and nodes >= 6:
            edges = random_dag_edges(rng, nodes, int(rng.integers(1, nodes // 3 + 1)))
        else:
            edges = random_tree_edges(rng, nodes)
        t = Taxonomy(edges)
        names = t.synsets
        # repeats: two class labels may share one synset
        synsets = [names[i] for i in rng.integers(0, len(names), size=classes)]
        # zero counts leave whole subtrees at infinite ic
        counts = {s: int(c) for s, c in zip(names, rng.integers(0, 4, size=len(names)))}
        counts[t.root] += 1
        assert_matrices_match_pairs(t, synsets, ICTable.from_counts(t, counts))

    def test_setting_errors_match_similarity(self, zoo, zoo_ic):
        with pytest.raises(ValidationError, match="information content"):
            list(similarity_matrices(zoo, ["dog", "cat"], [("res", None)]))
        with pytest.raises(ValidationError, match="unknown measure"):
            list(similarity_matrices(zoo, ["dog", "cat"], [("cosine", zoo_ic)]))
        with pytest.raises(UnknownSynsetError):
            list(similarity_matrices(zoo, ["dog", "unicorn"], [("path", None)]))

    def test_ic_table_missing_an_lcs_raises(self, zoo):
        partial = ICTable({"root": 10, "dog": 5, "cat": 3, "car": 2})
        with pytest.raises(UnknownSynsetError, match="animal"):
            list(similarity_matrices(zoo, ["dog", "cat"], [("res", partial)]))
        assert similarity(zoo, "res", "dog", "car", ic=partial) == 0.0
        (res,) = similarity_matrices(zoo, ["dog", "car"], [("res", partial)])
        assert res[0, 1] == 0.0

    MEMORY_N = 400

    # jcn and lin hold res, ic_sum and the two int32 pair tables (together one
    # float64 array); lin adds its bool mask of zeros, 3/8 of an array
    @pytest.mark.parametrize("measure, arrays", [("jcn", 3.5), ("lin", 3.5)])
    def test_ic_measures_hold_few_square_arrays(self, measure, arrays):
        """The traced peak above the start, the result and the pair tables
        included, in n x n float64 arrays, as in test_manifold's memory test."""
        n = self.MEMORY_N
        rng = np.random.default_rng(5)
        t = Taxonomy(random_tree_edges(rng, n))
        # zero counts leave whole subtrees at infinite ic
        ic = ICTable.from_counts(t, {s: int(c) for s, c in zip(t.synsets, rng.integers(0, 50, n))})
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            (matrix,) = similarity_matrices(t, t.synsets, [(measure, ic)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.shape == (n, n)
        assert (peak - start) / (n * n * 8) <= arrays


class TestRandomDagEdges:
    def test_too_many_extra_links_raise_at_once(self):
        raised = []

        def call():
            try:
                random_dag_edges(np.random.default_rng(0), 3, 2)
            except ValueError as exc:
                raised.append(exc)

        worker = threading.Thread(target=call, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert raised and "1 free" in str(raised[0])

    def test_every_free_link_can_be_drawn(self):
        # 6 nodes: 15 child->parent pairs in all, 5 of them tree edges
        edges = random_dag_edges(np.random.default_rng(1), 6, 10)
        assert len(edges) == len(set(edges)) == 15
