"""Manifold maps: MDS recovery, k-NN graphs, geodesics vs dense relaxation."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classvec import io as cvio
from classvec import manifold
from classvec.errors import DisconnectedGraphError, ValidationError
from classvec.manifold import (
    DistanceMatrix,
    EmbeddingCoordinates,
    NeighborGraph,
    classical_mds,
    geodesic_matrix,
    isomap,
    knn_graph,
)

from helpers import dijkstra, floyd_warshall, graph_to_dense, random_dyadic_dmatrix


@st.composite
def adjacency_lists(draw):
    """Per node, (neighbor, weight) pairs of a small undirected graph, often
    disconnected, with repeated edges and weights that are non-dyadic
    (0.1 + 0.2 != 0.3), tied or zero."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weight = st.one_of(
        st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7]),
        st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    )
    adjacency = [[] for _ in range(n)]
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []:
        w = draw(weight)
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))
    for row in adjacency:
        row.reverse()  # the constructor must sort each row itself
    return adjacency


def euclidean_dmatrix(points: np.ndarray, labels=None) -> DistanceMatrix:
    n = len(points)
    labels = labels or [f"p{i:02d}" for i in range(n)]
    vals = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            vals[i, j] = vals[j, i] = float(np.linalg.norm(points[i] - points[j]))
    return DistanceMatrix(labels, vals)


class TestDistanceMatrix:
    def test_validation(self):
        with pytest.raises(ValidationError, match="unique"):
            DistanceMatrix(["a", "a"], np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="diagonal"):
            DistanceMatrix(["a", "b"], [[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="negative"):
            DistanceMatrix(["a", "b"], [[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError, match="asymmetry"):
            DistanceMatrix(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError, match="match labels"):
            DistanceMatrix(["a", "b"], np.zeros((3, 3)))

    def test_lookup_and_immutability(self):
        d = DistanceMatrix(["a", "b"], [[0.0, 2.0], [2.0, 0.0]])
        assert d.index_of("b") == 1
        assert d.row("a").tolist() == [0.0, 2.0]
        assert not d.values.flags.writeable
        with pytest.raises(ValidationError, match="unknown label"):
            d.index_of("z")


class TestClassicalMDS:
    def test_three_points_on_a_line(self):
        d = DistanceMatrix(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        emb = classical_mds(d, 1)
        got = emb.pairwise_distances()
        assert np.max(np.abs(got - d.values)) <= 1e-9

    def test_two_points_give_plus_minus_half(self):
        d = DistanceMatrix(["a", "b"], [[0.0, 3.0], [3.0, 0.0]])
        emb = classical_mds(d, 1)
        assert emb.coords[:, 0] == pytest.approx([1.5, -1.5], abs=1e-12)

    def test_recovers_random_planar_configurations(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            pts = rng.random((20, 2)) * 10
            d = euclidean_dmatrix(pts)
            emb = classical_mds(d, 2)
            assert emb.dims == 2
            err = emb.pairwise_distances() - d.values
            rms = math.sqrt(float(np.mean(err * err)))
            assert rms <= 1e-6
            assert np.max(np.abs(emb.coords.mean(axis=0))) <= 1e-9

    def test_eigen_residuals_within_bound(self):
        rng = np.random.default_rng(103)
        pts = rng.random((15, 2))
        d = euclidean_dmatrix(pts)
        emb = classical_mds(d, 2)
        n = d.size
        centering = np.eye(n) - np.full((n, n), 1.0 / n)
        b = -0.5 * centering @ (d.values**2) @ centering
        b = (b + b.T) / 2
        for j in range(emb.dims):
            lam = emb.eigenvalues[j]
            vec = emb.coords[:, j] / math.sqrt(lam)
            resid = float(np.linalg.norm(b @ vec - lam * vec))
            assert resid <= 1e-9 * float(np.linalg.norm(b))

    @pytest.mark.parametrize("metric", ["euclidean", "non-euclidean"])
    def test_spectrum_matches_the_centering_matmul(self, metric):
        """Every eigenvalue written, not only those behind the columns, against
        eigvalsh of B formed with an explicit centering matrix."""
        rng = np.random.default_rng(113)
        if metric == "euclidean":
            d = euclidean_dmatrix(rng.random((30, 3)))
        else:
            d = random_dyadic_dmatrix(rng, 30)
        n = d.size
        centering = np.eye(n) - np.full((n, n), 1.0 / n)
        b = -0.5 * centering @ (d.values**2) @ centering
        want = np.linalg.eigvalsh((b + b.T) / 2)[::-1]
        assert (want[-1] < -1e-6 * want[0]) == (metric == "non-euclidean")
        emb = classical_mds(d, 2)
        assert emb.eigenvalues.shape == (n,)
        assert np.max(np.abs(emb.eigenvalues - want)) <= 1e-12 * np.max(np.abs(want))

    def test_warns_when_not_enough_positive_eigenvalues(self):
        d = DistanceMatrix(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.warns(UserWarning, match="positive eigenvalues"):
            emb = classical_mds(d, 3)
        assert emb.dims == 1

    def test_deterministic_including_signs(self):
        rng = np.random.default_rng(107)
        pts = rng.random((12, 2))
        d = euclidean_dmatrix(pts)
        a, b = classical_mds(d, 2), classical_mds(d, 2)
        assert np.array_equal(a.coords, b.coords)
        for j in range(a.dims):
            lead = int(np.argmax(np.abs(a.coords[:, j])))
            assert a.coords[lead, j] > 0

    def test_spectrum_is_full_and_descending(self):
        rng = np.random.default_rng(109)
        d = euclidean_dmatrix(rng.random((8, 2)))
        emb = classical_mds(d, 2)
        assert emb.eigenvalues.shape == (8,)
        assert np.all(np.diff(emb.eigenvalues) <= 0)

    def test_bad_k_rejected(self):
        d = DistanceMatrix(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="k must be >= 1"):
            classical_mds(d, 0)
        for k in (2.7, 1.0, "x", True):
            with pytest.raises(ValidationError, match="k must be an integer"):
                classical_mds(d, k)


class TestNeighborGraph:
    def test_components_and_subgraph(self):
        g = NeighborGraph(
            ["a", "b", "c", "d"],
            [[(1, 1.0)], [(0, 1.0)], [(3, 2.0)], [(2, 2.0)]],
        )
        assert g.components() == [[0, 1], [2, 3]]
        sub = g.subgraph([2, 3])
        assert sub.labels == ("c", "d")
        assert sub.adjacency == (((1, 2.0),), ((0, 2.0),))

    @pytest.mark.parametrize(
        "adjacency, match",
        [
            ([[(2, 1.0)], [(0, 1.0)]], r"integers in \[0, 2\)"),
            ([[(-1, 1.0)], [(0, 1.0)]], r"integers in \[0, 2\)"),
            ([[(0.5, 1.0)], [(0, 1.0)]], r"integers in \[0, 2\)"),
            ([[(1, -1.0)], [(0, -1.0)]], "non-negative"),
            ([[(1, math.nan)], [(0, math.nan)]], "finite"),
            ([[(1, math.inf)], [(0, math.inf)]], "finite"),
            ([[(1, 1.0)], []], "both ends"),
            ([[(1, 1.0)], [(0, 2.0)]], "both ends"),
            ([[(1, 1.0), (1, 1.0)], [(0, 1.0)]], "both ends"),
            ([[(1, 1.0, 0)], [(0, 1.0, 0)]], "pairs"),
        ],
        ids=[
            "index-past-end",
            "index-negative",
            "index-not-integral",
            "weight-negative",
            "weight-nan",
            "weight-inf",
            "one-direction",
            "weights-differ",
            "repeats-differ",
            "not-a-pair",
        ],
    )
    def test_bad_adjacency_is_refused(self, adjacency, match):
        with pytest.raises(ValidationError, match=match):
            NeighborGraph(["a", "b"], adjacency)

    def test_chain_with_k1_is_a_path(self):
        # gaps grow left to right, so each node's nearest is its left peer
        xs = np.cumsum([0.0, 1.0, 1.1, 1.2, 1.3])
        d = euclidean_dmatrix(xs[:, None])
        g = knn_graph(d, 1)
        assert g.components() == [[0, 1, 2, 3, 4]]
        assert g.edge_count() == 4
        geo = geodesic_matrix(g)
        for i in range(5):
            for j in range(5):
                assert geo.values[i, j] == pytest.approx(abs(xs[i] - xs[j]), abs=0)

    def test_union_semantics(self):
        # b's nearest is a; a's nearest is also b; c's nearest is b although
        # b does not list c, so edge (b, c) must still exist
        xs = np.array([0.0, 1.0, 2.5])[:, None]
        g = knn_graph(euclidean_dmatrix(xs, ["a", "b", "c"]), 1)
        assert g.adjacency[1] == ((0, 1.0), (2, 1.5))

    def test_k_capped_by_available_nodes(self):
        d = euclidean_dmatrix(np.array([[0.0], [1.0], [2.0]]))
        g = knn_graph(d, 10)
        assert g.edge_count() == 3  # complete graph on 3 nodes

    def test_ranks_skip_self_behind_coincident_points(self):
        # many points at distance 0 sort ahead of i when their index is lower,
        # so i can fall past the first k + 1 columns of the stable sort
        rng = np.random.default_rng(17)
        for trial in range(40):
            n = int(rng.integers(2, 14))
            xs = rng.integers(0, 3, size=n).astype(float)  # few distinct places
            d = euclidean_dmatrix(xs[:, None])
            k = int(rng.integers(1, n + 2))
            want = set()
            for i in range(n):
                order = [j for j in np.argsort(d.values[i], kind="stable").tolist() if j != i]
                want |= {(i, j) for j in order[:k]} | {(j, i) for j in order[:k]}
            got = knn_graph(d, k).adjacency
            assert {(i, j) for i, row in enumerate(got) for j, _ in row} == want
            assert all(w == d.values[i, j] for i, row in enumerate(got) for j, w in row)


class TestGeodesics:
    def test_matches_dense_relaxation_oracle(self):
        rng = np.random.default_rng(113)
        checked_connected = 0
        for _ in range(30):
            d = random_dyadic_dmatrix(rng, 15)
            g = knn_graph(d, 4)
            dense = graph_to_dense(g)
            want = floyd_warshall(dense)
            if len(g.components()) > 1:
                with pytest.raises(DisconnectedGraphError):
                    geodesic_matrix(g)
                continue
            got = geodesic_matrix(g)
            assert np.array_equal(got.values, want)
            checked_connected += 1
        assert checked_connected >= 20

    @settings(max_examples=300)
    @given(adjacency=adjacency_lists(), block=st.integers(1, 5), rounds=st.integers(1, 10))
    def test_matches_dijkstra_oracle_bitwise(self, adjacency, block, rounds):
        # small blocks and round limits put several blocks, a short last one
        # and the hand-over to Dijkstra inside graphs of a few nodes
        n = len(adjacency)
        graph = NeighborGraph([f"v{i}" for i in range(n)], adjacency)
        rows = np.array([dijkstra(adjacency, s, n) for s in range(n)])
        reach = sorted({tuple(np.flatnonzero(np.isfinite(row)).tolist()) for row in rows})
        assert graph.components() == [list(c) for c in reach]
        with mock.patch.object(manifold, "GEODESIC_BLOCK", block), mock.patch.object(
            manifold, "GEODESIC_ROUNDS", rounds
        ):
            if len(reach) > 1:
                with pytest.raises(DisconnectedGraphError) as exc:
                    geodesic_matrix(graph)
                assert exc.value.component_sizes == tuple(sorted(map(len, reach), reverse=True))
                return
            got = geodesic_matrix(graph).values
        upper = np.triu(rows, 1)  # each pair summed from its lower index
        assert np.array_equal(got, upper + upper.T)

    @pytest.mark.parametrize("shape, searches", [("cloud", 0), ("path", 60)])
    def test_long_graphs_go_to_dijkstra_with_the_same_bits(self, shape, searches):
        # 60 nodes fill three blocks and a short fourth; a path is 59 hops
        # long, so its first block runs out of rounds and every source is
        # searched, while a 4-NN cloud settles within a few rounds
        rng = np.random.default_rng(137)
        if shape == "cloud":
            graph = knn_graph(euclidean_dmatrix(rng.random((60, 3))), 4)
        else:
            w = rng.random(59).tolist()
            graph = NeighborGraph(
                [f"v{i}" for i in range(60)],
                [[(j, w[min(i, j)]) for j in (i - 1, i + 1) if 0 <= j < 60] for i in range(60)],
            )
        adjacency = graph.adjacency
        rows = np.array([dijkstra(adjacency, s, 60) for s in range(60)])
        with mock.patch.object(manifold, "_dijkstra", wraps=manifold._dijkstra) as search:
            got = geodesic_matrix(graph).values
        assert search.call_count == searches
        upper = np.triu(rows, 1)
        assert np.array_equal(got, upper + upper.T)

    def test_geodesics_dominate_metric_input_distances(self):
        # holds because euclidean input obeys the triangle inequality
        rng = np.random.default_rng(127)
        d = euclidean_dmatrix(rng.random((12, 3)))
        g = knn_graph(d, 4)
        assert len(g.components()) == 1
        geo = geodesic_matrix(g)
        assert np.all(geo.values >= d.values - 1e-12)

    def test_disconnected_error_reports_sizes(self):
        g = NeighborGraph(
            ["a", "b", "c", "d", "e"],
            [[(1, 1.0)], [(0, 1.0)], [(3, 1.0), (4, 1.0)], [(2, 1.0)], [(2, 1.0)]],
        )
        with pytest.raises(DisconnectedGraphError) as exc:
            geodesic_matrix(g)
        assert exc.value.component_sizes == (3, 2)
        assert "3, 2" in str(exc.value)
        assert exc.value.connecting_k is None  # a bare graph has no distances to rank


class TestIsomap:
    def test_u_curve_ordering_recovered(self):
        # equally spaced samples along a half circle; geodesics unroll the bend
        theta = np.linspace(0.0, math.pi, 40)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        d = euclidean_dmatrix(pts)
        emb = isomap(d, k_neighbors=2, dims=1)
        x = emb.coords[:, 0]
        order = np.argsort(x, kind="stable")
        assert order.tolist() == list(range(40)) or order.tolist() == list(range(39, -1, -1))

    def test_disconnected_raises_unless_flagged(self):
        xs = np.array([0.0, 1.0, 2.0, 10.0, 11.0])[:, None]
        d = euclidean_dmatrix(xs)
        with pytest.raises(DisconnectedGraphError) as exc:
            isomap(d, k_neighbors=1, dims=1)
        assert exc.value.connecting_k == 2  # point 3's second neighbor is point 2
        assert "the smallest k_neighbors that connects it is 2" in str(exc.value)
        with pytest.warns(UserWarning, match="largest"):
            emb = isomap(d, k_neighbors=1, dims=1, largest_component=True)
        assert emb.labels == ("p00", "p01", "p02")

    def test_largest_component_tie_keeps_the_lowest_index(self):
        # two pairs far apart, {0, 3} and {1, 2}; the one holding index 0 wins
        xs = np.array([10.0, 0.0, 1.0, 11.0])[:, None]
        d = euclidean_dmatrix(xs)
        with pytest.warns(UserWarning, match="largest"):
            emb = isomap(d, k_neighbors=1, dims=1, largest_component=True)
        assert emb.labels == ("p00", "p03")

    def test_reported_k_is_the_smallest_that_connects(self):
        rng = np.random.default_rng(131)
        checked = 0
        for trial in range(60):
            n = int(rng.integers(4, 16))
            if trial % 2:
                d = random_dyadic_dmatrix(rng, n)  # many distance ties
            else:  # clusters far apart need a larger k
                centers = rng.integers(0, 4, size=n) * 100.0
                d = euclidean_dmatrix((centers + rng.random(n))[:, None])
            k = int(rng.integers(1, 4))
            if len(knn_graph(d, k).components()) == 1:
                continue
            with pytest.raises(DisconnectedGraphError) as exc:
                isomap(d, k_neighbors=k, dims=1)
            best = exc.value.connecting_k
            assert best > k
            assert len(knn_graph(d, best).components()) == 1
            assert len(knn_graph(d, best - 1).components()) > 1
            checked += 1
        assert checked >= 15

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("k_neighbors", 0, ">= 1"),
            ("k_neighbors", 10.9, "an integer"),
            ("k_neighbors", "x", "an integer"),
            ("dims", 0, ">= 1"),
            ("dims", 2.0, "an integer"),
            ("dims", "x", "an integer"),
        ],
    )
    def test_bad_counts_rejected(self, field, value, match):
        d = euclidean_dmatrix(np.arange(12.0)[:, None])
        with pytest.raises(ValidationError, match=f"{field} must be {match}"):
            isomap(d, **{field: value})

    def test_chain_geodesics_sum_consecutive_gaps(self):
        xs = np.cumsum([0.0, 1.0, 1.25, 1.5, 1.75])
        d = euclidean_dmatrix(xs[:, None])
        emb = isomap(d, k_neighbors=1, dims=1)
        got = emb.pairwise_distances()
        assert np.max(np.abs(got - d.values)) <= 1e-9


# -- memory ------------------------------------------------------------------------

MEMORY_N = 400


@pytest.fixture(scope="module")
def square_inputs(tmp_path_factory):
    """A MEMORY_N-point 5-D cloud's distances, their k=10 graph and CSV file."""
    pts = np.random.default_rng(5).random((MEMORY_N, 5))
    values = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    labels = [f"c{i:03d}" for i in range(MEMORY_N)]
    d = DistanceMatrix(labels, values)
    path = tmp_path_factory.mktemp("memory") / "d.csv"
    cvio.write_distance_matrix_csv(d, path)
    return {"labels": labels, "values": values, "d": d, "graph": knn_graph(d, 10), "csv": path}


# The stages and the n x n float64 arrays each may hold at its peak, its result
# included; a bool array is 1/8 and an intp array 1 of them.
SQUARE_ARRAY_BOUNDS = [
    # the array its rows fill, doubling as they come, and DistanceMatrix's copy
    pytest.param(lambda x: cvio.load_distance_matrix_csv(x["csv"]), 2.5, id="load-csv"),
    # its owned copy and the bool masks of its checks
    pytest.param(lambda x: DistanceMatrix(x["labels"], x["values"]), 1.5, id="distance-matrix"),
    # the full stable argsort of the rows, dropped for its first k + 1 columns
    pytest.param(lambda x: knn_graph(x["d"], 10), 1.5, id="knn-graph"),
    # the filled matrix and DistanceMatrix's copy
    pytest.param(lambda x: geodesic_matrix(x["graph"]), 2.5, id="geodesic-matrix"),
    # centering, B and the product of the second matmul
    pytest.param(lambda x: classical_mds(x["d"], 2), 3.5, id="classical-mds"),
    # the geodesic matrix plus classical_mds's three
    pytest.param(lambda x: isomap(x["d"], 10, 2), 4.5, id="isomap"),
]


@pytest.mark.parametrize("stage, arrays", SQUARE_ARRAY_BOUNDS)
def test_distance_stages_hold_few_square_arrays(square_inputs, stage, arrays):
    """NumPy reports its array buffers to tracemalloc, so the traced peak
    counts the n x n temporaries. The workspace that np.linalg.eigh allocates
    inside LAPACK is not traced, so this does not bound classical_mds's and
    isomap's memory during the eigendecomposition itself."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        stage(square_inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - start) / (MEMORY_N * MEMORY_N * 8) <= arrays
