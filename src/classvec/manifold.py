"""Low-dimensional maps of a class distance matrix.

Two projections are provided: classical (Torgerson) metric MDS, and ISOMAP,
which re-estimates distances as shortest paths through a symmetric k-nearest
neighbor graph before applying MDS. Both return coordinates together with
the eigenvalue spectrum so callers can judge how much structure the retained
dimensions carry.

The neighbor graph is held as CSR arrays, and its shortest paths come from
min-plus relaxation of every edge for a block of sources at once, or from a
Dijkstra search per source on graphs too long in hops for relaxation to pay.
Because float addition rounds monotonically, both give the same bits;
``geodesic_matrix`` states why.
"""

from __future__ import annotations

import heapq
import math
import warnings
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import ClassVecError, DisconnectedGraphError, ValidationError
from .util import locked

SYMMETRY_TOL = 1e-12
EIGEN_RESIDUAL_TOL = 1e-9
# Sources relaxed together by geodesic_matrix, and the rounds a block may take
# before the sources left go to Dijkstra; see CHANGES.md for the measurements.
GEODESIC_BLOCK = 16
GEODESIC_ROUNDS = 16


class DistanceMatrix:
    """Dense symmetric matrix of non-negative distances with row labels.

    The diagonal must be exactly zero and asymmetry may not exceed 1e-12.
    Values are stored read-only, with the lower triangle taken from the upper,
    so both triangles give the same bits.
    """

    __slots__ = ("_labels", "_values", "_index")

    def __init__(self, labels: Sequence[str], values):
        labels = tuple(str(x) for x in labels)
        vals = np.array(values, dtype=np.float64, copy=True)
        n = len(labels)
        if len(set(labels)) != n:
            raise ValidationError("distance matrix labels must be unique")
        if vals.ndim != 2 or vals.shape != (n, n):
            raise ValidationError(
                f"distance matrix must be {n}x{n} to match labels, got {vals.shape}"
            )
        if n == 0:
            raise ValidationError("distance matrix needs at least one label")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("distance matrix contains non-finite values")
        if np.any(vals < 0):
            raise ValidationError("distance matrix contains negative values")
        if np.any(vals.diagonal() != 0):
            raise ValidationError("distance matrix diagonal must be exactly zero")
        if not np.array_equal(vals, vals.T):  # no n x n float temporary when symmetric
            asym = float(np.max(np.abs(vals - vals.T)))
            if asym > SYMMETRY_TOL:
                raise ValidationError(f"distance matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
            lower = np.tril_indices(n, -1)
            vals[lower] = vals.T[lower]
        self._labels = labels
        self._values = locked(vals)
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def size(self) -> int:
        return len(self._labels)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"unknown label {label!r}") from None

    def row(self, label: str) -> np.ndarray:
        return self._values[self.index_of(label)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistanceMatrix):
            return NotImplemented
        return self._labels == other._labels and np.array_equal(self._values, other._values)

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.size})"


class EmbeddingCoordinates:
    """n x k coordinates plus the full descending eigenvalue spectrum.

    The first ``dims`` spectrum entries are the (positive) eigenvalues whose
    eigenvectors produced the coordinate columns.
    """

    __slots__ = ("_labels", "_coords", "_eigenvalues")

    def __init__(self, labels: Sequence[str], coords, eigenvalues):
        labels = tuple(str(x) for x in labels)
        coords = np.array(coords, dtype=np.float64, copy=True)
        eigenvalues = np.array(eigenvalues, dtype=np.float64, copy=True)
        if coords.ndim != 2 or coords.shape[0] != len(labels):
            raise ValidationError("coordinates must be n x k with one row per label")
        if coords.shape[1] > coords.shape[0]:
            raise ValidationError("more coordinate columns than points")
        if eigenvalues.ndim != 1 or np.any(np.diff(eigenvalues) > 0):
            raise ValidationError("eigenvalues must be a descending 1-D list")
        if np.any(eigenvalues[: coords.shape[1]] <= 0):
            raise ValidationError("eigenvalues backing coordinate columns must be positive")
        self._labels = labels
        self._coords = locked(coords)
        self._eigenvalues = locked(eigenvalues)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenvalues

    @property
    def dims(self) -> int:
        return int(self._coords.shape[1])

    def pairwise_distances(self) -> np.ndarray:
        """Euclidean distances between embedded points (dense, symmetric)."""
        diff = self._coords[:, None, :] - self._coords[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=2))

    def __repr__(self) -> str:
        return f"EmbeddingCoordinates(n={len(self._labels)}, dims={self.dims})"


def classical_mds(d: DistanceMatrix, k: int) -> EmbeddingCoordinates:
    """Torgerson scaling: embed distances into the top-k positive directions.

    B = -1/2 * J * D^2 * J is double-centered, eigendecomposed, and the
    eigenvectors of the k largest positive eigenvalues are scaled by sqrt of
    their eigenvalue. Sign convention: each column's largest-magnitude
    component is made positive (first index wins ties), so output is
    deterministic. If fewer than k eigenvalues are positive, a warning is
    issued and only the positive ones become columns.

    The eigendecomposition runs in LAPACK through np.linalg.eigh, whose last
    bits depend on the BLAS thread count, so the coordinates and eigenvalues
    are bit-reproducible only at a fixed thread count.
    """
    k = int(k)
    if k < 1:
        raise ValidationError(f"embedding dimension must be >= 1, got {k}")
    n = d.size
    # the bits of np.eye(n) - np.full((n, n), 1.0 / n), built in one array
    centering = np.full((n, n), -1.0 / n)
    centering.flat[:: n + 1] = 1.0 - 1.0 / n
    b = centering @ (d.values * d.values)
    b = b @ centering
    del centering
    b *= -0.5
    for i in range(n):  # kill rounding asymmetry before eigh, a row at a time
        row = (b[i, i:] + b[i:, i]) / 2.0
        b[i, i:] = row
        b[i:, i] = row
    eigvals, eigvecs = np.linalg.eigh(b)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]

    tol = 1e-12 * float(np.max(np.abs(eigvals))) if n > 0 else 0.0
    n_pos = int(np.sum(eigvals > tol))
    m = min(k, n_pos)
    if m < k:
        warnings.warn(
            f"requested {k} dimensions but only {n_pos} positive eigenvalues; "
            f"returning {m} columns",
            stacklevel=2,
        )

    b_norm = float(np.linalg.norm(b))
    for j in range(m):
        resid = float(np.linalg.norm(b @ eigvecs[:, j] - eigvals[j] * eigvecs[:, j]))
        if resid > EIGEN_RESIDUAL_TOL * b_norm:
            raise ClassVecError(
                f"eigenpair {j} residual {resid:.3e} exceeds "
                f"{EIGEN_RESIDUAL_TOL:g} * |B| = {EIGEN_RESIDUAL_TOL * b_norm:.3e}"
            )

    coords = eigvecs[:, :m] * np.sqrt(eigvals[:m])
    for j in range(m):
        lead = int(np.argmax(np.abs(coords[:, j])))
        if coords[lead, j] < 0:
            coords[:, j] = -coords[:, j]
    return EmbeddingCoordinates(d.labels, coords, eigvals)


class NeighborGraph:
    """Undirected weighted graph over labeled nodes, held as CSR arrays.

    Node i's neighbors are ``indices[indptr[i]:indptr[i + 1]]`` in
    increasing order (a repeated neighbor by weight), and their edge weights
    sit at the same positions of ``weights``. The constructor takes one list
    of ``(neighbor, weight)`` pairs per node and refuses, with
    ValidationError, a neighbor index outside ``[0, n)``, a weight that is
    negative or not finite, and an edge not listed from both ends with the
    same weight.
    """

    __slots__ = ("_labels", "_indptr", "_indices", "_weights")

    def __init__(self, labels: Sequence[str], adjacency: Sequence[Iterable[tuple[int, float]]]):
        labels = tuple(str(x) for x in labels)
        rows = [tuple(row) for row in adjacency]
        n = len(labels)
        if len(rows) != n:
            raise ValidationError("adjacency size must match label count")
        edges = list(chain.from_iterable(rows))
        try:
            pairs = np.array(edges, dtype=np.float64).reshape(len(edges), 2)
        except (TypeError, ValueError):
            raise ValidationError("adjacency rows must hold (neighbor, weight) pairs") from None
        tails, weights = pairs[:, 0], pairs[:, 1]
        if not np.all((tails >= 0) & (tails < n) & (tails == np.trunc(tails))):
            raise ValidationError(f"neighbor indices must be integers in [0, {n})")
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise ValidationError("edge weights must be finite and non-negative")
        heads = np.repeat(np.arange(n), [len(row) for row in rows])
        indptr, tails, weights = _csr(n, heads, tails.astype(np.intp), weights)
        heads = _heads(indptr)
        back = np.lexsort((weights, heads, tails))  # the reversed edges in row order
        if not (
            np.array_equal(tails[back], heads)
            and np.array_equal(heads[back], tails)
            and np.array_equal(weights[back], weights)
        ):
            raise ValidationError("each edge must be listed from both ends with the same weight")
        self._assign(labels, indptr, tails, weights)

    @classmethod
    def _from_csr(cls, labels, indptr, indices, weights) -> "NeighborGraph":
        """A graph over arrays already in CSR order and symmetric; no checks."""
        graph = cls.__new__(cls)
        graph._assign(tuple(labels), indptr, indices, weights)
        return graph

    def _assign(self, labels, indptr, indices, weights) -> None:
        self._labels = labels
        self._indptr = locked(indptr)
        self._indices = locked(indices)
        self._weights = locked(weights)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """Per node, its ``(neighbor, weight)`` pairs in CSR order."""
        pairs = list(zip(self._indices.tolist(), self._weights.tolist()))
        bounds = self._indptr.tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip(bounds, bounds[1:]))

    @property
    def size(self) -> int:
        return len(self._labels)

    def edge_count(self) -> int:
        return len(self._indices) // 2

    def components(self) -> list[list[int]]:
        """Connected components as sorted index lists, ordered by their smallest member."""
        heads = _heads(self._indptr)
        once = heads < self._indices
        parent = list(range(self.size))
        _join(parent, heads[once].tolist(), self._indices[once].tolist())
        members: dict[int, list[int]] = {}
        for u in range(self.size):
            members.setdefault(_root(parent, u), []).append(u)
        return list(members.values())

    def subgraph(self, nodes: Sequence[int]) -> "NeighborGraph":
        """Induced subgraph; nodes keep their relative order, edges reindexed."""
        nodes = np.asarray(nodes, dtype=np.intp)
        remap = np.full(self.size, -1, dtype=np.intp)
        remap[nodes] = np.arange(len(nodes))
        heads, tails = remap[_heads(self._indptr)], remap[self._indices]
        keep = (heads >= 0) & (tails >= 0)
        arrays = _csr(len(nodes), heads[keep], tails[keep], self._weights[keep])
        return NeighborGraph._from_csr([self._labels[u] for u in nodes.tolist()], *arrays)

    def __repr__(self) -> str:
        return f"NeighborGraph(n={self.size}, edges={self.edge_count()})"


def _csr(n: int, heads: np.ndarray, tails: np.ndarray, weights: np.ndarray):
    """``indptr, indices, weights`` of the directed edges heads -> tails,
    sorted by head, then tail, then weight."""
    order = np.lexsort((weights, tails, heads))
    return np.searchsorted(heads[order], np.arange(n + 1)), tails[order], weights[order]


def _heads(indptr: np.ndarray) -> np.ndarray:
    """The row of every CSR entry."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def knn_graph(d: DistanceMatrix, k_neighbors: int) -> NeighborGraph:
    """Symmetric k-NN graph: edge kept if either endpoint lists the other.

    Neighbor ranking breaks distance ties by node index; edge weight is the
    input distance, which is the same in both directions.
    """
    k_neighbors = int(k_neighbors)
    if k_neighbors < 1:
        raise ValidationError(f"k_neighbors must be >= 1, got {k_neighbors}")
    n = d.size
    picked = np.zeros((n, n), dtype=bool)
    picked[np.arange(n)[:, None], _neighbor_ranks(d, k_neighbors)] = True
    rows, cols = np.nonzero(picked | picked.T)  # row-major, so already CSR order
    weights = d.values[rows, cols]
    return NeighborGraph._from_csr(d.labels, np.searchsorted(rows, np.arange(n + 1)), cols, weights)


def _neighbor_ranks(d: DistanceMatrix, count: int) -> np.ndarray:
    """Row i lists the ``count`` (at most n - 1) other points nearest first,
    distance ties by index: the stable order of row i of ``d`` with i itself
    skipped."""
    n = d.size
    cols = min(count + 1, n)
    order = np.argsort(d.values, axis=1, kind="stable")
    if cols < n:
        order = order[:, :cols].copy()  # frees the full sort
    own = order == np.arange(n)[:, None]
    # i falls past the first ``cols`` only behind that many lower-indexed
    # points at distance 0; such a row drops its last column instead
    own[~own.any(axis=1), -1] = True
    return order[~own].reshape(n, cols - 1)


def _root(parent: list[int], u: int) -> int:
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
    return u


def _join(parent: list[int], us: Iterable[int], vs: Iterable[int]) -> int:
    """Union-find over ``parent``: join each pair (u, v); returns the number
    of joins that merged two components."""
    merged = 0
    for u, v in zip(us, vs):
        ru, rv = _root(parent, u), _root(parent, v)
        if ru != rv:
            parent[ru] = rv
            merged += 1
    return merged


def _connecting_k(d: DistanceMatrix) -> int:
    """Smallest k_neighbors whose knn_graph over ``d`` is connected.

    Joins every point to its next-ranked neighbor (knn_graph's order), one
    rank at a time, until one component is left; the graphs only grow with k,
    so every larger k connects too.
    """
    n = d.size
    ranked = _neighbor_ranks(d, n - 1)
    parent = list(range(n))
    parts = n
    for k in range(n - 1):
        parts -= _join(parent, range(n), ranked[:, k].tolist())
        if parts == 1:
            return k + 1
    return 1  # a single point


def geodesic_matrix(graph: NeighborGraph) -> DistanceMatrix:
    """All-pairs shortest path distances by min-plus edge relaxation.

    For GEODESIC_BLOCK sources s at a time, ``D[t, s]`` starts at 0 where
    t is s and inf elsewhere; each round sets it to the least of itself and
    ``D[u, s] + w`` over the edges u -> t with weight w, until no entry falls.
    Float addition rounds monotonically, and adding w >= 0 never lowers a
    sum, so round r holds the least left-to-right sum over walks of at most
    r edges from s, and the fixed point is the least such sum over all paths:
    bit for bit the distance Dijkstra's ``du + w`` reaches.

    A block needs one round per edge on its longest shortest path, plus one,
    so a graph that is long in hops (a path, an arc, a swiss roll) makes
    relaxation slower than Dijkstra. When a block has not settled after
    GEODESIC_ROUNDS rounds, it and every later source get a Dijkstra search
    instead, with the same result.

    The sums from s to t and from t to s may differ in the last bit; both
    triangles of the result take the one from the lower index, so it is
    exactly symmetric. Raises DisconnectedGraphError when any pair is
    unreachable.
    """
    n = graph.size
    if n > 1 and not np.all(np.diff(graph.indptr)):  # reduceat needs every row
        raise _disconnected(graph)
    mat = np.empty((n, n), dtype=np.float64)  # mat[t, s]: from source s to t
    relaxed = _relax_blocks(graph, mat) if n > 1 else 0
    if relaxed < n:
        adjacency = graph.adjacency
        for s in range(relaxed, n):
            mat[:, s] = _dijkstra(adjacency, s, n)
    if not np.all(np.isfinite(mat)):
        raise _disconnected(graph)
    for s in range(n - 1):  # mirror the lower triangle; the diagonal is already 0
        mat[s, s + 1 :] = mat[s + 1 :, s]
    return DistanceMatrix(graph.labels, mat)


def _relax_blocks(graph: NeighborGraph, mat: np.ndarray) -> int:
    """Fill ``mat[:, s]`` block by block, as ``geodesic_matrix`` describes,
    up to the first block that has not settled after GEODESIC_ROUNDS rounds;
    returns the number of sources filled."""
    n = graph.size
    # undirected, so the edges into t are row t
    tails, starts = graph.indices, graph.indptr[:-1]
    weights = graph.weights[:, None]
    for lo in range(0, n, GEODESIC_BLOCK):
        hi = min(lo + GEODESIC_BLOCK, n)
        dist = np.full((n, hi - lo), np.inf)
        dist[np.arange(lo, hi), np.arange(hi - lo)] = 0.0
        for _ in range(GEODESIC_ROUNDS):
            relax = np.minimum.reduceat(dist[tails] + weights, starts, axis=0)
            if not np.any(relax < dist):
                break
            np.minimum(dist, relax, out=dist)
        else:
            return lo
        mat[:, lo:hi] = dist
    return n


def _dijkstra(adjacency, source: int, n: int) -> list[float]:
    dist = [math.inf] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w in adjacency[u]:
            alt = du + w
            if alt < dist[v]:
                dist[v] = alt
                heapq.heappush(heap, (alt, v))
    return dist


def _disconnected(graph: NeighborGraph) -> DisconnectedGraphError:
    return DisconnectedGraphError([len(c) for c in graph.components()])


def isomap(
    d: DistanceMatrix,
    k_neighbors: int = 10,
    dims: int = 2,
    *,
    largest_component: bool = False,
) -> EmbeddingCoordinates:
    """Geodesic re-estimation over a k-NN graph followed by classical MDS.

    A disconnected neighborhood graph raises DisconnectedGraphError, which
    names the smallest k_neighbors that would connect it, unless
    ``largest_component`` is set, in which case the embedding covers only
    the largest component (ties broken toward the lowest-index node) and a
    warning reports how many points were dropped.

    The geodesics are bit-reproducible; the embedding is so only at a fixed
    BLAS thread count, as classical_mds explains.
    """
    if int(dims) < 1:
        raise ValidationError(f"dims must be >= 1, got {dims}")
    graph = knn_graph(d, k_neighbors)
    comps = graph.components()
    if len(comps) > 1:
        if not largest_component:
            raise DisconnectedGraphError([len(c) for c in comps], _connecting_k(d))
        keep = max(comps, key=len)
        warnings.warn(
            f"neighborhood graph has {len(comps)} components; "
            f"embedding largest ({len(keep)} of {graph.size} points)",
            stacklevel=2,
        )
        graph = graph.subgraph(keep)
    return classical_mds(geodesic_matrix(graph), dims)
