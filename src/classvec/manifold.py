"""Low-dimensional maps of a class distance matrix.

Two projections are provided: classical (Torgerson) metric MDS, and ISOMAP,
which re-estimates distances as shortest paths through a symmetric k-nearest
neighbor graph before applying MDS. Both return coordinates together with
the eigenvalue spectrum so callers can judge how much structure the retained
dimensions carry.
"""

from __future__ import annotations

import heapq
import math
import warnings
from typing import Iterable, Sequence

import numpy as np

from .errors import ClassVecError, DisconnectedGraphError, ValidationError

SYMMETRY_TOL = 1e-12
EIGEN_RESIDUAL_TOL = 1e-9


def _locked(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class DistanceMatrix:
    """Dense symmetric matrix of non-negative distances with row labels.

    The diagonal must be exactly zero and asymmetry may not exceed 1e-12.
    Values are stored read-only.
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
        asym = float(np.max(np.abs(vals - vals.T))) if n > 1 else 0.0
        if asym > SYMMETRY_TOL:
            raise ValidationError(f"distance matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
        self._labels = labels
        self._values = _locked(vals)
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
        self._coords = _locked(coords)
        self._eigenvalues = _locked(eigenvalues)

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
    """
    k = int(k)
    if k < 1:
        raise ValidationError(f"embedding dimension must be >= 1, got {k}")
    n = d.size
    sq = d.values * d.values
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * (centering @ sq @ centering)
    b = (b + b.T) / 2.0  # kill rounding asymmetry before eigh
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
    """Undirected weighted graph over labeled nodes, adjacency in index order."""

    __slots__ = ("_labels", "_adjacency")

    def __init__(self, labels: Sequence[str], adjacency: Sequence[Iterable[tuple[int, float]]]):
        self._labels = tuple(str(x) for x in labels)
        if len(adjacency) != len(self._labels):
            raise ValidationError("adjacency size must match label count")
        self._adjacency = tuple(tuple(sorted((int(j), float(w)) for j, w in row)) for row in adjacency)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def adjacency(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        return self._adjacency

    @property
    def size(self) -> int:
        return len(self._labels)

    def edge_count(self) -> int:
        return sum(len(row) for row in self._adjacency) // 2

    def components(self) -> list[list[int]]:
        """Connected components as sorted index lists, discovery order."""
        seen = [False] * self.size
        out: list[list[int]] = []
        for start in range(self.size):
            if seen[start]:
                continue
            seen[start] = True
            stack = [start]
            comp = []
            while stack:
                u = stack.pop()
                comp.append(u)
                for v, _ in self._adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            out.append(sorted(comp))
        return out

    def subgraph(self, nodes: Sequence[int]) -> "NeighborGraph":
        """Induced subgraph; nodes keep their relative order, edges reindexed."""
        nodes = list(nodes)
        remap = {old: new for new, old in enumerate(nodes)}
        adjacency = [
            [(remap[v], w) for v, w in self._adjacency[old] if v in remap] for old in nodes
        ]
        return NeighborGraph([self._labels[old] for old in nodes], adjacency)

    def __repr__(self) -> str:
        return f"NeighborGraph(n={self.size}, edges={self.edge_count()})"


def knn_graph(d: DistanceMatrix, k_neighbors: int) -> NeighborGraph:
    """Symmetric k-NN graph: edge kept if either endpoint lists the other.

    Neighbor ranking breaks distance ties by node index; edge weight is the
    input distance read from the upper triangle so both directions agree
    bitwise.
    """
    k_neighbors = int(k_neighbors)
    if k_neighbors < 1:
        raise ValidationError(f"k_neighbors must be >= 1, got {k_neighbors}")
    n = d.size
    picked = np.zeros((n, n), dtype=bool)
    picked[np.arange(n)[:, None], _neighbor_ranks(d)[:, :k_neighbors]] = True
    rows, cols = np.nonzero(picked | picked.T)
    weights = d.values[np.minimum(rows, cols), np.maximum(rows, cols)]
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, w in zip(rows.tolist(), cols.tolist(), weights.tolist()):
        adjacency[i].append((j, w))
    return NeighborGraph(d.labels, adjacency)


def _neighbor_ranks(d: DistanceMatrix) -> np.ndarray:
    """Row i lists the other points nearest first, distance ties by index:
    the stable order of row i of ``d`` with i itself skipped."""
    n = d.size
    order = np.argsort(d.values, axis=1, kind="stable")
    return order[order != np.arange(n)[:, None]].reshape(n, n - 1)


def _connecting_k(d: DistanceMatrix) -> int:
    """Smallest k_neighbors whose knn_graph over ``d`` is connected.

    Joins every point to its next-ranked neighbor (knn_graph's order), one
    rank at a time, until one component is left; the graphs only grow with k,
    so every larger k connects too.
    """
    n = d.size
    ranked = _neighbor_ranks(d)
    parent = list(range(n))

    def root(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    parts = n
    for k in range(n - 1):
        for i, j in enumerate(ranked[:, k].tolist()):
            ri, rj = root(i), root(j)
            if ri != rj:
                parent[ri] = rj
                parts -= 1
        if parts == 1:
            return k + 1
    return 1  # a single point


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


def geodesic_matrix(graph: NeighborGraph) -> DistanceMatrix:
    """All-pairs shortest path distances via one Dijkstra pass per source.

    The result mirrors the upper triangle so it is exactly symmetric. Raises
    DisconnectedGraphError when any pair is unreachable.
    """
    n = graph.size
    adjacency = graph.adjacency
    # one row at a time: n lists of n Python floats would cost ~4x the matrix
    mat = np.empty((n, n), dtype=np.float64)
    for s in range(n):
        mat[s] = _dijkstra(adjacency, s, n)
    if not np.all(np.isfinite(mat)):
        sizes = sorted((len(c) for c in graph.components()), reverse=True)
        raise DisconnectedGraphError(sizes)
    upper = np.triu(mat, 1)
    return DistanceMatrix(graph.labels, upper + upper.T)


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
