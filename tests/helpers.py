"""Shared test fixtures: dense mirrors of sparse vectors and random builders.

The dense mirror is the independent reference for every vector operation:
tests compute in sparse form and re-check against plain numpy arithmetic on
the flattened array.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter

import numpy as np

from classvec.vectors import LayerManifest, SparseActivationVector


def densify(v: SparseActivationVector) -> np.ndarray:
    """Flatten a sparse vector onto the manifest's full coordinate axis."""
    m = v.manifest
    out = np.zeros(m.total_dim, dtype=np.float64)
    for lid, idx, val in v.iter_entries():
        out[m.offset_of(lid) + idx] = val
    return out


def sparsify(manifest: LayerManifest, dense: np.ndarray) -> SparseActivationVector:
    """Inverse of densify: slice the flat array back into layer segments."""
    entries = {}
    for spec in manifest:
        off = manifest.offset_of(spec.layer_id)
        seg = dense[off : off + spec.dim]
        nz = np.flatnonzero(seg)
        if nz.size:
            entries[spec.layer_id] = (nz, seg[nz])
    return SparseActivationVector(manifest, entries)


def small_manifest() -> LayerManifest:
    return LayerManifest(
        [
            ("a1", "low", 16),
            ("a2", "low", 8),
            ("b1", "mid", 32),
            ("b2", "mid", 4),
            ("c1", "top", 12),
        ]
    )


def random_vector(
    rng: np.random.Generator,
    manifest: LayerManifest,
    density: float = 0.3,
    allow_zero: bool = False,
) -> SparseActivationVector:
    """Draw a vector with roughly ``density`` of coordinates active."""
    while True:
        entries = {}
        for spec in manifest:
            mask = rng.random(spec.dim) < density
            nz = np.flatnonzero(mask)
            if nz.size:
                entries[spec.layer_id] = (nz, rng.random(nz.size) * 0.999 + 0.001)
        if entries or allow_zero:
            return SparseActivationVector(manifest, entries)


def twelve_layer_vectors(seed: int, n: int) -> list[SparseActivationVector]:
    """Vectors over 12 layers that share some layers and some indices, with
    values that are not dyadic, spread over six orders of magnitude."""
    rng = np.random.default_rng(seed)
    m = LayerManifest([(f"L{i:02d}", f"g{i % 3}", int(rng.integers(3, 40))) for i in range(12)])
    out = []
    for _ in range(n):
        entries = {}
        for spec in m:
            if rng.random() < 0.6:
                nz = np.flatnonzero(rng.random(spec.dim) < rng.random())
                entries[spec.layer_id] = (nz, rng.random(nz.size) * 10 ** rng.uniform(-3, 3))
        out.append(SparseActivationVector(m, entries or {"L00": ([0], [0.3])}))
    return out


def flat_entries(v: SparseActivationVector) -> dict[int, float]:
    """A vector's entries as {flattened index: value}, in ascending flattened
    index, read through the public iter_entries() API."""
    m = v.manifest
    return dict(sorted((m.offset_of(lid) + i, val) for lid, i, val in v.iter_entries()))


def left_to_right_sum(terms) -> float:
    """Python floats added one after another, in the order given."""
    total = 0.0
    for term in terms:
        total += term
    return total


def reference_dot(a: SparseActivationVector, b: SparseActivationVector) -> float:
    """dot as a pure-Python float sum: the products over the coordinates both
    vectors store, added left to right in ascending flattened index. The
    bitwise reference for dot, the norms and cosine."""
    b_at = flat_entries(b)
    return left_to_right_sum(x * b_at[k] for k, x in flat_entries(a).items() if k in b_at)


def reference_parse_triplets(manifest: LayerManifest, payload: str):
    """A triplet field read one token at a time: its vector, or the message of
    the FormatError it earns. The first faulty triplet is reported, with the
    first of its faults in this order: malformed triplet, unknown layer,
    malformed number, index out of range, bad value. Only when no triplet
    has any of those is a repeat reported: the first layer, in order of
    appearance, that repeats an index, with its smallest repeated index."""
    dense = np.zeros(manifest.total_dim)
    seen: dict[str, list[int]] = {}
    for token in payload.split(" ") if payload else []:
        parts = token.rsplit(":", 2)
        if len(parts) != 3:
            return f"malformed triplet {token!r}"
        lid, i_text, v_text = parts
        if lid not in manifest:
            return f"unknown layer_id {lid!r}"
        try:
            i, v = int(i_text), float(v_text)
        except ValueError:
            return f"malformed triplet {token!r}"
        dim = manifest.dim_of(lid)
        if i < 0 or i >= dim:
            return f"layer {lid!r}: index {i} out of range (dim {dim})"
        if math.isnan(v) or math.isinf(v) or v < 0:
            return f"layer {lid!r}: bad value {v_text!r}"
        seen.setdefault(lid, []).append(i)
        dense[manifest.offset_of(lid) + i] = v
    for lid, indices in seen.items():
        repeats = [i for i, count in Counter(indices).items() if count > 1]
        if repeats:
            return f"layer {lid!r}: duplicate feature index {min(repeats)}"
    return sparsify(manifest, dense)


def reference_aggregate(images, mode: str) -> SparseActivationVector:
    """pipeline.aggregate layer by layer, in sorted layer-id order, built
    through the public constructor; the bitwise reference for the flat one.

    Within each layer the images' entries are concatenated in image order,
    so every feature sums its values in that order.
    """
    images = list(images)
    manifest = images[0].manifest
    n = len(images)
    if n == 1:
        return images[0]
    out = {}
    inv_n = 1.0 / n
    for lid in sorted({lid for img in images for lid in img.stored_layers}):
        parts = [img.layer(lid) for img in images]
        cat_idx = np.concatenate([idx for idx, _ in parts])
        cat_val = np.concatenate([val for _, val in parts])
        uniq, inverse, counts = np.unique(cat_idx, return_inverse=True, return_counts=True)
        lo = np.full(uniq.size, np.inf)
        hi = np.full(uniq.size, -np.inf)
        np.minimum.at(lo, inverse, cat_val)
        np.maximum.at(hi, inverse, cat_val)
        constant = (counts == n) & (lo == hi)
        acc = np.zeros(uniq.size)
        if mode == "arithmetic":
            np.add.at(acc, inverse, cat_val)
            mean = acc * inv_n
            keep = np.ones(uniq.size, dtype=bool)
        elif mode == "geometric":
            np.add.at(acc, inverse, np.log(cat_val))
            mean = np.exp(acc * inv_n)
            keep = counts == n
        else:
            np.add.at(acc, inverse, 1.0 / cat_val)
            with np.errstate(divide="ignore"):
                mean = n / acc
            keep = counts == n
        mean = np.where(constant, lo, mean)
        keep &= mean > 0
        if keep.any():
            out[lid] = (uniq[keep], mean[keep])
    return SparseActivationVector(manifest, out)


def floyd_warshall(weights: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths by dense relaxation; inf marks no path."""
    dist = weights.astype(np.float64, copy=True)
    n = dist.shape[0]
    for k in range(n):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist


def dijkstra(adjacency, source: int, n: int) -> list[float]:
    """Shortest path lengths from ``source`` by a heap-ordered search; inf
    marks no path. Each length is the left-to-right sum along its path."""
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


def graph_to_dense(graph) -> np.ndarray:
    """Adjacency of a NeighborGraph as a dense matrix, inf where no edge."""
    n = graph.size
    dense = np.full((n, n), np.inf)
    np.fill_diagonal(dense, 0.0)
    for i, row in enumerate(graph.adjacency):
        for j, w in row:
            dense[i, j] = w
    return dense


def random_dyadic_dmatrix(rng: np.random.Generator, n: int):
    """Symmetric distances that are exact multiples of 1/8.

    Dyadic weights make shortest-path sums exact in float64, so two correct
    all-pairs algorithms must agree bitwise.
    """
    from classvec.manifold import DistanceMatrix

    raw = rng.integers(1, 64, size=(n, n)).astype(np.float64) / 8.0
    sym = np.triu(raw, 1)
    sym = sym + sym.T
    return DistanceMatrix([f"n{i:02d}" for i in range(n)], sym)


def random_tree_edges(rng: np.random.Generator, n: int) -> list[tuple[str, str]]:
    """Random rooted tree: node i attaches below a uniformly drawn earlier node."""
    return [(f"s{i:02d}", f"s{int(rng.integers(0, i)):02d}") for i in range(1, n)]


def random_dag_edges(rng: np.random.Generator, n: int, extra: int) -> list[tuple[str, str]]:
    """Random tree plus extra child->parent links to earlier nodes.

    Raises ValueError when ``extra`` exceeds the links the tree leaves free:
    node c >= 2 may link to its c earlier nodes, one of which is its tree
    parent, which leaves (n - 1)(n - 2)/2 free links in all.
    """
    free = (n - 1) * (n - 2) // 2
    if extra > free:
        raise ValueError(f"extra={extra} exceeds the {free} free child->parent links of {n} nodes")
    edges = set(random_tree_edges(rng, n))
    added = 0
    while added < extra:
        child = int(rng.integers(2, n))
        parent = int(rng.integers(0, child))
        edge = (f"s{child:02d}", f"s{parent:02d}")
        if edge not in edges:
            edges.add(edge)
            added += 1
    return sorted(edges)


class DagOracle:
    """Brute-force reference for hierarchy queries, built per node by search."""

    def __init__(self, edges):
        self.parents = {}
        self.children = {}
        nodes = set()
        for child, parent in edges:
            nodes.add(child)
            nodes.add(parent)
            self.parents.setdefault(child, set()).add(parent)
            self.children.setdefault(parent, set()).add(child)
        self.nodes = sorted(nodes)
        self.root = next(n for n in self.nodes if n not in self.parents)
        # depth by breadth-first descent from the root, min node count
        self.depth = {self.root: 1}
        frontier = [self.root]
        while frontier:
            nxt = []
            for u in frontier:
                for c in self.children.get(u, ()):
                    if c not in self.depth:
                        self.depth[c] = self.depth[u] + 1
                        nxt.append(c)
            frontier = nxt
        self.max_depth = max(self.depth.values())

    def ancestors(self, node):
        out = {node}
        stack = [node]
        while stack:
            for p in self.parents.get(stack.pop(), ()):
                if p not in out:
                    out.add(p)
                    stack.append(p)
        return out

    def up_distances(self, node):
        dist = {node: 0}
        frontier = [node]
        while frontier:
            nxt = []
            for u in frontier:
                for p in self.parents.get(u, ()):
                    if p not in dist:
                        dist[p] = dist[u] + 1
                        nxt.append(p)
            frontier = nxt
        return dist

    def path_length(self, a, b):
        ua, ub = self.up_distances(a), self.up_distances(b)
        return min(ua[c] + ub[c] for c in set(ua) & set(ub))

    def lcs(self, a, b):
        common = self.ancestors(a) & self.ancestors(b)
        best = max(self.depth[c] for c in common)
        return min(c for c in common if self.depth[c] == best)

    def descendant_cum(self, counts):
        cum = {}
        for node in self.nodes:
            seen = {node}
            stack = [node]
            while stack:
                for c in self.children.get(stack.pop(), ()):
                    if c not in seen:
                        seen.add(c)
                        stack.append(c)
            cum[node] = sum(counts.get(s, 0) for s in seen)
        return cum
