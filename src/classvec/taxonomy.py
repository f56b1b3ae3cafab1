"""Rooted hypernym hierarchy and the six concept similarity measures.

The hierarchy is a single-rooted DAG: every non-root synset has one or more
parents and the root has none. Depth counts nodes from the root (root depth
is 1) and multi-parent nodes take the minimum over their parents. Three
measures need only the graph (path, lch, wup); three weigh concepts by
corpus information content (res, jcn, lin). ``similarity`` scores one pair;
``similarity_matrices`` scores every pair of a synset list at once, with the
same bits.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import TaxonomyError, UnknownSynsetError, ValidationError

JCN_MIN_DISTANCE = 1e-10


class Taxonomy:
    """Immutable single-rooted acyclic hierarchy with precomputed ancestry.

    Ancestry is kept once, as per-node upward distances: the minimal edge
    count from the node to each of its ancestors, itself included at 0. Its
    keys are the node's ancestor set, so shortest connecting paths and
    deepest common subsumers are dictionary lookups.
    """

    __slots__ = ("_parents", "_root", "_depth", "_updist", "_max_depth")

    def __init__(self, edges: Iterable[tuple[str, str]]):
        parents: dict[str, set[str]] = {}
        children: dict[str, set[str]] = {}
        nodes: set[str] = set()
        for child, parent in edges:
            child, parent = str(child), str(parent)
            if child == parent:
                raise TaxonomyError(f"self-loop at {child!r}")
            nodes.add(child)
            nodes.add(parent)
            parents.setdefault(child, set()).add(parent)
            children.setdefault(parent, set()).add(child)
        if not nodes:
            raise TaxonomyError("taxonomy has no edges")

        roots = sorted(n for n in nodes if n not in parents)
        if len(roots) != 1:
            raise TaxonomyError(f"expected exactly one root, found {len(roots)}: {roots[:5]}")
        root = roots[0]

        # Kahn order over parent -> child edges; leftovers mean a cycle.
        pending = {n: len(parents.get(n, ())) for n in nodes}
        order: list[str] = []
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for c in sorted(children.get(u, ())):
                pending[c] -= 1
                if pending[c] == 0:
                    queue.append(c)
        if len(order) != len(nodes):
            stuck = sorted(n for n in nodes if pending[n] > 0)
            raise TaxonomyError(f"cycle detected involving {stuck[:5]}")

        depth: dict[str, int] = {}
        updist: dict[str, dict[str, int]] = {}
        for node in order:
            ps = parents.get(node, set())
            if not ps:
                depth[node] = 1
                updist[node] = {node: 0}
                continue
            depth[node] = 1 + min(depth[p] for p in ps)
            merged: dict[str, int] = {node: 0}
            for p in ps:
                for a, dist in updist[p].items():
                    alt = dist + 1
                    if alt < merged.get(a, alt + 1):
                        merged[a] = alt
            updist[node] = merged

        self._parents = {n: frozenset(parents.get(n, ())) for n in nodes}
        self._root = root
        self._depth = depth
        self._updist = updist
        self._max_depth = max(depth.values())

    @property
    def root(self) -> str:
        return self._root

    @property
    def synsets(self) -> tuple[str, ...]:
        return tuple(sorted(self._parents))

    @property
    def max_depth(self) -> int:
        """Deepest node depth D, counted in nodes with depth(root) = 1."""
        return self._max_depth

    def __contains__(self, synset: str) -> bool:
        return synset in self._parents

    def __len__(self) -> int:
        return len(self._parents)

    def _require(self, synset: str) -> str:
        if synset not in self._parents:
            raise UnknownSynsetError(f"synset {synset!r} not in taxonomy")
        return synset

    def parents(self, synset: str) -> frozenset[str]:
        return self._parents[self._require(synset)]

    def depth(self, synset: str) -> int:
        return self._depth[self._require(synset)]

    def ancestors(self, synset: str) -> frozenset[str]:
        """All hypernyms of the synset, itself included."""
        return frozenset(self._updist[self._require(synset)])

    def lcs(self, a: str, b: str) -> str:
        """Deepest common subsumer; depth ties go to the smallest synset_id."""
        common = self._updist[self._require(a)].keys() & self._updist[self._require(b)].keys()
        return min(common, key=lambda s: (-self._depth[s], s))

    def path_length(self, a: str, b: str) -> int:
        """Minimal edge count of a path joining a and b via a common ancestor."""
        ua = self._updist[self._require(a)]
        ub = self._updist[self._require(b)]
        if len(ub) < len(ua):
            ua, ub = ub, ua
        return min(d + ub[c] for c, d in ua.items() if c in ub)

    def __repr__(self) -> str:
        return f"Taxonomy(n={len(self._parents)}, max_depth={self._max_depth})"


class ICTable:
    """Information content per synset from cumulative corpus counts.

    cum(s) is the synset's own count plus every distinct descendant's count
    (each node counted once even when reachable along several paths);
    ic(s) = -ln(cum(s)/cum(root)). Rarer concepts carry more content and
    the root always has ic 0.
    """

    __slots__ = ("_cum", "_total", "_ic")

    def __init__(self, cumulative: Mapping[str, int]):
        cum = {str(k): int(v) for k, v in cumulative.items()}
        if not cum:
            raise TaxonomyError("information content table is empty")
        total = max(cum.values())
        if total <= 0:
            raise TaxonomyError("cumulative counts are all zero")
        self._cum = cum
        self._total = total
        self._ic = {
            s: (-math.log(c / total) if c > 0 else math.inf) for s, c in cum.items()
        }

    @classmethod
    def from_counts(cls, taxonomy: Taxonomy, counts: Mapping[str, int]) -> "ICTable":
        """Accumulate raw per-synset counts up every ancestor chain.

        Synsets absent from ``counts`` contribute 0; synsets unknown to the
        taxonomy are rejected rather than silently dropped.
        """
        own: dict[str, int] = {}
        for synset, count in counts.items():
            synset = str(synset)
            if synset not in taxonomy:
                raise UnknownSynsetError(f"count for unknown synset {synset!r}")
            count = int(count)
            if count < 0:
                raise ValidationError(f"negative count for synset {synset!r}")
            own[synset] = count
        cum = {s: 0 for s in taxonomy.synsets}
        for synset, count in own.items():
            for a in taxonomy._updist[synset]:
                cum[a] += count
        return cls(cum)

    @property
    def total(self) -> int:
        return self._total

    def __contains__(self, synset: str) -> bool:
        return synset in self._cum

    def cum(self, synset: str) -> int:
        try:
            return self._cum[synset]
        except KeyError:
            raise UnknownSynsetError(f"synset {synset!r} missing from IC table") from None

    def ic(self, synset: str) -> float:
        try:
            return self._ic[synset]
        except KeyError:
            raise UnknownSynsetError(f"synset {synset!r} missing from IC table") from None

    def __repr__(self) -> str:
        return f"ICTable(n={len(self._cum)}, total={self._total})"


def path_sim(taxonomy: Taxonomy, a: str, b: str) -> float:
    """1 / (1 + shortest connecting path length in edges)."""
    return 1.0 / (1.0 + taxonomy.path_length(a, b))


def lch_sim(taxonomy: Taxonomy, a: str, b: str) -> float:
    """-ln((len + 1) / (2 * D)) with D the taxonomy's maximum node depth."""
    length = taxonomy.path_length(a, b)
    return -math.log((length + 1) / (2.0 * taxonomy.max_depth))


def wup_sim(taxonomy: Taxonomy, a: str, b: str) -> float:
    """2 * depth(lcs) / (depth(a) + depth(b)), depths counted in nodes."""
    shared = taxonomy.lcs(a, b)
    return 2.0 * taxonomy.depth(shared) / (taxonomy.depth(a) + taxonomy.depth(b))


def res_sim(taxonomy: Taxonomy, a: str, b: str, ic: ICTable) -> float:
    """Information content of the deepest common subsumer."""
    taxonomy._require(a)
    taxonomy._require(b)
    return ic.ic(taxonomy.lcs(a, b))


def jcn_sim(taxonomy: Taxonomy, a: str, b: str, ic: ICTable) -> float:
    """Inverse of the ic distance ic(a) + ic(b) - 2 * ic(lcs).

    The distance is clamped below at 1e-10, so identical concepts score
    1e10 instead of dividing by zero.
    """
    dist = ic.ic(a) + ic.ic(b) - 2.0 * res_sim(taxonomy, a, b, ic)
    return 1.0 / max(dist, JCN_MIN_DISTANCE)


def lin_sim(taxonomy: Taxonomy, a: str, b: str, ic: ICTable) -> float:
    """2 * ic(lcs) / (ic(a) + ic(b)), with 0/0 defined as 0."""
    denom = ic.ic(a) + ic.ic(b)
    num = 2.0 * res_sim(taxonomy, a, b, ic)
    if num == 0.0:
        return 0.0
    if math.isinf(denom):
        return 0.0
    return num / denom


_GRAPH_MEASURES = {"path": path_sim, "lch": lch_sim, "wup": wup_sim}
_IC_MEASURES = {"res": res_sim, "jcn": jcn_sim, "lin": lin_sim}

GRAPH_MEASURES: tuple[str, ...] = tuple(_GRAPH_MEASURES)
IC_MEASURES: tuple[str, ...] = tuple(_IC_MEASURES)
SIMILARITY_MEASURES: tuple[str, ...] = GRAPH_MEASURES + IC_MEASURES


def _check_measure(measure: str, ic: ICTable | None) -> None:
    if measure in _IC_MEASURES and ic is None:
        raise ValidationError(f"measure {measure!r} needs an information content table")
    if measure not in _GRAPH_MEASURES and measure not in _IC_MEASURES:
        raise ValidationError(f"unknown measure {measure!r}; choose from {SIMILARITY_MEASURES}")


def similarity(
    taxonomy: Taxonomy,
    measure: str,
    a: str,
    b: str,
    ic: ICTable | None = None,
) -> float:
    """Dispatch one of the six measures by name; ic ones require an ICTable."""
    _check_measure(measure, ic)
    if measure in _GRAPH_MEASURES:
        return _GRAPH_MEASURES[measure](taxonomy, a, b)
    return _IC_MEASURES[measure](taxonomy, a, b, ic)


def similarity_matrices(
    taxonomy: Taxonomy,
    synsets: Sequence[str],
    settings: Iterable[tuple[str, ICTable | None]],
) -> Iterator[np.ndarray]:
    """Yield, per (measure, ic) setting in turn, the n x n matrix whose [i, j]
    is similarity(taxonomy, measure, synsets[i], synsets[j], ic), bit for bit.

    Two int32 tables over all pairs are built once: the shortest connecting
    path length, and the rank of the deepest common subsumer in
    (-depth, synset_id) order, which is the tie rule of Taxonomy.lcs. Every
    measure is then an elementwise formula over the tables that repeats the
    float operations of its *_sim function. Only the matrix being yielded is
    held, so a caller that drops each one before asking for the next keeps
    one float matrix alive at a time.
    """
    settings = list(settings)
    for measure, ic in settings:
        _check_measure(measure, ic)
    synsets = [taxonomy._require(s) for s in synsets]
    path_len, lcs_rank, ranked = _pair_tables(taxonomy, synsets)
    for measure, ic in settings:
        yield _measure_matrix(taxonomy, measure, ic, synsets, path_len, lcs_rank, ranked)


def _pair_tables(
    taxonomy: Taxonomy, synsets: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """path_len and lcs_rank over every pair of ``synsets``, and the ranked
    shared ancestors that lcs_rank indexes.

    Both cells are minima over the pair's shared ancestors, so each ancestor
    updates the block of rows below it: sum over ancestors of |below|^2 cells.
    """
    below: dict[str, tuple[list[int], list[int]]] = {}
    for row, synset in enumerate(synsets):
        for ancestor, dist in taxonomy._updist[synset].items():
            rows, dists = below.setdefault(ancestor, ([], []))
            rows.append(row)
            dists.append(dist)
    ranked = sorted(below, key=lambda s: (-taxonomy._depth[s], s))
    n = len(synsets)
    path_len = np.full((n, n), np.iinfo(np.int32).max, dtype=np.int32)
    lcs_rank = np.empty((n, n), dtype=np.int32)
    # Highest rank first, so the rank a pair keeps is its smallest. The root
    # has the highest rank and sits above every row, so it fills both tables.
    for rank in range(len(ranked) - 1, -1, -1):
        rows, dists = below[ranked[rank]]
        up = np.array(dists, dtype=np.int32)
        block = np.ix_(rows, rows)
        path_len[block] = np.minimum(path_len[block], up[:, None] + up[None, :])
        lcs_rank[block] = rank
    return path_len, lcs_rank, ranked


def _measure_matrix(
    taxonomy: Taxonomy,
    measure: str,
    ic: ICTable | None,
    synsets: Sequence[str],
    path_len: np.ndarray,
    lcs_rank: np.ndarray,
    ranked: Sequence[str],
) -> np.ndarray:
    """One measure over all pairs, in the float operations of its *_sim."""
    if measure == "path":
        return 1.0 / (1.0 + path_len)
    if measure == "lch":
        # math.log per distinct length: np.log may differ from it in the last bit
        lookup = np.array(
            [
                -math.log((length + 1) / (2.0 * taxonomy.max_depth))
                for length in range(int(path_len.max()) + 1)
            ]
        )
        return lookup[path_len]
    if measure == "wup":
        lcs_depth = np.array([taxonomy._depth[s] for s in ranked])
        depth = np.array([taxonomy._depth[s] for s in synsets])
        return 2.0 * lcs_depth[lcs_rank] / (depth[:, None] + depth[None, :])

    res = np.array([ic._ic.get(s, math.nan) for s in ranked])[lcs_rank]
    missing = lcs_rank[np.isnan(res)]
    if missing.size:
        raise UnknownSynsetError(f"synset {ranked[missing[0]]!r} missing from IC table")
    if measure == "res":
        return res
    own = np.array([ic.ic(s) for s in synsets])
    ic_sum = own[:, None] + own[None, :]
    # lin's zeros are chosen first; then res holds the formula's steps in place
    zeros = (res == 0.0) | np.isinf(ic_sum) if measure == "lin" else None
    res *= 2.0
    # inf - inf and inf / inf give nan here exactly as in the scalar code
    with np.errstate(divide="ignore", invalid="ignore"):
        if measure == "jcn":
            np.maximum(np.subtract(ic_sum, res, out=res), JCN_MIN_DISTANCE, out=res)
            return np.divide(1.0, res, out=res)
        res /= ic_sum
    res[zeros] = 0.0
    return res
