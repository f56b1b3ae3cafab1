"""Per-image vectors to per-class embeddings.

The pipeline applies, in order: optional threshold, optional image-stage
normalization, aggregation across the class's images, optional class-stage
normalization, optional restriction to layer groups. Every stage is pure, and
summation order is canonicalized by sorting image ids, so rebuilding from
the same records is bit-reproducible regardless of input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ManifestMismatchError,
    UnknownClassError,
    ValidationError,
    ZeroVectorError,
)
from .manifold import DistanceMatrix
from .util import real, whole
from .vectors import (
    LayerManifest,
    SparseActivationVector,
    _cosine_operand,
    _sums,
    apply_threshold,
    cosine_similarity,  # unused here; perfbench/probes.py counts calls to pipeline.cosine_similarity
    euclidean_distance,
    group_tags,
    normalize_by_layer,
    normalize_whole,
    restrict_to_groups,
)

AGGREGATION_MODES = ("arithmetic", "geometric", "harmonic")
NORM_STAGES = ("image", "class", "none")
NORM_SCOPES = ("layer", "whole", "none")
DISTANCE_METRICS = ("cosine", "euclidean")


@dataclass(frozen=True)
class PipelineConfig:
    """Aggregation settings; defaults are the best-performing combination
    (arithmetic mean, class-stage normalization by layer, no threshold)."""

    aggregation: str = "arithmetic"
    norm_stage: str = "class"
    norm_scope: str = "layer"
    threshold: float | None = None
    groups: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.aggregation not in AGGREGATION_MODES:
            raise ValidationError(
                f"aggregation must be one of {AGGREGATION_MODES}, got {self.aggregation!r}"
            )
        if self.norm_stage not in NORM_STAGES:
            raise ValidationError(f"norm_stage must be one of {NORM_STAGES}, got {self.norm_stage!r}")
        if self.norm_scope not in NORM_SCOPES:
            raise ValidationError(f"norm_scope must be one of {NORM_SCOPES}, got {self.norm_scope!r}")
        if (self.norm_stage == "none") != (self.norm_scope == "none"):
            raise ValidationError("norm_scope must be 'none' exactly when norm_stage is 'none'")
        if self.threshold is not None:
            object.__setattr__(self, "threshold", float(real("threshold", self.threshold)))
            if not 0 <= self.threshold < np.inf:
                raise ValidationError(f"threshold must be finite and non-negative, got {self.threshold}")
        if self.groups is not None:
            groups = group_tags(self.groups)
            if not groups:
                raise ValidationError("groups, when given, must be non-empty")
            if len(set(groups)) != len(groups):
                raise ValidationError("groups contains duplicates")
            object.__setattr__(self, "groups", groups)


DEFAULT_CONFIG = PipelineConfig()


@dataclass(frozen=True)
class ClassEmbedding:
    """One class's aggregated vector plus its identity and image count."""

    class_id: str
    synset_id: str
    vector: SparseActivationVector
    image_count: int

    def __post_init__(self):
        count = whole(f"class {self.class_id!r}: image_count", self.image_count)
        object.__setattr__(self, "image_count", count)
        if self.image_count < 1:
            raise ValidationError(
                f"class {self.class_id!r}: image_count must be >= 1, got {self.image_count}"
            )


def _runs(vectors: Sequence[SparseActivationVector]):
    """Every stored entry sorted by (flattened index, row): the distinct keys, where each
    key's run starts (then the end), each entry's place among the vectors' entries laid
    end to end, and the entries' values, each run in row order. aggregate groups a
    class's images by feature with it; _pack adds the rows."""
    keys = np.concatenate([v._keys for v in vectors])
    order = np.argsort(keys, kind="stable")  # stable: ties keep the row order of the concatenation
    keys = keys[order]
    new = np.r_[True, keys[1:] != keys[:-1]][: keys.size]  # a key's run starts; none if empty
    start = np.r_[np.flatnonzero(new), keys.size]
    distinct = keys[start[:-1]]
    del keys  # freed before the values are sorted, to hold three entry-sized arrays at most
    values = np.concatenate([v._values for v in vectors])[order]
    return distinct, start, order, values


def _pack(vectors: Sequence[SparseActivationVector]):
    """_runs with each entry's row, the index of its vector, in place of its place:
    build_distance_matrix packs the class vectors with it."""
    distinct, start, order, values = _runs(vectors)
    rows = np.searchsorted(np.cumsum([v.nnz for v in vectors]), order, side="right")
    return distinct, start, rows, values


def aggregate(images: Sequence[SparseActivationVector], mode: str) -> SparseActivationVector:
    """Per-feature mean over all n images, counting absent entries as 0.

    arithmetic: sum/n over the union of supports. geometric ((prod)^(1/n),
    taken as exp(mean(log v))) and harmonic (n/sum(1/v)) are zero wherever
    any image lacks the feature, so their support is the intersection. A
    feature whose value is identical in every image keeps that exact value
    under all three modes. The images are grouped by feature through _runs,
    as build_distance_matrix groups class vectors, so each feature sums its
    values in the order of ``images``.
    """
    if mode not in AGGREGATION_MODES:
        raise ValidationError(f"aggregation must be one of {AGGREGATION_MODES}, got {mode!r}")
    images = list(images)
    if not images:
        raise ValidationError("cannot aggregate an empty image list")
    manifest = images[0].manifest
    for img in images[1:]:
        if img.manifest != manifest:
            raise ManifestMismatchError("aggregate: images use different manifests")
    n = len(images)
    if n == 1:
        return images[0]

    # each feature's run holds its values in image order, so it sums in that order
    distinct, start, _, values = _runs(images)
    k, first, counts = distinct.size, start[:-1], np.diff(start)
    run = np.repeat(np.arange(k), counts)
    lo, hi = np.minimum.reduceat(values, first), np.maximum.reduceat(values, first)
    constant = (counts == n) & (lo == hi)

    inv_n = 1.0 / n
    if mode == "arithmetic":
        mean = _sums(values, run, k) * inv_n
    elif mode == "geometric":
        # in log space: the product of many images' values under- or overflows
        mean = np.exp(_sums(np.log(values), run, k) * inv_n)
    else:
        with np.errstate(divide="ignore"):
            mean = n / _sums(1.0 / values, run, k)
    mean = np.where(constant, lo, mean)

    keep = ((counts == n) | (mode == "arithmetic")) & (mean > 0)
    keys, values = distinct[keep], mean[keep]
    overflowed = keys[values == np.inf]
    if overflowed.size:  # a sum of finite values; the error names the first such layer by id
        positions = np.searchsorted(manifest._starts, overflowed, side="right") - 1
        layer_id = min(manifest.layers[p].layer_id for p in positions.tolist())
        raise ValidationError(f"layer {layer_id!r}: non-finite activation value")
    return SparseActivationVector._trusted(manifest, keys, values)


def _normalize(vector: SparseActivationVector, scope: str) -> SparseActivationVector:
    if scope == "layer":
        return normalize_by_layer(vector)
    if scope == "whole":
        return normalize_whole(vector)
    return vector


def build_class_embeddings(
    records: Iterable,
    config: PipelineConfig,
    class_map: Mapping[str, str],
    manifest: LayerManifest,
    class_sizes: Mapping[str, int] | None = None,
) -> list[ClassEmbedding]:
    """Run the full pipeline; one embedding per class, sorted by class_id.

    ``records`` yields objects with image_id, class_id and vector attributes.
    Classes are processed independently; within a class, images are sorted
    by image_id so results do not depend on input order. ``class_sizes``, when
    given, holds each class's number of records: a class is aggregated, and
    its image vectors let go, as soon as its last record is read, so a file
    grouped by class is held one class at a time.
    """
    if config.groups is not None:
        manifest.layers_in_groups(config.groups)  # unknown groups fail before any record
    by_class: dict[str, dict[str, SparseActivationVector]] = {}
    done: dict[str, ClassEmbedding] = {}

    def finish(class_id: str) -> ClassEmbedding:
        images = by_class.pop(class_id)
        vecs = [images[image_id] for image_id in sorted(images)]
        if config.threshold is not None:
            vecs = [apply_threshold(v, config.threshold) for v in vecs]
        if config.norm_stage == "image":
            vecs = [_normalize(v, config.norm_scope) for v in vecs]
        combined = aggregate(vecs, config.aggregation)
        if config.norm_stage == "class":
            combined = _normalize(combined, config.norm_scope)
        if config.groups is not None:
            combined = restrict_to_groups(combined, config.groups)
        return ClassEmbedding(
            class_id=class_id,
            synset_id=class_map[class_id],
            vector=combined,
            image_count=len(images),
        )

    for rec in records:
        if rec.class_id not in class_map:
            raise UnknownClassError(f"record {rec.image_id!r}: unknown class {rec.class_id!r}")
        if rec.vector.manifest != manifest:
            raise ManifestMismatchError(
                f"record {rec.image_id!r} does not match the provided manifest"
            )
        if rec.class_id in done:
            raise ValidationError(
                f"record {rec.image_id!r}: class {rec.class_id!r} has more records "
                f"than class_sizes gives ({class_sizes[rec.class_id]})"
            )
        images = by_class.setdefault(rec.class_id, {})
        if rec.image_id in images:
            raise ValidationError(
                f"duplicate image_id {rec.image_id!r} for class {rec.class_id!r}"
            )
        images[rec.image_id] = rec.vector
        if class_sizes is not None and len(images) == class_sizes.get(rec.class_id):
            done[rec.class_id] = finish(rec.class_id)

    for class_id in list(by_class):
        done[class_id] = finish(class_id)
    return [done[class_id] for class_id in sorted(done)]


_BLOCK_CELLS = 1 << 21  # cells in one dense euclidean block: 16 MB of float64 at any row count


def _gram(distinct, start, rows, values, vectors: Sequence[SparseActivationVector]) -> np.ndarray:
    """Upper triangle and diagonal of the inner products: each entry of row i takes the
    rest of its key's run (rows j >= i), so cell (i, j) adds its terms as vectors.dot does."""
    n = len(vectors)
    seen = np.zeros(distinct.size, dtype=np.intp)  # rows so far in each key's run
    gram = np.zeros((n, n))
    for i, v in enumerate(vectors):
        col = np.searchsorted(distinct, v._keys)
        pos = start[col] + seen[col]  # row i's place in its keys' runs
        seen[col] += 1
        length = start[col + 1] - pos
        take = np.repeat(pos - (np.cumsum(length) - length), length) + np.arange(length.sum())
        gram[i] = _sums(np.repeat(v._values, length) * values[take], rows[take], n)
    return gram


def _blocks(distinct, start, rows, values, manifest: LayerManifest, n: int):
    """Dense n-row blocks of the pack: each layer's distinct keys in order, at
    most _BLOCK_CELLS cells a block; a silent layer gives no block."""
    cuts = np.searchsorted(distinct, [*manifest._starts.tolist(), manifest.total_dim]).tolist()
    width = max(1, _BLOCK_CELLS // n)
    edges = [lo for first, end in zip(cuts, cuts[1:]) for lo in range(first, end, width)] + [cuts[-1]]
    for lo, hi in zip(edges, edges[1:]):
        a, b = start[lo], start[hi]
        block = np.zeros((n, hi - lo))
        block[rows[a:b], np.repeat(np.arange(hi - lo), np.diff(start[lo : hi + 1]))] = values[a:b]
        yield block


def build_distance_matrix(
    embeddings: Sequence[ClassEmbedding], metric: str = "cosine"
) -> DistanceMatrix:
    """Pairwise distances between class vectors, rows sorted by class_id.

    cosine distance is 1 - cosine_similarity, in [0, 1] for non-negative vectors,
    bit for bit: every row is taken as cosine_similarity takes it (_cosine_operand)
    and every cell comes from _gram. euclidean is euclidean_distance: a non-zero row
    whose squared norm is not in [_SQ_LO, _SQ_HI) would overflow or underflow the
    shared sums, so it enters the _pack empty and each of its cells is
    euclidean_distance of its two vectors; every other cell comes from the _blocks,
    by explicit differences, never |a|^2 + |b|^2 - 2ab. The matrix is exactly
    symmetric with a zero diagonal, identical vectors are exactly 0 apart, and a
    zero vector under cosine raises ZeroVectorError.
    """
    if metric not in DISTANCE_METRICS:
        raise ValidationError(f"metric must be one of {DISTANCE_METRICS}, got {metric!r}")
    embeddings = sorted(embeddings, key=lambda e: e.class_id)
    if not embeddings:
        raise ValidationError("cannot build a distance matrix from zero embeddings")
    labels = [e.class_id for e in embeddings]
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate class_id among embeddings")
    vectors = [e.vector for e in embeddings]
    n = len(vectors)
    if any(v.manifest != vectors[0].manifest for v in vectors):
        raise ManifestMismatchError("build_distance_matrix: vectors use different manifests")
    if metric == "cosine" and any(v.is_zero for v in vectors):
        raise ZeroVectorError("undefined cosine for zero vector")
    if metric == "cosine":
        rows, sq = zip(*map(_cosine_operand, vectors))
        upper = np.triu(1.0 - np.minimum(1.0, _gram(*_pack(rows), rows) / np.sqrt(np.outer(sq, sq))), 1)
        return DistanceMatrix(labels, upper + upper.T)
    extreme = [_cosine_operand(v)[0] is not v for v in vectors]  # the rows cosine would rescale
    pack = _pack([SparseActivationVector.empty(v.manifest) if out else v for v, out in zip(vectors, extreme)])
    # squared distances: einsum adds each cell's terms in one order at any BLAS thread count
    acc = np.zeros((n, n))
    for block in _blocks(*pack, vectors[0].manifest, n):
        for i in range(n):
            cols = np.flatnonzero(block[i])
            if not cols.size:
                continue
            x = block[i, cols]
            diff = block[i + 1 :, cols] - x
            acc[i, i + 1 :] += np.einsum("jk,jk->j", diff, diff)
            # rows j < i: row i's entries where row j has none
            acc[:i, i] += np.einsum("jk,k->j", block[:i, cols] == 0, x * x)
    upper = np.triu(np.sqrt(acc), 1)
    for i in np.flatnonzero(extreme).tolist():
        for j in range(n):
            if j > i or j < i and not extreme[j]:  # a pair of two such rows comes once
                a, b = min(i, j), max(i, j)
                upper[a, b] = euclidean_distance(vectors[a], vectors[b])
    return DistanceMatrix(labels, upper + upper.T)
