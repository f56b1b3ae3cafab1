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
# cosine_similarity is not called here; perfbench/probes.py counts per-pair
# cosines by wrapping the name classvec.pipeline.cosine_similarity
from .vectors import (  # noqa: F401
    LayerManifest,
    SparseActivationVector,
    _sq_norm,
    apply_threshold,
    cosine_similarity,
    euclidean_distance,
    layer_blocks,
    normalize_by_layer,
    normalize_whole,
    restrict_to_groups,
)

AGGREGATION_MODES = ("arithmetic", "geometric", "harmonic")
NORM_STAGES = ("image", "class", "none")
NORM_SCOPES = ("layer", "whole", "none")
DISTANCE_METRICS = ("cosine", "euclidean")
_SQ_LO, _SQ_HI = np.sqrt(np.finfo(np.float64).tiny), np.sqrt(np.finfo(np.float64).max)


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
            object.__setattr__(self, "threshold", float(self.threshold))
            if self.threshold < 0:
                raise ValidationError(f"threshold must be non-negative, got {self.threshold}")
        if self.groups is not None:
            groups = tuple(str(g) for g in self.groups)
            if not groups:
                raise ValidationError("groups, when given, must be non-empty")
            if len(set(groups)) != len(groups):
                raise ValidationError("groups contains duplicates")
            object.__setattr__(self, "groups", groups)

    def to_dict(self) -> dict:
        return {
            "aggregation": self.aggregation,
            "norm_stage": self.norm_stage,
            "norm_scope": self.norm_scope,
            "threshold": self.threshold,
            "groups": list(self.groups) if self.groups is not None else None,
        }

    @classmethod
    def from_dict(cls, raw: Mapping) -> "PipelineConfig":
        known = {"aggregation", "norm_stage", "norm_scope", "threshold", "groups"}
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        if kwargs.get("groups") is not None:
            kwargs["groups"] = tuple(kwargs["groups"])
        return cls(**kwargs)


DEFAULT_CONFIG = PipelineConfig()


@dataclass(frozen=True)
class ClassEmbedding:
    """One class's aggregated vector plus its identity and image count."""

    class_id: str
    synset_id: str
    vector: SparseActivationVector
    image_count: int

    def __post_init__(self):
        if self.image_count < 1:
            raise ValidationError(
                f"class {self.class_id!r}: image_count must be >= 1, got {self.image_count}"
            )


def aggregate(images: Sequence[SparseActivationVector], mode: str) -> SparseActivationVector:
    """Per-feature mean over all n images, counting absent entries as 0.

    arithmetic: sum/n over the union of supports. geometric ((prod)^(1/n),
    taken as exp(mean(log v))) and harmonic (n/sum(1/v)) are zero wherever
    any image lacks the feature, so their support is the intersection. A feature whose value is identical
    in every image keeps that exact value under all three modes. Each feature
    sums its values in the order of ``images``.
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

    # every image's flat entries in image order, so each feature sums in that order
    keys = np.concatenate([img._keys for img in images])
    values = np.concatenate([img._values for img in images])
    uniq, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)

    lo = np.full(uniq.size, np.inf)
    hi = np.full(uniq.size, -np.inf)
    np.minimum.at(lo, inverse, values)
    np.maximum.at(hi, inverse, values)
    constant = (counts == n) & (lo == hi)

    inv_n = 1.0 / n
    acc = np.zeros(uniq.size)
    if mode == "arithmetic":
        np.add.at(acc, inverse, values)
        mean = acc * inv_n
        keep = np.ones(uniq.size, dtype=bool)
    elif mode == "geometric":
        # in log space: the product of many images' values under- or overflows
        np.add.at(acc, inverse, np.log(values))
        mean = np.exp(acc * inv_n)
        keep = counts == n
    else:
        np.add.at(acc, inverse, 1.0 / values)
        with np.errstate(divide="ignore"):
            mean = n / acc
        keep = counts == n
    mean = np.where(constant, lo, mean)

    keep &= mean > 0
    keys, values = uniq[keep], mean[keep]
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


def build_distance_matrix(
    embeddings: Sequence[ClassEmbedding], metric: str = "cosine"
) -> DistanceMatrix:
    """Pairwise distances between class vectors, rows sorted by class_id.

    cosine distance is 1 - cosine_similarity and lies in [0, 1] for
    non-negative vectors; euclidean is euclidean_distance. Both come from one
    pass over the vectors' layer_blocks: cosine from the summed inner
    products, with the norms taken from their diagonal, and euclidean from
    explicit differences, never from |a|^2 + |b|^2 - 2ab. The upper triangle
    is mirrored, so the matrix is exactly symmetric with a zero diagonal, and
    identical vectors are exactly 0 apart. Any zero vector under cosine
    raises ZeroVectorError.

    A row whose squared norm is not in [_SQ_LO, _SQ_HI) would overflow or
    underflow the sums: cosine takes it at unit length, as cosine_similarity
    does, and euclidean, when such a row is not zero, fills every cell with
    euclidean_distance, which scales each pair by its own largest value.
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
    extreme = [not _SQ_LO <= _sq_norm(v) < _SQ_HI for v in vectors]
    if metric == "cosine":
        vectors = [normalize_whole(v) if out else v for v, out in zip(vectors, extreme)]
    elif any(out and not v.is_zero for v, out in zip(vectors, extreme)):
        upper = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                upper[i, j] = euclidean_distance(vectors[i], vectors[j])
        return DistanceMatrix(labels, upper + upper.T)

    # Upper triangle: inner products (cosine) or squared distances (euclidean).
    # Row i adds the terms at its own stored columns with einsum, so each cell
    # sums its terms in one fixed order whatever the BLAS build or thread count.
    acc = np.zeros((n, n))
    for block in layer_blocks(vectors):
        for i in range(n):
            cols = np.flatnonzero(block[i])
            if not cols.size:
                continue
            x = block[i, cols]
            if metric == "cosine":
                # all n rows, not rows i..: einsum sums a one-row operand in another
                # order than a taller one, and a duplicate of the last row then
                # missed its diagonal by an ulp
                acc[i, i:] += np.einsum("jk,k->j", block[:, cols], x)[i:]
            else:
                diff = block[i + 1 :, cols] - x
                acc[i, i + 1 :] += np.einsum("jk,jk->j", diff, diff)
                # rows j < i: row i's entries where row j has none
                acc[:i, i] += np.einsum("jk,k->j", block[:i, cols] == 0, x * x)
    if metric == "cosine":
        sq = acc.diagonal().copy()
        if not np.all(sq > 0):
            raise ZeroVectorError("undefined cosine for zero vector")
        acc = 1.0 - np.minimum(1.0, acc / np.sqrt(np.outer(sq, sq)))
    else:
        acc = np.sqrt(acc)
    upper = np.triu(acc, 1)
    return DistanceMatrix(labels, upper + upper.T)
