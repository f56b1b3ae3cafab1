"""Rank correlation between vector-space and taxonomy similarities.

For each class, the other N-1 classes are ranked twice: once by vector
similarity (1 - distance) and once by a taxonomy measure. Spearman's rho of
the two rankings scores how much lexical structure the vector space
preserves; distributions of per-class rho values summarize a whole run.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CorrelationError, UnknownClassError, ValidationError
from .manifold import DistanceMatrix
from .pipeline import (
    ClassEmbedding,
    PipelineConfig,
    build_class_embeddings,
    build_distance_matrix,
)
from .taxonomy import (
    GRAPH_MEASURES,
    IC_MEASURES,
    SIMILARITY_MEASURES,
    ICTable,
    Taxonomy,
    similarity,
    similarity_matrices,
)
from .util import locked
from .vectors import LayerManifest, group_tags, restrict_to_groups

# 40 bins of width 0.05 covering [-1, 1]; edges are exact multiples of 0.05
HISTOGRAM_EDGES = locked(np.array([(i - 20) / 20.0 for i in range(41)]))


def rank_with_ties(values) -> np.ndarray:
    """1-based fractional ranks; tied values share their average position.

    Ranks always sum to n(n+1)/2 exactly, because tie averages are halves
    of integer position sums.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise CorrelationError("cannot rank an empty list")
    if not np.all(np.isfinite(arr)):
        raise CorrelationError("cannot rank non-finite values")
    _, inverse, counts = np.unique(arr, return_inverse=True, return_counts=True)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    average = starts + (counts + 1) / 2.0
    return average[inverse]


def spearman_rho(x, y) -> float:
    """Pearson correlation of tie-averaged ranks, clipped into [-1, 1].

    Rank deviations are taken from the analytic mean (n+1)/2, which the
    ranks hit exactly, so rho(x, x) is exactly 1 and rho(x, -x) exactly -1.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise CorrelationError("inputs must be 1-D and equally long")
    n = x.size
    if n < 2:
        raise CorrelationError("need at least two observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise CorrelationError("undefined correlation for constant input")
    center = (n + 1) / 2.0
    dx = rank_with_ties(x) - center
    dy = rank_with_ties(y) - center
    rho = float(np.dot(dx, dy)) / float(np.sqrt(np.dot(dx, dx) * np.dot(dy, dy)))
    return min(1.0, max(-1.0, rho))


class RhoDistribution:
    """Per-class rho values for one (measure, corpus) setting."""

    __slots__ = ("_measure", "_corpus", "_class_ids", "_rhos")

    def __init__(
        self,
        measure: str,
        corpus: str | None,
        class_ids: Sequence[str],
        rhos,
    ):
        rhos = np.array(rhos, dtype=np.float64)
        class_ids = tuple(str(c) for c in class_ids)
        if rhos.ndim != 1 or rhos.size != len(class_ids):
            raise ValidationError("one rho value per class_id required")
        if rhos.size == 0:
            raise ValidationError("distribution needs at least one class")
        if np.any(rhos < -1.0) or np.any(rhos > 1.0):
            raise ValidationError("rho values must lie in [-1, 1]")
        self._measure = str(measure)
        self._corpus = str(corpus) if corpus is not None else None
        self._class_ids = class_ids
        self._rhos = locked(rhos)

    @property
    def measure(self) -> str:
        return self._measure

    @property
    def corpus(self) -> str | None:
        return self._corpus

    @property
    def label(self) -> str:
        """Setting name: the measure, suffixed with the corpus when IC-based."""
        return self._measure if self._corpus is None else f"{self._measure}-{self._corpus}"

    @property
    def class_ids(self) -> tuple[str, ...]:
        return self._class_ids

    @property
    def rhos(self) -> np.ndarray:
        return self._rhos

    @property
    def mean(self) -> float:
        return float(np.mean(self._rhos))

    def histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """(edges, counts) with bin width 0.05 over [-1, 1]; counts sum to N."""
        counts, edges = np.histogram(self._rhos, bins=HISTOGRAM_EDGES)
        return edges, counts

    def __len__(self) -> int:
        return self._rhos.size

    def __repr__(self) -> str:
        return f"RhoDistribution({self.label}, n={len(self)}, mean={self.mean:.4f})"


def evaluate_class(
    class_id: str,
    dmatrix: DistanceMatrix,
    measure: str,
    taxonomy: Taxonomy,
    ic: ICTable | None = None,
    *,
    class_to_synset: Mapping[str, str] | None = None,
) -> float:
    """rho between one class's vector ranking and its taxonomy ranking.

    Both rankings cover the other N-1 classes and order by similarity
    descending; the vector side uses 1 - distance. ``class_to_synset`` maps
    matrix labels to synsets and defaults to the identity.
    """
    _require_three_classes(dmatrix.size)
    row = dmatrix.row(class_id)
    idx = dmatrix.index_of(class_id)
    synsets = _synsets_of(dmatrix.labels, class_to_synset)
    visual = []
    lexical = []
    for j, other in enumerate(synsets):
        if j == idx:
            continue
        visual.append(1.0 - row[j])
        lexical.append(similarity(taxonomy, measure, synsets[idx], other, ic=ic))
    return spearman_rho(visual, lexical)


def _require_three_classes(n: int) -> None:
    if n < 3:
        raise CorrelationError(f"need at least 3 classes to correlate, got {n}")


def _synsets_of(labels: Sequence[str], class_to_synset: Mapping[str, str] | None) -> Sequence[str]:
    """The synset of each matrix label; the labels themselves without a map."""
    if class_to_synset is None:
        return labels
    missing = [label for label in labels if label not in class_to_synset]
    if missing:
        raise UnknownClassError(f"class {missing[0]!r} is not in the class map")
    return [class_to_synset[label] for label in labels]


def _class_rhos(dmatrix: DistanceMatrix, lexical: np.ndarray) -> list[float]:
    """evaluate_class for every row at once, given the taxonomy similarity
    of every pair: each row leaves out the class's own column."""
    return [
        spearman_rho(1.0 - np.delete(row, i), np.delete(lex, i))
        for i, (row, lex) in enumerate(zip(dmatrix.values, lexical))
    ]


def evaluate_all(
    dmatrix: DistanceMatrix,
    taxonomy: Taxonomy,
    measures: Iterable[str] | None = None,
    ics: Mapping[str, ICTable] | None = None,
    *,
    class_to_synset: Mapping[str, str] | None = None,
) -> list[RhoDistribution]:
    """One RhoDistribution per setting: graph measures once, IC measures
    once per corpus in ``ics`` (corpora in sorted order).

    Default measures are all six when IC tables are supplied, otherwise the
    three graph measures. Each setting gives the same rhos as evaluate_class
    on every class, from one matrix of taxonomy similarities over all pairs.
    """
    ics = dict(ics) if ics else {}
    if measures is None:
        measures = SIMILARITY_MEASURES if ics else GRAPH_MEASURES
    settings: list[tuple[str, str | None]] = []
    for measure in measures:
        if measure in GRAPH_MEASURES:
            settings.append((measure, None))
        elif measure in IC_MEASURES:
            if not ics:
                raise ValidationError(
                    f"measure {measure!r} needs at least one information content table"
                )
            settings.extend((measure, corpus) for corpus in sorted(ics))
        else:
            raise ValidationError(
                f"unknown measure {measure!r}; choose from {SIMILARITY_MEASURES}"
            )

    _require_three_classes(dmatrix.size)
    labels = dmatrix.labels
    lexical = similarity_matrices(
        taxonomy,
        _synsets_of(labels, class_to_synset),
        [(measure, ics[corpus] if corpus is not None else None) for measure, corpus in settings],
    )
    return [
        RhoDistribution(measure, corpus, labels, _class_rhos(dmatrix, next(lexical)))
        for measure, corpus in settings
    ]


class SweepEntry:
    """Mean rho for one group restriction in a layer-subset sweep."""

    __slots__ = ("label", "groups", "mean_rho", "n_classes")

    def __init__(self, label: str, groups: tuple[str, ...] | None, mean_rho: float, n_classes: int):
        self.label = label
        self.groups = groups
        self.mean_rho = mean_rho
        self.n_classes = n_classes

    def __repr__(self) -> str:
        return f"SweepEntry({self.label}: mean_rho={self.mean_rho:.4f}, n={self.n_classes})"


def layer_subset_sweep(
    records: Sequence,
    config: PipelineConfig,
    group_sets: Sequence[Iterable[str] | None],
    taxonomy: Taxonomy,
    class_map: Mapping[str, str],
    manifest: LayerManifest,
    measure: str = "path",
    *,
    ic: ICTable | None = None,
    metric: str = "cosine",
) -> list[SweepEntry]:
    """Mean rho when embeddings are restricted to each group set in turn.

    ``None`` in ``group_sets`` means no restriction (labelled "all").
    Restriction is the final pipeline stage, so the unrestricted embeddings
    are built once and filtered per entry; the taxonomy side does not change
    between entries and is computed once.
    """
    if not group_sets:
        raise ValidationError("group_sets must name at least one subset")
    unrestricted = build_class_embeddings(
        list(records), replace(config, groups=None), class_map, manifest
    )
    _require_three_classes(len(unrestricted))
    # rows in build_distance_matrix's order, which sorts by class_id
    labels = sorted(e.class_id for e in unrestricted)
    (lexical,) = similarity_matrices(taxonomy, [class_map[c] for c in labels], [(measure, ic)])
    entries = []
    for groups in group_sets:
        if groups is None:
            label, cfg_groups = "all", None
            embeddings = unrestricted
        else:
            cfg_groups = group_tags(groups)
            if not cfg_groups:
                raise ValidationError("a sweep group set may not be empty")
            label = ",".join(cfg_groups)
            embeddings = [
                ClassEmbedding(
                    class_id=e.class_id,
                    synset_id=e.synset_id,
                    vector=restrict_to_groups(e.vector, cfg_groups),
                    image_count=e.image_count,
                )
                for e in unrestricted
            ]
        rhos = _class_rhos(build_distance_matrix(embeddings, metric), lexical)
        entries.append(SweepEntry(label, cfg_groups, float(np.mean(rhos)), len(rhos)))
    return entries
