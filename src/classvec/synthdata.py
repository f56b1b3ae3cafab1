"""Deterministic synthetic activations with planted taxonomy structure.

Classes are the leaves of a balanced random hierarchy. Every hierarchy node
owns a DISJOINT feature block inside every layer, and each image of a class
activates the blocks of all the class's ancestors, scaled by its layer
group's signal weight and jittered by the noise scale. Taxonomically close
classes therefore share more active features, which makes class-pair cosine
similarity a closed-form function of shared ancestry:

    cosine(c1, c2) = |anc(c1) & anc(c2)| / sqrt(|anc(c1)| * |anc(c2)|)

exactly, at noise 0, under the default pipeline (any per-layer-constant
signal weights cancel during normalization). Background noise occupies a
reserved index range past the signal blocks, so it never collides with
signal features.

All randomness flows from one seeded generator (numpy PCG64, algorithm
recorded in the metadata file), and generation is single-threaded, so equal
specs produce byte-identical files. The draws come in this order: the
hierarchy's leaf shuffle, one corpus count per taxonomy node, one image
count per class, then class by class, four arrays covering all of the
class's images at once:

1. signal jitter, images x live layers x signal entries;
2. background counts, images x layers, each in 2..MAX_BACKGROUND;
3. background indices, MAX_BACKGROUND rounds of Floyd's sampling, one
   images x layers array of integers per round: round j of an image x
   layer with n background entries and s background indices draws from
   0..s-n+j and takes s-n+j instead if the draw was chosen before, so its
   n indices are a uniform n-subset of 0..s-1 (rounds j >= n are drawn
   and dropped);
4. background values, images x layers x MAX_BACKGROUND: the first n of
   an image x layer go to its n background indices in ascending order.

At noise 0 a class draws nothing, and all its images are one vector. The
metadata's generator_version changes whenever this order, or anything else
that shapes the bytes, changes.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import io as cvio
from .errors import ValidationError
from .util import whole
from .vectors import LayerManifest, SparseActivationVector

DEFAULT_GROUPS = ("3a", "3b", "4a", "4b", "4c", "4d", "4e", "5a", "5b")
KERNELS = ("1x1", "3x3", "5x5")
RNG_ALGORITHM = "numpy.random.default_rng (PCG64)"
# Bumped whenever the same spec starts giving different bytes.
GENERATOR_VERSION = 2
# Background entries per image x layer are drawn from 2..MAX_BACKGROUND.
MAX_BACKGROUND = 5


def _real(name: str, value):
    """A real-number field's value as given; a string or a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return value


@dataclass(frozen=True)
class GeneratorSpec:
    """Knobs for one synthetic dataset; equal specs give identical bytes."""

    seed: int = 0
    n_classes: int = 50
    images_per_class: tuple[int, int] = (11, 32)
    block_size: int = 4
    noise_scale: float = 0.0
    branching: int = 4
    group_weights: Mapping[str, float] | None = None
    manifest: LayerManifest | None = None

    def __post_init__(self):
        for name in ("seed", "n_classes", "block_size", "branching"):
            object.__setattr__(self, name, whole(name, getattr(self, name)))
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.n_classes < 2:
            raise ValidationError(f"need at least 2 classes, got {self.n_classes}")
        try:
            lo, hi = self.images_per_class
        except (TypeError, ValueError):
            raise ValidationError(
                f"images_per_class must be a (min, max) pair, got {self.images_per_class!r}"
            ) from None
        lo, hi = whole("images_per_class", lo), whole("images_per_class", hi)
        if not (1 <= lo <= hi):
            raise ValidationError(f"bad images_per_class range {self.images_per_class}")
        object.__setattr__(self, "images_per_class", (lo, hi))
        if self.block_size < 1:
            raise ValidationError(f"block_size must be >= 1, got {self.block_size}")
        if not 0 <= _real("noise_scale", self.noise_scale) < np.inf:
            raise ValidationError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        if self.branching < 2:
            raise ValidationError(f"branching must be >= 2, got {self.branching}")
        if self.group_weights is not None:
            if not isinstance(self.group_weights, Mapping):
                raise ValidationError(f"group_weights must be a mapping, got {self.group_weights!r}")
            weights = {str(g): float(_real("group_weights", w)) for g, w in self.group_weights.items()}
            if any(not 0 <= w < np.inf for w in weights.values()):
                raise ValidationError("group_weights must be finite and non-negative")
            object.__setattr__(self, "group_weights", weights)
        if self.manifest is not None and not isinstance(self.manifest, LayerManifest):
            raise ValidationError(f"manifest must be a LayerManifest, got {self.manifest!r}")
        # the largest value a spec can draw: a signal entry of its heaviest group at
        # the top of the jitter, or a background entry; _quantize scales it by 1e4
        groups = self.manifest.groups if self.manifest is not None else DEFAULT_GROUPS
        heaviest = max([1.0, *(w for g, w in (self.group_weights or {}).items() if g in groups)])
        top = max(heaviest * (1.0 + self.noise_scale / 2), self.noise_scale)
        if not top * 1e4 < np.inf:
            raise ValidationError(
                f"noise_scale {self.noise_scale:g} with group weights up to {heaviest:g} "
                "draws values past the largest value on the 1e-4 grid"
            )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_classes": self.n_classes,
            "images_per_class": list(self.images_per_class),
            "block_size": self.block_size,
            "noise_scale": self.noise_scale,
            "branching": self.branching,
            "group_weights": dict(self.group_weights) if self.group_weights else None,
            "manifest": (
                [[s.layer_id, s.group, s.dim] for s in self.manifest]
                if self.manifest is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, raw: Mapping) -> "GeneratorSpec":
        kwargs = dict(raw)
        if kwargs.get("images_per_class") is not None:
            kwargs["images_per_class"] = tuple(kwargs["images_per_class"])
        if kwargs.get("manifest") is not None:
            kwargs["manifest"] = LayerManifest(
                [(lid, grp, dim) for lid, grp, dim in kwargs["manifest"]]
            )
        return cls(**kwargs)


def _build_hierarchy(rng: np.random.Generator, n_classes: int, branching: int):
    """Balanced random tree: shuffled leaves chunked level by level.

    Returns (child -> parent edges sorted, leaf synsets in class order)."""
    leaves = [f"n{i + 1:08d}" for i in range(n_classes)]
    order = [leaves[i] for i in rng.permutation(n_classes)]
    edges: list[tuple[str, str]] = []
    next_internal = 0
    level = order
    while len(level) > 1:
        parents = []
        for start in range(0, len(level), branching):
            parent = f"i{next_internal:06d}"
            next_internal += 1
            for child in level[start : start + branching]:
                edges.append((child, parent))
            parents.append(parent)
        level = parents
    return sorted(edges), leaves


def _signal_manifest(n_nodes: int, block_size: int) -> LayerManifest:
    """27 layers (9 groups x 3 kernels), each wide enough for every block
    plus a reserved background-noise range."""
    capacity = n_nodes * block_size
    dim = capacity + max(16, capacity // 4)
    return LayerManifest(
        [(f"{g}_{k}", g, dim) for g in DEFAULT_GROUPS for k in KERNELS]
    )


def _quantize(values: np.ndarray) -> np.ndarray:
    """Values on the 1e-4 grid, floored at its first step."""
    return np.maximum(np.round(values, 4), 1e-4)


def closed_form_cosine(ancestors_a: frozenset, ancestors_b: frozenset) -> float:
    """Expected class-pair cosine at noise 0 under the default pipeline."""
    shared = len(ancestors_a & ancestors_b)
    return shared / float(np.sqrt(len(ancestors_a) * len(ancestors_b)))


def generate(spec: GeneratorSpec, out_dir) -> dict[str, Path]:
    """Write the five dataset files plus metadata; return their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    edges, leaves = _build_hierarchy(rng, spec.n_classes, spec.branching)
    synsets = sorted({s for e in edges for s in e})
    parent_of: dict[str, str] = {c: p for c, p in edges}

    def ancestors(s: str) -> list[str]:
        chain = [s]
        while chain[-1] in parent_of:
            chain.append(parent_of[chain[-1]])
        return chain

    n_nodes = len(synsets)
    manifest = spec.manifest
    if manifest is None:
        manifest = _signal_manifest(n_nodes, spec.block_size)
    capacity = n_nodes * spec.block_size
    for layer in manifest:
        if layer.dim < capacity:
            raise ValidationError(
                f"layer {layer.layer_id!r} dim {layer.dim} cannot hold "
                f"{n_nodes} blocks of size {spec.block_size}"
            )
    block_of = {s: i * spec.block_size for i, s in enumerate(synsets)}
    weights = dict(spec.group_weights or {})

    class_ids = [f"c{i:04d}" for i in range(spec.n_classes)]
    class_map = dict(zip(class_ids, leaves))
    counts = {s: int(rng.integers(1, 100)) for s in synsets}

    lo, hi = spec.images_per_class
    image_counts = {cid: int(rng.integers(lo, hi + 1)) for cid in class_ids}

    block = spec.block_size
    noise = spec.noise_scale
    n_layers = len(manifest)
    spare = np.array([layer.dim for layer in manifest]) - capacity
    if noise > 0 and spare.min() < MAX_BACKGROUND:
        layer = manifest.layers[int(spare.argmin())]
        raise ValidationError(
            f"layer {layer.layer_id!r} dim {layer.dim} leaves {layer.dim - capacity} "
            f"background indices past the signal blocks; noise needs {MAX_BACKGROUND}"
        )
    layer_weight = np.array([weights.get(layer.group, 1.0) for layer in manifest])
    live = np.flatnonzero(layer_weight > 0)

    def class_vectors(signal: np.ndarray, n_images: int) -> list[SparseActivationVector]:
        """The vectors of one class's images, every draw made for all of them at once.
        Each image's flat keys rise and _quantize keeps its values > 0, so they are trusted."""
        size = signal.size
        if noise == 0:
            # every image of the class is the same vector
            keys = (manifest._starts[live][:, None] + signal).ravel()
            values = np.repeat(_quantize(layer_weight[live]), size)
            return [SparseActivationVector._trusted(manifest, keys, values)] * n_images
        jitter = rng.random((n_images, live.size, size))
        n_background = rng.integers(2, MAX_BACKGROUND + 1, size=(n_images, n_layers))
        # Floyd's sampling, one round per background slot; unused slots sort last
        background = np.empty((n_images, n_layers, MAX_BACKGROUND), dtype=np.int64)
        for j in range(MAX_BACKGROUND):
            top = spare - n_background + j
            draw = rng.integers(0, top + 1)
            taken = (background[..., :j] == draw[..., None]).any(axis=2)
            background[..., j] = np.where(taken, top, draw)
        used = np.arange(MAX_BACKGROUND) < n_background[..., None]
        background[~used] = spare.max()
        background.sort(axis=2)
        background_values = rng.random((n_images, n_layers, MAX_BACKGROUND))

        # (image, layer, slot) tables: the signal slots, then the background
        # slots, so the kept entries of each image are in (layer, index) order
        shape = (n_images, n_layers, size + MAX_BACKGROUND)
        idx = np.empty(shape, dtype=np.int64)
        idx[..., :size] = signal
        idx[..., size:] = capacity + background
        val = np.zeros(shape)
        val[:, live, :size] = layer_weight[live, None] * (1.0 + noise * (jitter - 0.5))
        val[..., size:] = noise * (0.05 + 0.95 * background_values)
        keep = np.empty(shape, dtype=bool)
        keep[..., :size] = (layer_weight > 0)[:, None]
        keep[..., size:] = used
        keys = (manifest._starts[:, None] + idx)[keep]  # the flattened index
        val = _quantize(val[keep])
        ends = np.cumsum(keep.sum(axis=(1, 2))).tolist()
        return [
            SparseActivationVector._trusted(manifest, keys[a:b], val[a:b])
            for a, b in zip([0, *ends], ends)
        ]

    def make_records():
        for cid in class_ids:
            starts = sorted(block_of[a] for a in ancestors(class_map[cid]))
            signal = (np.array(starts)[:, None] + np.arange(block)).ravel()
            for img, vector in enumerate(class_vectors(signal, image_counts[cid])):
                yield cvio.ActivationRecord(f"{cid}_img{img:03d}", cid, vector)

    paths = {
        "manifest": out / "manifest.tsv",
        "activations": out / "activations.tsv",
        "taxonomy": out / "taxonomy.tsv",
        "counts": out / "counts.tsv",
        "class_map": out / "class_map.tsv",
        "meta": out / "dataset_meta.json",
    }
    cvio.write_manifest(manifest, paths["manifest"])
    cvio.write_activations(make_records(), paths["activations"])
    cvio.write_taxonomy_edges(edges, paths["taxonomy"])
    cvio.write_counts(counts, paths["counts"])
    cvio.write_class_map(class_map, paths["class_map"])
    meta = {
        "format_version": 1,
        "generator_version": GENERATOR_VERSION,
        "rng_algorithm": RNG_ALGORITHM,
        "spec": spec.to_dict(),
        "n_taxonomy_nodes": n_nodes,
        "total_images": sum(image_counts.values()),
    }
    paths["meta"].write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return paths
