"""Sparse layered activation vectors and their arithmetic.

Every vector is addressed through a LayerManifest: an ordered list of named
layers, each carrying a group tag and a dimension. A vector stores its
entries once, as two flat arrays sorted by flattened index (offset_of(layer)
+ i), so each layer's entries are one contiguous run and the layers come in
manifest order. Elementwise operations (subtract, apply_threshold,
normalize_whole, restrict_to_groups) work on the flat arrays; dot, the
norms and cosine add one term per stored layer, in manifest order, and
normalize_by_layer takes one norm per stored layer. Binary operations are
linear merges over the stored entries and never touch absent coordinates;
layer_blocks packs many vectors into dense per-layer blocks for all-pairs
work. Vectors are immutable after construction; all operations return new
vectors and are safe to call concurrently.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    ManifestError,
    ManifestMismatchError,
    ValidationError,
    ZeroVectorError,
)


class LayerSpec(NamedTuple):
    layer_id: str
    group: str
    dim: int


class LayerManifest:
    """Ordered layer structure shared by every vector that uses it.

    Layer ids are unique, dims are >= 1, and each layer belongs to exactly
    one group. The manifest fixes the coordinate system: the flattened index
    of (layer, i) is offset_of(layer) + i.
    """

    __slots__ = (
        "_layers", "_position", "_offsets", "_dims", "_starts", "_total_dim", "_groups", "_digest"
    )

    def __init__(self, layers: Iterable[tuple[str, str, int]]):
        specs = tuple(LayerSpec(str(lid), str(grp), int(dim)) for lid, grp, dim in layers)
        if not specs:
            raise ManifestError("manifest must declare at least one layer")
        position: dict[str, int] = {}
        offsets: dict[str, int] = {}
        total = 0
        groups: list[str] = []
        for pos, spec in enumerate(specs):
            if spec.dim < 1:
                raise ManifestError(f"layer {spec.layer_id!r} has non-positive dim {spec.dim}")
            if spec.layer_id in position:
                raise ManifestError(f"duplicate layer_id {spec.layer_id!r}")
            position[spec.layer_id] = pos
            offsets[spec.layer_id] = total
            total += spec.dim
            if spec.group not in groups:
                groups.append(spec.group)
        self._layers = specs
        self._position = position
        self._offsets = offsets
        # by manifest position, for flat entries (the constructor, the io triplet parser)
        self._dims = _lock(np.array([spec.dim for spec in specs], dtype=np.int64))
        self._starts = _lock(np.array([offsets[spec.layer_id] for spec in specs], dtype=np.int64))
        self._total_dim = total
        self._groups = tuple(groups)
        payload = "\n".join(f"{s.layer_id}\t{s.group}\t{s.dim}" for s in specs)
        self._digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    @property
    def layers(self) -> tuple[LayerSpec, ...]:
        return self._layers

    @property
    def layer_ids(self) -> tuple[str, ...]:
        return tuple(s.layer_id for s in self._layers)

    @property
    def groups(self) -> tuple[str, ...]:
        """Group tags in first-appearance order."""
        return self._groups

    @property
    def total_dim(self) -> int:
        return self._total_dim

    @property
    def digest(self) -> str:
        return self._digest

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self._layers)

    def __contains__(self, layer_id: str) -> bool:
        return layer_id in self._position

    def spec_of(self, layer_id: str) -> LayerSpec:
        try:
            return self._layers[self._position[layer_id]]
        except KeyError:
            raise ValidationError(f"unknown layer_id {layer_id!r}") from None

    def dim_of(self, layer_id: str) -> int:
        return self.spec_of(layer_id).dim

    def group_of(self, layer_id: str) -> str:
        return self.spec_of(layer_id).group

    def offset_of(self, layer_id: str) -> int:
        self.spec_of(layer_id)
        return self._offsets[layer_id]

    def layers_in_groups(self, groups: Iterable[str]) -> tuple[str, ...]:
        """Layer ids whose group tag is in ``groups``, manifest order."""
        wanted = set(groups)
        unknown = wanted - set(self._groups)
        if unknown:
            raise ValidationError(f"unknown group tags: {sorted(unknown)}")
        return tuple(s.layer_id for s in self._layers if s.group in wanted)

    def describe(self) -> str:
        return (
            f"{len(self._layers)} layers / {len(self._groups)} groups / "
            f"total_dim={self._total_dim} / digest={self._digest}"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LayerManifest):
            return NotImplemented
        return self._layers == other._layers

    def __hash__(self) -> int:
        return hash(self._layers)

    def __repr__(self) -> str:
        return f"LayerManifest({self.describe()})"


def _as_indices(layer_id: str, raw) -> np.ndarray:
    """Feature indices as int64; indices given as floats must be whole numbers."""
    idx = np.asarray(raw)
    if idx.dtype.kind not in "iu":
        as_float = idx.astype(np.float64)
        whole = np.isfinite(as_float) & (as_float == np.trunc(as_float))
        if not whole.all():
            bad = as_float[~whole][0]
            raise ValidationError(f"layer {layer_id!r}: feature index {bad} is not an integer")
    return idx.astype(np.int64, copy=False)


def _layer_arrays(layer_id: str, raw) -> tuple[np.ndarray, np.ndarray]:
    """One layer's entries as int64 index and float64 value arrays, in the order given."""
    if (
        isinstance(raw, tuple)
        and len(raw) == 2
        and (isinstance(raw[0], np.ndarray) or not np.isscalar(raw[0]))
    ):
        idx = _as_indices(layer_id, raw[0])
        val = np.asarray(raw[1], dtype=np.float64)
        if idx.shape != val.shape:
            raise ValidationError(f"layer {layer_id!r}: index/value arrays differ in length")
    else:
        pairs = list(raw)
        idx = _as_indices(layer_id, [p[0] for p in pairs])
        val = np.asarray([p[1] for p in pairs], dtype=np.float64)
    return idx, val


def _layer_fault(layer_id: str, dim: int, idx: np.ndarray, val: np.ndarray) -> str | None:
    """The first fault of one layer's entries, in the order they are checked."""
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    val = val[order]
    if idx.size and (idx[0] < 0 or idx[-1] >= dim):
        bad = int(idx[0]) if idx[0] < 0 else int(idx[-1])
        return f"layer {layer_id!r}: feature index {bad} out of range (dim {dim})"
    if idx.size > 1 and np.any(np.diff(idx) == 0):
        dup = int(idx[np.flatnonzero(np.diff(idx) == 0)[0]])
        return f"layer {layer_id!r}: duplicate feature index {dup}"
    if not np.all(np.isfinite(val)):
        return f"layer {layer_id!r}: non-finite activation value"
    if np.any(val < 0):
        bad = float(val[val < 0][0])
        return f"layer {layer_id!r}: negative activation value {bad}"
    return None


def _first_fault(manifest: LayerManifest, pos: np.ndarray, idx: np.ndarray, val: np.ndarray):
    """ValidationError for the first faulty layer of flat entries, in order of appearance."""
    for p in dict.fromkeys(pos.tolist()):
        spec = manifest.layers[p]
        sel = pos == p
        message = _layer_fault(spec.layer_id, spec.dim, idx[sel], val[sel])
        if message is not None:
            return ValidationError(message)
    raise AssertionError("no faulty layer among the entries")


def _flat_entries(
    manifest: LayerManifest, pos: np.ndarray, idx: np.ndarray, val: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat entries as (flattened index, value) arrays, indices ascending.

    pos holds each entry's layer position in the manifest and idx its index in
    that layer. Indices must be in range and values finite and >= 0; the
    arrays must not be shared with the caller's data. Zeros are dropped. A
    repeated index raises the ValidationError of the first layer, in order of
    appearance, that repeats one.
    """
    if not idx.size:
        return _EMPTY_KEYS, _EMPTY_VALUES
    key = manifest._starts[pos] + idx  # the flattened index
    if not np.all(key[1:] > key[:-1]):
        order = np.argsort(key, kind="stable")
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise _first_fault(manifest, pos, idx, val)
        val = val[order]
    keep = val > 0  # explicit zeros are never stored
    if not keep.all():
        key, val = key[keep], val[keep]
    return key, val


def _lock(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


_EMPTY_KEYS = _lock(np.empty(0, dtype=np.int64))
_EMPTY_VALUES = _lock(np.empty(0, dtype=np.float64))


class SparseActivationVector:
    """Non-negative sparse activations in a manifest's coordinate system.

    The entries are stored once, flat: ``_keys`` holds their flattened
    indices (offset_of(layer) + i), strictly increasing, and ``_values``
    their values, strictly positive (explicit zeros are dropped at
    construction); both arrays are read-only. Sorting by flattened index puts
    the layers in manifest order, whatever order the entries mapping lists
    them in, so sums over the layers run in one order. The per-layer
    (indices, values) view that layer(), stored_layers and iter_entries
    read is derived on first use and kept. Two vectors are operable together
    only when their manifests compare equal.
    """

    __slots__ = ("manifest", "_keys", "_values", "_layers")

    def __init__(self, manifest: LayerManifest, entries: Mapping[str, object] | None = None):
        positions, idx_parts, val_parts = [], [], []
        late_fault = None
        for layer_id in entries or ():
            try:
                position = manifest._position.get(layer_id)
                if position is None:
                    raise ValidationError(f"unknown layer_id {layer_id!r}")
                idx, val = _layer_arrays(layer_id, entries[layer_id])
            except ValidationError as exc:
                late_fault = exc  # raised unless an earlier layer has a fault
                break
            positions.append(position)
            idx_parts.append(idx)
            val_parts.append(val)
        keys, values = _EMPTY_KEYS, _EMPTY_VALUES
        if idx_parts:
            # every layer's checks in one pass over the concatenated entries
            pos = np.repeat(positions, [part.size for part in idx_parts])
            idx = np.concatenate(idx_parts)
            val = np.concatenate(val_parts)
            ok = (idx >= 0) & (idx < manifest._dims[pos]) & (val >= 0) & (val < np.inf)
            if not ok.all():
                raise _first_fault(manifest, pos, idx, val)
            keys, values = _flat_entries(manifest, pos, idx, val)
        if late_fault is not None:
            raise late_fault
        self.manifest = manifest
        self._keys = _lock(keys)
        self._values = _lock(values)
        self._layers = None

    @classmethod
    def _trusted(cls, manifest: LayerManifest, keys: np.ndarray, values: np.ndarray):
        """Internal fast path for flat entries: keys strictly increasing flattened
        indices, values finite and > 0, neither shared with the caller's data.
        Both arrays are locked here."""
        v = object.__new__(cls)
        v.manifest = manifest
        v._keys = _lock(keys)
        v._values = _lock(values)
        v._layers = None
        return v

    @classmethod
    def _from_checked(
        cls, manifest: LayerManifest, pos: np.ndarray, idx: np.ndarray, val: np.ndarray
    ) -> "SparseActivationVector":
        """Internal fast path for entries already checked for range and value.

        The arrays are those of _flat_entries, which sorts them, drops zeros
        and refuses repeated indices.
        """
        return cls._trusted(manifest, *_flat_entries(manifest, pos, idx, val))

    @classmethod
    def empty(cls, manifest: LayerManifest) -> "SparseActivationVector":
        return cls._trusted(manifest, _EMPTY_KEYS, _EMPTY_VALUES)

    def _bounds(self) -> list[int]:
        """Where each manifest layer's entries start in the flat arrays, then their end."""
        return [*np.searchsorted(self._keys, self.manifest._starts).tolist(), self._keys.size]

    @property
    def _data(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Stored layer id -> read-only (indices, values), in manifest order.

        Made on first use and kept; a first use from two threads at once makes
        it twice, and either copy serves."""
        layers = self._layers
        if layers is None:
            bounds = self._bounds()
            starts = self.manifest._starts
            # views of locked arrays are read-only too
            idx = _lock(self._keys - np.repeat(starts, np.diff(bounds)))
            layers = {
                spec.layer_id: (idx[a:b], self._values[a:b])
                for spec, a, b in zip(self.manifest.layers, bounds, bounds[1:])
                if a < b
            }
            self._layers = layers
        return layers

    def layer(self, layer_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (indices, values) for one layer; empty arrays if silent."""
        self.manifest.spec_of(layer_id)
        return self._data.get(layer_id, (_EMPTY_KEYS, _EMPTY_VALUES))

    @property
    def stored_layers(self) -> tuple[str, ...]:
        """Ids of layers holding at least one entry, manifest order."""
        return tuple(self._data)

    @property
    def nnz(self) -> int:
        return self._keys.size

    @property
    def is_zero(self) -> bool:
        return not self._keys.size

    def iter_entries(self) -> Iterator[tuple[str, int, float]]:
        """(layer_id, index, value) triples in canonical order."""
        for lid, (idx, val) in self._data.items():
            for i, v in zip(idx.tolist(), val.tolist()):
                yield lid, i, v

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseActivationVector):
            return NotImplemented
        return (
            self.manifest == other.manifest
            and np.array_equal(self._keys, other._keys)
            and np.array_equal(self._values, other._values)
        )

    def __repr__(self) -> str:
        return (
            f"SparseActivationVector(nnz={self.nnz}, "
            f"layers={len(self._data)}/{len(self.manifest)})"
        )


def _require_same_manifest(a: SparseActivationVector, b: SparseActivationVector, op: str):
    if a.manifest != b.manifest:
        raise ManifestMismatchError(
            f"{op}: operands use different manifests "
            f"({a.manifest.describe()} vs {b.manifest.describe()})"
        )


def _align(src_idx: np.ndarray, src_val: np.ndarray, dst_idx: np.ndarray):
    """Values of src at dst's indices (0 where absent) plus membership mask."""
    pos = np.searchsorted(src_idx, dst_idx)
    inside = pos < src_idx.size
    hit = np.zeros(dst_idx.size, dtype=bool)
    hit[inside] = src_idx[pos[inside]] == dst_idx[inside]
    vals = np.zeros(dst_idx.size, dtype=np.float64)
    vals[hit] = src_val[pos[hit]]
    return vals, hit


def dot(a: SparseActivationVector, b: SparseActivationVector) -> float:
    """Inner product over shared coordinates."""
    _require_same_manifest(a, b, "dot")
    a_bounds, b_bounds = a._bounds(), b._bounds()
    total = 0.0
    for p in range(len(a.manifest)):
        a_lo, a_hi, b_lo, b_hi = a_bounds[p], a_bounds[p + 1], b_bounds[p], b_bounds[p + 1]
        if a_lo < a_hi and b_lo < b_hi:  # a layer both vectors store
            b_at_a, _ = _align(b._keys[b_lo:b_hi], b._values[b_lo:b_hi], a._keys[a_lo:a_hi])
            total += float(np.dot(a._values[a_lo:a_hi], b_at_a))
    return total


def _sq_norm(v: SparseActivationVector) -> float:
    sq = 0.0
    bounds = v._bounds()
    for a, b in zip(bounds, bounds[1:]):
        segment = v._values[a:b]  # one layer's values; empty if silent
        sq += float(np.dot(segment, segment))
    return sq


def l2_norm(v: SparseActivationVector) -> float:
    return float(np.sqrt(_sq_norm(v)))


def cosine_similarity(a: SparseActivationVector, b: SparseActivationVector) -> float:
    """Cosine of the angle between two non-zero vectors, clamped into [0, 1].

    The denominator is sqrt(|a|^2 * |b|^2): with a correctly rounded sqrt
    this makes cosine(v, v) exactly 1.0, and the top clamp absorbs any
    remaining 1-ulp overshoot for near-parallel inputs.
    """
    _require_same_manifest(a, b, "cosine_similarity")
    if a.is_zero or b.is_zero:
        raise ZeroVectorError("undefined cosine for zero vector")
    return min(1.0, dot(a, b) / float(np.sqrt(_sq_norm(a) * _sq_norm(b))))


def euclidean_distance(a: SparseActivationVector, b: SparseActivationVector) -> float:
    """L2 distance of the true (unclamped) difference."""
    _require_same_manifest(a, b, "euclidean_distance")
    sq = 0.0
    for lid in set(a._data) | set(b._data):
        ai, av = a.layer(lid)
        bi, bv = b.layer(lid)
        if bi.size == 0:
            sq += float(np.dot(av, av))
            continue
        if ai.size == 0:
            sq += float(np.dot(bv, bv))
            continue
        b_at_a, _ = _align(bi, bv, ai)
        diff = av - b_at_a
        sq += float(np.dot(diff, diff))
        _, b_hit = _align(ai, av, bi)
        rest = bv[~b_hit]
        sq += float(np.dot(rest, rest))
    return float(np.sqrt(sq))


# Cells in one block of layer_blocks (16 MB of float64), whatever the vector count.
_BLOCK_CELLS = 1 << 21


def layer_blocks(vectors: Sequence[SparseActivationVector]) -> Iterator[np.ndarray]:
    """The vectors' stored entries as dense blocks with one row per vector.

    Layers come in manifest order. Each covers the union of the vectors'
    supports in that layer, in index order, cut into blocks of at most
    _BLOCK_CELLS cells; a silent layer gives no block. Every stored entry
    lands in exactly one block, so sums over the blocks' columns cover the
    whole vectors without an n x total_dim array.
    """
    vectors = list(vectors)
    for v in vectors[1:]:
        _require_same_manifest(vectors[0], v, "layer_blocks")
    if not vectors:
        return
    n = len(vectors)
    width = max(1, _BLOCK_CELLS // n)
    bounds = [v._bounds() for v in vectors]
    for p in range(len(vectors[0].manifest)):
        runs = [(r, b[p], b[p + 1]) for r, b in enumerate(bounds) if b[p] < b[p + 1]]
        if not runs:
            continue
        row = np.repeat([r for r, _, _ in runs], [hi - lo for _, lo, hi in runs])
        # within a layer, flattened indices sort as the layer's own indices do
        keys = np.concatenate([vectors[r]._keys[lo:hi] for r, lo, hi in runs])
        support, col = np.unique(keys, return_inverse=True)
        val = np.concatenate([vectors[r]._values[lo:hi] for r, lo, hi in runs])
        for start in range(0, support.size, width):
            sel = (col >= start) & (col < start + width)
            block = np.zeros((n, min(width, support.size - start)))
            block[row[sel], col[sel] - start] = val[sel]
            yield block


def subtract(a: SparseActivationVector, b: SparseActivationVector) -> SparseActivationVector:
    """Clamped per-feature difference: a - b where a > b, else 0.

    The result is non-negative with support contained in a's support; the
    operation is not commutative.
    """
    _require_same_manifest(a, b, "subtract")
    b_at_a, _ = _align(b._keys, b._values, a._keys)
    diff = a._values - b_at_a
    keep = diff > 0
    return SparseActivationVector._trusted(a.manifest, a._keys[keep], diff[keep])


def apply_threshold(v: SparseActivationVector, t: float) -> SparseActivationVector:
    """Drop entries with value strictly below t; t = 0 is the identity."""
    t = float(t)
    if t < 0:
        raise ValidationError(f"threshold must be non-negative, got {t}")
    keep = v._values >= t
    if keep.all():
        return v
    return SparseActivationVector._trusted(v.manifest, v._keys[keep], v._values[keep])


def normalize_by_layer(v: SparseActivationVector) -> SparseActivationVector:
    """Rescale each stored layer segment to unit L2 norm.

    Silent (all-zero) layers stay silent rather than raising: sparse class
    vectors legitimately have layers with no activation at all.
    """
    bounds = v._bounds()
    values = np.empty_like(v._values)
    for a, b in zip(bounds, bounds[1:]):
        if a < b:
            segment = v._values[a:b]
            values[a:b] = segment / float(np.sqrt(np.dot(segment, segment)))
    return SparseActivationVector._trusted(v.manifest, v._keys, values)


def normalize_whole(v: SparseActivationVector) -> SparseActivationVector:
    """Rescale the full vector to unit L2 norm; the zero vector stays zero."""
    norm = l2_norm(v)
    if norm == 0.0:
        return v
    return SparseActivationVector._trusted(v.manifest, v._keys, v._values / norm)


def restrict_to_groups(v: SparseActivationVector, groups: Iterable[str]) -> SparseActivationVector:
    """Keep only entries in layers whose group tag is selected.

    The manifest is retained, so downstream distances are computed over the
    surviving coordinates of the unchanged coordinate system.
    """
    wanted = set(v.manifest.layers_in_groups(groups))
    selected = [spec.layer_id in wanted for spec in v.manifest.layers]
    keep = np.repeat(selected, np.diff(v._bounds()))
    return SparseActivationVector._trusted(v.manifest, v._keys[keep], v._values[keep])
