"""Sparse layered activation vectors and their arithmetic.

Every vector is addressed through a LayerManifest: an ordered list of named
layers, each carrying a group tag and a dimension. A vector stores its
entries once, as two flat arrays sorted by flattened index (offset_of(layer)
+ i), so each layer's entries are one contiguous run and the layers come in
manifest order. Elementwise operations (subtract, apply_threshold,
normalize_whole, restrict_to_groups) work on the flat arrays. Every sum over
stored entries (dot, the norms, cosine, euclidean_distance, both
normalizations) goes through _sums, one np.bincount that adds its terms left
to right in ascending flattened index and calls no BLAS. Binary operations
are linear merges over the stored entries and never touch absent
coordinates. Vectors are immutable after construction; all operations return
new vectors and are safe to call concurrently.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import (
    ManifestError,
    ManifestMismatchError,
    ValidationError,
    ZeroVectorError,
)
from .util import locked, real, whole


class LayerSpec(NamedTuple):
    layer_id: str
    group: str
    dim: int


def layer_spec(layer_id, group, dim, seen) -> LayerSpec:
    """A manifest's layer as a LayerSpec, or ManifestError: the id is a triplet token
    (non-empty, no whitespace as str.split() reads it) not in ``seen``, the group
    holds no TAB, LF or CR, and the dim is a count (util.whole) >= 1."""
    layer_id, group = str(layer_id), str(group)
    if layer_id.split() != [layer_id]:
        raise ManifestError(f"layer_id {layer_id!r} is empty or contains whitespace")
    if any(c in group for c in "\t\n\r"):
        raise ManifestError(f"layer {layer_id!r}: group {group!r} contains tab/newline")
    try:
        dim = whole(f"layer {layer_id!r}: dim", dim)
    except ValidationError as exc:
        raise ManifestError(str(exc)) from None
    if dim < 1:
        raise ManifestError(f"layer {layer_id!r} has non-positive dim {dim}")
    if layer_id in seen:
        raise ManifestError(f"duplicate layer_id {layer_id!r}")
    return LayerSpec(layer_id, group, dim)


class LayerManifest:
    """Ordered layer structure shared by every vector that uses it.

    Every layer keeps layer_spec's rule and belongs to exactly one group.
    The manifest fixes the coordinate system: the flattened index of
    (layer, i) is offset_of(layer) + i.
    """

    __slots__ = ("_layers", "_position", "_starts", "_total_dim", "_groups", "_digest")

    def __init__(self, layers: Iterable[tuple[str, str, int]]):
        specs: dict[str, LayerSpec] = {}  # by id, in manifest order
        starts: list[int] = []
        total = 0
        for layer_id, group, dim in layers:
            spec = layer_spec(layer_id, group, dim, specs)
            specs[spec.layer_id] = spec
            starts.append(total)
            total += spec.dim
        if not specs:
            raise ManifestError("manifest must declare at least one layer")
        self._layers = tuple(specs.values())
        self._position = {layer_id: pos for pos, layer_id in enumerate(specs)}
        self._starts = locked(np.array(starts, dtype=np.int64))  # by manifest position
        self._total_dim = total
        self._groups = tuple(dict.fromkeys(spec.group for spec in self._layers))
        payload = "\n".join(f"{s.layer_id}\t{s.group}\t{s.dim}" for s in self._layers)
        self._digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    def __reduce__(self):
        # pickle and deepcopy rebuild through the constructor, which locks the copy's
        # _starts again: NumPy does not keep an array's read-only flag
        return LayerManifest, (self._layers,)

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

    def offset_of(self, layer_id: str) -> int:
        self.spec_of(layer_id)
        return int(self._starts[self._position[layer_id]])

    def layers_in_groups(self, groups: Iterable[str]) -> tuple[str, ...]:
        """Layer ids whose group tag is in ``groups``, manifest order."""
        wanted = set(group_tags(groups))
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


def group_tags(groups: Iterable[str]) -> tuple[str, ...]:
    """A groups argument as a tuple of tags. A bare string is refused: read as
    an iterable, "4a" would name the groups "4" and "a"."""
    if isinstance(groups, str):
        raise ValidationError(f"groups must be a collection of group tags, not the string {groups!r}")
    return tuple(str(g) for g in groups)


_INT64_END = 2.0**63  # int64 holds the whole numbers in [-_INT64_END, _INT64_END)


def _layer_arrays(layer_id: str, dim: int, raw) -> tuple[np.ndarray, np.ndarray]:
    """One layer's entries as int64 index and float64 value arrays, in the order
    given; indices given as floats must be whole numbers, and one beyond int64
    is out of range, named as given."""
    if isinstance(raw, tuple) and len(raw) == 2 and not np.isscalar(raw[0]):
        idx, val = raw
    else:
        try:
            pairs = [tuple(p) for p in raw]
        except TypeError:
            pairs = None
        if pairs is None or any(len(p) != 2 for p in pairs):
            raise ValidationError(f"layer {layer_id!r}: not (indices, values) or (index, value) pairs")
        idx, val = [p[0] for p in pairs], [p[1] for p in pairs]
    try:
        idx = np.asarray(idx)
        if idx.dtype.kind != "i":
            # compared before any cast, which 10**400 would overflow; nan is on neither side
            beyond = (idx < -_INT64_END) | (idx >= _INT64_END)
            as_float = np.where(beyond, 0.0, idx).astype(np.float64)
            whole = np.isfinite(as_float) & (as_float == np.trunc(as_float))
            if not whole.all():
                bad = as_float[~whole][0]
                raise ValidationError(f"layer {layer_id!r}: feature index {bad} is not an integer")
            if beyond.any():
                bad = idx[beyond][0]
                raise ValidationError(f"layer {layer_id!r}: feature index {bad} out of range (dim {dim})")
        val = np.asarray(val, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"layer {layer_id!r}: an index or value is not a number") from None
    if idx.shape != val.shape:
        raise ValidationError(f"layer {layer_id!r}: index/value arrays differ in length")
    return idx.astype(np.int64, copy=False), val


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
    if not (key[1:] > key[:-1]).all():
        order = key.argsort(kind="stable")
        key = key[order]
        if (key[1:] == key[:-1]).any():
            raise _first_fault(manifest, pos, idx, val)
        val = val[order]
    keep = val > 0  # explicit zeros are never stored
    if not keep.all():
        key, val = key[keep], val[keep]
    return key, val


_EMPTY_KEYS = locked(np.empty(0, dtype=np.int64))
_EMPTY_VALUES = locked(np.empty(0, dtype=np.float64))
_TINY = np.finfo(np.float64).tiny  # the smallest normal float
# the product of two squared norms in [_SQ_LO, _SQ_HI) is a normal float
_SQ_LO, _SQ_HI = np.sqrt(_TINY), np.sqrt(np.finfo(np.float64).max)


class SparseActivationVector:
    """Non-negative sparse activations in a manifest's coordinate system.

    The entries are stored once, flat, and in no other form: ``_keys`` holds
    their flattened indices (offset_of(layer) + i), strictly increasing, and
    ``_values`` their values, strictly positive (explicit zeros are dropped
    at construction); both arrays are read-only. Sorting by flattened index
    puts the layers in manifest order, whatever order the entries mapping
    lists them in, so each layer is one run of the arrays. layer(),
    stored_layers and iter_entries read those runs; nothing derived from
    them is kept. Two vectors are operable together only when their
    manifests compare equal.

    ``entries`` maps each layer id to an ``(indices, values)`` pair of
    equal-length sequences or arrays, or to an iterable of ``(index, value)``
    pairs. A 2-tuple whose first item is not a scalar is read as ``(indices,
    values)``: ``{"L": ((0, 1.0), (3, 2.0))}`` stores 3.0 at index 0 and 2.0 at
    index 1; a bare pair ``{"L": (0, 1.0)}`` is refused. The first faulty
    layer, in the mapping's order, raises a ValidationError for its first fault.
    """

    __slots__ = ("manifest", "_keys", "_values")

    def __init__(self, manifest: LayerManifest, entries: Mapping[str, object] | None = None):
        positions, idx_parts, val_parts = [], [], []
        for layer_id in entries or ():
            position = manifest._position.get(layer_id)
            if position is None:
                raise ValidationError(f"unknown layer_id {layer_id!r}")
            dim = manifest.layers[position].dim
            idx, val = _layer_arrays(layer_id, dim, entries[layer_id])
            fault = _layer_fault(layer_id, dim, idx, val)
            if fault is not None:
                raise ValidationError(fault)
            positions.append(position)
            idx_parts.append(idx)
            val_parts.append(val)
        keys, values = _EMPTY_KEYS, _EMPTY_VALUES
        if idx_parts:
            pos = np.repeat(positions, [part.size for part in idx_parts])
            idx, val = np.concatenate(idx_parts), np.concatenate(val_parts)
            keys, values = _flat_entries(manifest, pos, idx, val)
        self.manifest = manifest
        self._keys = locked(keys)
        self._values = locked(values)

    @classmethod
    def _trusted(cls, manifest: LayerManifest, keys: np.ndarray, values: np.ndarray):
        """Internal fast path for flat entries: keys strictly increasing flattened
        indices, values finite and > 0, neither shared with the caller's data.
        Both arrays are locked here."""
        v = object.__new__(cls)
        v.manifest = manifest
        v._keys = locked(keys)
        v._values = locked(values)
        return v

    def __reduce__(self):
        return SparseActivationVector._trusted, (self.manifest, self._keys, self._values)

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

    def layer(self, layer_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (indices, values) for one layer; empty arrays if silent."""
        self.manifest.spec_of(layer_id)
        p = self.manifest._position[layer_id]
        lo, hi = self._bounds()[p : p + 2]
        # a locked array that owns its data could be unlocked again; a view of it cannot
        idx = locked(self._keys[lo:hi] - self.manifest._starts[p])[:]
        return idx, self._values[lo:hi]

    @property
    def stored_layers(self) -> tuple[str, ...]:
        """Ids of layers holding at least one entry, manifest order."""
        bounds = self._bounds()
        return tuple(
            spec.layer_id for spec, lo, hi in zip(self.manifest.layers, bounds, bounds[1:]) if lo < hi
        )

    @property
    def nnz(self) -> int:
        return self._keys.size

    @property
    def is_zero(self) -> bool:
        return not self._keys.size

    def iter_entries(self) -> Iterator[tuple[str, int, float]]:
        """(layer_id, index, value) triples in canonical order."""
        bounds = self._bounds()
        starts = self.manifest._starts.tolist()
        for spec, start, lo, hi in zip(self.manifest.layers, starts, bounds, bounds[1:]):
            for key, value in zip(self._keys[lo:hi].tolist(), self._values[lo:hi].tolist()):
                yield spec.layer_id, key - start, value

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
            f"layers={len(self.stored_layers)}/{len(self.manifest)})"
        )


def _sums(terms: np.ndarray, groups: np.ndarray | None = None, k: int = 1) -> np.ndarray:
    """The sum of ``terms`` in each of k groups (all in group 0 when ``groups``
    is None). np.bincount adds each group's terms one after another in input
    order and calls no BLAS, so the bits do not depend on the thread count;
    every sum over stored entries comes here, with its terms in ascending
    flattened index."""
    if groups is None:
        groups = np.zeros(terms.size, dtype=np.intp)
    return np.bincount(groups, weights=terms, minlength=k)


def _require_same_manifest(a: SparseActivationVector, b: SparseActivationVector, op: str):
    if a.manifest != b.manifest:
        raise ManifestMismatchError(
            f"{op}: operands use different manifests "
            f"({a.manifest.describe()} vs {b.manifest.describe()})"
        )


def _align(src_idx: np.ndarray, src_val: np.ndarray, dst_idx: np.ndarray) -> np.ndarray:
    """Values of src at dst's indices, 0 where absent."""
    pos = np.searchsorted(src_idx, dst_idx)
    inside = pos < src_idx.size
    hit = np.zeros(dst_idx.size, dtype=bool)
    hit[inside] = src_idx[pos[inside]] == dst_idx[inside]
    vals = np.zeros(dst_idx.size, dtype=np.float64)
    vals[hit] = src_val[pos[hit]]
    return vals


def dot(a: SparseActivationVector, b: SparseActivationVector) -> float:
    """Inner product over shared coordinates."""
    _require_same_manifest(a, b, "dot")  # an entry only a stores adds an exact 0.0
    with np.errstate(over="ignore"):  # an overflowing sum is inf, as a sum of squares is
        return float(_sums(a._values * _align(b._keys, b._values, a._keys))[0])


def _cosine_operand(v: SparseActivationVector) -> tuple[SparseActivationVector, float]:
    """v and its plain sum of squares as cosine takes them: at unit length when
    that sum is out of [_SQ_LO, _SQ_HI), as an overflow to inf is."""
    with np.errstate(over="ignore"):
        sq = float(_sums(v._values * v._values)[0])
    if _SQ_LO <= sq < _SQ_HI:
        return v, sq
    v = normalize_whole(v)
    return v, float(_sums(v._values * v._values)[0])


def _scaled_sq(values: np.ndarray, groups: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(scale, sum of squares of values / scale) for each of k groups of flat
    values. A plain sum of squares that is not a normal float is not the
    true one: that group's scale is then its largest |value|, which brings
    its sum into [1, size], else 1.0."""
    with np.errstate(over="ignore"):  # an overflow is caught just below
        sq = _sums(values * values, groups, k)
    scale = np.ones(k)
    redo = ~((_TINY <= sq) & (sq < np.inf))[groups] & (values != 0)
    if redo.any():
        g, x = groups[redo], np.abs(values[redo])
        scale[g] = 0.0
        np.maximum.at(scale, g, x)
        x = x / scale[g]  # an entry left out is 0 and adds nothing
        sq[g] = _sums(x * x, g, k)[g]
    return scale, sq


def _norm(values: np.ndarray) -> float:
    """The L2 norm of flat values, at any scale."""
    scale, sq = _scaled_sq(values, np.zeros(values.size, dtype=np.intp), 1)
    return float(scale[0] * np.sqrt(sq[0]))


def l2_norm(v: SparseActivationVector) -> float:
    return _norm(v._values)


def cosine_similarity(a: SparseActivationVector, b: SparseActivationVector) -> float:
    """Cosine of the angle between two non-zero vectors, clamped into [0, 1].

    The denominator is sqrt(|a|^2 * |b|^2): with a correctly rounded sqrt
    this makes cosine(v, v) exactly 1.0, and the top clamp absorbs any
    remaining 1-ulp overshoot for near-parallel inputs. Each operand whose
    squared norm is out of [_SQ_LO, _SQ_HI) is first scaled, on its own, to
    unit length (_cosine_operand), as build_distance_matrix takes its rows.
    """
    _require_same_manifest(a, b, "cosine_similarity")
    if a.is_zero or b.is_zero:
        raise ZeroVectorError("undefined cosine for zero vector")
    (a, sq_a), (b, sq_b) = _cosine_operand(a), _cosine_operand(b)
    return min(1.0, dot(a, b) / float(np.sqrt(sq_a * sq_b)))


def euclidean_distance(a: SparseActivationVector, b: SparseActivationVector) -> float:
    """L2 distance of the true (unclamped) difference, over the union of both supports."""
    _require_same_manifest(a, b, "euclidean_distance")
    keys = np.union1d(a._keys, b._keys)
    return _norm(_align(a._keys, a._values, keys) - _align(b._keys, b._values, keys))


def subtract(a: SparseActivationVector, b: SparseActivationVector) -> SparseActivationVector:
    """Clamped per-feature difference: a - b where a > b, else 0.

    The result is non-negative with support contained in a's support; the
    operation is not commutative.
    """
    _require_same_manifest(a, b, "subtract")
    b_at_a = _align(b._keys, b._values, a._keys)
    diff = a._values - b_at_a
    keep = diff > 0
    return SparseActivationVector._trusted(a.manifest, a._keys[keep], diff[keep])


def apply_threshold(v: SparseActivationVector, t: float) -> SparseActivationVector:
    """Drop entries with value strictly below t; t = 0 is the identity."""
    t = float(real("threshold", t))
    if not 0 <= t < np.inf:
        raise ValidationError(f"threshold must be finite and non-negative, got {t}")
    keep = v._values >= t
    if keep.all():
        return v
    return SparseActivationVector._trusted(v.manifest, v._keys[keep], v._values[keep])


def _unit(v: SparseActivationVector, groups: np.ndarray, k: int) -> SparseActivationVector:
    """v with each of k groups of its entries over that group's L2 norm."""
    scale, sq = _scaled_sq(v._values, groups, k)
    values = v._values / scale[groups] / np.sqrt(sq)[groups]
    keep = values > 0  # an entry far below its group's largest can round to 0
    return SparseActivationVector._trusted(v.manifest, v._keys[keep], values[keep])


def normalize_by_layer(v: SparseActivationVector) -> SparseActivationVector:
    """Rescale each stored layer segment to unit L2 norm.

    Silent (all-zero) layers stay silent rather than raising: sparse class
    vectors legitimately have layers with no activation at all.
    """
    layer = np.searchsorted(v.manifest._starts, v._keys, side="right") - 1
    return _unit(v, layer, len(v.manifest))


def normalize_whole(v: SparseActivationVector) -> SparseActivationVector:
    """Rescale the full vector to unit L2 norm; the zero vector stays zero."""
    if v.is_zero:
        return v
    return _unit(v, np.zeros(v.nnz, dtype=np.intp), 1)


def restrict_to_groups(v: SparseActivationVector, groups: Iterable[str]) -> SparseActivationVector:
    """Keep only entries in layers whose group tag is selected.

    The manifest is retained, so downstream distances are computed over the
    surviving coordinates of the unchanged coordinate system.
    """
    wanted = set(v.manifest.layers_in_groups(groups))
    selected = [spec.layer_id in wanted for spec in v.manifest.layers]
    keep = np.repeat(selected, np.diff(v._bounds()))
    return SparseActivationVector._trusted(v.manifest, v._keys[keep], v._values[keep])
