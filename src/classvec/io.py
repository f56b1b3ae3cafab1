"""File formats: loaders with positional diagnostics, writers that round-trip.

Six tab-separated input formats (manifest, activations, taxonomy edges,
corpus counts, class map, highlight sets) plus the produced artifacts:
class embeddings, distance matrix CSV, coordinates/eigenvalue CSVs, rho
tables, histogram CSVs, equation tables, and 2-D scatter SVGs. All text is
UTF-8 with LF line endings; reals use Python's shortest round-trip
representation except CSV matrix cells, which carry 9 significant digits.

Every loader reads its file one line at a time, and a line holding a byte
that is not valid UTF-8 is refused. Every tab-separated loader numbers its
lines from 1, the trailing LF is dropped, a line that then ends in CR
(a CRLF line ending) is refused, blank lines are skipped, and every other
line must split at its tabs into the format's number of fields (one or two
for highlight sets). CSV loaders read a header row, skip empty rows and
require as many cells in every row as the header has. Every fault is a
FormatError naming the path and line (line 1 for an empty file). Writers
end every line, the last included, with LF.

Activations and class embeddings end in the same triplet field:

    triplets := "" | triplet (" " triplet)*
    triplet  := layer_id ":" index ":" value

Layer ids are non-empty and hold no whitespace, but may hold ":"; a triplet
splits at its last two colons. index is a Python int in [0, dim) of its
layer, value a Python float that is finite and >= 0, and no (layer, index)
repeats within a line. Triplets may come in any order; writers emit them in
manifest order, indices ascending, zeros left out.

Triplet fields are read by two paths. A batch of lines, up to _BATCH_TRIPLETS
triplets in all (a longer line is a batch alone), goes to one call of NumPy's C
text reader (np.loadtxt), one triplet to a row, and is taken whole when it has
no fault and the reader reads it as int() and float() would, whatever the
order of a line's triplets: each line is sorted and its zeros dropped, and a
line already in order with no zero, as the writers write it, is kept as read.
Any other batch, one that repeats an index within a line included, is read
again a line at a time by a walk over its triplets, which names the first
fault. So a FormatError's message and line do not depend on the path, and
faults keep line order: a fault met while a batch fills is raised after its
earlier lines.
"""

from __future__ import annotations

import csv
import functools
import html
import warnings
from io import StringIO
from itertools import chain
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .correlation import RhoDistribution
from .equations import EquationResult
from .errors import FormatError, ValidationError
from .manifold import DistanceMatrix, EmbeddingCoordinates
from .pipeline import ClassEmbedding
from .taxonomy import Taxonomy
from .vectors import LayerManifest, SparseActivationVector, _lock


class ActivationRecord(NamedTuple):
    image_id: str
    class_id: str
    vector: SparseActivationVector


def _fmt(value: float) -> str:
    """Shortest decimal that parses back to exactly the same float."""
    return repr(float(value))


def _check_id(kind: str, value: str) -> str:
    value = str(value)
    if not value or any(c in value for c in "\t\n\r"):
        raise ValidationError(f"{kind} {value!r} is empty or contains tab/newline")
    return value


def _is_layer_id(text: str) -> bool:
    """Non-empty and free of whitespace, as the triplet grammar needs."""
    return text.split() == [text]


def _check_layer_id(layer_id: str) -> None:
    if not _is_layer_id(layer_id):
        raise ValidationError(f"layer_id {layer_id!r} is empty or contains whitespace")


def _read_lines(path) -> Iterator[str]:
    """The file's lines with their line endings, read one at a time.

    A byte that is not part of valid UTF-8 raises a FormatError at its line.
    Such bytes decode to lone surrogates, which valid UTF-8 never yields,
    and an all-ASCII line (the common case, tested in O(1)) cannot hold one.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise FormatError(path, lineno, f"byte 0x{byte:02x} is not valid UTF-8") from None
            yield line


def _open_write(path) -> IO[str]:
    return open(path, "w", encoding="utf-8", newline="")


def _tsv_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, line without its LF) of each non-blank line, read one at a time."""
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.rstrip("\n")
        if line.endswith("\r"):
            raise FormatError(path, lineno, "line ends in CR (CRLF line ending); expected LF")
        if line:
            yield lineno, line


def _tsv_rows(path, n_fields: int, expected: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank line, read one at a time.

    A line that does not split into ``n_fields`` fields raises a FormatError
    whose message is ``expected`` formatted with the count it has.
    """
    for lineno, line in _tsv_lines(path):
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise FormatError(path, lineno, expected.format(len(fields)))
        yield lineno, fields


def _csv_rows(path, what: str) -> Iterator:
    """The header row, then (line number, cells) of each non-empty row, read
    one at a time; ``what`` names the file in the empty-file error. A row that
    a quoted LF spreads over several lines is numbered by its last line."""
    reader = csv.reader(_read_lines(path))
    header = next(reader, None)
    if header is None:
        raise FormatError(path, 1, f"{what} is empty")
    yield header
    for row in reader:
        if not row:
            continue
        lineno = reader.line_num
        if len(row) != len(header):
            raise FormatError(path, lineno, f"expected {len(header)} cells, got {len(row)}")
        yield lineno, row


def _write_lines(path, lines: Iterable[str]) -> None:
    """Each line followed by LF, consumed one at a time."""
    with _open_write(path) as fh:
        for line in lines:
            fh.write(line + "\n")


def _csv_line(cells: Sequence) -> str:
    """One CSV row, quoted as csv.writer quotes it, without its LF."""
    buf = StringIO()
    # the LF terminator is what makes csv.writer quote a cell holding one
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()[:-1]


def _write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    _write_lines(path, map(_csv_line, chain([header], rows)))


# -- manifest ---------------------------------------------------------------


def load_manifest(path) -> LayerManifest:
    """Parse layer_id TAB group TAB dim lines, keeping file order."""
    layers = []
    for lineno, (layer_id, group, dim_text) in _tsv_rows(
        path, 3, "expected 3 tab-separated fields, got {}"
    ):
        if not _is_layer_id(layer_id):
            raise FormatError(path, lineno, f"layer_id {layer_id!r} is empty or contains whitespace")
        try:
            dim = int(dim_text)
        except ValueError:
            raise FormatError(path, lineno, f"dim {dim_text!r} is not an integer") from None
        if dim < 1:
            raise FormatError(path, lineno, f"layer {layer_id!r} has non-positive dim {dim}")
        if any(layer_id == seen for seen, _, _ in layers):
            raise FormatError(path, lineno, f"duplicate layer_id {layer_id!r}")
        layers.append((layer_id, group, dim))
    if not layers:
        raise FormatError(path, 1, "manifest file is empty")
    return LayerManifest(layers)


def write_manifest(manifest: LayerManifest, path) -> None:
    for spec in manifest:
        _check_layer_id(spec.layer_id)
    _write_lines(path, (f"{spec.layer_id}\t{spec.group}\t{spec.dim}" for spec in manifest))


# -- activations ------------------------------------------------------------


# Consecutive triplet fields are read together up to this many triplets; a longer
# field is read alone. The batch, not the file, bounds a loader's memory.
_BATCH_TRIPLETS = 4096


@functools.lru_cache(maxsize=16)
def _reader_form(manifest: LayerManifest) -> tuple[np.dtype, np.ndarray]:
    """The text reader's row for the manifest's triplets and its layer dims, read-only as calls
    share them. The layer field is one character wider than any id, so a cut id matches none."""
    width = max(len(spec.layer_id) for spec in manifest) + 1
    row = np.dtype([("layer", f"U{width}"), ("index", np.int64), ("value", np.float64)])
    return row, _lock(np.array([spec.dim for spec in manifest], dtype=np.int64))


def _bulk_triplets(payloads: list[str], manifest: LayerManifest):
    """The (positions, indices, values) arrays of non-empty triplet fields, one
    after another, read by NumPy's C text reader one triplet to a row, or None
    for any fields it cannot take whole: a layer id that holds ':', a spelling
    int() or float() reads and the reader does not, or any fault."""
    # The fields are joined as one field, which has an empty triplet where any of them has.
    payload = " ".join(payloads)
    # The reader strips whitespace and control characters around a number (it reads
    # "5\x1c" as 5, which int() refuses) and a trailing NUL from a layer id, and it
    # skips blank tokens. So a line with an empty triplet, a byte below 0x20, or a
    # non-ASCII character that is not printable is left to the walk. DEL (0x7f) the
    # reader refuses in a number and keeps in a layer id, as the walk does.
    if payload.isascii():
        if np.frombuffer(payload.encode(), np.uint8).min() < 0x20:
            return None
    elif not payload.isprintable():
        return None
    tokens = payload.split(" ")
    if "" in tokens:
        return None
    row, dims = _reader_form(manifest)
    try:
        # From NumPy 1.23 a reader that still reads a float such as "1.5" in the index
        # column, as the index 1, warns that this is deprecated; as an error, the line
        # goes to the walk, which refuses it.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(tokens, delimiter=":", dtype=row, comments=None, ndmin=1)
    except (ValueError, DeprecationWarning):  # not three fields, or a number it refuses
        return None
    # the guards above leave no blank row for the reader to skip; a reader that skips
    # some other row would misalign the arrays, so the count is checked all the same
    if len(rows) != len(tokens):
        return None
    # one position lookup per run of equal layer ids
    layer = rows["layer"]
    starts = np.concatenate(([0], np.flatnonzero(layer[1:] != layer[:-1]) + 1))
    try:
        heads = list(map(manifest._position.__getitem__, layer[starts].tolist()))
    except KeyError:
        return None
    pos = np.repeat(np.array(heads, dtype=np.intp), np.diff(starts, append=len(rows)))
    idx, val = rows["index"], rows["value"]
    # ~(val >= 0) holds for nan too
    bad = (idx < 0) | (idx >= dims[pos]) | ~(val >= 0) | (val == np.inf)
    # val is copied: a vector may keep it, and a view would keep every row alive
    return None if bad.any() else (pos, idx, val.copy())


def _walk_triplets(path, lineno: int, payload: str, manifest: LayerManifest):
    """A line's (positions, indices, values) arrays, read one triplet at a time. The
    first faulty triplet raises a FormatError naming the first of its faults in this
    order: malformed triplet, unknown layer, malformed number, index range, bad value."""
    entries = []
    for token in payload.split(" "):
        triplet = token.rsplit(":", 2)
        if len(triplet) != 3:
            raise FormatError(path, lineno, f"malformed triplet {token!r}")
        layer_id, i_text, v_text = triplet
        p = manifest._position.get(layer_id)
        if p is None:
            raise FormatError(path, lineno, f"unknown layer_id {layer_id!r}")
        try:
            i, v = int(i_text), float(v_text)
        except ValueError:
            raise FormatError(path, lineno, f"malformed triplet {token!r}") from None
        dim = manifest.layers[p].dim
        if not 0 <= i < dim:
            raise FormatError(path, lineno, f"layer {layer_id!r}: index {i} out of range (dim {dim})")
        if not 0 <= v < np.inf:  # false for nan too
            raise FormatError(path, lineno, f"layer {layer_id!r}: bad value {v_text!r}")
        entries.append((p, i, v))
    pos, ints, reals = zip(*entries)
    return np.array(pos, dtype=np.intp), np.array(ints, dtype=np.int64), np.array(reals)


def _parse_triplets(path, lineno: int, payload: str, manifest: LayerManifest) -> SparseActivationVector:
    """One line's triplet field as a vector, read by the walk, which names the first faulty
    triplet, or a repeated index when no triplet has any other fault."""
    if not payload:
        return SparseActivationVector.empty(manifest)
    entries = _walk_triplets(path, lineno, payload, manifest)
    try:
        return SparseActivationVector._from_checked(manifest, *entries)
    except ValidationError as exc:  # a repeated index
        raise FormatError(path, lineno, str(exc)) from None


def _batch_vectors(fields: list[str], ends: list[int], manifest: LayerManifest):
    """The vectors of non-empty triplet fields, whose triplets end where ``ends`` says, read
    in one bulk pass, or None for fields it does not take whole or that repeat an index."""
    entries = _bulk_triplets(fields, manifest)
    if entries is None:
        return None
    pos, idx, val = entries
    try:
        return [
            SparseActivationVector._from_checked(manifest, pos[span], idx[span], val[span])
            for span in map(slice, [0, *ends[:-1]], ends)
        ]
    except ValidationError:  # a repeated index
        return None


def _read_batch(path, manifest: LayerManifest, batch: list[tuple], ends: list[int]) -> Iterator[tuple]:
    """(item, vector) of each (line number, triplet field, item) of a batch, in order: read
    in one bulk pass or, where _batch_vectors declines, line by line by _parse_triplets."""
    fields = [payload for _, payload, _ in batch if payload]
    vectors = _batch_vectors(fields, ends, manifest) if fields else []
    if vectors is None:  # read lazily, so a fault comes after the lines before it
        vectors = (_parse_triplets(path, lineno, field, manifest) for lineno, field, _ in batch if field)
    vectors = iter(vectors)
    for _, payload, item in batch:
        yield item, next(vectors) if payload else SparseActivationVector.empty(manifest)


def _triplet_lines(path, manifest: LayerManifest, lines: Iterator[tuple]) -> Iterator[tuple]:
    """(item, vector) of each (line number, triplet field, item) that ``lines``
    yields, in order, read a batch of lines at a time.

    A batch holds consecutive lines of up to _BATCH_TRIPLETS triplets in all,
    or one longer line. A fault that ``lines`` raises while a batch fills is
    raised once the batch's earlier lines are yielded, so faults keep line order.
    """
    batch, ends, size = [], [], 0  # ends: where each non-empty field's triplets end
    while True:
        try:
            line = next(lines, None)
        except FormatError:
            yield from _read_batch(path, manifest, batch, ends)
            raise
        if line is None:
            break
        count = line[1].count(" ") + 1 if line[1] else 0
        if batch and size + count > _BATCH_TRIPLETS:
            yield from _read_batch(path, manifest, batch, ends)
            batch, ends, size = [], [], 0
        batch.append(line)
        if count:
            size += count
            ends.append(size)
    yield from _read_batch(path, manifest, batch, ends)


class _Texts(dict):
    """Value -> its repr, which for a Python float is _fmt's shortest round-trip form.

    The table keeps at most ``cap`` texts. Generated activations are on the
    1e-4 grid: a 200-class set's 2.8 M values hold 1,952 distinct ones.
    """

    __slots__ = ()
    cap = 1 << 12

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if len(self) < self.cap:
            self[value] = text
        return text


class _TripletMemo:
    """The text pieces of one write call's triplet fields.

    ``heads`` serves ``manifest``, the manifest of the latest vector, and
    starts afresh when a vector of another manifest comes. It is an object
    array with one slot per flattened index: the " layer_id:i:" head, made
    the first time a vector stores that index and never again, else None.
    ``made`` marks the slots that hold a head. A layer's id is checked before
    the first of its heads is made and, once it passes, never again
    (``checked``); an id that is refused leaves every slot of the vector
    unmarked, so the next vector that stores an entry there meets it again.
    Once ``texts`` is full, values have shown that they seldom repeat (class
    embeddings, for one), and the rest are formatted directly.
    """

    def __init__(self):
        self.manifest: LayerManifest | None = None
        self.heads = np.empty(0, dtype=object)
        self.made = np.zeros(0, dtype=bool)
        self.checked: set[int] = set()  # manifest positions of the layers whose id passed
        self.texts = _Texts()

    def heads_of(self, vector: SparseActivationVector) -> list[str]:
        """The heads of the vector's entries, in flattened-index order."""
        manifest = vector.manifest
        if manifest is not self.manifest:
            self.manifest = manifest
            self.heads = np.empty(manifest.total_dim, dtype=object)
            self.made = np.zeros(manifest.total_dim, dtype=bool)
            self.checked = set()
        keys = vector._keys
        missing = ~self.made[keys]
        if missing.any():
            new = keys[missing]
            positions = (np.searchsorted(manifest._starts, new, side="right") - 1).tolist()
            layer_ids, starts = manifest.layer_ids, manifest._starts.tolist()
            # not np.unique, whose first call imports numpy.ma (about 6 MB of RSS)
            for position in sorted(set(positions) - self.checked):
                _check_layer_id(layer_ids[position])
                self.checked.add(position)
            heads = [f" {layer_ids[p]}:{key - starts[p]}:" for key, p in zip(new.tolist(), positions)]
            self.heads[new] = np.array(heads, dtype=object)
            self.made[new] = True
        return self.heads[keys].tolist()

    def texts_of(self, values: list[float]) -> Iterator[str]:
        texts = self.texts
        return map(texts.__getitem__ if len(texts) < texts.cap else repr, values)


def _format_triplets(vector: SparseActivationVector, memo: _TripletMemo) -> str:
    """The vector's triplet field, in flattened-index (so manifest) order."""
    if vector.is_zero:
        return ""
    # head and text pieces joined at once, with no string made per triplet;
    # every head starts with the space that separates it from the triplet before
    pieces = [""] * (2 * vector.nnz)
    pieces[0::2] = memo.heads_of(vector)
    pieces[1::2] = memo.texts_of(vector._values.tolist())
    return "".join(pieces)[1:]


def stream_activations(path, manifest: LayerManifest) -> Iterator[ActivationRecord]:
    """Yield records one at a time in file order. Triplet fields are read a
    batch of lines at a time, so memory is bounded by one batch plus one line.

    Line format: image_id TAB class_id TAB triplets (see the module
    docstring; the third field may be empty).
    """

    def lines():
        for lineno, (image_id, class_id, payload) in _tsv_rows(
            path, 3, "expected 3 tab-separated fields, got {}"
        ):
            if not image_id or not class_id:
                raise FormatError(path, lineno, "empty image_id or class_id")
            yield lineno, payload, (image_id, class_id)

    for (image_id, class_id), vector in _triplet_lines(path, manifest, lines()):
        yield ActivationRecord(image_id, class_id, vector)


def activation_class_sizes(path) -> dict[str, int]:
    """Lines per class_id of an activations file, counted without parsing triplets.

    Nothing is checked here: a line that stream_activations refuses may be
    counted or skipped, and it is reported when the stream reaches it.
    """
    sizes: dict[str, int] = {}
    with open(path, "rb") as fh:
        for line in fh:
            fields = line.split(b"\t", 2)
            if len(fields) == 3:
                class_id = fields[1].decode("utf-8", "replace")
                sizes[class_id] = sizes.get(class_id, 0) + 1
    return sizes


def write_activations(records: Iterable[ActivationRecord], path) -> None:
    memo = _TripletMemo()
    _write_lines(
        path,
        (
            f"{_check_id('image_id', rec.image_id)}\t"
            f"{_check_id('class_id', rec.class_id)}\t{_format_triplets(rec.vector, memo)}"
            for rec in records
        ),
    )


# -- taxonomy edges ---------------------------------------------------------


def load_taxonomy_edges(path) -> list[tuple[str, str]]:
    edges = []
    for lineno, (child, parent) in _tsv_rows(path, 2, "expected child TAB parent, got {} fields"):
        if not child or not parent:
            raise FormatError(path, lineno, "empty synset id")
        edges.append((child, parent))
    if not edges:
        raise FormatError(path, 1, "taxonomy file is empty")
    return edges


def load_taxonomy(path) -> Taxonomy:
    return Taxonomy(load_taxonomy_edges(path))


def write_taxonomy_edges(edges: Iterable[tuple[str, str]], path) -> None:
    _write_lines(
        path, (f"{_check_id('synset', child)}\t{_check_id('synset', parent)}" for child, parent in edges)
    )


# -- corpus counts ----------------------------------------------------------


def load_counts(path) -> dict[str, int]:
    counts: dict[str, int] = {}
    for lineno, (synset, count_text) in _tsv_rows(path, 2, "expected synset TAB count, got {} fields"):
        try:
            count = int(count_text)
        except ValueError:
            raise FormatError(path, lineno, f"count {count_text!r} is not an integer") from None
        if count < 0:
            raise FormatError(path, lineno, f"negative count {count} for {synset!r}")
        if synset in counts:
            raise FormatError(path, lineno, f"duplicate synset {synset!r}")
        counts[synset] = count
    if not counts:
        raise FormatError(path, 1, "counts file is empty")
    return counts


def write_counts(counts: Mapping[str, int], path) -> None:
    _write_lines(path, (f"{_check_id('synset', s)}\t{int(counts[s])}" for s in sorted(counts)))


# -- class map ---------------------------------------------------------------


def load_class_map(path, taxonomy: Taxonomy | None = None) -> dict[str, str]:
    """class_id -> synset_id, validated bijective (and in-taxonomy if given)."""
    mapping: dict[str, str] = {}
    seen_synsets: dict[str, int] = {}
    for lineno, (class_id, synset_id) in _tsv_rows(
        path, 2, "expected class_id TAB synset_id, got {} fields"
    ):
        if not class_id or not synset_id:
            raise FormatError(path, lineno, "empty class_id or synset_id")
        if class_id in mapping:
            raise FormatError(path, lineno, f"duplicate class_id {class_id!r}")
        if synset_id in seen_synsets:
            raise FormatError(
                path, lineno, f"synset {synset_id!r} already mapped at line {seen_synsets[synset_id]}"
            )
        if taxonomy is not None and synset_id not in taxonomy:
            raise FormatError(path, lineno, f"synset {synset_id!r} not in taxonomy")
        mapping[class_id] = synset_id
        seen_synsets[synset_id] = lineno
    if not mapping:
        raise FormatError(path, 1, "class map file is empty")
    return mapping


def write_class_map(mapping: Mapping[str, str], path) -> None:
    _write_lines(
        path,
        (
            f"{_check_id('class_id', class_id)}\t{_check_id('synset_id', mapping[class_id])}"
            for class_id in sorted(mapping)
        ),
    )


# -- class embeddings --------------------------------------------------------


def write_class_embeddings(embeddings: Sequence[ClassEmbedding], path) -> None:
    """class_id TAB synset_id TAB image_count TAB triplets, sorted by class."""
    memo = _TripletMemo()
    _write_lines(
        path,
        (
            f"{_check_id('class_id', e.class_id)}\t{_check_id('synset_id', e.synset_id)}\t"
            f"{e.image_count}\t{_format_triplets(e.vector, memo)}"
            for e in sorted(embeddings, key=lambda e: e.class_id)
        ),
    )


def load_class_embeddings(path, manifest: LayerManifest) -> list[ClassEmbedding]:
    def lines():
        seen: set[str] = set()
        for lineno, (class_id, synset_id, count_text, payload) in _tsv_rows(
            path, 4, "expected 4 tab-separated fields, got {}"
        ):
            if not class_id or not synset_id:
                raise FormatError(path, lineno, "empty class_id or synset_id")
            if class_id in seen:
                raise FormatError(path, lineno, f"duplicate class_id {class_id!r}")
            seen.add(class_id)
            try:
                image_count = int(count_text)
            except ValueError:
                raise FormatError(path, lineno, f"image_count {count_text!r} is not an integer") from None
            yield lineno, payload, (lineno, class_id, synset_id, image_count)

    out = []
    for (lineno, class_id, synset_id, image_count), vector in _triplet_lines(path, manifest, lines()):
        try:
            out.append(ClassEmbedding(class_id, synset_id, vector, image_count))
        except ValidationError as exc:
            raise FormatError(path, lineno, str(exc)) from None
    if not out:
        raise FormatError(path, 1, "class embeddings file is empty")
    return out


# -- distance matrix CSV ------------------------------------------------------


def write_distance_matrix_csv(matrix: DistanceMatrix, path) -> None:
    """Header row of labels, then one row of %.9g cells per class.

    A label may hold a comma, a quote or LF, which the header quotes, but not
    CR, at which the loader's line reader would split the header.
    """
    for label in matrix.labels:
        if "\r" in label:
            raise ValidationError(f"distance matrix label {label!r} contains CR")
    # mirror the upper triangle so the file is exactly symmetric
    vals = np.triu(matrix.values) + np.triu(matrix.values, 1).T
    # one % call formats a row; a %.9g cell never needs CSV quoting
    row_format = ",".join(["%.9g"] * matrix.size)
    rows = (row_format % tuple(row.tolist()) for row in vals)
    _write_lines(path, chain([_csv_line(matrix.labels)], rows))


def load_distance_matrix_csv(path) -> DistanceMatrix:
    reader = _csv_rows(path, "distance matrix CSV")
    labels = next(reader)
    n = len(labels)
    # Rows fill one array that doubles as they come, up to n rows: a header
    # with more labels than the file has rows asks for no n x n array, and
    # each outgrown array goes back to the system, as many small row arrays
    # freed from the heap would not.
    values = np.empty((min(n, 1), n))
    count = 0
    for lineno, row in reader:
        try:
            cells = [float(c) for c in row]
        except ValueError:
            raise FormatError(path, lineno, "non-numeric cell") from None
        if count < n:
            if count == len(values):
                values = np.concatenate([values, np.empty((min(count, n - count), n))])
            values[count] = cells
        count += 1
    if count != n:
        raise FormatError(path, 1, f"expected {n} rows, got {count}")
    try:
        return DistanceMatrix(labels, values)
    except ValidationError as exc:
        raise FormatError(path, 1, str(exc)) from None


# -- coordinates and eigenvalues ----------------------------------------------


def write_coordinates_csv(coords: EmbeddingCoordinates, path) -> None:
    if coords.dims <= 3:
        axes = ["x", "y", "z"][: coords.dims]
    else:
        axes = [f"x{i}" for i in range(coords.dims)]
    _write_csv(
        path,
        ["label", *axes],
        ([label, *(_fmt(v) for v in row)] for label, row in zip(coords.labels, coords.coords)),
    )


def load_coordinates_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    reader = _csv_rows(path, "coordinates CSV")
    next(reader)
    labels = []
    rows = []
    for lineno, row in reader:
        labels.append(row[0])
        try:
            rows.append([float(c) for c in row[1:]])
        except ValueError:
            raise FormatError(path, lineno, "non-numeric coordinate") from None
    return tuple(labels), np.array(rows)


def write_eigenvalues_csv(coords: EmbeddingCoordinates, path) -> None:
    """Full descending spectrum; the first `dims` rows back the coordinates."""
    _write_csv(
        path,
        ["rank", "eigenvalue", "used"],
        (
            [i + 1, _fmt(value), "yes" if i < coords.dims else "no"]
            for i, value in enumerate(coords.eigenvalues)
        ),
    )


# -- scatter SVG ---------------------------------------------------------------

SVG_SIZE = 800
SVG_POINT_RADIUS = 4
SVG_MARGIN_FRACTION = 0.05
DEFAULT_SHADE = "#bbbbbb"
HIGHLIGHT_SHADES = ("#000000", "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00")


def load_highlights(path) -> dict[str, list[str]]:
    """Highlight sets for a scatter SVG, in first-appearance order: lines of
    ``set_name TAB class_id``, or a bare class_id, which joins set "highlight"."""
    sets: dict[str, list[str]] = {}
    for lineno, line in _tsv_lines(path):
        fields = line.split("\t")
        if len(fields) > 2:
            message = f"expected class_id or set_name TAB class_id, got {len(fields)} fields"
            raise FormatError(path, lineno, message)
        if not all(fields):
            raise FormatError(path, lineno, "empty set name or class_id")
        name, cid = fields if len(fields) == 2 else ("highlight", fields[0])
        sets.setdefault(name, []).append(cid)
    return sets


def check_highlights(highlight_sets: Mapping[str, Iterable[str]], labels: Iterable[str]) -> None:
    """Refuse a highlighted class id that is not among the labels."""
    known = set(labels)
    for name, ids in highlight_sets.items():
        for cid in ids:
            if cid not in known:
                raise ValidationError(f"highlight set {name!r}: unknown class {cid!r}")


def write_scatter_svg(
    coords: EmbeddingCoordinates,
    highlight_sets: Mapping[str, Iterable[str]] | None,
    path,
) -> None:
    """One circle per class, geometry-preserving fit with a 5% margin.

    Highlight sets are drawn in fixed shades, first set black; remaining
    classes use a light default shade. Only 2-D embeddings are accepted.
    """
    if coords.dims != 2:
        raise ValidationError(f"scatter SVG requires 2-D coordinates, got {coords.dims}-D")
    highlight_sets = {name: list(ids) for name, ids in (highlight_sets or {}).items()}
    check_highlights(highlight_sets, coords.labels)
    shade_of: dict[str, str] = {}
    legend: list[tuple[str, str]] = []
    for i, (name, ids) in enumerate(highlight_sets.items()):
        shade = HIGHLIGHT_SHADES[i % len(HIGHLIGHT_SHADES)]
        legend.append((name, shade))
        shade_of.update(dict.fromkeys(ids, shade))

    xy = coords.coords
    margin = SVG_SIZE * SVG_MARGIN_FRACTION
    inner = SVG_SIZE - 2 * margin
    spans = xy.max(axis=0) - xy.min(axis=0)
    scale = inner / max(float(spans.max()), 1e-300)
    # uniform scale preserves the embedding geometry; center both axes
    offsets = margin + (inner - spans * scale) / 2.0
    mins = xy.min(axis=0)

    def to_svg(px: float, py: float) -> tuple[float, float]:
        sx = offsets[0] + (px - mins[0]) * scale
        sy = SVG_SIZE - (offsets[1] + (py - mins[1]) * scale)  # flip y upward
        return sx, sy

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="#ffffff"/>',
    ]
    for label, (px, py) in zip(coords.labels, xy):
        sx, sy = to_svg(float(px), float(py))
        fill = shade_of.get(label, DEFAULT_SHADE)
        lines.append(
            f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="{SVG_POINT_RADIUS}" fill="{fill}">'
            f"<title>{html.escape(label, quote=False)}</title></circle>"
        )
    for i, (name, shade) in enumerate(legend):
        ly = 20 + 18 * i
        lines.append(f'<circle cx="16" cy="{ly}" r="5" fill="{shade}"/>')
        lines.append(
            f'<text x="28" y="{ly + 4}" font-size="13" fill="#333333">'
            f"{html.escape(name, quote=False)}</text>"
        )
    lines.append("</svg>")
    _write_lines(path, lines)


# -- rho tables -----------------------------------------------------------------


def write_rho_csv(distributions: Sequence[RhoDistribution], path) -> None:
    """Long form: class_id, measure, corpus, rho."""
    _write_csv(
        path,
        ["class_id", "measure", "corpus", "rho"],
        (
            [cid, dist.measure, dist.corpus or "", _fmt(rho)]
            for dist in distributions
            for cid, rho in zip(dist.class_ids, dist.rhos)
        ),
    )


def write_rho_summary_csv(distributions: Sequence[RhoDistribution], path) -> None:
    _write_csv(
        path,
        ["measure", "corpus", "n_classes", "mean_rho"],
        ([dist.measure, dist.corpus or "", len(dist), _fmt(dist.mean)] for dist in distributions),
    )


def write_histogram_csv(dist: RhoDistribution, path) -> None:
    """Rows bin_lo, bin_hi, count over the fixed [-1, 1] 0.05-wide bins."""
    edges, counts = dist.histogram()
    _write_csv(
        path,
        ["bin_lo", "bin_hi", "count"],
        ([_fmt(lo), _fmt(hi), int(count)] for lo, hi, count in zip(edges[:-1], edges[1:], counts)),
    )


# -- equation results --------------------------------------------------------------


def write_equation_csv(result: EquationResult, path) -> None:
    _write_csv(
        path,
        ["rank", "class_id", "similarity"],
        ([rank, cid, _fmt(sim)] for rank, (cid, sim) in enumerate(result.neighbors, start=1)),
    )


def format_equation_table(result: EquationResult) -> str:
    """Plain text table for terminal output."""
    width = max([len(cid) for cid, _ in result.neighbors] + [8])
    lines = [f"query: {result.query}"]
    if result.excluded:
        lines.append(f"excluded: {', '.join(result.excluded)}")
    lines.append(f"{'rank':>4}  {'class_id':<{width}}  similarity")
    for rank, (cid, sim) in enumerate(result.neighbors, start=1):
        lines.append(f"{rank:>4}  {cid:<{width}}  {sim:.6f}")
    return "\n".join(lines)
