"""File format round-trips, positional error reporting, and artifact writers."""

import csv
import io
import itertools
import sys
import tempfile
import time
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import classvec.io as cvio
from classvec import (
    DEFAULT_CONFIG,
    ClassEmbedding,
    DistanceMatrix,
    EmbeddingCoordinates,
    EquationResult,
    FormatError,
    LayerManifest,
    ManifestError,
    RhoDistribution,
    SparseActivationVector,
    Taxonomy,
    UnknownClassError,
    ValidationError,
    build_class_embeddings,
    classical_mds,
    evaluate_all,
)
from helpers import random_vector, reference_parse_triplets, small_manifest


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# -- line rules shared by every loader ----------------------------------------

# loader, a good first line, a third line with the wrong field or cell count,
# its message, and the empty-file message (None: an empty file is no records)
SHAPES = {
    "manifest": (
        cvio.load_manifest, "a\tlow\t4", "b\tlow",
        "expected 3 tab-separated fields, got 2", "manifest file is empty",
    ),
    "activations": (
        lambda p: list(cvio.stream_activations(p, small_manifest())),
        "img0\tcls0\ta1:0:1.0", "img1\tcls0",
        "expected 3 tab-separated fields, got 2", None,
    ),
    "taxonomy": (
        cvio.load_taxonomy_edges, "dog\tanimal", "cat\tanimal\tpet",
        "expected child TAB parent, got 3 fields", "taxonomy file is empty",
    ),
    "counts": (
        cvio.load_counts, "a\t3", "b", "expected synset TAB count, got 1 fields",
        "counts file is empty",
    ),
    "class-map": (
        cvio.load_class_map, "c0\tdog", "c1\tcat\t", "expected class_id TAB synset_id, got 3 fields",
        "class map file is empty",
    ),
    "embeddings": (
        lambda p: cvio.load_class_embeddings(p, small_manifest()),
        "c0\tn0\t3\ta1:0:1.0", "c1\tn1\t3",
        "expected 4 tab-separated fields, got 3", "class embeddings file is empty",
    ),
    "highlights": (
        lambda p: list(cvio.load_highlights(p).items()), "fam\tc0", "fam\tc1\tc2",
        "expected class_id or set_name TAB class_id, got 3 fields", None,
    ),
    "distance-csv": (
        cvio.load_distance_matrix_csv, "a,b", "0", "expected 2 cells, got 1",
        "distance matrix CSV is empty",
    ),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_wrong_field_count_after_blank_line_names_line_three(tmp_path, shape):
    load, first, bad, message, _ = SHAPES[shape]
    p = write(tmp_path / "f.txt", f"{first}\n\n{bad}\n")
    with pytest.raises(FormatError) as err:
        load(p)
    assert str(err.value) == f"{p}:3: {message}"
    assert err.value.line == 3


@pytest.mark.parametrize("shape", [shape for shape in SHAPES if not shape.endswith("-csv")])
def test_crlf_line_ending_is_refused_at_its_line(tmp_path, shape):
    load, first, _, _, _ = SHAPES[shape]
    p = write(tmp_path / "f.txt", f"{first}\n{first}\r\n")
    with pytest.raises(FormatError) as err:
        load(p)
    assert str(err.value) == f"{p}:2: line ends in CR (CRLF line ending); expected LF"


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("bad", [b"\xff", b"\xc3"])  # not UTF-8; a cut two-byte sequence
def test_byte_that_is_not_utf8_is_refused_at_its_line(tmp_path, shape, bad):
    load, first, _, _, _ = SHAPES[shape]
    p = tmp_path / "f.txt"
    p.write_bytes(f"{first}\n".encode() + bad + f"{first}\n".encode())
    with pytest.raises(FormatError) as err:
        load(p)
    assert str(err.value) == f"{p}:2: byte 0x{bad[0]:02x} is not valid UTF-8"


def test_utf8_beyond_ascii_is_read(tmp_path):
    p = write(tmp_path / "m.tsv", "c0\tcaf\u00e9\nc1\t\u72ac\n")
    assert cvio.load_class_map(p) == {"c0": "caf\u00e9", "c1": "\u72ac"}
    p = write(tmp_path / "d.csv", "\u00e9,b\n0,1\n1,0\n")
    assert cvio.load_distance_matrix_csv(p).labels == ("\u00e9", "b")


@pytest.mark.parametrize("shape", SHAPES)
def test_empty_file_message(tmp_path, shape):
    load, _, _, _, message = SHAPES[shape]
    p = write(tmp_path / "f.txt", "")
    if message is None:
        assert load(p) == []
        return
    with pytest.raises(FormatError) as err:
        load(p)
    assert str(err.value) == f"{p}:1: {message}"


# -- manifest ----------------------------------------------------------------


def test_manifest_round_trip_is_byte_identical(tmp_path):
    m = small_manifest()
    p1 = tmp_path / "m1.tsv"
    p2 = tmp_path / "m2.tsv"
    cvio.write_manifest(m, p1)
    loaded = cvio.load_manifest(p1)
    assert loaded == m
    cvio.write_manifest(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_manifest_bad_field_count_reports_line(tmp_path):
    p = write(tmp_path / "m.tsv", "a\tlow\t4\nbroken line\n")
    with pytest.raises(FormatError) as err:
        cvio.load_manifest(p)
    assert err.value.line == 2
    assert str(p) in str(err.value)


def test_manifest_non_integer_dim(tmp_path):
    p = write(tmp_path / "m.tsv", "a\tlow\tfour\n")
    with pytest.raises(FormatError, match="not an integer"):
        cvio.load_manifest(p)


def test_manifest_non_positive_dim(tmp_path):
    p = write(tmp_path / "m.tsv", "a\tlow\t0\n")
    with pytest.raises(FormatError, match="non-positive"):
        cvio.load_manifest(p)


def test_manifest_duplicate_layer(tmp_path):
    p = write(tmp_path / "m.tsv", "a\tlow\t4\na\tmid\t8\n")
    with pytest.raises(FormatError) as err:
        cvio.load_manifest(p)
    assert err.value.line == 2


def test_manifest_empty_file(tmp_path):
    p = write(tmp_path / "m.tsv", "")
    with pytest.raises(FormatError, match="empty"):
        cvio.load_manifest(p)


@pytest.mark.parametrize("layer_id", ["conv 1", "", "a\u00a0b", "x\x0by"])
def test_manifest_layer_ids_must_be_triplet_tokens(tmp_path, layer_id):
    p = write(tmp_path / "m.tsv", f"a\tlow\t4\n{layer_id}\tlow\t8\n")
    with pytest.raises(FormatError, match="empty or contains whitespace") as err:
        cvio.load_manifest(p)
    assert err.value.line == 2
    # no manifest holds such an id, so no writer meets one
    with pytest.raises(ManifestError, match="empty or contains whitespace"):
        LayerManifest([("a", "low", 4), (layer_id, "low", 8)])


MANIFEST_CHARS = st.sampled_from(["a", "b", ":", " ", "\t", "\n", "\r", "\u00a0", "\x0b"])


@given(
    layers=st.lists(
        st.tuples(
            st.text(MANIFEST_CHARS, max_size=3),
            st.text(MANIFEST_CHARS, max_size=3),
            st.one_of(st.integers(-1, 40), st.sampled_from([4.5, 4.0, 1e9]), st.booleans()),
        ),
        max_size=4,
    )
)
@example(layers=[("a", "g", 4.5)])
@example(layers=[("a", "p\rq", 2)])
@example(layers=[("a", "a\x0b\u00a0 :", 3), ("b:", "", 1)])
def test_every_manifest_that_is_built_round_trips(layers):
    try:
        m = LayerManifest(layers)
    except ManifestError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.tsv"
        cvio.write_manifest(m, path)
        assert cvio.load_manifest(path) == m


# -- activations ---------------------------------------------------------------


def test_activations_round_trip_preserves_order_and_values(tmp_path):
    m = small_manifest()
    rng = np.random.default_rng(7)
    records = [
        cvio.ActivationRecord(f"img{i:02d}", f"cls{i % 2}", random_vector(rng, m, 0.5))
        for i in range(6)
    ]
    p1 = tmp_path / "a1.tsv"
    p2 = tmp_path / "a2.tsv"
    cvio.write_activations(records, p1)
    loaded = list(cvio.stream_activations(p1, m))
    assert [(r.image_id, r.class_id) for r in loaded] == [
        (r.image_id, r.class_id) for r in records
    ]
    for got, want in zip(loaded, records):
        assert got.vector == want.vector
    cvio.write_activations(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_activations_zero_vector_round_trips(tmp_path):
    m = small_manifest()
    rec = cvio.ActivationRecord("img0", "cls0", SparseActivationVector(m, {}))
    p = tmp_path / "a.tsv"
    cvio.write_activations([rec], p)
    (got,) = list(cvio.stream_activations(p, m))
    assert got.vector.is_zero


def test_activations_malformed_triplet(tmp_path):
    m = small_manifest()
    p = write(tmp_path / "a.tsv", "img0\tcls0\ta1:3\n")
    with pytest.raises(FormatError, match="malformed triplet"):
        list(cvio.stream_activations(p, m))


def test_activations_unknown_layer(tmp_path):
    m = small_manifest()
    p = write(tmp_path / "a.tsv", "img0\tcls0\tnope:0:1.5\n")
    with pytest.raises(FormatError, match="unknown layer_id 'nope'"):
        list(cvio.stream_activations(p, m))


def test_activations_index_out_of_range_names_layer_and_dim(tmp_path):
    m = small_manifest()  # layer a2 has dim 8
    p = write(tmp_path / "a.tsv", "ok\tcls0\ta1:0:1.0\nimg\tcls0\ta2:8:1.0\n")
    with pytest.raises(FormatError) as err:
        list(cvio.stream_activations(p, m))
    assert err.value.line == 2
    assert "a2" in str(err.value) and "8" in str(err.value)


def test_activations_negative_value(tmp_path):
    m = small_manifest()
    p = write(tmp_path / "a.tsv", "img0\tcls0\ta1:0:-1.0\n")
    with pytest.raises(FormatError, match="bad value"):
        list(cvio.stream_activations(p, m))


def test_activations_non_finite_value(tmp_path):
    m = small_manifest()
    p = write(tmp_path / "a.tsv", "img0\tcls0\ta1:0:nan\n")
    with pytest.raises(FormatError, match="bad value"):
        list(cvio.stream_activations(p, m))


def test_activations_duplicate_index_reported_with_position(tmp_path):
    m = small_manifest()
    p = write(tmp_path / "a.tsv", "img0\tcls0\ta1:2:1.0 a1:2:3.0\n")
    with pytest.raises(FormatError) as err:
        list(cvio.stream_activations(p, m))
    assert err.value.line == 1


def test_activations_field_count(tmp_path):
    m = small_manifest()
    p = write(tmp_path / "a.tsv", "img0\tcls0\n")
    with pytest.raises(FormatError, match="3 tab-separated fields"):
        list(cvio.stream_activations(p, m))


def test_streaming_keeps_memory_flat(tmp_path):
    """Consuming a file one record at a time must not hold all records."""
    m = LayerManifest([("L", "g", 256)])
    rng = np.random.default_rng(3)
    p = tmp_path / "big.tsv"
    with open(p, "w", encoding="utf-8") as fh:
        for i in range(2000):
            idx = np.sort(rng.choice(256, size=100, replace=False))
            triplets = " ".join(f"L:{j}:0.5" for j in idx)
            fh.write(f"img{i:05d}\tcls{i % 7}\t{triplets}\n")
    file_bytes = p.stat().st_size
    assert file_bytes > 1_500_000

    tracemalloc.start()
    count = 0
    for rec in cvio.stream_activations(p, m):
        count += rec.vector.nnz
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == 2000 * 100
    # holding every parsed record would need >3 MB of arrays alone
    assert peak < file_bytes / 2


# -- triplet field, shared by activations and class embeddings -----------------

# each loader's line prefix before the triplet field
LOADERS = {
    "activations": (lambda p, m: list(cvio.stream_activations(p, m)), "img{}\tcls0\t"),
    "embeddings": (cvio.load_class_embeddings, "c{}\tn{}\t3\t"),
}

BAD_PAYLOADS = [
    pytest.param("a1:3", "malformed triplet 'a1:3'", id="malformed"),
    pytest.param("a1:0:1.0  a1:1:1.0", "malformed triplet ''", id="double-space"),
    pytest.param("a1:x:1.0", "malformed triplet 'a1:x:1.0'", id="bad-number"),
    pytest.param("nope:0:1.5", "unknown layer_id 'nope'", id="unknown-layer"),
    pytest.param("a1:0:1.0 a2:8:1.0", "layer 'a2': index 8 out of range (dim 8)", id="index-range"),
    pytest.param(
        "a1:99999999999999999999:1.0",
        "layer 'a1': index 99999999999999999999 out of range (dim 16)",
        id="index-beyond-int64",
    ),
    pytest.param("a1:0:-1.0", "layer 'a1': bad value '-1.0'", id="negative"),
    pytest.param("a1:0:nan", "layer 'a1': bad value 'nan'", id="nan"),
    pytest.param("a1:0:1e999", "layer 'a1': bad value '1e999'", id="inf"),
    # a2 repeats an index and appears before a1, which repeats one too
    pytest.param(
        "b1:4:1.0 a2:1:1.0 a1:2:1.0 b1:5:1.0 a1:2:3.0 a2:1:1.0",
        "layer 'a2': duplicate feature index 1",
        id="duplicate-interleaved",
    ),
    # the first faulty triplet is reported, and a repeat only when nothing else is wrong
    pytest.param("a1:0:-1.0 nope:0:1.0", "layer 'a1': bad value '-1.0'", id="first-fault-value"),
    pytest.param("nope:0:1.0 a1:0:-1.0", "unknown layer_id 'nope'", id="first-fault-layer"),
    pytest.param("a1:2:1.0 a1:2:1.0 a2:9:1.0", "layer 'a2': index 9 out of range (dim 8)", id="repeat-last"),
]


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("payload, message", BAD_PAYLOADS)
def test_both_loaders_report_bad_triplets_alike(tmp_path, loader, payload, message):
    load, prefix = LOADERS[loader]
    text = f"{prefix.format(0, 0)}a1:0:1.0\n{prefix.format(1, 1)}{payload}\n"
    p = write(tmp_path / "bad.tsv", text)
    with pytest.raises(FormatError) as err:
        load(p, small_manifest())
    assert err.value.line == 2
    assert str(err.value) == f"{p}:2: {message}"


def test_both_loaders_split_triplets_at_the_last_two_colons(tmp_path):
    m = LayerManifest([("x:y", "g", 4), (":", "g", 3), ("b", "g", 2)])
    payload = "x:y:3:0.5 b:1:2.0 ::2:1.5 x:y:0:0.25"
    want = SparseActivationVector(m, {"x:y": ([3, 0], [0.5, 0.25]), ":": ([2], [1.5]), "b": ([1], [2.0])})
    for loader, (load, prefix) in LOADERS.items():
        p = write(tmp_path / f"{loader}.tsv", f"{prefix.format(0, 0)}{payload}\n")
        (got,) = [r.vector for r in load(p, m)]
        assert got == want
        assert got.stored_layers == ("x:y", ":", "b")
    p = write(tmp_path / "bad.tsv", "img0\tcls0\tx:y:4:1.0\n")
    with pytest.raises(FormatError, match=r"layer 'x:y': index 4 out of range \(dim 4\)"):
        list(cvio.stream_activations(p, m))


# the longest layer id is not ASCII, so its lines test the reader's width and
# the bulk read of non-ASCII lines
WALK_MANIFEST = LayerManifest([("a1", "g", 6), ("x:y", "g", 4), ("b", "h", 3), ("lé層g", "h", 2)])

# control and non-printable characters, which int() and float() strip or refuse
# where NumPy's text reader may do otherwise; no loader passes a tab in a triplet
# field, but _parse_triplets must still refuse one
CONTROL = ["\x00", "\x1c", "\x1d", "\x1e", "\x1f", "\x7f", "\t", "\x0b", "\r", "\x85", "\xa0"]

# spellings of each part of a triplet of WALK_MANIFEST: faulty ones, and ones that
# the text reader reads otherwise than int() and float() do, or refuses
FAULTY_PARTS = {
    # "lé層gz" is one character longer than any layer id
    "layer": ["zz", "x", "a1:y", "lé層gz", *(f"a1{c}" for c in CONTROL)],
    "index": ["6", "-1", str(10**20), "x", "1.5", "", "1_0", "+5", "-0", *(f"1{c}" for c in CONTROL)],
    "value": [
        "-1.0", "-1e-300", "nan", "inf", "1e999", "x", "1.0.0", "", "1_0", "+5", "-0",
        "0x1p3", "1.5d0", "nan(1)", *(f"0.5{c}" for c in CONTROL),
    ],
}
MALFORMED = ["", "a1:3", "b", "x:y", "zz:-1", *CONTROL]

# shortest and long decimal spellings of any non-negative double, subnormals included
VALUES = st.one_of(
    st.floats(0, sys.float_info.max).map(repr),
    st.floats(0, sys.float_info.max).map("{:.25e}".format),
    st.sampled_from(["0", "-0.0", "3", "+2.5"]),
)


@st.composite
def triplet_fields(draw):
    """A triplet field of WALK_MANIFEST: valid triplets in any order, and up
    to three more put in at random places. Each of those is malformed,
    repeats an index, or has a faulty part, and maybe faulty parts after it."""
    m = WALK_MANIFEST
    cells = [(spec.layer_id, i) for spec in m for i in range(spec.dim)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=10))
    tokens = [f"{lid}:{i}:{draw(VALUES)}" for lid, i in chosen]
    kinds = ["malformed", "repeat", *FAULTY_PARTS]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        if kind == "malformed":
            token = draw(st.sampled_from(MALFORMED))
        elif kind == "repeat":
            if not chosen:
                continue
            lid, i = draw(st.sampled_from(chosen))
            token = f"{lid}:{i}:{draw(VALUES)}"
        else:
            lid, i = draw(st.sampled_from(cells))
            parts = [lid, str(i), draw(VALUES)]
            first = list(FAULTY_PARTS).index(kind)
            for k, spellings in enumerate(FAULTY_PARTS.values()):
                if k == first or (k > first and draw(st.booleans())):
                    parts[k] = draw(st.sampled_from(spellings))
            token = ":".join(parts)
        tokens.insert(draw(st.integers(0, len(tokens))), token)
    return " ".join(tokens)


def _read_one_line_batch(path, lineno, payload, manifest):
    """A field read as a batch of one line, by the batch read or, where it declines, the walk."""
    ((_, vector),) = cvio._read_batch(path, manifest, [(lineno, payload, None)], [len(payload.split(" "))])
    return vector


@pytest.mark.parametrize("walk_only", [False, True], ids=["bulk", "walk-only"])
@settings(max_examples=200)
@given(payload=triplet_fields())
@example(payload=" ")
@example(payload="   ")
def test_triplet_fields_match_per_token_reference(walk_only, payload):
    want = reference_parse_triplets(WALK_MANIFEST, payload)
    # called directly, as both loaders call them, so that the field may hold a tab or CR
    read = cvio._parse_triplets if walk_only else _read_one_line_batch
    with mock.patch.object(cvio, "_walk_triplets", wraps=cvio._walk_triplets) as walk:
        if isinstance(want, str):
            with pytest.raises(FormatError) as err:
                read("a.tsv", 1, payload, WALK_MANIFEST)
            assert str(err.value) == f"a.tsv:1: {want}"
        else:
            assert read("a.tsv", 1, payload, WALK_MANIFEST) == want
    # a valid printable field of layer ids without ':' and of spellings that the text reader
    # reads as int() and float() do is taken by the batch read, in any order and with any zeros
    in_batch = (
        payload.isprintable() and "x:y" not in payload and "_" not in payload and not isinstance(want, str)
    )
    assert walk.called == (bool(payload) and (walk_only or not in_batch))


@pytest.mark.parametrize(
    "payload",
    [
        *(
            f"b:0:1.0 {token.format(c)}"
            for c in CONTROL
            for token in ("a1{}:1:0.5", "a1:1{}:0.5", "a1:1:0.5{}", "{}a1:1:0.5", "lé層g:1:0.5{}")
        ),
        *("b:0:1.0  a1:1:0.5", " b:0:1.0", "b:0:1.0 ", " ", "   "),
        # the reader cuts a layer id to one character more than the longest one
        "b:0:1.0 lé層gz:1:0.5",
        # NumPy 1.23 deprecated reading a float in an integer column as an integer
        "b:0:1.0 a1:1.5:0.5",
    ],
)
def test_bulk_reader_declines_lines_it_would_misread(payload):
    # it strips control characters, skips empty triplets and cuts long layer ids
    assert cvio._bulk_triplets([payload], WALK_MANIFEST) is None


def test_bulk_reader_declines_a_float_index_that_the_reader_only_warns_about():
    # from NumPy 1.23 until the deprecation expires, the reader reads "1.5" in an
    # integer column as 1 and warns; the line must still go to the walk, also where
    # DeprecationWarning is ignored, as it is by default outside __main__
    real_loadtxt = np.loadtxt

    def lenient_loadtxt(tokens, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return real_loadtxt([token.replace(":1.5:", ":1:") for token in tokens], **kwargs)

    payload = "b:0:1.0 a1:1.5:0.5"
    with mock.patch.object(cvio.np, "loadtxt", lenient_loadtxt), warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        assert cvio._bulk_triplets([payload], WALK_MANIFEST) is None
        with pytest.raises(FormatError) as err:
            cvio._parse_triplets("a.tsv", 1, payload, WALK_MANIFEST)
    assert str(err.value) == "a.tsv:1: malformed triplet 'a1:1.5:0.5'"


# pieces of lines that need not be triplets at all
LINE_PIECES = [*"a1bxy:lé層gz0123456789.e+-_ ", "nan", "inf", "1_0", *CONTROL]


@settings(max_examples=300)
@given(payload=st.one_of(triplet_fields(), st.lists(st.sampled_from(LINE_PIECES), max_size=40).map("".join)))
def test_bulk_reader_matches_the_walk_or_declines(payload):
    if not payload:  # _parse_triplets reads an empty field as the zero vector
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cvio._bulk_triplets([payload], WALK_MANIFEST)
    if got is None:
        return
    try:
        want = cvio._walk_triplets("a.tsv", 1, payload, WALK_MANIFEST)
    except FormatError as exc:
        pytest.fail(f"read in bulk, but the walk refuses it: {exc}")
    for array, expected in zip(got, want):
        assert array.dtype == expected.dtype
        assert array.tobytes() == expected.tobytes()


# -- triplet fields read a batch of lines at a time ------------------------------

# WALK_MANIFEST and a layer wide enough for a valid field longer than a whole batch
BIG_DIM = cvio._BATCH_TRIPLETS + 200
BATCH_MANIFEST = LayerManifest([*WALK_MANIFEST, ("big", "h", BIG_DIM)])


# fields of triplet_fields() with the tab and CR that would split their line
# swapped for other control characters
LINE_FIELDS = triplet_fields().map(lambda field: field.replace("\t", "\x0b").replace("\r", "\x1c"))


@st.composite
def long_fields(draw):
    """A field of more "big" triplets than a default batch holds, maybe with
    explicit zeros among them, in index order or shuffled, maybe with a field
    of LINE_FIELDS after it."""
    n = draw(st.integers(cvio._BATCH_TRIPLETS + 1, BIG_DIM))
    start = draw(st.integers(0, BIG_DIM - n))
    zeros = draw(st.booleans())
    tokens = [f"big:{start + k}:{k % 5 * 0.25 if zeros else k % 5 + 0.5}" for k in range(n)]
    if draw(st.booleans()):
        draw(st.randoms(use_true_random=False)).shuffle(tokens)
    tail = draw(st.one_of(st.just(""), LINE_FIELDS))
    return " ".join([*tokens, tail] if tail else tokens)


# the cells of WALK_MANIFEST's layers that the text reader reads, in manifest order
BULK_CELLS = [
    (spec.layer_id, i) for spec in WALK_MANIFEST if ":" not in spec.layer_id for i in range(spec.dim)
]


def written_field(cells) -> str:
    """Distinct cells as the writers write them: indices ascending, values > 0."""
    cells = sorted(cells, key=BULK_CELLS.index)
    return " ".join(f"{lid}:{i}:{k + 0.5!r}" for k, (lid, i) in enumerate(cells))


@st.composite
def triplet_files(draw):
    """The triplet fields of a file's lines: empty ones, written ones, in half
    the files ones of LINE_FIELDS, and maybe one longer than a default batch.
    The other half are read in bulk a whole batch at a time."""
    written = st.lists(st.sampled_from(BULK_CELLS), unique=True, min_size=1, max_size=10)
    kinds = [st.just(""), written.map(written_field)]
    if draw(st.booleans()):
        kinds.append(LINE_FIELDS)
    fields = draw(st.lists(st.one_of(kinds), min_size=1, max_size=8))
    if draw(st.booleans()):
        fields.insert(draw(st.integers(0, len(fields))), draw(long_fields()))
    return fields


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(max_examples=100, deadline=None)
@given(fields=triplet_files())
def test_loaders_match_the_reference_line_for_line_at_any_batch_size(loader, fields):
    load, prefix = LOADERS[loader]
    wants = [reference_parse_triplets(BATCH_MANIFEST, field) for field in fields]
    fault = next(((k, want) for k, want in enumerate(wants, start=1) if isinstance(want, str)), None)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "f.tsv"
        text = "".join(f"{prefix.format(k, k)}{field}\n" for k, field in enumerate(fields))
        p.write_text(text, encoding="utf-8")
        for size in (1, 7, cvio._BATCH_TRIPLETS):
            with mock.patch.object(cvio, "_BATCH_TRIPLETS", size):
                if fault is None:
                    assert [r.vector for r in load(p, BATCH_MANIFEST)] == wants
                else:
                    with pytest.raises(FormatError) as err:
                        load(p, BATCH_MANIFEST)
                    assert str(err.value) == f"{p}:{fault[0]}: {fault[1]}"


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_fields_as_the_writers_write_them_are_read_one_batch_at_a_time(tmp_path, loader):
    m = small_manifest()
    three = SparseActivationVector(m, {"a1": ([0, 5], [1.0, 2.0]), "c1": ([3], [0.5])})
    ten = SparseActivationVector(m, {"b1": (np.arange(10), np.full(10, 0.25))})
    vectors = [three, SparseActivationVector(m, {}), three, three, ten, three]
    p = tmp_path / "f.tsv"
    if loader == "activations":
        cvio.write_activations([cvio.ActivationRecord(f"i{k}", "c", v) for k, v in enumerate(vectors)], p)
    else:
        cvio.write_class_embeddings([ClassEmbedding(f"c{k}", "s", v, 1) for k, v in enumerate(vectors)], p)
    # the same lines with their triplets reversed, and an explicit zero in the middle
    # of line 2, which stays the zero vector, and of line 5, a batch alone
    lines = []
    for k, line in enumerate(p.read_text(encoding="utf-8").splitlines()):
        head, field = line.rsplit("\t", 1)
        tokens = field.split(" ")[::-1] if field else []
        if k in (1, 4):
            tokens.insert(len(tokens) // 2, "c1:1:0.0")
        lines.append(f"{head}\t{' '.join(tokens)}\n")
    unwritten = write(tmp_path / "g.tsv", "".join(lines))
    load, _ = LOADERS[loader]
    for path in (p, unwritten):
        with ExitStack() as stack:
            stack.enter_context(mock.patch.object(cvio, "_BATCH_TRIPLETS", 7))
            loadtxt = stack.enter_context(mock.patch.object(cvio.np, "loadtxt", wraps=np.loadtxt))
            walk = stack.enter_context(mock.patch.object(cvio, "_walk_triplets"))
            got = [r.vector for r in load(path, m)]
        assert got == vectors
        # lines 1-3 (6 or 7 triplets), line 4, line 5 (10 or 11, longer than a batch) and line 6
        assert loadtxt.call_count == 4
        assert not walk.called


@pytest.mark.parametrize("fault", ["i3\tc0\ta1:3\n", "i3\tc0\ta1:3:1.0\r\n"], ids=["malformed", "crlf"])
def test_consumer_error_on_an_earlier_line_of_a_batch_comes_first(tmp_path, fault):
    m = small_manifest()
    p = write(tmp_path / "a.tsv", f"i0\tc0\ta1:0:1.0\ni1\tc9\ta1:1:1.0\ni2\tc0\ta1:2:1.0\n{fault}")
    assert cvio._BATCH_TRIPLETS >= 4  # the four lines are one batch
    with pytest.raises(UnknownClassError, match="record 'i1': unknown class 'c9'"):
        build_class_embeddings(cvio.stream_activations(p, m), DEFAULT_CONFIG, {"c0": "s0"}, m)


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_triplet_fault_beats_a_later_field_fault_of_its_batch(tmp_path, loader):
    load, prefix = LOADERS[loader]
    lines = [f"{prefix.format(k, k)}a1:{k}:1.0" for k in range(4)]
    lines[1] = f"{prefix.format(1, 1)}a1:1:-1.0"
    lines[3] = "too\tfew"
    p = write(tmp_path / "f.tsv", "".join(f"{line}\n" for line in lines))
    with pytest.raises(FormatError) as err:
        load(p, small_manifest())
    assert str(err.value) == f"{p}:2: layer 'a1': bad value '-1.0'"


def test_image_count_fault_beats_a_later_triplet_fault_of_its_batch(tmp_path):
    p = write(tmp_path / "e.tsv", "c0\tn0\t0\ta1:0:1.0\nc1\tn1\t3\tnope:0:1.0\n")
    with pytest.raises(FormatError) as err:
        cvio.load_class_embeddings(p, small_manifest())
    assert str(err.value) == f"{p}:1: class 'c0': image_count must be >= 1, got 0"


LAYER_ID_PARTS = ["a", "b", ":", "7", "é", "層", "_"]


@st.composite
def manifests_and_vectors(draw):
    ids = draw(
        st.lists(
            st.lists(st.sampled_from(LAYER_ID_PARTS), min_size=1, max_size=4).map("".join),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    m = LayerManifest([(lid, "g", draw(st.integers(1, 6))) for lid in ids])
    vecs = []
    for _ in range(draw(st.integers(1, 4))):
        entries = {}
        for spec in m:  # empty index sets leave silent layers and zero vectors
            idx = draw(st.lists(st.integers(0, spec.dim - 1), max_size=spec.dim, unique=True))
            # every positive finite double, subnormals included
            val = [draw(st.floats(5e-324, sys.float_info.max)) for _ in idx]
            entries[spec.layer_id] = (idx, val)
        vecs.append((entries, SparseActivationVector(m, entries)))
    return m, vecs


@given(case=manifests_and_vectors(), data=st.data())
def test_triplet_round_trip_property(case, data):
    m, vecs = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        cvio.write_manifest(m, d / "m.tsv")
        assert cvio.load_manifest(d / "m.tsv") == m

        records = [cvio.ActivationRecord(f"i{k}", "c", v) for k, (_, v) in enumerate(vecs)]
        embs = [ClassEmbedding(f"c{k}", f"s{k}", v, k + 1) for k, (_, v) in enumerate(vecs)]
        cvio.write_activations(records, d / "a1.tsv")
        cvio.write_class_embeddings(embs, d / "e1.tsv")
        loaded = [r.vector for r in cvio.stream_activations(d / "a1.tsv", m)]
        loaded_embs = cvio.load_class_embeddings(d / "e1.tsv", m)
        assert loaded == [v for _, v in vecs]
        assert [e.vector for e in loaded_embs] == [v for _, v in vecs]
        cvio.write_activations(
            [cvio.ActivationRecord(f"i{k}", "c", v) for k, v in enumerate(loaded)], d / "a2.tsv"
        )
        cvio.write_class_embeddings(loaded_embs, d / "e2.tsv")
        assert (d / "a1.tsv").read_bytes() == (d / "a2.tsv").read_bytes()
        assert (d / "e1.tsv").read_bytes() == (d / "e2.tsv").read_bytes()

        # hand-written lines: the same entries plus explicit zeros, shuffled across layers
        lines = []
        for entries, _ in vecs:
            triplets = []
            for lid, (idx, val) in entries.items():
                triplets += [f"{lid}:{i}:{v!r}" for i, v in zip(idx, val)]
                free = sorted(set(range(m.spec_of(lid).dim)) - set(idx))
                if free:
                    triplets += [f"{lid}:{i}:0.0" for i in data.draw(st.sets(st.sampled_from(free)))]
            lines.append(" ".join(data.draw(st.permutations(triplets))))
        (d / "a3.tsv").write_text(
            "".join(f"i{k}\tc\t{line}\n" for k, line in enumerate(lines)), encoding="utf-8"
        )
        (d / "e3.tsv").write_text(
            "".join(f"c{k}\ts{k}\t1\t{line}\n" for k, line in enumerate(lines)), encoding="utf-8"
        )
        want = [v for _, v in vecs]
        assert [r.vector for r in cvio.stream_activations(d / "a3.tsv", m)] == want
        assert [e.vector for e in cvio.load_class_embeddings(d / "e3.tsv", m)] == want


def test_activation_class_sizes_counts_lines_without_checking_them(tmp_path):
    path = tmp_path / "a.tsv"
    path.write_bytes(
        b"i0\tc0\tL:1:0.5\n\ni1\tc1\t\ni2\tc0\tnot a triplet\r\n"
        b"i3\tc1\n"  # two fields: not counted
        b"i4\tc\xe9\tL:1:0.5\n"  # not UTF-8: the stream refuses it later
    )
    assert cvio.activation_class_sizes(path) == {"c0": 2, "c1": 1, "c\ufffd": 1}


def reference_triplets(vector):
    """The triplet field formatted one entry at a time."""
    return " ".join(f"{lid}:{i}:{v!r}" for lid, i, v in vector.iter_entries())


@given(
    first=manifests_and_vectors(),
    second=manifests_and_vectors(),
    picks=st.lists(st.tuples(st.booleans(), st.integers(0, 3)), min_size=1, max_size=12),
    cap=st.sampled_from([None, 1, 2, 5]),
)
def test_memoized_triplets_match_per_element_reference(first, second, picks, cap):
    # vectors of two manifests interleaved, repeats included, so memo entries are reused
    vectors = []
    for use_second, k in picks:
        vecs = (second if use_second else first)[1]
        vectors.append(vecs[k % len(vecs)][1])
    with ExitStack() as stack, tempfile.TemporaryDirectory() as tmp:
        if cap is not None:
            stack.enter_context(mock.patch.object(cvio._Texts, "cap", cap))
        memo = cvio._TripletMemo()
        stored: set[int] = set()  # flattened indices stored since the heads table started afresh
        for v in vectors:
            if not v.is_zero and v.manifest is not memo.manifest:
                stored = set()
            assert cvio._format_triplets(v, memo) == reference_triplets(v)
            assert len(memo.texts) <= cvio._Texts.cap
            stored |= set(v._keys.tolist())
            if memo.manifest is not None:  # one slot per flattened index, a head only where stored
                assert len(memo.heads) == memo.manifest.total_dim
                assert {k for k, head in enumerate(memo.heads) if head is not None} == stored
        path = Path(tmp) / "a.tsv"
        cvio.write_activations(
            [cvio.ActivationRecord(f"i{k}", "c", v) for k, v in enumerate(vectors)], path
        )
        assert path.read_text(encoding="utf-8") == "".join(
            f"i{k}\tc\t{reference_triplets(v)}\n" for k, v in enumerate(vectors)
        )


def test_each_head_is_made_once_per_write_call(tmp_path):
    # more distinct heads than one 2**16-entry table would hold, each vector written twice
    m = LayerManifest([("a", "low", 50_000), ("b", "high", 50_000)])
    v1 = SparseActivationVector(m, {"a": (np.arange(50_000), np.full(50_000, 0.5))})
    v2 = SparseActivationVector(
        m, {"a": (np.arange(0, 50_000, 2), np.full(25_000, 1.5)), "b": ([7, 9], [1.0, 2.0])}
    )
    v3 = SparseActivationVector(m, {"b": (np.arange(20_000), np.full(20_000, 0.25))})
    vectors = [v1, v2, v3, v1, v2, v3]
    distinct = len(set().union(*(v._keys.tolist() for v in vectors)))
    assert distinct == 70_000
    cvio.write_activations(
        [cvio.ActivationRecord(f"i{k}", "c", v) for k, v in enumerate(vectors)], tmp_path / "a.tsv"
    )
    # a head made once is the same object whenever a later vector stores its index
    memo = cvio._TripletMemo()
    first = [memo.heads_of(v) for v in vectors[:3]]
    for v, heads in zip(vectors[3:], first):
        assert all(again is head for again, head in zip(memo.heads_of(v), heads))
    assert (tmp_path / "a.tsv").read_text(encoding="utf-8") == "".join(
        f"i{k}\tc\t{reference_triplets(v)}\n" for k, v in enumerate(vectors)
    )


# -- taxonomy and counts --------------------------------------------------------


def test_taxonomy_edges_round_trip(tmp_path):
    edges = [("dog", "animal"), ("cat", "animal"), ("animal", "root")]
    p1 = tmp_path / "t1.tsv"
    p2 = tmp_path / "t2.tsv"
    cvio.write_taxonomy_edges(edges, p1)
    loaded = cvio.load_taxonomy_edges(p1)
    assert loaded == edges
    cvio.write_taxonomy_edges(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_taxonomy_builds_hierarchy(tmp_path):
    p = write(tmp_path / "t.tsv", "dog\tanimal\ncat\tanimal\nanimal\troot\n")
    tax = cvio.load_taxonomy(p)
    assert isinstance(tax, Taxonomy)
    assert tax.root == "root"
    assert tax.depth("dog") == 3


def test_taxonomy_bad_field_count(tmp_path):
    p = write(tmp_path / "t.tsv", "dog\tanimal\textra\n")
    with pytest.raises(FormatError) as err:
        cvio.load_taxonomy_edges(p)
    assert err.value.line == 1


def test_taxonomy_empty_file(tmp_path):
    p = write(tmp_path / "t.tsv", "\n\n")
    with pytest.raises(FormatError, match="empty"):
        cvio.load_taxonomy_edges(p)


def test_counts_round_trip_and_errors(tmp_path):
    counts = {"b": 5, "a": 12, "c": 0}
    p1 = tmp_path / "c1.tsv"
    p2 = tmp_path / "c2.tsv"
    cvio.write_counts(counts, p1)
    assert p1.read_text(encoding="utf-8") == "a\t12\nb\t5\nc\t0\n"
    loaded = cvio.load_counts(p1)
    assert loaded == counts
    cvio.write_counts(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()

    bad = write(tmp_path / "dup.tsv", "a\t3\na\t4\n")
    with pytest.raises(FormatError) as err:
        cvio.load_counts(bad)
    assert err.value.line == 2

    with pytest.raises(FormatError, match="negative"):
        cvio.load_counts(write(tmp_path / "neg.tsv", "a\t-1\n"))
    with pytest.raises(FormatError, match="not an integer"):
        cvio.load_counts(write(tmp_path / "txt.tsv", "a\tmany\n"))
    with pytest.raises(FormatError, match="empty"):
        cvio.load_counts(write(tmp_path / "empty.tsv", ""))


# -- class map -------------------------------------------------------------------


def test_class_map_round_trip(tmp_path):
    mapping = {"c01": "dog", "c00": "cat"}
    p1 = tmp_path / "cm1.tsv"
    p2 = tmp_path / "cm2.tsv"
    cvio.write_class_map(mapping, p1)
    loaded = cvio.load_class_map(p1)
    assert loaded == mapping
    cvio.write_class_map(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_class_map_rejects_duplicate_class(tmp_path):
    p = write(tmp_path / "cm.tsv", "c00\tdog\nc00\tcat\n")
    with pytest.raises(FormatError, match="duplicate class_id"):
        cvio.load_class_map(p)


def test_class_map_rejects_reused_synset(tmp_path):
    p = write(tmp_path / "cm.tsv", "c00\tdog\nc01\tdog\n")
    with pytest.raises(FormatError) as err:
        cvio.load_class_map(p)
    assert err.value.line == 2
    assert "already mapped at line 1" in str(err.value)


def test_class_map_checks_taxonomy_membership(tmp_path):
    tax = Taxonomy([("dog", "root"), ("cat", "root")])
    p = write(tmp_path / "cm.tsv", "c00\tdog\nc01\tbird\n")
    with pytest.raises(FormatError, match="not in taxonomy"):
        cvio.load_class_map(p, taxonomy=tax)
    ok = write(tmp_path / "ok.tsv", "c00\tdog\nc01\tcat\n")
    assert cvio.load_class_map(ok, taxonomy=tax) == {"c00": "dog", "c01": "cat"}


# -- class embeddings --------------------------------------------------------------


def test_class_embeddings_round_trip(tmp_path):
    m = small_manifest()
    rng = np.random.default_rng(11)
    embs = [
        ClassEmbedding(f"c{i:02d}", f"n{i:08d}", random_vector(rng, m, 0.4), i + 1)
        for i in range(5)
    ]
    p1 = tmp_path / "e1.tsv"
    p2 = tmp_path / "e2.tsv"
    cvio.write_class_embeddings(embs, p1)
    loaded = cvio.load_class_embeddings(p1, m)
    assert [e.class_id for e in loaded] == [e.class_id for e in embs]
    for got, want in zip(loaded, embs):
        assert got.synset_id == want.synset_id
        assert got.image_count == want.image_count
        assert got.vector == want.vector
    cvio.write_class_embeddings(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_class_embeddings_duplicate_class(tmp_path):
    p = write(tmp_path / "e.tsv", "c0\tn1\t3\ta1:0:1.0\nc0\tn2\t4\ta1:1:1.0\n")
    with pytest.raises(FormatError, match="duplicate class_id"):
        cvio.load_class_embeddings(p, small_manifest())


@pytest.mark.parametrize("ids", ["\t\t", "c0\t\t", "\tn0\t"])
def test_class_embeddings_empty_ids(tmp_path, ids):
    p = write(tmp_path / "e.tsv", f"c9\tn9\t1\ta1:0:1.0\n{ids}3\ta1:1:1.0\n")
    with pytest.raises(FormatError, match="empty class_id or synset_id") as err:
        cvio.load_class_embeddings(p, small_manifest())
    assert err.value.line == 2


def test_class_embeddings_empty_file(tmp_path):
    p = write(tmp_path / "e.tsv", "")
    with pytest.raises(FormatError, match="empty"):
        cvio.load_class_embeddings(p, small_manifest())


# -- distance matrix CSV --------------------------------------------------------------


def test_distance_csv_two_by_two(tmp_path):
    m = DistanceMatrix(["a", "b"], [[0.0, 0.5], [0.5, 0.0]])
    p = tmp_path / "d.csv"
    cvio.write_distance_matrix_csv(m, p)
    assert p.read_text(encoding="utf-8") == "a,b\n0,0.5\n0.5,0\n"
    loaded = cvio.load_distance_matrix_csv(p)
    assert loaded.labels == ("a", "b")
    assert np.array_equal(loaded.values, m.values)


def test_distance_csv_round_trip_close(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.random((10, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    m = DistanceMatrix([f"p{i}" for i in range(10)], d)
    p = tmp_path / "d.csv"
    cvio.write_distance_matrix_csv(m, p)
    loaded = cvio.load_distance_matrix_csv(p)
    assert loaded.labels == m.labels
    assert np.max(np.abs(loaded.values - m.values)) <= 1e-8
    assert np.all(np.diag(loaded.values) == 0.0)


def test_distance_csv_bad_cells(tmp_path):
    p = write(tmp_path / "d.csv", "a,b\n0,0.5\n0.5\n")
    with pytest.raises(FormatError) as err:
        cvio.load_distance_matrix_csv(p)
    assert err.value.line == 3

    p2 = write(tmp_path / "d2.csv", "a,b\n0,x\nx,0\n")
    with pytest.raises(FormatError, match="non-numeric"):
        cvio.load_distance_matrix_csv(p2)

    p3 = write(tmp_path / "d3.csv", "")
    with pytest.raises(FormatError, match="empty"):
        cvio.load_distance_matrix_csv(p3)


def test_distance_csv_numbers_file_lines_past_a_quoted_lf(tmp_path):
    # the header's second label holds LF, so the bad cell's row 3 is line 4
    p = write(tmp_path / "d.csv", 'a,"b\nc"\n0,1\n1,x\n')
    with pytest.raises(FormatError) as err:
        cvio.load_distance_matrix_csv(p)
    assert str(err.value) == f"{p}:4: non-numeric cell"


@pytest.mark.parametrize(
    "body, message",
    [
        # rows past n are counted, never stored
        ("0,1\n1,0\n1,1\n", "1: expected 2 rows, got 3"),
        ("0,1\n1,0\n1,1\n1,1\n1,1\n", "1: expected 2 rows, got 5"),
        ("0,1\n", "1: expected 2 rows, got 1"),
        ("0,1\nx,0\n", "3: non-numeric cell"),
        # a row past n is still read, so its bad cell comes before the count
        ("0,1\n1,0\n1,x\n", "4: non-numeric cell"),
    ],
    ids=["one-extra-row", "three-extra-rows", "missing-row", "non-numeric", "non-numeric-extra-row"],
)
def test_distance_csv_row_count_and_cells(tmp_path, body, message):
    p = write(tmp_path / "d.csv", "a,b\n" + body)
    with pytest.raises(FormatError) as err:
        cvio.load_distance_matrix_csv(p)
    assert str(err.value) == f"{p}:{message}"


def test_distance_csv_wide_header_fails_at_its_short_row(tmp_path):
    # a 100,000-label header must not make the loader ask for an n x n
    # array (74.5 GiB) before the short row below it is read
    header = ",".join(f"c{i}" for i in range(100_000))
    p = write(tmp_path / "d.csv", header + "\n0,1\n")
    with pytest.raises(FormatError) as err:
        cvio.load_distance_matrix_csv(p)
    assert str(err.value) == f"{p}:2: expected 100000 cells, got 2"


def cell_by_cell_distance_csv(matrix):
    """Oracle: the mirrored matrix as csv.writer writes f"{v:.9g}" cells, one call per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(matrix.labels)
    vals = np.triu(matrix.values) + np.triu(matrix.values, 1).T
    writer.writerows([f"{v:.9g}" for v in row] for row in vals)
    return buf.getvalue()


@st.composite
def distance_matrices(draw):
    n = draw(st.integers(1, 6))
    # every finite non-negative float: zero, subnormals and the largest float included
    cell = st.one_of(
        st.sampled_from([0.0, 5e-324, sys.float_info.min, sys.float_info.max]),
        st.floats(0.0, sys.float_info.min),
        st.floats(0.0, sys.float_info.max),
    )
    values = np.zeros((n, n))
    for i, j in itertools.combinations(range(n), 2):
        values[i, j] = draw(cell)
        # the lower triangle may differ within the tolerance; the matrix keeps the upper one
        values[j, i] = values[i, j] + draw(st.sampled_from([0.0, 1e-13]))
    label = st.text(st.characters(codec="utf-8", exclude_characters="\r"), max_size=4)
    labels = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    return DistanceMatrix(labels, values)


@settings(max_examples=300)
@given(matrix=distance_matrices())
def test_distance_csv_matches_the_cell_by_cell_writer(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.csv"
        cvio.write_distance_matrix_csv(matrix, p)
        assert p.read_bytes().decode("utf-8") == cell_by_cell_distance_csv(matrix)
        assert cvio.load_distance_matrix_csv(p).labels == matrix.labels


def test_distance_csv_labels_round_trip_except_cr(tmp_path):
    labels = ["a,b", 'say "hi"', "two\nlines", "  lead", ""]
    m = DistanceMatrix(labels, np.ones((5, 5)) - np.eye(5))
    cvio.write_distance_matrix_csv(m, tmp_path / "d.csv")
    assert cvio.load_distance_matrix_csv(tmp_path / "d.csv") == m
    # the loader's line reader would split the header at a CR, so the writer refuses it
    with pytest.raises(ValidationError, match="contains CR"):
        cvio.write_distance_matrix_csv(DistanceMatrix(["a\rb", "c"], [[0, 1], [1, 0]]), tmp_path / "cr.csv")
    assert not (tmp_path / "cr.csv").exists()


def test_matrix_and_its_csv_give_the_same_rhos(tmp_path):
    # every cell is exact at 9 digits; row c's lower cell for a is 1e-13 off,
    # which would break its tie between a and b if both triangles were kept
    upper = np.array([
        [0.0, 0.75, 0.5, 0.75],
        [0.0, 0.0, 0.5, 0.25],
        [0.0, 0.0, 0.0, 0.75],
        [0.0, 0.0, 0.0, 0.0],
    ])
    values = upper + upper.T
    values[2, 0] += 1e-13
    m = DistanceMatrix(["a", "b", "c", "d"], values)
    assert np.array_equal(m.values, upper + upper.T)
    cvio.write_distance_matrix_csv(m, tmp_path / "d.csv")
    loaded = cvio.load_distance_matrix_csv(tmp_path / "d.csv")
    taxonomy = Taxonomy([("p", "root"), ("q", "root"), ("a", "p"), ("c", "p"), ("b", "q"), ("d", "q")])
    for here, there in zip(evaluate_all(m, taxonomy), evaluate_all(loaded, taxonomy)):
        assert here.label == there.label
        assert np.array_equal(here.rhos, there.rhos)


def test_distance_csv_thousand_classes_match_the_cell_by_cell_writer(tmp_path):
    n = 1000
    rng = np.random.default_rng(3)
    upper = np.triu(rng.random((n, n)) * 10.0 ** rng.integers(-320, 308, size=(n, n)), 1)
    m = DistanceMatrix([f"c{i:04d}" for i in range(n)], upper + upper.T)
    cvio.write_distance_matrix_csv(m, tmp_path / "big.csv")
    assert (tmp_path / "big.csv").read_bytes().decode("utf-8") == cell_by_cell_distance_csv(m)


def test_distance_csv_thousand_classes_under_ten_seconds(tmp_path):
    n = 1000
    rng = np.random.default_rng(2)
    pts = rng.random((n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    m = DistanceMatrix([f"c{i:04d}" for i in range(n)], d)
    start = time.perf_counter()
    cvio.write_distance_matrix_csv(m, tmp_path / "big.csv")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


# -- coordinates, eigenvalues -----------------------------------------------------------


def coords_fixture():
    rng = np.random.default_rng(9)
    pts = rng.random((8, 2)) * 4.0
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    m = DistanceMatrix([f"p{i}" for i in range(8)], d)
    return classical_mds(m, 2)


def test_coordinates_csv_round_trip_exact(tmp_path):
    coords = coords_fixture()
    p = tmp_path / "coords.csv"
    cvio.write_coordinates_csv(coords, p)
    with open(p, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["label", "x", "y"]
    assert tuple(row[0] for row in rows) == coords.labels
    assert np.array_equal([[float(c) for c in row[1:]] for row in rows], coords.coords)


def test_coordinates_csv_wide_axis_names(tmp_path):
    rng = np.random.default_rng(4)
    pts = rng.random((12, 5))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    coords = classical_mds(DistanceMatrix([f"p{i}" for i in range(12)], d), 5)
    p = tmp_path / "coords.csv"
    cvio.write_coordinates_csv(coords, p)
    header = p.read_text(encoding="utf-8").splitlines()[0]
    assert header == "label,x0,x1,x2,x3,x4"


def test_eigenvalues_csv_lists_full_spectrum(tmp_path):
    coords = coords_fixture()
    p = tmp_path / "eig.csv"
    cvio.write_eigenvalues_csv(coords, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rank,eigenvalue,used"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == len(coords.eigenvalues)
    got = np.array([float(r[1]) for r in rows])
    assert np.array_equal(got, coords.eigenvalues)
    assert [r[2] for r in rows[:2]] == ["yes", "yes"]
    assert all(r[2] == "no" for r in rows[2:])


# -- scatter SVG ---------------------------------------------------------------------------


def svg_circles_with_titles(path):
    ns = {"svg": "http://www.w3.org/2000/svg"}
    root = ET.parse(path).getroot()
    out = {}
    for circle in root.findall("svg:circle", ns):
        title = circle.find("svg:title", ns)
        if title is not None:
            out[title.text] = circle
    return root, out


def test_scatter_svg_layout_and_shades(tmp_path):
    coords = coords_fixture()
    p = tmp_path / "plot.svg"
    cvio.write_scatter_svg(
        coords, {"first": ["p0", "p3"], "second": ["p5"]}, p
    )
    root, circles = svg_circles_with_titles(p)
    assert set(circles) == set(coords.labels)

    margin = cvio.SVG_SIZE * cvio.SVG_MARGIN_FRACTION
    for circle in circles.values():
        cx, cy = float(circle.get("cx")), float(circle.get("cy"))
        assert margin - 1e-6 <= cx <= cvio.SVG_SIZE - margin + 1e-6
        assert margin - 1e-6 <= cy <= cvio.SVG_SIZE - margin + 1e-6

    assert circles["p0"].get("fill") == "#000000"
    assert circles["p3"].get("fill") == "#000000"
    assert circles["p5"].get("fill") == cvio.HIGHLIGHT_SHADES[1]
    assert circles["p1"].get("fill") == cvio.DEFAULT_SHADE

    # y axis is flipped: largest embedding y lands at the smallest cy
    top_label = coords.labels[int(np.argmax(coords.coords[:, 1]))]
    assert float(circles[top_label].get("cy")) == min(
        float(c.get("cy")) for c in circles.values()
    )


def test_scatter_svg_preserves_distance_ratios(tmp_path):
    coords = coords_fixture()
    p = tmp_path / "plot.svg"
    cvio.write_scatter_svg(coords, None, p)
    _, circles = svg_circles_with_titles(p)
    svg_xy = np.array(
        [
            [float(circles[l].get("cx")), float(circles[l].get("cy"))]
            for l in coords.labels
        ]
    )

    def ratio(xy):
        d01 = np.linalg.norm(xy[0] - xy[1])
        d02 = np.linalg.norm(xy[0] - xy[2])
        return d01 / d02

    assert ratio(svg_xy) == pytest.approx(ratio(coords.coords), abs=2e-2)


def test_scatter_svg_escapes_labels_and_legend(tmp_path):
    coords = coords_fixture()
    labels = ["a<b&c", *coords.labels[1:]]
    odd = EmbeddingCoordinates(labels, coords.coords, coords.eigenvalues)
    p = tmp_path / "plot.svg"
    cvio.write_scatter_svg(odd, {"x&y": ["a<b&c"]}, p)
    root, circles = svg_circles_with_titles(p)
    assert set(circles) == set(labels)
    assert circles["a<b&c"].get("fill") == "#000000"
    legend = root.find("{http://www.w3.org/2000/svg}text")
    assert legend.text == "x&y"
    # plain ids are written as they are
    text = p.read_text(encoding="utf-8")
    assert all(f"<title>{label}</title>" in text for label in labels[1:])


def test_scatter_svg_rejects_non_2d(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.random((6, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    coords = classical_mds(DistanceMatrix([f"p{i}" for i in range(6)], d), 3)
    with pytest.raises(ValidationError, match="2-D"):
        cvio.write_scatter_svg(coords, None, tmp_path / "p.svg")


def test_highlights_keep_set_order_and_bare_ids_join_one_set(tmp_path):
    p = write(tmp_path / "h.tsv", "c2\nfam\tc0\n\nother\tc1\nfam\tc3\nc4\n")
    assert list(cvio.load_highlights(p).items()) == [
        ("highlight", ["c2", "c4"]), ("fam", ["c0", "c3"]), ("other", ["c1"]),
    ]


@pytest.mark.parametrize("line", ["fam\t", "\tc0"])
def test_highlight_with_an_empty_field_is_refused(tmp_path, line):
    p = write(tmp_path / "h.tsv", f"c0\n{line}\n")
    with pytest.raises(FormatError) as err:
        cvio.load_highlights(p)
    assert str(err.value) == f"{p}:2: empty set name or class_id"


def test_scatter_svg_rejects_unknown_highlight(tmp_path):
    coords = coords_fixture()
    with pytest.raises(ValidationError, match="unknown class"):
        cvio.write_scatter_svg(coords, {"set": ["nope"]}, tmp_path / "p.svg")


# -- rho tables ------------------------------------------------------------------------------


def rho_fixture():
    return [
        RhoDistribution("path", None, ["c0", "c1", "c2"], [0.5, -0.25, 1.0]),
        RhoDistribution("res", "bnc", ["c0", "c1", "c2"], [0.125, 0.0, 0.75]),
    ]


def test_rho_csv_long_form(tmp_path):
    p = tmp_path / "rho.csv"
    cvio.write_rho_csv(rho_fixture(), p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "class_id,measure,corpus,rho"
    assert len(lines) == 1 + 6
    assert lines[1] == "c0,path,,0.5"
    assert lines[4] == "c0,res,bnc,0.125"


def test_rho_summary_csv(tmp_path):
    p = tmp_path / "summary.csv"
    dists = rho_fixture()
    cvio.write_rho_summary_csv(dists, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "measure,corpus,n_classes,mean_rho"
    measure, corpus, n, mean = lines[1].split(",")
    assert (measure, corpus, n) == ("path", "", "3")
    assert float(mean) == dists[0].mean


def test_histogram_csv_counts_sum_to_classes(tmp_path):
    dist = RhoDistribution("path", None, [f"c{i}" for i in range(40)],
                           np.linspace(-1.0, 1.0, 40))
    p = tmp_path / "hist.csv"
    cvio.write_histogram_csv(dist, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 40
    assert float(rows[0][0]) == -1.0 and float(rows[-1][1]) == 1.0
    assert sum(int(r[2]) for r in rows) == 40


# -- equation output ----------------------------------------------------------------------------


def test_equation_csv_and_table(tmp_path):
    result = EquationResult(
        "king - man", [("queen", 0.9), ("prince", 0.5)], ["king", "man"]
    )
    p = tmp_path / "eq.csv"
    cvio.write_equation_csv(result, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rank,class_id,similarity"
    assert lines[1] == "1,queen,0.9"
    assert lines[2] == "2,prince,0.5"

    table = cvio.format_equation_table(result)
    assert "query: king - man" in table
    assert "excluded: king, man" in table
    assert table.splitlines()[-1].startswith("   2  prince")
