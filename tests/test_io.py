"""File format round-trips, positional error reporting, and artifact writers."""

import tempfile
import time
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classvec.io as cvio
from classvec import (
    ClassEmbedding,
    DistanceMatrix,
    EmbeddingCoordinates,
    EquationResult,
    FormatError,
    LayerManifest,
    RhoDistribution,
    SparseActivationVector,
    SweepEntry,
    Taxonomy,
    ValidationError,
    classical_mds,
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
    "coordinates-csv": (
        cvio.load_coordinates_csv, "label,x,y", "p0,1.0,2.0,3.0", "expected 3 cells, got 4",
        "coordinates CSV is empty",
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
    m = LayerManifest([("a", "low", 4), (layer_id, "low", 8)])
    with pytest.raises(ValidationError, match="empty or contains whitespace"):
        cvio.write_manifest(m, tmp_path / "out.tsv")
    v = SparseActivationVector(m, {"a": ([0], [1.0]), layer_id: ([3], [2.0])})
    with pytest.raises(ValidationError, match="empty or contains whitespace"):
        cvio.write_activations([cvio.ActivationRecord("i", "c", v)], tmp_path / "a.tsv")
    with pytest.raises(ValidationError, match="empty or contains whitespace"):
        cvio.write_class_embeddings([ClassEmbedding("c", "s", v, 1)], tmp_path / "e.tsv")


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


WALK_MANIFEST = LayerManifest([("a1", "g", 6), ("x:y", "g", 4), ("b", "h", 3)])

# faulty spellings of each part of a triplet of WALK_MANIFEST
FAULTY_PARTS = {
    "layer": ["zz", "x", "a1:y"],
    "index": ["6", "-1", str(10**20), "x", "1.5", ""],
    "value": ["-1.0", "-1e-300", "nan", "inf", "1e999", "x", "1.0.0", ""],
}
MALFORMED = ["", "a1:3", "b", "x:y", "zz:-1"]


@st.composite
def triplet_fields(draw):
    """A triplet field of WALK_MANIFEST: valid triplets in any order, and up
    to three more put in at random places. Each of those is malformed,
    repeats an index, or has a faulty part, and maybe faulty parts after it."""
    m = WALK_MANIFEST
    cells = [(spec.layer_id, i) for spec in m for i in range(spec.dim)]
    values = st.one_of(st.floats(0, 1e300).map(repr), st.sampled_from(["0", "-0.0", "3", "+2.5"]))
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=10))
    tokens = [f"{lid}:{i}:{draw(values)}" for lid, i in chosen]
    kinds = ["malformed", "repeat", *FAULTY_PARTS]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        if kind == "malformed":
            token = draw(st.sampled_from(MALFORMED))
        elif kind == "repeat":
            if not chosen:
                continue
            lid, i = draw(st.sampled_from(chosen))
            token = f"{lid}:{i}:{draw(values)}"
        else:
            lid, i = draw(st.sampled_from(cells))
            parts = [lid, str(i), draw(values)]
            first = list(FAULTY_PARTS).index(kind)
            for k, spellings in enumerate(FAULTY_PARTS.values()):
                if k == first or (k > first and draw(st.booleans())):
                    parts[k] = draw(st.sampled_from(spellings))
            token = ":".join(parts)
        tokens.insert(draw(st.integers(0, len(tokens))), token)
    return " ".join(tokens)


@pytest.mark.parametrize("walk_only", [False, True], ids=["bulk", "walk-only"])
@settings(max_examples=200)
@given(payload=triplet_fields())
def test_triplet_fields_match_per_token_reference(walk_only, payload):
    want = reference_parse_triplets(WALK_MANIFEST, payload)
    with ExitStack() as stack, tempfile.TemporaryDirectory() as tmp:
        if walk_only:
            stack.enter_context(mock.patch.object(cvio, "_bulk_triplets", return_value=None))
        walk = stack.enter_context(mock.patch.object(cvio, "_walk_triplets", wraps=cvio._walk_triplets))
        p = write(Path(tmp) / "a.tsv", f"img0\tcls0\t{payload}\n")
        if isinstance(want, str):
            with pytest.raises(FormatError) as err:
                list(cvio.stream_activations(p, WALK_MANIFEST))
            assert str(err.value) == f"{p}:1: {want}"
        else:
            (got,) = cvio.stream_activations(p, WALK_MANIFEST)
            assert got.vector == want
    # a line of plain layer ids that only repeats an index, if anything, is taken in bulk
    in_bulk = "x:y" not in payload and (not isinstance(want, str) or "duplicate" in want)
    assert walk.called == (bool(payload) and (walk_only or not in_bulk))


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
            val = [draw(st.floats(1e-300, 1e300)) for _ in idx]
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
                free = sorted(set(range(m.dim_of(lid))) - set(idx))
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
            stack.enter_context(mock.patch.object(cvio._Heads, "cap", cap))
            stack.enter_context(mock.patch.object(cvio._Texts, "cap", cap))
        memo = cvio._TripletMemo()
        for v in vectors:
            assert cvio._format_triplets(v, memo) == reference_triplets(v)
            assert len(memo.texts) <= cvio._Texts.cap
            if memo.heads is not None:  # heads of one manifest only, at most cap of them
                assert all(0 <= key < memo.heads.manifest.total_dim for key in memo.heads)
                assert len(memo.heads) <= cvio._Heads.cap
        path = Path(tmp) / "a.tsv"
        cvio.write_activations(
            [cvio.ActivationRecord(f"i{k}", "c", v) for k, v in enumerate(vectors)], path
        )
        assert path.read_text(encoding="utf-8") == "".join(
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
    labels, values = cvio.load_coordinates_csv(p)
    assert labels == coords.labels
    assert np.array_equal(values, coords.coords)
    header = p.read_text(encoding="utf-8").splitlines()[0]
    assert header == "label,x,y"


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


def test_sweep_csv(tmp_path):
    entries = [
        SweepEntry("all", None, 0.5, 10),
        SweepEntry("mid", ("m1", "m2"), 0.75, 10),
    ]
    p = tmp_path / "sweep.csv"
    cvio.write_sweep_csv(entries, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "groups,n_classes,mean_rho"
    assert lines[1] == "all,10,0.5"
    assert lines[2] == "mid,10,0.75"


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
