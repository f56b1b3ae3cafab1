"""Synthetic dataset generator: determinism, structure, and closed-form checks."""

import json
import math
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import classvec.io as cvio
from classvec import (
    DEFAULT_CONFIG,
    GeneratorSpec,
    LayerManifest,
    Taxonomy,
    ValidationError,
    build_class_embeddings,
    build_distance_matrix,
    closed_form_cosine,
    generate,
)
from classvec.synthdata import (
    DEFAULT_GROUPS,
    GENERATOR_VERSION,
    KERNELS,
    MAX_BACKGROUND,
    RNG_ALGORITHM,
)


def small_spec(**overrides):
    base = dict(seed=42, n_classes=9, images_per_class=(3, 5), branching=3)
    base.update(overrides)
    return GeneratorSpec(**base)


def load_all(paths):
    manifest = cvio.load_manifest(paths["manifest"])
    taxonomy = cvio.load_taxonomy(paths["taxonomy"])
    counts = cvio.load_counts(paths["counts"])
    class_map = cvio.load_class_map(paths["class_map"], taxonomy=taxonomy)
    records = list(cvio.stream_activations(paths["activations"], manifest))
    return manifest, taxonomy, counts, class_map, records


def test_spec_validation():
    with pytest.raises(ValidationError, match="at least 2"):
        GeneratorSpec(n_classes=1)
    with pytest.raises(ValidationError, match="images_per_class"):
        GeneratorSpec(images_per_class=(5, 3))
    with pytest.raises(ValidationError, match="images_per_class"):
        GeneratorSpec(images_per_class=(0, 3))
    with pytest.raises(ValidationError, match="block_size"):
        GeneratorSpec(block_size=0)
    for noise in (-0.1, math.nan, math.inf):
        with pytest.raises(ValidationError, match="noise_scale"):
            GeneratorSpec(noise_scale=noise)
    with pytest.raises(ValidationError, match="branching"):
        GeneratorSpec(branching=1)
    for field, value in (
        ("n_classes", 2.5),
        ("branching", 2.5),
        ("block_size", 1.5),
        ("seed", 1.5),
        ("seed", -1),
        ("images_per_class", (1.7, 2.2)),
    ):
        with pytest.raises(ValidationError, match=field):
            GeneratorSpec(**{field: value})
    for weight in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            GeneratorSpec(group_weights={"3a": weight})
    # values past 1.8e304 overflow when _quantize scales them by 1e4
    for kwargs in (
        {"noise_scale": 1e308},
        {"noise_scale": 1.8e304},
        {"group_weights": {"3a": 1e308}},
        {"group_weights": {"3a": 1e200}, "noise_scale": 1e200},
    ):
        with pytest.raises(ValidationError, match="1e-4 grid"):
            GeneratorSpec(**kwargs)
    GeneratorSpec(group_weights={"zz": 1e308})  # no layer draws from group zz


@pytest.mark.parametrize(
    "overrides",
    [{"noise_scale": 1.7e304}, {"noise_scale": 0.1, "group_weights": {"3a": 1.7e304}}],
    ids=["noise", "weight"],
)
def test_spec_just_inside_the_overflow_bound_generates_finite_values(tmp_path, overrides):
    paths = generate(small_spec(**overrides), tmp_path / "d")
    values = np.concatenate([rec.vector._values for rec in load_all(paths)[4]])
    assert np.isfinite(values).all() and values.max() > 1e304


def test_same_seed_gives_identical_bytes(tmp_path):
    spec = small_spec(noise_scale=0.2)
    p1 = generate(spec, tmp_path / "run1")
    p2 = generate(spec, tmp_path / "run2")
    for key in p1:
        assert p1[key].read_bytes() == p2[key].read_bytes(), key


def test_different_seed_changes_activations(tmp_path):
    p1 = generate(small_spec(seed=1, noise_scale=0.2), tmp_path / "s1")
    p2 = generate(small_spec(seed=2, noise_scale=0.2), tmp_path / "s2")
    assert p1["activations"].read_bytes() != p2["activations"].read_bytes()


def test_generated_files_load_and_agree(tmp_path):
    spec = small_spec(noise_scale=0.1)
    paths = generate(spec, tmp_path / "data")
    manifest, taxonomy, counts, class_map, records = load_all(paths)

    assert len(class_map) == spec.n_classes
    assert set(counts) == set(taxonomy.synsets)
    assert all(c >= 1 for c in counts.values())
    leaves = set(class_map.values())
    assert len(leaves) == spec.n_classes

    by_class = {}
    for rec in records:
        assert rec.class_id in class_map
        by_class.setdefault(rec.class_id, []).append(rec)
    lo, hi = spec.images_per_class
    assert set(by_class) == set(class_map)
    for group in by_class.values():
        assert lo <= len(group) <= hi


def test_default_manifest_shape(tmp_path):
    paths = generate(small_spec(), tmp_path / "d")
    manifest = cvio.load_manifest(paths["manifest"])
    assert len(manifest.layer_ids) == len(DEFAULT_GROUPS) * len(KERNELS)
    assert manifest.groups == DEFAULT_GROUPS
    dims = {spec.dim for spec in manifest}
    assert len(dims) == 1


def test_metadata_records_rng_and_spec(tmp_path):
    spec = small_spec(noise_scale=0.05, group_weights={"3a": 0.5})
    paths = generate(spec, tmp_path / "d")
    meta = json.loads(paths["meta"].read_text(encoding="utf-8"))
    assert meta["rng_algorithm"] == RNG_ALGORITHM
    assert meta["generator_version"] == GENERATOR_VERSION == 2
    assert "PCG64" in meta["rng_algorithm"]
    assert GeneratorSpec.from_dict(meta["spec"]) == spec
    assert meta["total_images"] == sum(
        1 for _ in cvio.stream_activations(
            paths["activations"], cvio.load_manifest(paths["manifest"])
        )
    )


def test_zero_noise_makes_images_identical_within_class(tmp_path):
    paths = generate(small_spec(noise_scale=0.0), tmp_path / "d")
    _, _, _, _, records = load_all(paths)
    by_class = {}
    for rec in records:
        by_class.setdefault(rec.class_id, []).append(rec.vector)
    for vectors in by_class.values():
        assert all(v == vectors[0] for v in vectors[1:])


def test_noise_makes_images_differ(tmp_path):
    paths = generate(small_spec(noise_scale=0.2), tmp_path / "d")
    _, _, _, _, records = load_all(paths)
    by_class = {}
    for rec in records:
        by_class.setdefault(rec.class_id, []).append(rec.vector)
    assert any(
        any(v != vs[0] for v in vs[1:]) for vs in by_class.values() if len(vs) > 1
    )


def test_values_are_quantized_to_four_decimals(tmp_path):
    paths = generate(small_spec(noise_scale=0.3), tmp_path / "d")
    _, _, _, _, records = load_all(paths)
    for rec in records[:20]:
        for _, _, value in rec.vector.iter_entries():
            assert value == round(value, 4)
            assert value > 0


def test_closed_form_cosine_exact_at_zero_noise(tmp_path):
    spec = small_spec(n_classes=12, noise_scale=0.0)
    paths = generate(spec, tmp_path / "d")
    manifest, taxonomy, _, class_map, records = load_all(paths)
    embeddings = build_class_embeddings(records, DEFAULT_CONFIG, class_map, manifest)
    dmat = build_distance_matrix(embeddings, "cosine")

    anc = {cid: frozenset(taxonomy.ancestors(syn)) for cid, syn in class_map.items()}
    for i, a in enumerate(dmat.labels):
        for j, b in enumerate(dmat.labels):
            want = closed_form_cosine(anc[a], anc[b])
            assert 1.0 - dmat.values[i, j] == pytest.approx(want, abs=1e-9)


def test_siblings_closer_than_cross_family(tmp_path):
    spec = small_spec(n_classes=9, branching=3, noise_scale=0.0)
    paths = generate(spec, tmp_path / "d")
    manifest, taxonomy, _, class_map, records = load_all(paths)
    embeddings = build_class_embeddings(records, DEFAULT_CONFIG, class_map, manifest)
    dmat = build_distance_matrix(embeddings, "cosine")

    labels = dmat.labels
    parent = {cid: next(iter(taxonomy.parents(syn))) for cid, syn in class_map.items()}
    sib, cross = [], []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            pair = dmat.values[i, j]
            if parent[labels[i]] == parent[labels[j]]:
                sib.append(pair)
            else:
                cross.append(pair)
    assert sib and cross
    assert max(sib) < min(cross)


def test_group_weight_zero_silences_group_at_zero_noise(tmp_path):
    weights = {g: 0.0 for g in DEFAULT_GROUPS if not g.startswith("4")}
    paths = generate(
        small_spec(noise_scale=0.0, group_weights=weights), tmp_path / "d"
    )
    manifest, _, _, _, records = load_all(paths)
    silenced = {
        lid for g in weights for lid in manifest.layers_in_groups([g])
    }
    assert silenced
    for rec in records:
        assert not (set(rec.vector.stored_layers) & silenced)
        assert rec.vector.nnz > 0


def test_custom_manifest_too_small_is_rejected(tmp_path):
    tiny = LayerManifest([("only", "g", 8)])
    with pytest.raises(ValidationError, match="cannot hold"):
        generate(small_spec(manifest=tiny), tmp_path / "d")


def test_custom_manifest_is_used_when_large_enough(tmp_path):
    # 4 leaves + 2 + 1 internal nodes = 7 blocks of size 1
    custom = LayerManifest([("wide_a", "ga", 64), ("wide_b", "gb", 64)])
    paths = generate(
        GeneratorSpec(
            seed=3, n_classes=4, images_per_class=(2, 3), branching=2,
            block_size=1, manifest=custom,
        ),
        tmp_path / "d",
    )
    manifest = cvio.load_manifest(paths["manifest"])
    assert manifest == custom


def test_taxonomy_is_single_rooted_and_balanced(tmp_path):
    spec = small_spec(n_classes=27, branching=3, images_per_class=(1, 1))
    paths = generate(spec, tmp_path / "d")
    taxonomy = cvio.load_taxonomy(paths["taxonomy"])
    class_map = cvio.load_class_map(paths["class_map"], taxonomy=taxonomy)
    depths = {taxonomy.depth(s) for s in class_map.values()}
    assert depths == {4}  # 27 leaves under branching 3: root + 2 levels + leaf
    assert taxonomy.max_depth == 4


def test_noise_needs_background_room_past_the_signal_blocks(tmp_path):
    # 4 leaves + 2 + 1 internal nodes = 7 blocks of size 1
    narrow = LayerManifest([("wide", "ga", 64), ("narrow", "gb", 7 + MAX_BACKGROUND - 1)])
    spec = dict(seed=3, n_classes=4, images_per_class=(2, 3), branching=2, block_size=1)
    with pytest.raises(ValidationError, match="'narrow' dim 11 leaves 4 background"):
        generate(GeneratorSpec(**spec, noise_scale=0.1, manifest=narrow), tmp_path / "noisy")
    generate(GeneratorSpec(**spec, manifest=narrow), tmp_path / "quiet")


def test_background_indices_cover_their_range_evenly(tmp_path):
    # 7 blocks of size 1, so layer "a" has 6 background indices and "b" 40
    manifest = LayerManifest([("a", "ga", 7 + 6), ("b", "gb", 7 + 40)])
    spec = GeneratorSpec(
        seed=5, n_classes=4, images_per_class=(300, 300), branching=2, block_size=1,
        noise_scale=0.1, manifest=manifest,
    )
    records = load_all(generate(spec, tmp_path))[4]
    for layer in manifest:
        background = np.concatenate([rec.vector.layer(layer.layer_id)[0] for rec in records])
        counts = np.bincount(background[background >= 7] - 7, minlength=layer.dim - 7)
        assert counts.size == layer.dim - 7
        # 1200 images x 3.5 entries on average; each index within 25% of its share
        assert np.all(np.abs(counts / counts.mean() - 1) < 0.25), counts


def hierarchy_size(n_classes: int, branching: int) -> int:
    """Nodes of the balanced tree: leaves, then each level of parents."""
    nodes, level = 0, n_classes
    while level > 1:
        nodes += level
        level = math.ceil(level / branching)
    return nodes + 1


@st.composite
def generator_cases(draw, max_block=3):
    n_classes = draw(st.integers(2, 12))
    branching = draw(st.integers(2, 4))
    block = draw(st.integers(1, max_block))
    noise = draw(st.sampled_from([0.0, 0.05, 0.3]))
    capacity = hierarchy_size(n_classes, branching) * block
    manifest = None
    groups = DEFAULT_GROUPS
    if draw(st.booleans()):
        groups = ("ga", "gb", "gc")
        manifest = LayerManifest([
            (f"l{k}", draw(st.sampled_from(groups)), capacity + draw(st.integers(MAX_BACKGROUND, 40)))
            for k in range(draw(st.integers(1, 4)))
        ])
    weights = {
        g: draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
        for g in draw(st.lists(st.sampled_from(groups), unique=True, max_size=len(groups)))
    }
    lo = draw(st.integers(1, 3))
    return GeneratorSpec(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_classes=n_classes,
        images_per_class=(lo, lo + draw(st.integers(0, 2))),
        block_size=block,
        noise_scale=noise,
        branching=branching,
        group_weights=weights or None,
        manifest=manifest,
    )


@settings(max_examples=40)
@given(spec=generator_cases())
def test_generated_structure_matches_taxonomy_oracle(spec):
    with tempfile.TemporaryDirectory() as tmp:
        manifest, taxonomy, _, class_map, records = load_all(generate(spec, tmp))
    # the oracle: one block per taxonomy node, in sorted synset order
    block = spec.block_size
    capacity = len(taxonomy.synsets) * block
    start = {s: k * block for k, s in enumerate(sorted(taxonomy.synsets))}
    signal = {
        cid: sorted(i for a in taxonomy.ancestors(syn) for i in range(start[a], start[a] + block))
        for cid, syn in class_map.items()
    }
    weights = spec.group_weights or {}
    lo, hi = spec.images_per_class
    images = {}
    for rec in records:
        images[rec.class_id] = images.get(rec.class_id, 0) + 1
        for layer in manifest:
            idx, val = rec.vector.layer(layer.layer_id)
            live = weights.get(layer.group, 1.0) > 0
            assert idx[idx < capacity].tolist() == (signal[rec.class_id] if live else [])
            background = idx[idx >= capacity]
            if spec.noise_scale > 0:
                assert 2 <= background.size <= MAX_BACKGROUND
                assert background.max() < layer.dim
            else:
                assert background.size == 0
                if not live:
                    assert layer.layer_id not in rec.vector.stored_layers
            assert np.all(val >= 1e-4)
            assert np.array_equal(val, np.round(val, 4))
    assert set(images) == set(class_map)
    assert all(lo <= n <= hi for n in images.values())


@settings(max_examples=40)
@given(spec=generator_cases(max_block=4))
@example(spec=small_spec(block_size=4, group_weights={"3a": 0.0}))
@example(spec=GeneratorSpec(
    seed=3, n_classes=4, images_per_class=(2, 3), branching=2, block_size=4, noise_scale=0.3,
    group_weights={"ga": 0.0}, manifest=LayerManifest([("a", "ga", 64), ("b", "gb", 64)]),
))
def test_generated_vectors_are_canonical_and_read_back_equal(spec):
    # generate builds its vectors unchecked, trusting their keys to rise and values to be > 0
    write_activations = cvio.write_activations
    written = []

    def capture(records, path):
        written.extend(records)
        write_activations(written, path)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cvio, "write_activations", capture):
        paths = generate(spec, tmp)
        read = list(cvio.stream_activations(paths["activations"], cvio.load_manifest(paths["manifest"])))
    assert read == written
    for rec in written:
        keys, values = rec.vector._keys, rec.vector._values
        assert np.all(keys[1:] > keys[:-1]) and np.all(values > 0), rec.image_id
