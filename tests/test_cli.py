"""CLI behavior: exit codes, artifacts, stream discipline, reproducible reruns."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import classvec
from classvec import DistanceMatrix
from classvec.cli import RUN_MANIFEST_NAME, main
from classvec.io import write_distance_matrix_csv


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "gen"
    code = main([
        "generate", "--out", str(out), "--seed", "7", "--classes", "9",
        "--branching", "3", "--images", "2", "4", "--noise", "0.05",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def built(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "built"
    code = main([
        "build",
        "--activations", str(dataset / "activations.tsv"),
        "--manifest", str(dataset / "manifest.tsv"),
        "--class-map", str(dataset / "class_map.tsv"),
        "--out", str(out),
    ])
    assert code == 0
    return out


def read_tree(root):
    return {
        p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


# -- generate -------------------------------------------------------------------


def test_generate_writes_dataset_and_manifest(dataset):
    names = {p.name for p in dataset.iterdir()}
    assert {
        "activations.tsv", "manifest.tsv", "taxonomy.tsv", "counts.tsv",
        "class_map.tsv", "dataset_meta.json", RUN_MANIFEST_NAME,
    } <= names
    text = (dataset / RUN_MANIFEST_NAME).read_text()
    recorded = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
    assert recorded["subcommand"] == "generate"
    assert recorded["arguments"]["seed"] == 7
    assert "out" not in recorded["arguments"]


def test_generate_rejects_bad_spec(tmp_path, capsys):
    code = main(["generate", "--out", str(tmp_path / "x"), "--classes", "1"])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_generate_bad_group_weights(tmp_path, capsys):
    code = main([
        "generate", "--out", str(tmp_path / "x"), "--group-weights", "3a",
    ])
    assert code == 2
    assert "NAME=WEIGHT" in capsys.readouterr().err


# -- build ----------------------------------------------------------------------


def test_build_outputs_and_defaults(built):
    assert (built / "class_embeddings.tsv").exists()
    assert (built / "distance_matrix.csv").exists()
    recorded = json.loads((built / RUN_MANIFEST_NAME).read_text())
    args = recorded["arguments"]
    assert args["agg"] == "arithmetic"
    assert args["norm"] == "layer"
    assert args["norm_stage"] == "class"
    assert args["threshold"] is None
    assert args["metric"] == "cosine"
    assert args["groups"] is None
    assert set(recorded["inputs"]) == {"activations", "manifest", "class_map"}
    for entry in recorded["inputs"].values():
        assert len(entry["sha256"]) == 64


def test_build_of_shuffled_lines_gives_the_same_files(dataset, built, tmp_path):
    # classes interleaved, so each is aggregated when its last line is read
    lines = (dataset / "activations.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    np.random.default_rng(5).shuffle(lines)
    shuffled = tmp_path / "activations.tsv"
    shuffled.write_text("".join(lines), encoding="utf-8")
    code = main([
        "build", "--activations", str(shuffled),
        "--manifest", str(dataset / "manifest.tsv"),
        "--class-map", str(dataset / "class_map.tsv"),
        "--out", str(tmp_path / "built"),
    ])
    assert code == 0
    for name in ("class_embeddings.tsv", "distance_matrix.csv"):
        assert (tmp_path / "built" / name).read_bytes() == (built / name).read_bytes()


def test_build_data_goes_to_files_not_stdout(dataset, tmp_path, capsys):
    code = main([
        "build",
        "--activations", str(dataset / "activations.tsv"),
        "--manifest", str(dataset / "manifest.tsv"),
        "--class-map", str(dataset / "class_map.tsv"),
        "--out", str(tmp_path / "b"),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert "wrote" in captured.err


def test_build_invalid_norm_combo_is_usage_error(dataset, tmp_path, capsys):
    code = main([
        "build",
        "--activations", str(dataset / "activations.tsv"),
        "--manifest", str(dataset / "manifest.tsv"),
        "--class-map", str(dataset / "class_map.tsv"),
        "--out", str(tmp_path / "b"),
        "--norm", "none",
    ])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_build_group_restriction(dataset, tmp_path):
    out = tmp_path / "mid"
    code = main([
        "build",
        "--activations", str(dataset / "activations.tsv"),
        "--manifest", str(dataset / "manifest.tsv"),
        "--class-map", str(dataset / "class_map.tsv"),
        "--out", str(out),
        "--groups", "4a,4b,4c,4d,4e",
    ])
    assert code == 0
    kept = {"4a", "4b", "4c", "4d", "4e"}
    for line in (out / "class_embeddings.tsv").read_text().splitlines():
        payload = line.split("\t")[3]
        for token in payload.split(" "):
            group = token.split("_")[0]
            assert group in kept


def test_build_unknown_group_is_runtime_error(dataset, tmp_path, capsys):
    code = main([
        "build",
        "--activations", str(dataset / "activations.tsv"),
        "--manifest", str(dataset / "manifest.tsv"),
        "--class-map", str(dataset / "class_map.tsv"),
        "--out", str(tmp_path / "b"),
        "--groups", "nope",
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


# -- eval -----------------------------------------------------------------------


def test_eval_all_with_two_corpora_emits_nine(dataset, built, tmp_path):
    second = tmp_path / "web.tsv"
    second.write_bytes((dataset / "counts.tsv").read_bytes())
    out = tmp_path / "eval9"
    code = main([
        "eval",
        "--distances", str(built / "distance_matrix.csv"),
        "--taxonomy", str(dataset / "taxonomy.tsv"),
        "--class-map", str(dataset / "class_map.tsv"),
        "--counts", str(dataset / "counts.tsv"),
        "--counts", str(second),
        "--measure", "all",
        "--out", str(out),
    ])
    assert code == 0
    rho_files = sorted(p.name for p in out.glob("rho_*.csv") if p.name != "rho_summary.csv")
    assert len(rho_files) == 9
    assert len(list(out.glob("hist_*.csv"))) == 9
    summary = (out / "rho_summary.csv").read_text().splitlines()
    assert len(summary) == 10
    labels = {name[len("rho_"):-len(".csv")] for name in rho_files}
    assert labels == {
        "path", "lch", "wup",
        "res-counts", "jcn-counts", "lin-counts",
        "res-web", "jcn-web", "lin-web",
    }


def test_eval_single_measure_single_file(dataset, built, tmp_path):
    out = tmp_path / "eval1"
    code = main([
        "eval",
        "--distances", str(built / "distance_matrix.csv"),
        "--taxonomy", str(dataset / "taxonomy.tsv"),
        "--class-map", str(dataset / "class_map.tsv"),
        "--measure", "path",
        "--out", str(out),
    ])
    assert code == 0
    assert sorted(p.name for p in out.glob("rho_*.csv")) == ["rho_path.csv", "rho_summary.csv"]


def test_eval_ic_measure_without_counts_is_usage_error(dataset, built, tmp_path, capsys):
    code = main([
        "eval",
        "--distances", str(built / "distance_matrix.csv"),
        "--taxonomy", str(dataset / "taxonomy.tsv"),
        "--measure", "res",
        "--out", str(tmp_path / "e"),
    ])
    assert code == 2
    assert "--counts" in capsys.readouterr().err


def test_eval_duplicate_corpus_stems_rejected(dataset, built, tmp_path, capsys):
    code = main([
        "eval",
        "--distances", str(built / "distance_matrix.csv"),
        "--taxonomy", str(dataset / "taxonomy.tsv"),
        "--counts", str(dataset / "counts.tsv"),
        "--counts", str(dataset / "counts.tsv"),
        "--out", str(tmp_path / "e"),
    ])
    assert code == 2
    assert "distinct basenames" in capsys.readouterr().err


def test_eval_class_missing_from_class_map_is_runtime_error(dataset, built, tmp_path, capsys):
    lines = (dataset / "class_map.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    partial = tmp_path / "class_map.tsv"
    partial.write_text("".join(lines[1:]), encoding="utf-8")
    code = main([
        "eval",
        "--distances", str(built / "distance_matrix.csv"),
        "--taxonomy", str(dataset / "taxonomy.tsv"),
        "--class-map", str(partial),
        "--out", str(tmp_path / "e"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("classvec: error: ") and "'c0000'" in err


# -- mds / isomap ------------------------------------------------------------------


def test_mds_two_dims_writes_svg(built, tmp_path):
    out = tmp_path / "m2"
    code = main(["mds", "--distances", str(built / "distance_matrix.csv"), "--out", str(out)])
    assert code == 0
    assert (out / "coordinates.csv").exists()
    assert (out / "eigenvalues.csv").exists()
    assert (out / "scatter.svg").exists()


def test_mds_three_dims_csv_only(built, tmp_path):
    out = tmp_path / "m3"
    code = main([
        "mds", "--distances", str(built / "distance_matrix.csv"),
        "--dims", "3", "--out", str(out),
    ])
    assert code == 0
    assert (out / "coordinates.csv").exists()
    assert not (out / "scatter.svg").exists()


def test_mds_highlight_needs_two_dims(built, tmp_path, capsys):
    hl = tmp_path / "hl.tsv"
    hl.write_text("c0000\n")
    code = main([
        "mds", "--distances", str(built / "distance_matrix.csv"),
        "--dims", "3", "--highlight", str(hl), "--out", str(tmp_path / "m"),
    ])
    assert code == 2
    assert "--dims 2" in capsys.readouterr().err


def test_mds_highlight_sets_are_shaded(built, tmp_path):
    hl = tmp_path / "hl.tsv"
    hl.write_text("fam\tc0000\nfam\tc0001\nother\tc0002\n")
    out = tmp_path / "m"
    code = main([
        "mds", "--distances", str(built / "distance_matrix.csv"),
        "--highlight", str(hl), "--out", str(out),
    ])
    assert code == 0
    svg = (out / "scatter.svg").read_text()
    assert 'fill="#000000"' in svg
    assert ">fam</text>" in svg and ">other</text>" in svg


HIGHLIGHT_FAULTS = {
    "not-utf8": (b"c0000\n\xff\n", "{path}:2: byte 0xff is not valid UTF-8"),
    "crlf": (b"fam\tc0000\r\n", "{path}:1: line ends in CR (CRLF line ending); expected LF"),
    "three-fields": (
        b"fam\tc0000\tc0001\n",
        "{path}:1: expected class_id or set_name TAB class_id, got 3 fields",
    ),
    "empty-field": (b"c0000\n\tc0001\n", "{path}:2: empty set name or class_id"),
    "unknown-class": (b"fam\tc0000\nfam\tnope\n", "highlight set 'fam': unknown class 'nope'"),
}


@pytest.mark.parametrize("fault", sorted(HIGHLIGHT_FAULTS))
@pytest.mark.parametrize("subcommand", ["mds", "isomap"])
def test_bad_highlight_file_is_a_data_error_and_creates_no_output_dir(
    built, tmp_path, capsys, subcommand, fault
):
    content, message = HIGHLIGHT_FAULTS[fault]
    hl = tmp_path / "hl.tsv"
    hl.write_bytes(content)
    out = tmp_path / "out"
    code = main([
        subcommand, "--distances", str(built / "distance_matrix.csv"),
        "--highlight", str(hl), "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"classvec: error: {message.format(path=hl)}\n"
    assert not out.exists()


def disconnected_distances(path):
    pts = np.array([[0.0], [0.1], [0.2], [100.0], [100.1], [100.2]])
    d = np.abs(pts - pts.T)
    write_distance_matrix_csv(
        DistanceMatrix([f"p{i}" for i in range(6)], d), path
    )


def test_isomap_disconnected_graph_fails_without_flag(tmp_path, capsys):
    csv_path = tmp_path / "d.csv"
    disconnected_distances(csv_path)
    code = main([
        "isomap", "--distances", str(csv_path), "--k-neighbors", "1",
        "--out", str(tmp_path / "iso"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "component sizes: 3, 3" in err
    # each point's two nearest neighbors lie in its own cluster of three
    assert "the smallest k_neighbors that connects it is 3" in err


def test_isomap_largest_component_flag_recovers(tmp_path):
    csv_path = tmp_path / "d.csv"
    disconnected_distances(csv_path)
    out = tmp_path / "iso"
    with pytest.warns(UserWarning, match="only 1 positive eigenvalues"), pytest.warns(
        UserWarning, match=r"neighborhood graph has 2 components; embedding largest \(3 of 6 points\)"
    ):
        code = main([
            "isomap", "--distances", str(csv_path), "--k-neighbors", "1",
            "--largest-component", "--out", str(out),
        ])
    assert code == 0
    lines = (out / "coordinates.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # header plus the largest component only


def test_isomap_on_connected_matrix(built, tmp_path):
    out = tmp_path / "iso"
    code = main([
        "isomap", "--distances", str(built / "distance_matrix.csv"),
        "--k-neighbors", "4", "--out", str(out),
    ])
    assert code == 0
    assert (out / "scatter.svg").exists()


# -- solve ---------------------------------------------------------------------------


def solve_args(dataset, built, expr, out, *extra):
    return [
        "solve", expr,
        "--embeddings", str(built / "class_embeddings.tsv"),
        "--manifest", str(dataset / "manifest.tsv"),
        "--out", str(out), *extra,
    ]


def test_solve_difference(dataset, built, tmp_path):
    out = tmp_path / "s"
    code = main(solve_args(dataset, built, "c0000 - c0001", out))
    assert code == 0
    table = (out / "equation.txt").read_text()
    assert "query: c0000 - c0001" in table
    assert "excluded: c0000, c0001" in table
    lines = (out / "equation.csv").read_text().splitlines()
    assert lines[0] == "rank,class_id,similarity"
    assert 2 <= len(lines) <= 7  # top 6 by default


def test_solve_apply_form(dataset, built, tmp_path):
    out = tmp_path / "s"
    code = main(solve_args(dataset, built, "c0002 - (c0000 - c0001)", out))
    assert code == 0
    assert "query: c0002 - (c0000 - c0001)" in (out / "equation.txt").read_text()


def test_solve_bad_grammar(dataset, built, tmp_path, capsys):
    code = main(solve_args(dataset, built, "c0000 + c0001", tmp_path / "s"))
    assert code == 2
    assert "cannot parse" in capsys.readouterr().err


def test_solve_self_difference_is_runtime_error(dataset, built, tmp_path, capsys):
    code = main(solve_args(dataset, built, "c0000 - c0000", tmp_path / "s"))
    assert code == 1
    assert "empty difference" in capsys.readouterr().err


def test_solve_unknown_id(dataset, built, tmp_path, capsys):
    code = main(solve_args(dataset, built, "c0000 - nope", tmp_path / "s"))
    assert code == 1
    assert "unknown class" in capsys.readouterr().err


def test_solve_resolves_synsets_through_class_map(dataset, built, tmp_path):
    class_map = dict(
        line.split("\t")
        for line in (dataset / "class_map.tsv").read_text().splitlines()
    )
    syn_a, syn_b = class_map["c0000"], class_map["c0001"]
    out = tmp_path / "s"
    code = main(solve_args(
        dataset, built, f"{syn_a} - {syn_b}", out,
        "--class-map", str(dataset / "class_map.tsv"),
    ))
    assert code == 0
    assert "excluded: c0000, c0001" in (out / "equation.txt").read_text()


def test_solve_include_operands(dataset, built, tmp_path):
    out = tmp_path / "s"
    code = main(solve_args(
        dataset, built, "c0000 - c0001", out, "--include-operands", "--top", "9",
    ))
    assert code == 0
    table = (out / "equation.txt").read_text()
    assert "excluded:" not in table
    assert "c0000" in table


# -- rerun --------------------------------------------------------------------------


def test_rerun_build_is_byte_identical(built, tmp_path):
    out = tmp_path / "again"
    code = main(["rerun", str(built / RUN_MANIFEST_NAME), "--out", str(out)])
    assert code == 0
    assert read_tree(out) == read_tree(built)


def test_rerun_generate_is_byte_identical(dataset, tmp_path):
    out = tmp_path / "again"
    code = main(["rerun", str(dataset / RUN_MANIFEST_NAME), "--out", str(out)])
    assert code == 0
    assert read_tree(out) == read_tree(dataset)


UNUSUAL_IDS = ["a,b", '"q"', "\u00fc:\u00df", "x y", " lead", "trail ", "#c"]


def test_rerun_is_byte_identical_with_unusual_ids(tmp_path):
    data = tmp_path / "data"
    assert main([
        "generate", "--out", str(data), "--seed", "7", "--classes", "9",
        "--branching", "3", "--images", "2", "3", "--noise", "0.05",
    ]) == 0
    for name in ("manifest.tsv", "activations.tsv", "class_map.tsv"):
        text = (data / name).read_text(encoding="utf-8").replace("3a_1x1", "3a:1x1")
        for i, cid in enumerate(UNUSUAL_IDS):
            text = text.replace(f"c{i:04d}", cid)
        (data / name).write_text(text, encoding="utf-8")
    assert "3a:1x1\t" in (data / "manifest.tsv").read_text(encoding="utf-8")
    highlight = tmp_path / "highlight.tsv"
    highlight.write_text("".join(f"set {i % 2}\t{cid}\n" for i, cid in enumerate(UNUSUAL_IDS)))
    built = tmp_path / "build"
    distances = str(built / "distance_matrix.csv")
    runs = {
        "build": ["build", "--activations", str(data / "activations.tsv"),
                  "--manifest", str(data / "manifest.tsv"),
                  "--class-map", str(data / "class_map.tsv")],
        "eval": ["eval", "--distances", distances, "--taxonomy", str(data / "taxonomy.tsv"),
                 "--class-map", str(data / "class_map.tsv"), "--measure", "all",
                 "--counts", str(data / "counts.tsv")],
        "mds": ["mds", "--distances", distances, "--highlight", str(highlight)],
        "isomap": ["isomap", "--distances", distances, "--k-neighbors", "4"],
        "solve": ["solve", "\u00fc:\u00df - #c", "--embeddings", str(built / "class_embeddings.tsv"),
                  "--manifest", str(data / "manifest.tsv")],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0, name
        again = tmp_path / f"{name}-again"
        assert main(["rerun", str(out / RUN_MANIFEST_NAME), "--out", str(again)]) == 0, name
        assert read_tree(again) == read_tree(out), name
    labels = (built / "distance_matrix.csv").read_text(encoding="utf-8").splitlines()[0]
    assert '"a,b"' in labels and '"""q"""' in labels and " lead" in labels


def test_readme_cli_example_runs_and_reruns_byte_identically(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```sh\n(.*?)```", readme, re.S) if "classvec generate" in b)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "classvec"
        assert main(argv[1:]) == 0, argv
    reruns = [argv for argv in commands if argv[1] == "rerun"]
    assert reruns
    for argv in reruns:
        replay = Path(argv[argv.index("--out") + 1])
        assert read_tree(replay) == read_tree(Path(argv[2]).parent), argv


def test_rerun_rejects_foreign_manifest(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"tool": "other", "subcommand": "build"}))
    code = main(["rerun", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not written by" in capsys.readouterr().err


@pytest.mark.parametrize("run, key, value", [
    ("built", "threshold", "abc"),
    ("built", "metric", "manhattan"),
    ("dataset", "classes", "abc"),
    ("dataset", "noise", "x"),
    ("dataset", "seed", "s"),
])
def test_rerun_checks_recorded_arguments_as_the_command_line_does(run, key, value, request, tmp_path, capsys):
    recorded = json.loads((request.getfixturevalue(run) / RUN_MANIFEST_NAME).read_text())
    recorded["arguments"][key] = value
    edited = tmp_path / "m.json"
    edited.write_text(json.dumps(recorded))
    out = tmp_path / "o"
    code = main(["rerun", str(edited), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"argument --{key}: invalid" in err
    assert "usage error" in err and "Traceback" not in err
    assert not out.exists()


def test_rerun_rejects_missing_file(tmp_path, capsys):
    code = main(["rerun", str(tmp_path / "gone.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


# -- harness -------------------------------------------------------------------------


# one flag fault per subcommand that main() rejects after argparse accepted it
USAGE_FAULTS = {
    "generate": ["generate", "--classes", "1"],
    # non-finite settings would reach the data files and run_manifest.json
    "generate-noise-nan": ["generate", "--noise", "nan"],
    "generate-noise-inf": ["generate", "--noise", "inf"],
    "generate-weight-nan": ["generate", "--group-weights", "3a=nan"],
    "generate-weight-inf": ["generate", "--group-weights", "3a=inf"],
    # values that overflow on the generator's 1e-4 grid
    "generate-noise-overflow": ["generate", "--noise", "1e308"],
    "generate-weight-overflow": ["generate", "--group-weights", "3a=1e308"],
    "build": ["build", "--activations", "a.tsv", "--manifest", "m.tsv", "--class-map", "c.tsv",
              "--norm", "none"],
    # a NaN or inf threshold would empty every class vector
    "build-threshold-nan": ["build", "--activations", "a.tsv", "--manifest", "m.tsv",
                            "--class-map", "c.tsv", "--threshold", "nan"],
    "build-threshold-inf": ["build", "--activations", "a.tsv", "--manifest", "m.tsv",
                            "--class-map", "c.tsv", "--threshold", "inf"],
    "build-norm-stage-none": ["build", "--activations", "a.tsv", "--manifest", "m.tsv",
                              "--class-map", "c.tsv", "--norm-stage", "none"],
    "build-groups-empty": ["build", "--activations", "a.tsv", "--manifest", "m.tsv",
                           "--class-map", "c.tsv", "--groups", ","],
    "build-groups-duplicate": ["build", "--activations", "a.tsv", "--manifest", "m.tsv",
                               "--class-map", "c.tsv", "--groups", "3a,3a"],
    "eval": ["eval", "--distances", "d.csv", "--taxonomy", "t.tsv", "--measure", "res"],
    "mds": ["mds", "--distances", "d.csv", "--dims", "3", "--highlight", "h.tsv"],
    "mds-dims-0": ["mds", "--distances", "d.csv", "--dims", "0"],
    "isomap": ["isomap", "--distances", "d.csv", "--k-neighbors", "0"],
    "isomap-dims-0": ["isomap", "--distances", "d.csv", "--dims", "0"],
    "solve": ["solve", "a + b", "--embeddings", "e.tsv", "--manifest", "m.tsv"],
}


@pytest.mark.parametrize("case", sorted(USAGE_FAULTS))
def test_usage_error_creates_no_output_dir(tmp_path, capsys, case):
    out = tmp_path / "out"
    code = main([*USAGE_FAULTS[case], "--out", str(out)])
    assert code == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


# one missing input file per subcommand that reads files, read early or late
MISSING_INPUTS = {
    "build": lambda data, built, gone: [
        "--activations", gone, "--manifest", str(data / "manifest.tsv"),
        "--class-map", str(data / "class_map.tsv"),
    ],
    "eval": lambda data, built, gone: [
        "--distances", str(built / "distance_matrix.csv"), "--taxonomy", gone,
    ],
    "mds": lambda data, built, gone: [
        "--distances", str(built / "distance_matrix.csv"), "--highlight", gone,
    ],
    "isomap": lambda data, built, gone: ["--distances", gone],
    "solve": lambda data, built, gone: [
        "c0000 - c0001", "--embeddings", gone, "--manifest", str(data / "manifest.tsv"),
    ],
}


@pytest.mark.parametrize("subcommand", sorted(MISSING_INPUTS))
def test_missing_input_is_a_data_error_and_creates_no_output_dir(
    dataset, built, tmp_path, capsys, subcommand
):
    out = tmp_path / "out"
    gone = str(tmp_path / "nope.tsv")
    code = main([subcommand, *MISSING_INPUTS[subcommand](dataset, built, gone), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("classvec: error: ") and "nope.tsv" in err
    assert not out.exists()


def test_activations_byte_that_is_not_utf8_is_a_format_error(dataset, tmp_path, capsys):
    lines = (dataset / "activations.tsv").read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"\t", b"\t\xff", 1)
    bad = tmp_path / "activations.tsv"
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "out"
    code = main([
        "build", "--activations", str(bad), "--manifest", str(dataset / "manifest.tsv"),
        "--class-map", str(dataset / "class_map.tsv"), "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"classvec: error: {bad}:3: byte 0xff is not valid UTF-8")
    assert not out.exists()


def test_unknown_flag_exits_two(capsys):
    assert main(["build", "--bogus"]) == 2


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "classvec" in capsys.readouterr().out


def test_module_entrypoint_runs_in_subprocess(tmp_path):
    # the child imports the package that this test imported, wherever it lies
    src = str(Path(classvec.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-m", "classvec", "generate", "--out",
         str(tmp_path / "g"), "--classes", "4", "--images", "1", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert result.stdout == ""
    assert (tmp_path / "g" / "activations.tsv").exists()



def test_build_and_solve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """build and solve on class vectors whose one layer holds 210,000 entries,
    in child processes under OPENBLAS_NUM_THREADS=1 and =2, write the same
    class_embeddings.tsv and equation.csv bytes.

    A BLAS dot product of that length is split over the threads, and each
    thread count adds the terms in another order. A host with one CPU runs
    both children on one thread, so it passes this test even for sums that
    go through BLAS.
    """
    rng = np.random.default_rng(18)
    dim, nnz = 250_000, 210_000
    (tmp_path / "manifest.tsv").write_text(f"big\tg\t{dim}\nsmall\tg\t4\n", encoding="utf-8")
    (tmp_path / "class_map.tsv").write_text(
        "".join(f"c{i}\ts{i}\n" for i in range(3)), encoding="utf-8"
    )
    with open(tmp_path / "activations.tsv", "w", encoding="utf-8") as fh:
        for i in range(3):
            idx = np.sort(rng.choice(dim, nnz, replace=False)).tolist()
            # three decimals: not dyadic, so a sum's bits depend on its order
            val = np.round(rng.uniform(0.001, 1.0, nnz), 3).tolist()
            field = " ".join(f"big:{k}:{v!r}" for k, v in zip(idx, val))
            fh.write(f"i{i}\tc{i}\t{field} small:{i}:0.5\n")
    src = str(Path(classvec.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        built, solved = tmp_path / f"built{threads}", tmp_path / f"solved{threads}"
        for argv in (
            ["build", "--activations", str(tmp_path / "activations.tsv"),
             "--manifest", str(tmp_path / "manifest.tsv"),
             "--class-map", str(tmp_path / "class_map.tsv"), "--out", str(built)],
            ["solve", "c0 - c1", "--embeddings", str(built / "class_embeddings.tsv"),
             "--manifest", str(tmp_path / "manifest.tsv"), "--out", str(solved)],
        ):
            subprocess.run(
                [sys.executable, "-m", "classvec", *argv],
                env=env, capture_output=True, text=True, check=True,
            )
        outputs.append(
            ((built / "class_embeddings.tsv").read_bytes(), (solved / "equation.csv").read_bytes())
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
