"""Command-line interface: the full pipeline as reproducible subcommands.

Every subcommand records its resolved flags and the digests of its input
files, the file arguments its subparser declares as ``inputs``, in
``run_manifest.json`` next to its outputs. ``rerun`` re-executes a recorded
manifest into a fresh directory once its inputs are exactly the files its
arguments name, each with its recorded digest; because all stages are
deterministic, the outputs -- manifest included -- come out byte-identical.
Diagnostics go to stderr, data to files; the exit code is 0 only when no
error occurred (2 for usage errors, 1 otherwise).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import __version__
from . import io as cvio
from .correlation import IC_MEASURES, SIMILARITY_MEASURES, evaluate_all
from .equations import DEFAULT_TOP_K, apply_difference, solve_difference
from .errors import ClassVecError, UnknownClassError, ValidationError
from .manifold import classical_mds, isomap
from .pipeline import (
    AGGREGATION_MODES,
    DISTANCE_METRICS,
    NORM_SCOPES,
    NORM_STAGES,
    PipelineConfig,
    build_class_embeddings,
    build_distance_matrix,
)
from .synthdata import GeneratorSpec, generate
from .taxonomy import ICTable
from .util import sha256_file

PROG = "classvec"
RUN_MANIFEST_NAME = "run_manifest.json"


class UsageError(Exception):
    """Bad flag combination or malformed argument; exits with code 2."""


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _arguments_of(args) -> dict:
    """Every resolved flag except the output directory, keyed by dest name.

    ``rerun`` passes this dictionary back through the subcommand's parser as a
    command line (_command_line), so it must stay JSON-native.
    """
    return {
        k: v for k, v in vars(args).items() if k not in ("func", "inputs", "subcommand", "out")
    }


def _inputs_of(args) -> dict[str, str]:
    """The run's input files by name: each declared file argument that was given,
    and one ``<dest>:<stem>`` entry per file of a repeatable one (``--counts``)."""
    inputs = {}
    for dest in args.inputs:
        value = getattr(args, dest)
        if isinstance(value, list):
            inputs.update((f"{dest}:{Path(path).stem}", path) for path in value)
        elif value:
            inputs[dest] = value
    return inputs


def _write_run_manifest(out: Path, args) -> None:
    """Record what ran: resolved flags, input digests, tool version.

    The output directory is deliberately omitted so a rerun into a different
    directory produces byte-identical files.
    """
    payload = {
        "tool": PROG,
        "version": __version__,
        "subcommand": args.subcommand,
        "arguments": _arguments_of(args),
        "inputs": {
            name: {"path": path, "sha256": sha256_file(path)}
            for name, path in sorted(_inputs_of(args).items())
        },
    }
    path = out / RUN_MANIFEST_NAME
    cvio._write_lines(path, json.dumps(payload, indent=2, sort_keys=True).split("\n"))
    _note(f"wrote {path}")


def _write(writer, *args) -> None:
    writer(*args)
    _note(f"wrote {args[-1]}")


# -- generate -----------------------------------------------------------------


def _parse_group_weights(text: str | None) -> dict[str, float] | None:
    if text is None:
        return None
    weights = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if not name or not value:
            raise UsageError(f"bad group weight {part!r}; expected NAME=WEIGHT")
        try:
            weights[name.strip()] = float(value)
        except ValueError:
            raise UsageError(f"bad group weight {part!r}; expected NAME=WEIGHT") from None
    return weights


def cmd_generate(args) -> None:
    lo, hi = args.images
    try:
        spec = GeneratorSpec(
            seed=args.seed,
            n_classes=args.classes,
            images_per_class=(lo, hi),
            block_size=args.block_size,
            noise_scale=args.noise,
            branching=args.branching,
            group_weights=_parse_group_weights(args.group_weights),
        )
    except ClassVecError as exc:
        raise UsageError(str(exc)) from None
    out = _out_dir(args)
    paths = generate(spec, out)
    for path in paths.values():
        _note(f"wrote {path}")
    _write_run_manifest(out, args)


# -- build --------------------------------------------------------------------


def _config_from_flags(args) -> PipelineConfig:
    groups = None
    if args.groups is not None:
        groups = tuple(g for g in (p.strip() for p in args.groups.split(",")) if g)
    try:
        return PipelineConfig(
            aggregation=args.agg,
            norm_stage=args.norm_stage,
            norm_scope=args.norm,
            threshold=args.threshold,
            groups=groups,
        )
    except ClassVecError as exc:
        raise UsageError(str(exc)) from None


def cmd_build(args) -> None:
    config = _config_from_flags(args)
    manifest = cvio.load_manifest(args.manifest)
    class_map = cvio.load_class_map(args.class_map)
    records = cvio.stream_activations(args.activations, manifest)
    sizes = cvio.activation_class_sizes(args.activations)
    embeddings = build_class_embeddings(records, config, class_map, manifest, sizes)
    _note(f"built {len(embeddings)} class embeddings")
    out = _out_dir(args)
    _write(cvio.write_class_embeddings, embeddings, out / "class_embeddings.tsv")
    dmat = build_distance_matrix(embeddings, args.metric)
    _write(cvio.write_distance_matrix_csv, dmat, out / "distance_matrix.csv")
    _write_run_manifest(out, args)


# -- eval ---------------------------------------------------------------------


def cmd_eval(args) -> None:
    counts_paths = list(args.counts or [])
    if args.measure in IC_MEASURES and not counts_paths:
        raise UsageError(f"--measure {args.measure} needs at least one --counts file")
    stems = [Path(p).stem for p in counts_paths]
    if len(set(stems)) != len(stems):
        raise UsageError("counts files must have distinct basenames (they name corpora)")

    dmat = cvio.load_distance_matrix_csv(args.distances)
    taxonomy = cvio.load_taxonomy(args.taxonomy)
    class_map = (
        cvio.load_class_map(args.class_map, taxonomy=taxonomy) if args.class_map else None
    )
    ics = {
        stem: ICTable.from_counts(taxonomy, cvio.load_counts(path))
        for stem, path in zip(stems, counts_paths)
    }
    measures = None if args.measure == "all" else [args.measure]
    distributions = evaluate_all(
        dmat, taxonomy, measures=measures, ics=ics or None, class_to_synset=class_map
    )
    _note(f"evaluated {len(distributions)} settings over {dmat.size} classes")
    out = _out_dir(args)
    for dist in distributions:
        _write(cvio.write_rho_csv, [dist], out / f"rho_{dist.label}.csv")
        _write(cvio.write_histogram_csv, dist, out / f"hist_{dist.label}.csv")
    _write(cvio.write_rho_summary_csv, distributions, out / "rho_summary.csv")
    _write_run_manifest(out, args)


# -- mds / isomap ----------------------------------------------------------------


def _embed_common(args, coords, highlights) -> None:
    if highlights:
        cvio.check_highlights(highlights, coords.labels)
    out = _out_dir(args)
    _write(cvio.write_coordinates_csv, coords, out / "coordinates.csv")
    _write(cvio.write_eigenvalues_csv, coords, out / "eigenvalues.csv")
    if coords.dims == 2:
        _write(cvio.write_scatter_svg, coords, highlights, out / "scatter.svg")
    _write_run_manifest(out, args)


def _check_dims(args) -> None:
    if args.dims < 1:
        raise UsageError(f"--dims must be >= 1, got {args.dims}")
    if args.highlight and args.dims != 2:
        raise UsageError("--highlight requires --dims 2 (the SVG is 2-D only)")


def cmd_mds(args) -> None:
    _check_dims(args)
    dmat = cvio.load_distance_matrix_csv(args.distances)
    highlights = cvio.load_highlights(args.highlight) if args.highlight else None
    _embed_common(args, classical_mds(dmat, args.dims), highlights)


def cmd_isomap(args) -> None:
    _check_dims(args)
    if args.k_neighbors < 1:
        raise UsageError(f"--k-neighbors must be >= 1, got {args.k_neighbors}")
    dmat = cvio.load_distance_matrix_csv(args.distances)
    highlights = cvio.load_highlights(args.highlight) if args.highlight else None
    coords = isomap(
        dmat,
        k_neighbors=args.k_neighbors,
        dims=args.dims,
        largest_component=args.largest_component,
    )
    _embed_common(args, coords, highlights)


# -- solve ------------------------------------------------------------------------


_APPLY_RE = re.compile(r"^\s*(\S+)\s+-\s+\(\s*(\S+)\s+-\s+(\S+)\s*\)\s*$")
_SOLVE_RE = re.compile(r"^\s*(\S+)\s+-\s+(\S+)\s*$")


def _resolve_class(token: str, known: set, class_map: dict | None) -> str:
    if token in known:
        return token
    if class_map:
        reverse = {syn: cid for cid, syn in class_map.items()}
        if token in reverse and reverse[token] in known:
            return reverse[token]
    raise UnknownClassError(f"unknown class or synset {token!r}")


def cmd_solve(args) -> None:
    apply_match = _APPLY_RE.match(args.expression)
    solve_match = _SOLVE_RE.match(args.expression)
    if not apply_match and not solve_match:
        raise UsageError(
            f'cannot parse {args.expression!r}; expected "A - B" or "C - (A - B)"'
        )
    if args.top < 1:
        raise UsageError(f"--top must be >= 1, got {args.top}")
    manifest = cvio.load_manifest(args.manifest)
    embeddings = cvio.load_class_embeddings(args.embeddings, manifest)
    class_map = cvio.load_class_map(args.class_map) if args.class_map else None
    known = {e.class_id for e in embeddings}

    def rid(token: str) -> str:
        return _resolve_class(token, known, class_map)

    exclude_operands = not args.include_operands
    if apply_match:
        c, a, b = (rid(t) for t in apply_match.groups())
        result = apply_difference(
            c, a, b, embeddings, top_k=args.top, exclude_operands=exclude_operands
        )
    else:
        a, b = (rid(t) for t in solve_match.groups())
        result = solve_difference(
            a, b, embeddings, top_k=args.top, exclude_operands=exclude_operands
        )
    out = _out_dir(args)
    _write(cvio.write_equation_csv, result, out / "equation.csv")
    table_path = out / "equation.txt"
    cvio._write_lines(table_path, cvio.format_equation_table(result).split("\n"))
    _note(f"wrote {table_path}")
    _write_run_manifest(out, args)


# -- rerun ------------------------------------------------------------------------


def _command_line(parser: argparse.ArgumentParser, arguments: dict) -> list[str]:
    """``arguments``, keyed by dest, as the command line that ``parser`` reads back
    into them, so each is checked as a typed one is."""
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "out")}
    argv, positionals = [], []
    for dest, value in arguments.items():
        if dest not in actions:
            raise UsageError(f"run manifest records an unknown argument {dest!r}")
        action = actions[dest]
        opt = action.option_strings[0] if action.option_strings else None
        if opt is None:
            positionals.append(str(value))
        elif action.nargs == 0:  # a flag: given when true, left out when false
            argv += [opt] if value is True else [] if value is False else [f"{opt}={value}"]
        elif isinstance(value, list):  # --images MIN MAX; an appended option once per item
            append = isinstance(action, argparse._AppendAction)
            argv += [f"{opt}={item}" for item in value] if append else [opt, *map(str, value)]
        elif value is not None:  # None is the default
            argv.append(f"{opt}={value}")  # one token, even for a value that starts with "-"
    return [*argv, "--", *positionals] if positionals else argv


def cmd_rerun(args) -> None:
    manifest_path = Path(args.manifest_file)
    try:
        recorded = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read run manifest {manifest_path}: {exc}") from None
    if not isinstance(recorded, dict) or recorded.get("tool") != PROG:
        raise UsageError(f"{manifest_path} was not written by {PROG}")
    sub, arguments = recorded.get("subcommand"), recorded.get("arguments", {})
    parsers = next(a for a in build_parser()._actions if a.dest == "subcommand").choices
    if sub not in parsers or sub == "rerun":
        raise UsageError(f"manifest names unknown subcommand {sub!r}")
    if not isinstance(arguments, dict):
        raise UsageError(f"{manifest_path}: recorded arguments are not a JSON object")
    if recorded.get("version") != __version__:
        _note(
            f"note: manifest was written by version {recorded.get('version')}, "
            f"running {__version__}"
        )
    try:  # argparse prints what it refuses, as for a typed command
        replay = parsers[sub].parse_args(["--out", args.out, *_command_line(parsers[sub], arguments)])
    except SystemExit:
        raise UsageError(f"{manifest_path} records arguments that {sub} refuses") from None
    replay.subcommand = sub
    inputs, named = recorded.get("inputs", {}), _inputs_of(replay)
    if not isinstance(inputs, dict) or named != {
        name: entry.get("path") if isinstance(entry, dict) else None
        for name, entry in inputs.items()
    }:
        raise UsageError(f"{manifest_path}: recorded inputs are not exactly the files its arguments name")
    for name, path in sorted(named.items()):
        if sha256_file(path) != inputs[name].get("sha256"):
            raise ValidationError(
                f"input {name} {path} changed since the recorded run: "
                "its SHA-256 no longer matches the run manifest"
            )
    _note(f"re-running {sub} into {args.out}")
    replay.func(replay)


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Class-level embeddings from sparse layered activation vectors.",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=50)
    p.add_argument("--images", type=int, nargs=2, default=[11, 32],
                   metavar=("MIN", "MAX"))
    p.add_argument("--block-size", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--branching", type=int, default=4)
    p.add_argument("--group-weights", default=None,
                   help="per-group signal weights, e.g. 3a=0,4a=2.5")
    p.set_defaults(func=cmd_generate, inputs=())

    p = sub.add_parser("build", help="aggregate images into class embeddings")
    p.add_argument("--activations", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--class-map", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--agg", choices=AGGREGATION_MODES, default="arithmetic")
    p.add_argument("--norm", choices=NORM_SCOPES, default="layer")
    p.add_argument("--norm-stage", choices=NORM_STAGES, default="class")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--metric", choices=DISTANCE_METRICS, default="cosine")
    p.add_argument("--groups", default=None, help="comma-separated layer groups")
    p.set_defaults(func=cmd_build, inputs=("activations", "manifest", "class_map"))

    p = sub.add_parser("eval", help="rank-correlate visual and lexical similarity")
    p.add_argument("--distances", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--class-map", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--measure", choices=(*SIMILARITY_MEASURES, "all"), default="all")
    p.add_argument("--counts", action="append", default=None,
                   help="corpus counts file; repeatable, one corpus per file")
    p.set_defaults(func=cmd_eval, inputs=("distances", "taxonomy", "class_map", "counts"))

    p = sub.add_parser("mds", help="classical MDS embedding of a distance matrix")
    p.add_argument("--distances", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--highlight", default=None, help="class ids to shade in the SVG")
    p.set_defaults(func=cmd_mds, inputs=("distances", "highlight"))

    p = sub.add_parser("isomap", help="geodesic embedding over a k-NN graph")
    p.add_argument("--distances", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--k-neighbors", type=int, default=10)
    p.add_argument("--largest-component", action="store_true",
                   help="embed the largest component instead of failing")
    p.add_argument("--highlight", default=None, help="class ids to shade in the SVG")
    p.set_defaults(func=cmd_isomap, inputs=("distances", "highlight"))

    p = sub.add_parser("solve", help='rank classes near "A - B" or "C - (A - B)"')
    p.add_argument("expression")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--class-map", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--top", type=int, default=DEFAULT_TOP_K)
    p.add_argument("--include-operands", action="store_true",
                   help="let the operand classes appear among the neighbors")
    p.set_defaults(func=cmd_solve, inputs=("embeddings", "manifest", "class_map"))

    p = sub.add_parser("rerun", help="re-execute a recorded run manifest")
    p.add_argument("manifest_file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"{PROG}: usage error: {exc}", file=sys.stderr)
        return 2
    except (ClassVecError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())
