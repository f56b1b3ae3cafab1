"""Where the traced run attaches to classvec, and the per-layer metrics it gives.

Every public function of the spanned modules is replaced, in every classvec
namespace that holds it, by a wrapper that records a span ``<module>.<name>``.
Functions called once per class pair per measure (the taxonomy measures, and
the vector cosine and subtraction) would cost more to span than they take, so
they are only counted, at the names ``correlation``, ``pipeline`` and
``equations`` call. The CLI layer is spanned by the workload itself, around
each ``classvec.cli.main`` call. Everything is put back on exit.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys

from classvec.taxonomy import SIMILARITY_MEASURES
from spans import EXPECTED_ERRORS, SpanTotals

LAYERS = (
    "cli",
    "synthdata",
    "io",
    "pipeline",
    "vectors",
    "taxonomy",
    "correlation",
    "manifold",
    "equations",
)
SPANNED = ("synthdata", "io", "pipeline", "taxonomy", "correlation", "manifold", "equations")
NOT_SPANNED = {"similarity", *(f"{measure}_sim" for measure in SIMILARITY_MEASURES)}
COUNTED = (
    ("correlation", "similarity", "taxonomy.similarity_calls"),
    ("pipeline", "cosine_similarity", "vectors.cosine_calls"),
    ("equations", "cosine_similarity", "vectors.cosine_calls"),
    ("equations", "subtract", "vectors.subtract_calls"),
)
CLI_STEPS = ("generate", "build", "eval", "mds", "isomap", "solve")
QUERY_SPANS = ("equations.solve_difference", "equations.apply_difference")
# Bytes per stored entry (int64 index + float64 value) and per matrix cell.
ENTRY_BYTES = 16
CELL_BYTES = 8


def _bump_max(tracer, key, value):
    tracer.counts[key] = max(tracer.counts[key], value)


def _on_manifest(tracer, args, kwargs, manifest):
    _bump_max(tracer, "vectors.total_dim", manifest.total_dim)


def _on_stream(tracer, args, kwargs, records):
    tracer.counts["io.parse_bytes"] += os.path.getsize(args[0])


def _on_parsed_record(tracer, record):
    tracer.counts["io.parse_triplets"] += record.vector.nnz


def _on_load_embeddings(tracer, args, kwargs, embeddings):
    tracer.counts["io.load_embeddings_triplets"] += sum(e.vector.nnz for e in embeddings)


def _on_embeddings(tracer, args, kwargs, embeddings):
    nnz = [e.vector.nnz for e in embeddings]
    tracer.counts["pipeline.classes"] += len(nnz)
    tracer.counts["pipeline.class_nnz_sum"] += sum(nnz)
    _bump_max(tracer, "pipeline.class_nnz_max", max(nnz, default=0))


def _on_distance(tracer, args, kwargs, matrix):
    n = matrix.size
    nnz = sum(e.vector.nnz for e in args[0])
    tracer.counts["pipeline.pairs"] += n * (n - 1) // 2
    # every unordered pair reads both class vectors; the n x n result is written
    tracer.counts["pipeline.distance_bytes_computed"] += (n - 1) * nnz * ENTRY_BYTES + n * n * CELL_BYTES


def _on_taxonomy(tracer, args, kwargs, result):
    taxonomy = args[0]
    _bump_max(tracer, "taxonomy.nodes", len(taxonomy))
    _bump_max(tracer, "taxonomy.max_depth", taxonomy.max_depth)


def _on_evaluate_all(tracer, args, kwargs, distributions):
    tracer.counts["correlation.rhos"] += sum(len(d) for d in distributions)


def _on_knn(tracer, args, kwargs, graph):
    tracer.counts["manifold.knn_edges"] += graph.edge_count()


def _on_mds(tracer, args, kwargs, coords):
    tracer.counts["manifold.points_embedded"] += len(coords.labels)


def _on_hash(tracer, args, kwargs, digest):
    tracer.counts["cli.hashed_bytes"] += os.path.getsize(args[0])


def _measure_tag(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["measure"]


HOOKS = {
    "io.load_manifest": {"on_result": _on_manifest},
    "io.stream_activations": {"on_result": _on_stream},
    "io.load_class_embeddings": {"on_result": _on_load_embeddings},
    "pipeline.build_class_embeddings": {"on_result": _on_embeddings},
    "pipeline.build_distance_matrix": {"on_result": _on_distance},
    "correlation.evaluate_class": {"tag": _measure_tag},
    "correlation.evaluate_all": {"on_result": _on_evaluate_all},
    "manifold.knn_graph": {"on_result": _on_knn},
    "manifold.classical_mds": {"on_result": _on_mds},
}


def _counted(fn, tracer, key):
    counts = tracer.counts
    failed = f"{key.split('.')[0]}.failed_calls"

    def counted(*args, **kwargs):
        counts[key] += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if type(exc).__name__ not in EXPECTED_ERRORS:
                counts[failed] += 1
            raise

    return counted


class Probes:
    """Context manager: wrappers in place for one traced run, then removed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        self._layer = {
            layer: importlib.import_module(f"classvec.{layer}") for layer in (*SPANNED, "cli")
        }
        self._modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "classvec"]
        self._layer_of_file = {
            os.path.realpath(self._layer[layer].__file__): layer for layer in SPANNED
        }

    def producer_of(self, generator):
        layer = self._layer_of_file.get(os.path.realpath(generator.gi_code.co_filename))
        return None if layer is None else f"{layer}.{generator.gi_code.co_name}"

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, fn, wrapper):
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def __enter__(self):
        tracer = self.tracer
        tracer.producer_of = self.producer_of
        tracer.item_hooks["io.stream_activations"] = _on_parsed_record
        for layer in SPANNED:
            module = self._layer[layer]
            public = [
                (name, fn)
                for name, fn in vars(module).items()
                if inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
                and name not in NOT_SPANNED
            ]
            for name, fn in public:
                span = f"{layer}.{name}"
                self._replace_everywhere(fn, tracer.wrap(fn, span, **HOOKS.get(span, {})))
        for layer, attr, key in COUNTED:
            module = self._layer[layer]
            self._set(module, attr, _counted(getattr(module, attr), tracer, key))

        cli = self._layer["cli"]
        self._set(cli, "sha256_file", tracer.wrap(cli.sha256_file, "cli.sha256_file", on_result=_on_hash))
        taxonomy = self._layer["taxonomy"]
        self._set(
            taxonomy.Taxonomy,
            "__init__",
            tracer.wrap(taxonomy.Taxonomy.__init__, "taxonomy.Taxonomy", on_result=_on_taxonomy),
        )
        from_counts = taxonomy.ICTable.__dict__["from_counts"].__func__
        self._set(
            taxonomy.ICTable,
            "from_counts",
            classmethod(tracer.wrap(from_counts, "taxonomy.ICTable.from_counts")),
        )
        return self

    def __exit__(self, *exc_info):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        self.tracer.producer_of = None
        return False


def layer_metrics(tracer, run_s: float, untraced_run_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced run, as name -> (value, unit)."""
    t = SpanTotals(tracer.spans)
    c = tracer.counts
    m: dict[str, tuple[float, str]] = {}

    for step in CLI_STEPS:
        m[f"cli.{step}_s"] = (t.total[f"cli.{step}"], "s")
    m["cli.self_s"] = (t.layer_self["cli"], "s")
    m["cli.hashed_mb"] = (c["cli.hashed_bytes"] / 1e6, "MB")

    m["synthdata.generate_self_s"] = (t.layer_self["synthdata"], "s")
    m["synthdata.images"] = (c["synthdata.make_records.items"], "count")

    m["io.write_activations_s"] = (t.self_time["io.write_activations"], "s")
    m["io.parse_s"] = (t.total["io.stream_activations"], "s")
    m["io.parse_records"] = (c["io.stream_activations.items"], "count")
    m["io.parse_triplets"] = (c["io.parse_triplets"], "count")
    m["io.parse_mb"] = (c["io.parse_bytes"] / 1e6, "MB")
    m["io.load_embeddings_s"] = (t.total["io.load_class_embeddings"], "s")
    m["io.load_embeddings_triplets"] = (c["io.load_embeddings_triplets"], "count")
    m["io.matrix_csv_s"] = (
        t.total["io.load_distance_matrix_csv"] + t.total["io.write_distance_matrix_csv"],
        "s",
    )
    m["io.write_outputs_s"] = (
        math.fsum(
            v
            for name, v in t.self_time.items()
            if name.startswith("io.write_")
            and name not in ("io.write_activations", "io.write_distance_matrix_csv")
        ),
        "s",
    )
    m["io.self_s"] = (t.layer_self["io"], "s")

    classes = c["pipeline.classes"]
    m["pipeline.aggregate_s"] = (
        t.self_time["pipeline.build_class_embeddings"] + t.self_time["pipeline.aggregate"],
        "s",
    )
    m["pipeline.distance_s"] = (t.total["pipeline.build_distance_matrix"], "s")
    m["pipeline.classes"] = (classes, "count")
    m["pipeline.pairs"] = (c["pipeline.pairs"], "count")
    if classes:
        m["pipeline.class_nnz_mean"] = (c["pipeline.class_nnz_sum"] / classes, "count")
    m["pipeline.class_nnz_max"] = (c["pipeline.class_nnz_max"], "count")
    m["pipeline.distance_mb_computed"] = (c["pipeline.distance_bytes_computed"] / 1e6, "MB")

    m["vectors.cosine_calls"] = (c["vectors.cosine_calls"], "count")
    m["vectors.subtract_calls"] = (c["vectors.subtract_calls"], "count")
    m["vectors.total_dim"] = (c["vectors.total_dim"], "count")

    m["taxonomy.build_s"] = (
        t.total["taxonomy.Taxonomy"] + t.total["taxonomy.ICTable.from_counts"],
        "s",
    )
    m["taxonomy.nodes"] = (c["taxonomy.nodes"], "count")
    m["taxonomy.max_depth"] = (c["taxonomy.max_depth"], "count")
    m["taxonomy.similarity_calls"] = (c["taxonomy.similarity_calls"], "count")

    for measure in SIMILARITY_MEASURES:
        m[f"correlation.eval_{measure}_s"] = (
            t.total_by_tag[("correlation.evaluate_class", measure)],
            "s",
        )
    m["correlation.rhos"] = (c["correlation.rhos"], "count")

    m["manifold.mds_s"] = (t.total_outside("manifold.classical_mds", "manifold.isomap"), "s")
    m["manifold.isomap_s"] = (t.total["manifold.isomap"], "s")
    m["manifold.geodesic_s"] = (t.total["manifold.geodesic_matrix"], "s")
    m["manifold.knn_edges"] = (c["manifold.knn_edges"], "count")
    m["manifold.points_embedded"] = (c["manifold.points_embedded"], "count")

    queries = sum(t.calls[name] for name in QUERY_SPANS)
    m["equations.query_s"] = (sum(t.total[name] for name in QUERY_SPANS), "s")
    m["equations.queries"] = (queries, "count")
    if queries:
        answered = queries - sum(t.raised[name] for name in QUERY_SPANS)
        m["equations.useful_frac"] = (answered / queries, "ratio")

    for layer in LAYERS:
        m[f"{layer}.errors"] = (t.errors[layer] + c[f"{layer}.failed_calls"], "count")
    m["trace.overhead_s"] = (run_s - untraced_run_s, "s")
    m["trace.unattributed_s"] = (run_s - t.root_total, "s")
    return m
