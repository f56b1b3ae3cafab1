"""The three workloads: set-up, one timed run, and the checks on its outputs.

Each workload is a closed loop with one caller and no threads. ``setup``
builds the fixed inputs from the seed and is not timed as part of the run.
``run`` is the timed region; it calls classvec through module attributes
(``cv.x``, ``cvio.x``, ``cli.main``) so a traced run sees every call.
``check`` runs after the timer stops and compares the outputs with oracles
that do not use the code under test.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import classvec as cv
import classvec.cli as cli
import classvec.io as cvio
from classvec.taxonomy import SIMILARITY_MEASURES


class Ledger:
    """Operations attempted and failed. An operation is one stage call or one query."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.prefix = ""  # names the repetition, so each counts its own failures

    def fail(self, key: str, reason: str) -> None:
        self.failures.setdefault(self.prefix + key, reason)

    @contextlib.contextmanager
    def op(self, key: str):
        """Count one operation; an exception inside it marks it failed."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self.fail(key, f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)

    @contextlib.contextmanager
    def check(self, key: str):
        """A failed check, or one that cannot read its inputs, fails ``key``."""
        try:
            yield
        except Exception as exc:
            self.fail(key, f"check raised {type(exc).__name__}: {exc}")


def _cli(argv: list[str]) -> None:
    """``classvec.cli.main`` with its stderr notes kept unless it fails."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        sys.stderr.write(err.getvalue())
        raise RuntimeError(f"classvec {argv[0]} exited with code {rc}")


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root`` (sorted relative paths), except
    the run manifests, which record input paths."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != cli.RUN_MANIFEST_NAME):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass
class Output:
    """What a timed run hands to its checks."""

    values: dict = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)
    digest: str | None = None


# -- pipeline-200 --------------------------------------------------------------


class Pipeline200:
    """The users' job at acceptance size, through the CLI: generate, build,
    eval --measure all --counts, mds, isomap --largest-component, solve."""

    name = "pipeline-200"
    min_reps = 1
    classes = 200
    images = ("11", "32")
    noise = "0.1"

    def _steps(self, seed: int, d: Path, classes: int, images) -> list[list[str]]:
        data, build = d / "data", d / "build"
        dmat = str(build / "distance_matrix.csv")
        return [
            ["generate", "--out", str(data), "--seed", str(seed), "--classes", str(classes),
             "--images", *images, "--noise", self.noise],
            ["build", "--activations", str(data / "activations.tsv"),
             "--manifest", str(data / "manifest.tsv"), "--class-map", str(data / "class_map.tsv"),
             "--out", str(build)],
            ["eval", "--distances", dmat, "--taxonomy", str(data / "taxonomy.tsv"),
             "--class-map", str(data / "class_map.tsv"), "--counts", str(data / "counts.tsv"),
             "--measure", "all", "--out", str(d / "eval")],
            ["mds", "--distances", dmat, "--out", str(d / "mds")],
            # k=10 does not connect this data, so the largest component is embedded
            ["isomap", "--distances", dmat, "--largest-component", "--out", str(d / "isomap")],
            ["solve", "c0000 - c0001", "--embeddings", str(build / "class_embeddings.tsv"),
             "--manifest", str(data / "manifest.tsv"), "--out", str(d / "solve")],
        ]

    def setup(self, d: Path, seed: int):
        # warm-up: the whole CLI path once on a tiny dataset
        for argv in self._steps(seed, d, 8, ("2", "3")):
            _cli(argv)
        return seed

    def run(self, seed, d: Path, tracer, ledger: Ledger) -> Output:
        for argv in self._steps(seed, d, self.classes, self.images):
            with ledger.op(argv[0]), tracer.span(f"cli.{argv[0]}"):
                _cli(argv)
        return Output()

    def check(self, seed, d: Path, out: Output, ledger: Ledger) -> None:
        data = d / "data"
        with ledger.check("build"):
            dmat = cvio.load_distance_matrix_csv(d / "build" / "distance_matrix.csv")
            taxonomy = cvio.load_taxonomy(data / "taxonomy.tsv")
            class_map = cvio.load_class_map(data / "class_map.tsv")
            anc = [taxonomy.ancestors(class_map[c]) for c in dmat.labels]
            worst = max(
                abs(1.0 - dmat.values[i, j] - cv.closed_form_cosine(anc[i], anc[j]))
                for i in range(dmat.size)
                for j in range(i + 1, dmat.size)
            )
            out.values["worst_cosine_error"] = float(worst)
            if worst > 0.05:
                ledger.fail("build", f"cosine off the closed form by {worst:.4f} > 0.05")
        with ledger.check("eval"):
            with open(d / "eval" / "rho_summary.csv", newline="", encoding="utf-8") as fh:
                rows = {r["measure"]: float(r["mean_rho"]) for r in csv.DictReader(fh) if not r["corpus"]}
            out.values["mean_path_rho"] = rows["path"]
            if rows["path"] < 0.5:
                ledger.fail("eval", f"mean path rho {rows['path']:.3f} < 0.5")
        out.digest = tree_digest(d)


# -- taxonomy-1000 ---------------------------------------------------------------


@dataclass
class TaxonomyInputs:
    distances: Path
    taxonomy: Path
    class_map: Path
    counts: Path


class Taxonomy1000:
    """Paper-scale analysis of a 1000-class distance matrix: six measures,
    classical MDS and ISOMAP(k=10) over all points."""

    name = "taxonomy-1000"
    # One ~23 s repetition still moves about 5% with the host after scaling
    # to reference seconds; the median of two averages part of that out.
    min_reps = 2
    classes = 1000
    # Share of the point-cloud distance in the blend. The closed form alone
    # splits the k=10 graph into dozens of components; 0.7 connects it.
    cloud_weight = 0.7
    cloud_dims = 5

    def setup(self, d: Path, seed: int) -> TaxonomyInputs:
        # one tiny layer: only the taxonomy, class map and counts are used
        layer = cv.LayerManifest([("taxonomy_only", "g", 2 * self.classes)])
        spec = cv.GeneratorSpec(
            seed=seed, n_classes=self.classes, images_per_class=(1, 1), block_size=1, manifest=layer
        )
        paths = cv.generate(spec, d)
        taxonomy = cvio.load_taxonomy(paths["taxonomy"])
        class_map = cvio.load_class_map(paths["class_map"])
        labels = sorted(class_map)
        synsets = {s: i for i, s in enumerate(taxonomy.synsets)}
        member = np.zeros((len(labels), len(synsets)))
        for row, cid in enumerate(labels):
            member[row, [synsets[a] for a in taxonomy.ancestors(class_map[cid])]] = 1.0
        # closed_form_cosine for every pair at once: shared / sqrt(|anc a| |anc b|)
        sizes = member.sum(axis=1)
        cosine = (member @ member.T) / np.sqrt(np.outer(sizes, sizes))
        rng = np.random.default_rng((seed, self.classes))
        i, j = rng.integers(0, len(labels), size=(2, 64))
        for a, b in zip(i, j):
            want = cv.closed_form_cosine(
                taxonomy.ancestors(class_map[labels[a]]), taxonomy.ancestors(class_map[labels[b]])
            )
            if abs(cosine[a, b] - want) > 1e-12:
                raise RuntimeError(f"vectorized closed form disagrees at ({a}, {b})")
        points = rng.random((len(labels), self.cloud_dims))
        # |p - q|^2 = |p|^2 + |q|^2 - 2 p.q, with no n x n x dims temporary
        sq = (points**2).sum(axis=1)
        cloud = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * points @ points.T, 0.0))
        blend = (1.0 - self.cloud_weight) * (1.0 - cosine) + self.cloud_weight * cloud / cloud.max()
        blend = (blend + blend.T) / 2.0
        np.fill_diagonal(blend, 0.0)
        distances = d / "distances.csv"
        cvio.write_distance_matrix_csv(cv.DistanceMatrix(labels, blend), distances)
        paths["activations"].unlink()
        return TaxonomyInputs(distances, paths["taxonomy"], paths["class_map"], paths["counts"])

    def run(self, inputs: TaxonomyInputs, d: Path, tracer, ledger: Ledger) -> Output:
        out = Output()
        v = out.values
        with ledger.op("load"):
            v["dmat"] = cvio.load_distance_matrix_csv(inputs.distances)
            v["taxonomy"] = cvio.load_taxonomy(inputs.taxonomy)
            v["class_map"] = cvio.load_class_map(inputs.class_map, taxonomy=v["taxonomy"])
            v["ic"] = cv.ICTable.from_counts(v["taxonomy"], cvio.load_counts(inputs.counts))
        for measure in SIMILARITY_MEASURES:
            with ledger.op(f"eval-{measure}"):
                v[measure] = cv.evaluate_all(
                    v["dmat"],
                    v["taxonomy"],
                    measures=[measure],
                    ics={"counts": v["ic"]},
                    class_to_synset=v["class_map"],
                )[0]
        with ledger.op("mds"):
            v["mds"] = cv.classical_mds(v["dmat"], 2)
        with ledger.op("isomap"):
            v["isomap"] = cv.isomap(v["dmat"], k_neighbors=10, dims=2)
        return out

    def check(self, inputs, d: Path, out: Output, ledger: Ledger) -> None:
        v = out.values
        for measure in SIMILARITY_MEASURES:
            with ledger.check(f"eval-{measure}"):
                rhos = v[measure].rhos
                if rhos.size != self.classes or not np.all(np.isfinite(rhos)):
                    ledger.fail(f"eval-{measure}", f"{rhos.size} rhos, finite: {np.isfinite(rhos).all()}")
        with ledger.check("eval-lch"):
            # path and lch both fall strictly with path length: same ranks, same bits
            if v["path"].rhos.tobytes() != v["lch"].rhos.tobytes():
                ledger.fail("eval-lch", "per-class lch rhos differ from path rhos")
        with ledger.check("mds"):
            coords = v["mds"].coords
            if coords.shape != (self.classes, 2) or not np.all(np.isfinite(coords)):
                ledger.fail("mds", f"coordinates of shape {coords.shape}")
        with ledger.check("isomap"):
            if len(v["isomap"].labels) != self.classes:
                ledger.fail("isomap", f"embedded {len(v['isomap'].labels)} of {self.classes} points")
        v["mean_path_rho"] = v["path"].mean if "path" in v else math.nan


# -- query-1000 --------------------------------------------------------------------


@dataclass
class QueryInputs:
    manifest: Path
    embeddings: Path
    batch: list[tuple[str, ...]]


class Query1000:
    """Paper-scale ``a - b`` and ``c - (a - b)`` queries against 1000 class
    embeddings loaded from their TSV file."""

    name = "query-1000"
    min_reps = 1
    classes = 1000
    queries = 100  # leaves 10 latencies above p90

    def setup(self, d: Path, seed: int) -> QueryInputs:
        spec = cv.GeneratorSpec(
            seed=seed, n_classes=self.classes, images_per_class=(1, 2), noise_scale=0.1
        )
        paths = cv.generate(spec, d)
        manifest = cvio.load_manifest(paths["manifest"])
        class_map = cvio.load_class_map(paths["class_map"])
        records = cvio.stream_activations(paths["activations"], manifest)
        embeddings = cv.build_class_embeddings(records, cv.DEFAULT_CONFIG, class_map, manifest)
        cvio.write_class_embeddings(embeddings, d / "class_embeddings.tsv")
        paths["activations"].unlink()
        ids = sorted(class_map)
        rng = np.random.default_rng((seed, self.classes))
        batch = []
        for k in range(self.queries):
            a, b, c = (ids[i] for i in rng.choice(len(ids), size=3, replace=False))
            batch.append(("solve", a, b) if k % 2 == 0 else ("apply", c, a, b))
        return QueryInputs(paths["manifest"], d / "class_embeddings.tsv", batch)

    def run(self, inputs: QueryInputs, d: Path, tracer, ledger: Ledger) -> Output:
        out = Output()
        answers = out.values["answers"] = {}
        with ledger.op("load"):
            manifest = cvio.load_manifest(inputs.manifest)
            embeddings = out.values["embeddings"] = cvio.load_class_embeddings(
                inputs.embeddings, manifest
            )
        for k, (kind, *ids) in enumerate(inputs.batch):
            with ledger.op(f"query-{k}"):
                start = time.perf_counter()
                try:
                    if kind == "solve":
                        answers[k] = cv.solve_difference(*ids, embeddings)
                    else:
                        answers[k] = cv.apply_difference(*ids, embeddings)
                except cv.EmptyDifferenceError:
                    answers[k] = None
                finally:
                    out.latencies_s.append(time.perf_counter() - start)
        return out

    def check(self, inputs: QueryInputs, d: Path, out: Output, ledger: Ledger) -> None:
        with ledger.check("load"):
            oracle = _CosineOracle(out.values["embeddings"])
        answers = out.values["answers"]
        for k, (kind, *ids) in enumerate(inputs.batch):
            if k not in answers:
                continue  # the query raised; already counted as failed
            with ledger.check(f"query-{k}"):
                problem = oracle.disagreement(kind, ids, answers[k])
                if problem:
                    ledger.fail(f"query-{k}", problem)


class _CosineOracle:
    """Dense NumPy cosine over global indices ``manifest.offset_of(layer) + i``.

    Shares no arithmetic with classvec.vectors: class vectors become one flat
    (owner, global index, value) table and every query a dense array.
    """

    def __init__(self, embeddings):
        self.ids = [e.class_id for e in embeddings]
        self.row = {cid: i for i, cid in enumerate(self.ids)}
        manifest = embeddings[0].vector.manifest
        self.dim = manifest.total_dim
        owner, index, value = [], [], []
        for row, e in enumerate(embeddings):
            for lid in e.vector.stored_layers:
                idx, val = e.vector.layer(lid)
                owner.append(np.full(idx.size, row))
                index.append(manifest.offset_of(lid) + idx)
                value.append(val)
        self.owner = np.concatenate(owner)
        self.index = np.concatenate(index)
        self.value = np.concatenate(value)
        self.sq_norm = np.bincount(self.owner, weights=self.value**2, minlength=len(self.ids))

    def dense(self, cid: str) -> np.ndarray:
        v = np.zeros(self.dim)
        rows = self.owner == self.row[cid]
        v[self.index[rows]] = self.value[rows]
        return v

    def disagreement(self, kind: str, ids, result) -> str | None:
        if kind == "solve":
            a, b = (self.dense(c) for c in ids)
            query = np.maximum(a - b, 0.0)
        else:
            c, a, b = (self.dense(x) for x in ids)
            query = np.maximum(c - np.maximum(a - b, 0.0), 0.0)
        if not query.any():
            return None if result is None else "oracle finds an empty difference"
        if result is None:
            return "program reports an empty difference; the oracle does not"
        dots = np.bincount(self.owner, weights=query[self.index] * self.value, minlength=len(self.ids))
        cosine = dots / np.sqrt(float(query @ query) * self.sq_norm)
        cosine[[self.row[c] for c in ids]] = -np.inf
        top_id, top_sim = result.neighbors[0]
        best = float(cosine.max())
        if cosine[self.row[top_id]] < best - 1e-9 or abs(top_sim - best) > 1e-9:
            return f"top-1 {top_id} ({top_sim:.12f}) but the oracle's best is {best:.12f}"
        return None


WORKLOADS = {w.name: w for w in (Pipeline200(), Taxonomy1000(), Query1000())}
