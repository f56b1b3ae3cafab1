"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import classvec as cv  # noqa: E402
import classvec.io as cvio  # noqa: E402
from probes import Probes, layer_metrics  # noqa: E402
from spans import SpanTotals, Tracer, percentile, valid_metric_name  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = Tracer("run", clock=clock)
    with tr.span("cli.build"):
        clock.tick(1)
        with tr.span("io.parse"):
            clock.tick(4)
            with tr.span("vectors.align"):
                clock.tick(2)
        clock.tick(3)
    with tr.span("io.write"):
        clock.tick(5)
    t = SpanTotals(tr.spans)
    assert t.total["cli.build"] == 10
    assert t.self_time["cli.build"] == 4
    assert t.total["io.parse"] == 6
    assert t.self_time["io.parse"] == 4
    assert t.self_time["vectors.align"] == 2
    assert t.layer_self == {"cli": 4, "io": 9, "vectors": 2}
    assert t.root_total == 15 == sum(t.layer_self.values())
    assert {s.run for s in tr.spans} == {"run"}


def test_failed_spans_count_as_errors_except_expected_outcomes():
    tr = Tracer("run", clock=FakeClock())
    for exc in (ValueError("bad"), cv.EmptyDifferenceError("empty")):
        with pytest.raises(type(exc)):
            with tr.span("equations.solve_difference"):
                raise exc
    t = SpanTotals(tr.spans)
    assert t.raised["equations.solve_difference"] == 2
    assert t.errors["equations"] == 1


def _producer(clock, n):
    for i in range(n):
        clock.tick(5)
        yield i


def _consume(items, clock):
    total = 0
    for item in items:
        clock.tick(1)
        total += item
    return total


def test_time_inside_next_goes_to_the_producer():
    clock = FakeClock()
    tr = Tracer("run", clock=clock)
    produce = tr.wrap(_producer, "io.stream")
    consume = tr.wrap(_consume, "pipeline.build")
    assert consume(produce(clock, 3), clock) == 3
    t = SpanTotals(tr.spans)
    assert t.layer_self["io"] == 15
    assert t.layer_self["pipeline"] == 3
    assert t.total["pipeline.build"] == 18
    assert tr.counts["io.stream.items"] == 3


def test_generator_argument_is_attributed_to_its_producer():
    clock = FakeClock()
    tr = Tracer("run", clock=clock, producer_of=lambda g: "synthdata.records")
    consume = tr.wrap(_consume, "io.write")
    assert consume(_producer(clock, 4), clock) == 6
    t = SpanTotals(tr.spans)
    assert t.layer_self["synthdata"] == 20
    assert t.layer_self["io"] == 4
    assert tr.counts["synthdata.records.items"] == 4


def test_parse_time_goes_to_io_not_pipeline(tmp_path):
    paths = cv.generate(cv.GeneratorSpec(seed=3, n_classes=4, images_per_class=(2, 3)), tmp_path)
    manifest = cvio.load_manifest(paths["manifest"])
    class_map = cvio.load_class_map(paths["class_map"])
    original = cvio.stream_activations
    tr = Tracer("run")
    with Probes(tr):
        records = cvio.stream_activations(paths["activations"], manifest)
        embeddings = cv.build_class_embeddings(records, cv.DEFAULT_CONFIG, class_map, manifest)
    assert cvio.stream_activations is original
    assert len(embeddings) == 4

    build = next(s for s in tr.spans if s.name == "pipeline.build_class_embeddings")
    under_build = [s for s in tr.spans if s.parent == build.id]
    parses = [s for s in under_build if s.name == "io.stream_activations"]
    images = json.loads(paths["meta"].read_text())["total_images"]
    assert len(parses) == images + 1  # one span per record, one for the end
    t = SpanTotals(tr.spans)
    children = sum(s.duration for s in under_build)
    assert t.self_time["pipeline.build_class_embeddings"] == pytest.approx(build.duration - children)
    assert t.total["io.stream_activations"] >= sum(s.duration for s in parses)
    m = layer_metrics(tr, run_s=1.0, untraced_run_s=1.0)
    assert m["io.parse_records"][0] == images
    assert m["pipeline.classes"][0] == 4


def test_percentile_refuses_a_thin_tail():
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert percentile(list(range(98)), 90) == pytest.approx(87.3)
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(91)), 90)
    with pytest.raises(ValueError):
        percentile([1.0, 2.0, 3.0], 50)
    with pytest.raises(ValueError):
        percentile([], 50)
    assert percentile([float(x) for x in range(21, 0, -1)], 50) == 11.0


def test_percentile_matches_numpy():
    xs = np.random.default_rng(0).random(137)
    for q in (10, 50, 75, 90):
        assert percentile(xs, q) == pytest.approx(np.percentile(xs, q), rel=1e-12)


def test_metric_names():
    for good in ("run_s", "cli.generate_s", "query_p90_ms", "9lives", "a-b.c_d", "x" * 64):
        assert valid_metric_name(good), good
    for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "café", "a\n"):
        assert not valid_metric_name(bad), bad


def test_every_reported_and_declared_name_is_valid():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in declared[key]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    names += list(layer_metrics(Tracer("run"), run_s=1.0, untraced_run_s=1.0))
    assert all(valid_metric_name(n) for n in names)
