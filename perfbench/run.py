"""Benchmark entry point: one workload and one seed in one fresh process.

    python3 perfbench/run.py --workload pipeline-200 --seed 808 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; classvec is imported from ``src/``.
The process re-executes itself with ``PYTHONHASHSEED=0``, so every run lays
out its dicts and sets alike, and pins itself to the CPU it started on.
``--workload all`` runs every workload in turn, each in a fresh process.
Workloads are listed in ``workloads.py`` and the metrics reported on the last
line are the ones ``BENCHMARK.json`` declares.

With ``--trace 0`` the imports are timed in fresh interpreters and the inputs
are set up several times (``setup_s`` is the median import time plus the
median set-up), then the timed run repeats at least the
workload's ``min_reps`` times and more while another repetition fits in
``--seconds`` (``run_s`` is their median). Each timed repetition also probes
the host's speed (see ``refclock.py``); ``run_ref_s`` is the median of the
repetitions' wall times in reference seconds, which the host's drift moves
far less than ``run_s``. Each repetition's outputs are checked after its
timer stops.

With ``--trace 1`` the inputs are set up once, one untraced repetition runs,
then one traced repetition runs with every classvec layer wrapped (see
``probes.py``); its spans are written to ``.perfbench_work/``.

Every line but the last is for people. The last is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# Set-up repeats up to SETUP_REPS times while another repetition fits in
# SETUP_BUDGET_S: about 15 times on pipeline-200, 10 on taxonomy-1000 and once
# on query-1000 (about 10 s a set-up), so the median rides out the host's drift.
SETUP_REPS = 15
SETUP_BUDGET_S = 15.0
IMPORT_REPS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat", encoding="utf-8") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def pin_environment() -> None:
    """Plain single-threaded baseline on one CPU; must run before NumPy is imported.

    The CPUs of a shared host change speed independently, so the process
    stays on the one it started on, where ``refclock`` probes its speed.
    """
    os.environ.pop("CLASSVEC_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {current_cpu()})


def import_classvec():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import classvec
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import classvec from {src}: {exc}") from None
    if not Path(classvec.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: classvec came from {classvec.__file__}, not {src}")
    return classvec


def blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "CLASSVEC_THREADS": os.environ.get("CLASSVEC_THREADS", "unset"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=808)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


class Bench:
    """One process's measurement of one workload."""

    def __init__(self, workload, seed: int, work: Path, ledger):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.digests: list[str] = []
        self.notes: dict[str, float] = {}

    def set_up(self, max_reps: int) -> list[float]:
        times = []
        while True:
            d = self.work / f"setup{len(times)}"
            start = time.perf_counter()
            self.inputs = self.workload.setup(d, self.seed)
            times.append(time.perf_counter() - start)
            if len(times) == max_reps or sum(times) + times[-1] > SETUP_BUDGET_S:
                return times
            shutil.rmtree(d)

    def rep(self, r: int, tracer, probes=None, refclock=None):
        """One timed run and its checks; returns (seconds, output)."""
        d = self.work / f"rep{r}"
        self.ledger.prefix = f"rep{r}:"
        gc.collect()  # every repetition starts with the same garbage: none
        with probes or nullcontext(), refclock or nullcontext():
            start = time.perf_counter()
            out = self.workload.run(self.inputs, d, tracer, self.ledger)
            seconds = time.perf_counter() - start
        self.workload.check(self.inputs, d, out, self.ledger)
        if out.digest is not None:
            self.digests.append(out.digest)
        for key, value in out.values.items():
            if isinstance(value, float):
                self.notes[key] = value
        shutil.rmtree(d, ignore_errors=True)
        return seconds, out


def report_digests(bench: Bench, name: str, seed: int) -> None:
    """Print the outputs' SHA-256 and whether it matches every earlier run of this seed."""
    if not bench.digests:
        return
    log = WORK / "digests.jsonl"
    earlier = []
    if log.exists():
        for line in log.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            if entry["workload"] == name and entry["seed"] == seed:
                earlier.append(entry["digest"])
    agree = len(set(bench.digests) | set(earlier)) == 1
    with open(log, "a", encoding="utf-8") as fh:
        for digest in bench.digests:
            fh.write(json.dumps({"workload": name, "seed": seed, "digest": digest}) + "\n")
    print(
        f"{name} outputs sha256 = {bench.digests[-1]} "
        f"({len(bench.digests)} repetition(s) here, {len(earlier)} earlier run(s) of seed {seed}; "
        f"all agree: {'yes' if agree else 'NO'})"
    )


def measure_traced(bench: Bench, name: str, seed: int) -> dict:
    """One untraced and one traced repetition; the per-layer metrics."""
    from probes import Probes, layer_metrics
    from spans import NullTracer, Tracer

    bench.set_up(1)
    untraced_s, _ = bench.rep(0, NullTracer())
    tracer = Tracer(run_id=f"{name}-seed{seed}-pid{os.getpid()}")
    traced_s, _ = bench.rep(1, tracer, Probes(tracer))
    spans_path = WORK / f"trace-{name}-seed{seed}.json"
    tracer.write(spans_path)
    print(f"{name} spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    print(f"{name} run_s untraced = {untraced_s!r} s, traced = {traced_s!r} s (n=1 each)")
    return {
        metric: (value, unit, "n=1 traced run")
        for metric, (value, unit) in layer_metrics(tracer, traced_s, untraced_s).items()
    }


def import_times(reps: int) -> list[float]:
    """Seconds a fresh interpreter takes to import NumPy, classvec and the
    workloads; each child is waited for."""
    code = (
        "import sys, time; "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]; "
        "start = time.perf_counter(); import workloads; print(time.perf_counter() - start)"
    )
    argv = [sys.executable, "-c", code]
    return [float(subprocess.run(argv, capture_output=True, text=True, check=True).stdout) for _ in range(reps)]


def measure(bench: Bench, seconds: float) -> dict:
    """Repeated set-ups and timed runs with tracing off; the end-to-end metrics."""
    from refclock import RefClock
    from spans import NullTracer, percentile

    imports = import_times(IMPORT_REPS)
    setups = bench.set_up(SETUP_REPS)
    setup_peak_mb = peak_rss_mb()
    run_times, ref_times, latencies = [], [], []
    refclock = RefClock()
    started = time.perf_counter()
    while True:
        run_s, out = bench.rep(len(run_times), NullTracer(), refclock=refclock)
        run_times.append(run_s)
        ref_times.append(refclock.reference_seconds(run_s))
        latencies.extend(out.latencies_s)
        elapsed = time.perf_counter() - started
        n = len(run_times)
        if n >= bench.workload.min_reps and elapsed + elapsed / n > seconds:
            break
    measured = {
        "run_s": (statistics.median(run_times), "s", f"median of n={len(run_times)}"),
        "run_ref_s": (
            statistics.median(ref_times),
            "s",
            f"median of n={len(ref_times)}; wall/reference "
            + ", ".join(f"{w / r:.4f}" for w, r in zip(run_times, ref_times)),
        ),
        "setup_s": (
            statistics.median(imports) + statistics.median(setups),
            "s",
            f"median of n={len(imports)} imports, {statistics.median(imports):.3f} s, "
            f"+ median of n={len(setups)} set-ups",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB", f"n=1 process; {setup_peak_mb:.1f} MB when set-up ended"),
    }
    if latencies:
        ms = [1000.0 * x for x in latencies]
        measured["query_p50_ms"] = (percentile(ms, 50), "ms", f"n={len(ms)}")
        measured["query_p90_ms"] = (percentile(ms, 90), "ms", f"n={len(ms)}")
    return measured


def run_all(args, names) -> int:
    """Each workload in its own fresh process, one after another."""
    failed = []
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if subprocess.run(argv).returncode != 0:
            failed.append(name)
    if failed:
        print(f"perfbench: failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main() -> int:
    parser = build_parser()
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # the same string hashes, so the same dict and set layouts, in every run
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    pin_environment()
    import_classvec()
    import numpy as np

    from spans import valid_metric_name
    from workloads import WORKLOADS, Ledger

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    name = args.workload
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-seed{args.seed}-pid{os.getpid()}"
    bench = Bench(WORKLOADS[name], args.seed, work, Ledger())
    try:
        if args.trace:
            measured = measure_traced(bench, name, args.seed)
        else:
            measured = measure(bench, args.seconds)
        report_digests(bench, name, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = bench.ledger.attempted
    failed = len(bench.ledger.failures)
    measured["error_rate"] = (failed / attempted, "ratio", f"{failed} failed of n={attempted} operations")

    print(f"{name} env: {json.dumps(environment(np), sort_keys=True)}")
    for key, value in sorted(bench.notes.items()):
        print(f"{name} check {key} = {value!r}")
    for key, reason in bench.ledger.failures.items():
        print(f"{name} FAILED {key}: {reason}")
    for metric, (value, unit, note) in measured.items():
        if not valid_metric_name(metric):
            raise SystemExit(f"perfbench: invalid metric name {metric!r}")
        print(f"{name} {metric} = {value!r} {unit} ({note})")

    metrics = {}
    for entry in declared["per_layer" if args.trace else "end_to_end"]:
        if entry["name"] not in measured:
            raise SystemExit(f"perfbench: declared metric {entry['name']!r} was not measured")
        value, unit, _ = measured[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"perfbench: {entry['name']} measured in {unit}, declared {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
