"""specspace benchmark: three workloads, end-to-end metrics, traced layers.

Usage (from the repository root):

    python3 benchmarks/run.py                      # every workload, untraced + traced
    python3 benchmarks/run.py --workload queries-wide --seed 3 --seconds 30 --trace 0

A single workload runs in this process with one client and no
concurrency: set-up (import plus input generation, repeated), then whole
passes over the seeded ops until ``--seconds`` of pass time has been
measured, then the correctness checks and the past-cap probe.  With
``--trace 1`` one more pass runs with spans on, and the per-layer metrics
are printed instead of the end-to-end ones.  Times are reported at the
reference speed of ``speed.py``.  The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``--workload`` every workload runs in its own child process, one
at a time, untraced and then traced.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import reference as ref  # noqa: E402
from speed import OpTimes, SpeedProbe  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 15
SPAWNS = 30
STATEMENTS = tuple(ref.CATALOG_INSTANCES)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "cold_start_ms": "ms",
}

TIMED_SPANS = [
    "poset.down_set_masks",
    "poset.build_poset",
    "spaces.normalize",
    "topology.weakly_visible_witness",
    "topology.weakly_visible_inverse",
    "topology.is_open",
    "topology.is_closed",
    "topology.is_quasi_compact_open",
    "topology.is_thomason",
    "topology.is_constructible",
    "topology.is_weakly_visible",
    "topology.space_props",
    "ideals.cohen_report",
    "ideals.count_radical_ideals",
    "ideals.is_finitely_generated",
    "spacefile.parse_document",
    "spacefile.serialize_document",
    "cli.main.props",
    "cli.main.ideals",
    "cli.main.dual",
]


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for span in TIMED_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update({
        "poset.cap_refusals": "count",
        "subsets.descriptors_built": "count",
        "subsets.SymbolicSubset.self_s": "s",
        "topology.wv_scan_share": "ratio",
        "topology.wv_scan_hit_ratio": "ratio",
        "cli.interpreter_floor_ms": "ms",
    })
    for statement in STATEMENTS:
        units[f"verify.{statement}.s"] = "s"
        units[f"verify.{statement}.instances"] = "count"
    for layer in sorted(set(LAYERS.values())):
        units[f"layer.{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


PER_LAYER = per_layer_units()


# ---------------------------------------------------------------------------
# helpers


def fresh_import():
    """Import specspace from this checkout's ``src``, dropping any earlier
    import so that every set-up repetition pays for it."""
    for name in [m for m in sys.modules if m == "specspace" or m.startswith("specspace.")]:
        del sys.modules[name]
    ss = importlib.import_module("specspace")
    importlib.import_module("specspace.cli")
    if Path(ss.__file__).resolve().parent != SRC / "specspace":
        raise ImportError(f"specspace imported from {ss.__file__}, not from {SRC}")
    return ss


def percentile(sorted_xs: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_xs) - 1, -(-len(sorted_xs) * p // 100) - 1))
    return sorted_xs[int(k)]


def spawn_ms(speed: SpeedProbe, argv: list[str], count: int,
             expect: str | None = None) -> tuple[list[float], list[float], int]:
    """Wall time of sequential spawns of ``argv`` (one at a time), at
    reference speed and as measured, and how many of them exited non-zero
    or printed the wrong answer."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    scaled, measured, bad = [], [], 0
    for _ in range(count):
        proc, t0, dt = speed.timed(lambda: subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60))
        scaled.append(speed.scale(t0, dt) * 1000)
        measured.append(dt * 1000)
        if proc.returncode != 0 or (expect is not None and expect not in proc.stdout):
            bad += 1
    return scaled, measured, bad


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=build_dir))
    try:
        return _run(name, seed, seconds, trace, smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, seed, seconds, trace, smoke, workdir) -> dict:
    wl = WORKLOADS[name](smoke)
    wl.workdir = workdir
    small = workdir / "small.json"
    small.write_text(json.dumps({"space": {"kind": "finite", "elements": ["a", "b"],
                                           "leq": [["a", "b"]]}}))
    cold_argv = [sys.executable, "-m", "specspace", "props", str(small)]
    speed = SpeedProbe()
    setups: list[float] = []
    setups_measured: list[float] = []
    cold: list[float] = []
    cold_measured: list[float] = []
    spawn_bad = 0

    def import_and_generate():
        ss = fresh_import()
        return ss, wl.setup(ss, seed)

    def set_up():
        (ss, inputs), t0, dt = speed.timed(import_and_generate)
        setups.append(speed.scale(t0, dt))
        setups_measured.append(dt)
        return ss, inputs

    def spawn(count: int) -> None:
        nonlocal spawn_bad
        if not trace:
            times, measured, bad = spawn_ms(speed, cold_argv, count,
                                            expect="radical ideals:        3")
            cold.extend(times)
            cold_measured.extend(measured)
            spawn_bad += bad

    # Set-up repetitions and cold starts are spread between the passes, so
    # that every metric draws on samples from the whole run.
    ss, inputs = set_up()
    ops = wl.ops_per_pass(inputs)
    passes: list[float] = []
    op_times: list[OpTimes] = []
    statement_s: dict[str, list[float]] = {s: [] for s in STATEMENTS}
    statement_n: dict[str, int] = {s: 0 for s in STATEMENTS}
    failed, details = 0, []
    while True:
        latencies = OpTimes(speed)
        t0 = perf_counter()
        outputs = wl.run_pass(ss, inputs["prepared"], latencies)
        passes.append(perf_counter() - t0)
        op_times.append(latencies)
        f, d = wl.check(ss, inputs, outputs)
        failed += f
        details += d
        if hasattr(wl, "statement_stats"):
            for statement, (s, count) in wl.statement_stats(outputs).items():
                statement_s[statement].append(s)
                statement_n[statement] = count
        spawn(3)
        if sum(passes) + statistics.median(passes) > seconds:
            break
        set_up()
        ss, inputs = set_up()
    while len(setups) < (1 if smoke else SETUP_REPEATS):
        ss, inputs = set_up()
    spawn((1 if smoke else SPAWNS) - len(cold))

    # each op's time is its median over the passes, which are spread
    # across the whole run, so that no stretch of it in which the machine
    # runs slow or fast sets a metric alone
    scaled = [latencies.scaled() for latencies in op_times]
    per_op = sorted(statistics.median(xs) for xs in zip(*scaled))
    wall = statistics.median(sum(xs) for xs in scaled)
    wall_measured = statistics.median(sum(xs) for xs in op_times)
    per_op_measured = sorted(statistics.median(xs) for xs in zip(*op_times))
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "setup_repeats": len(setups),
        "passes": len(passes),
        "ops_per_pass": ops,
        "attempted": ops * len(passes),
        "failed": failed,
        "error_rate": failed / (ops * len(passes)),
        "latency_samples": len(per_op),
        "speed_factor": speed.factor(),
        "speed_probes": len(speed.durations),
    }
    for line in details[:20]:
        print(f"failed: {line}", file=sys.stderr)

    if trace:
        metrics, traced_bad = traced_metrics(wl, ss, inputs, wall, speed,
                                             statement_s, statement_n)
        record["past_cap"] = metrics.pop("_past_cap")
        bad = traced_bad
    else:
        attempted, refused, probe_wrong = wl.probe(ss, inputs)
        record["past_cap"] = {"attempted": attempted, "refused": refused, "wrong": probe_wrong}
        record["cold_start_samples"] = len(cold)
        bad = probe_wrong + spawn_bad
        record["measured"] = {
            "setup_s": statistics.median(setups_measured),
            "wall_s": wall_measured,
            "latency_p50_ms": percentile(per_op_measured, 50) * 1000,
            "latency_p99_ms": percentile(per_op_measured, 99) * 1000,
            "cold_start_ms": statistics.median(cold_measured),
        }
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "throughput_ops_s": ops / wall,
            "latency_p50_ms": percentile(per_op, 50) * 1000,
            "latency_p99_ms": percentile(per_op, 99) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cold_start_ms": statistics.median(cold),
        }
    units = PER_LAYER if trace else END_TO_END
    return {
        "record": record,
        "result": {
            "correct": failed == 0 and bad == 0,
            "attempted": record["attempted"],
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def traced_metrics(wl, ss, inputs, wall, speed, statement_s, statement_n):
    """One more pass with spans on; per-layer metrics from it."""
    finite_cls = ss.Finite
    enumeration_cap = ss.EnumerationCapError
    counts = {"cap_refusals": 0}
    wv_calls: list[tuple] = []

    def on_down_sets(args, result, exc):
        if isinstance(exc, enumeration_cap):
            counts["cap_refusals"] += 1

    def on_witness(args, result, exc):
        s = args[0]
        if isinstance(s.space, finite_cls):
            wv_calls.append((s.space.poset.down, s.node.mask, exc is None, result is not None))

    tracer = Tracer()
    tracer.install(
        hooks={"poset.down_set_masks": on_down_sets,
               "topology.weakly_visible_witness": on_witness},
        name_of={"cli.main": lambda args, kwargs: "cli.main." + (
            (args[0] if args else kwargs.get("argv") or ["?"])[0])},
    )
    try:
        prepared = tracer.span("bench.prepare", wl.prepare, ss, inputs)
        latencies = OpTimes(speed)
        outputs = tracer.span("bench.pass", wl.run_pass, ss, prepared, latencies)
        attempted, refused, probe_wrong = tracer.span("bench.probe", wl.probe, ss, inputs)
    finally:
        tracer.uninstall()
    traced_wrong, details = wl.check(ss, inputs, outputs)
    for line in details[:20]:
        print(f"wrong (traced pass): {line}", file=sys.stderr)

    rows = tracer.summary()
    metrics: dict[str, float] = {}
    for span in TIMED_SPANS:
        row = rows.get(span, {"calls": 0, "self_s": 0.0})
        metrics[f"{span}.calls"] = row["calls"]
        metrics[f"{span}.self_s"] = row["self_s"]
    metrics["poset.cap_refusals"] = counts["cap_refusals"]
    sub = rows.get("subsets.SymbolicSubset", {"calls": 0, "self_s": 0.0})
    metrics["subsets.descriptors_built"] = sub["calls"]
    metrics["subsets.SymbolicSubset.self_s"] = sub["self_s"]

    # The fallback pair scan runs exactly when the canonical pair fails,
    # i.e. on non-convex subsets; convexity by the benchmark's own test.
    scans = hits = nonconvex = 0
    ups: dict[tuple, tuple] = {}
    for down, mask, completed, found in wv_calls:
        up = ups.get(down) or ups.setdefault(down, ref.up_masks(down))
        if not ref.is_convex(down, up, mask):
            nonconvex += 1
            if completed:
                scans += 1
                hits += found
    metrics["topology.wv_scan_share"] = nonconvex / len(wv_calls) if wv_calls else 0.0
    metrics["topology.wv_scan_hit_ratio"] = hits / scans if scans else 0.0

    floor, _, floor_bad = spawn_ms(speed, [sys.executable, "-c", "pass"], SPAWNS)
    metrics["cli.interpreter_floor_ms"] = statistics.median(floor)
    for statement in STATEMENTS:
        metrics[f"verify.{statement}.s"] = (
            statistics.median(statement_s[statement]) if statement_s[statement] else 0.0)
        metrics[f"verify.{statement}.instances"] = statement_n[statement]
    layer_self: dict[str, float] = {}
    for span, row in rows.items():
        layer = LAYERS.get(span.split(".")[0])
        if layer is not None:
            layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    for layer in sorted(set(LAYERS.values())):
        metrics[f"layer.{layer}.self_s"] = layer_self.get(layer, 0.0)
    metrics["trace.overhead_s"] = sum(latencies.scaled()) - wall
    metrics["trace.spans"] = len(tracer.span_start)
    metrics["_past_cap"] = {"attempted": attempted, "refused": refused, "wrong": probe_wrong}

    spans_dir = ROOT / ".bench_build" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_dir / f"{wl.name}.tsv.gz")
    return metrics, traced_wrong + probe_wrong + floor_bad


# ---------------------------------------------------------------------------
# command line


def print_result(out: dict) -> None:
    record, result = out["record"], out["result"]
    width = max(len(k) for k in result["metrics"])
    for key, m in result["metrics"].items():
        print(f"{key:<{width}}  {m['value']:>14.6g} {m['unit']}")
    print("run-record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload in its own child process, one at a time."""
    combined: dict = {}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                ok = False
                continue
            lines = proc.stdout.strip().splitlines()
            entry = combined.setdefault(name, {})
            entry["traced" if trace else "untraced"] = json.loads(lines[-1])
            entry["record"] = json.loads(lines[-2].split(" ", 1)[1])
            ok = ok and entry["traced" if trace else "untraced"]["correct"]
    summary = {"correct": ok, "workloads": combined}
    if args.record:
        Path(args.record).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up, for the benchmark's own tests")
    parser.add_argument("--record", metavar="FILE",
                        help="with --workload all: also write the results to FILE")
    args = parser.parse_args(argv)

    if not (SRC / "specspace" / "__init__.py").is_file():
        print(f"error: no specspace sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_result(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
