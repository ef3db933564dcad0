"""Smoke and schema tests for the benchmark itself, on tiny inputs.

No timing gates: every check is on shape, names, units and correctness.
Run with ``python3 -m pytest benchmarks/test_bench.py``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, random_order_pairs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    record = json.loads(lines[-2].split(" ", 1)[1])
    assert record["seed"] == 3 and record["nproc"] >= 1 and record["latency_samples"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "queries-wide", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_instance_counts_follow_the_labeled_poset_counts():
    assert [sum(1 for _ in ref.labeled_posets(n)) for n in range(5)] == [1, 1, 3, 19, 219]
    counts = ref.expected_instances(4, ())
    assert sum(counts.values()) == 28_675
    assert counts["wv-inverse"] == 1 + 2 + 3 * 4 + 19 * 8 + 219 * 16 + 1756


def test_down_set_counts_agree():
    rng = random.Random(5)
    for n in range(1, 11):
        down = ref.down_masks(n, random_order_pairs(rng, n, 0.3))
        assert ref.antichain_count(down) == ref.brute_force_down_set_count(down)
    chain = ref.down_masks(21, [(i, i + 1) for i in range(20)])
    assert ref.down_set_count(chain) == 22


def test_leaf_family_reference():
    # every subset of the infinite leaf is weakly visible; on its dual the
    # generic point alone is not
    assert ref.goa_report(False, False, frozenset(), True)["weakly_visible"]
    eta_in_dual = ref.goa_report(True, False, frozenset(), True)
    assert not eta_in_dual["weakly_visible"] and eta_in_dual["closed"]
    # all closed points: Thomason on the leaf, with a non-fg ideal
    closed = ref.goa_report(False, True, frozenset(), False)
    assert closed["thomason"] and not closed["ideal_finitely_generated"]
    vee = ref.down_masks(3, [(0, 2), (1, 2)])
    assert ref.is_convex(vee, ref.up_masks(vee), 0b011)
    chain = ref.down_masks(3, [(0, 1), (1, 2)])
    assert not ref.is_convex(chain, ref.up_masks(chain), 0b101)


def test_speed_scaling_uses_the_nearest_probes():
    probe = speed.SpeedProbe()
    probe.times = [float(t) for t in range(40)]
    probe.durations = [speed.PROBE_NOMINAL_S] * 20 + [2 * speed.PROBE_NOMINAL_S] * 20
    assert probe.scale(2.0, 1.0) == 1.0  # probes at normal speed
    assert probe.scale(35.0, 1.0) == 0.5  # machine twice as slow there
    assert speed.kernel() == speed.kernel()
