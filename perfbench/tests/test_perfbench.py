"""Tests of the benchmark itself: determinism, names and the contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Episodes here use shortened windows so the suite stays quick; the
determinism they check does not depend on the window length.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SHORT_WINDOW_MS = {"queue-zk": 60.0, "mixed-ezk": 20.0, "counter-eds": 20.0,
                   "openloop-failover-zk": 500.0}


def short(name: str) -> workloads.Spec:
    return dataclasses.replace(workloads.WORKLOADS[name],
                               window_ms=SHORT_WINDOW_MS[name])


_EPISODE_SCRIPT = """
import dataclasses, json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
spec = dataclasses.replace(workloads.WORKLOADS[{name!r}], window_ms={window!r})
ep = workloads.run_episode(spec, {seed!r})
print(json.dumps({{"sim": ep.sim, "counts": ep.counts,
                  "attempted": ep.attempted, "failed": ep.failed,
                  "violations": ep.violations}}))
"""


def episode_in_fresh_process(name: str, seed: int, hash_seed: str) -> dict:
    script = _EPISODE_SCRIPT.format(src=str(ROOT / "src"), bench=str(BENCH),
                                    name=name, window=SHORT_WINDOW_MS[name],
                                    seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_simulated_metrics_and_counts(name):
    first = episode_in_fresh_process(name, 7, hash_seed="1")
    second = episode_in_fresh_process(name, 7, hash_seed="2")
    assert first == second
    assert first["violations"] == []
    assert first["failed"] == 0
    assert first["attempted"] > 0


def test_gauging_between_slices_leaves_the_simulation_unchanged():
    from reference import Gauge
    gauge = Gauge(every_s=0.0)
    plain = workloads.run_episode(short("counter-eds"), 4)
    gauged = workloads.run_episode(short("counter-eds"), 4, pause=gauge)
    assert (gauged.sim, gauged.counts) == (plain.sim, plain.counts)
    assert len(gauge.times) >= workloads.SLICES_PER_WINDOW
    assert gauge.slowness() > 0


def test_seed_changes_the_inputs():
    a = workloads.run_episode(short("counter-eds"), 1)
    b = workloads.run_episode(short("counter-eds"), 2)
    assert a.sim != b.sim


def test_tracing_leaves_the_simulation_unchanged_and_reconciles():
    result = run.trace(short("mixed-ezk"), 3)
    assert result["violations"] == []
    metrics = {name: value for name, (value, _unit) in
               result["metrics"].items()}
    assert metrics["ext.exec_calls"] > 0
    assert metrics["ext.verify_s"] > 0
    assert metrics["trace.residual_s"] >= 0


def test_every_metric_name_is_well_formed():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"]]
    names += [m["name"] for m in contract["per_layer"]]
    measured = run.measure(short("counter-eds"), 1, seconds=0.0)
    traced = run.trace(short("counter-eds"), 1)
    names += list(measured["metrics"]) + list(traced["metrics"])
    bad = [n for n in names if not NAME.fullmatch(n)]
    assert bad == []


def test_contract_matches_what_the_runner_reports():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == \
        list(workloads.WORKLOADS)
    # Full-length window: the p99 needs its ten samples beyond.
    spec = workloads.WORKLOADS["counter-eds"]
    measured = run.measure(spec, 1, seconds=0.0)
    traced = run.trace(spec, 1)
    for section, result in (("end_to_end", measured),
                            ("per_layer", traced)):
        for metric in contract[section]:
            value, unit = result["metrics"][metric["name"]]
            assert unit == metric["unit"], metric["name"]
            assert value is not None, metric["name"]


def test_percentile_needs_ten_samples_beyond():
    assert workloads.percentile(list(range(1000)), 99.0) == 989
    assert workloads.percentile(list(range(999)), 99.0) is None
    assert workloads.percentile(list(range(100)), 50.0) == 49
