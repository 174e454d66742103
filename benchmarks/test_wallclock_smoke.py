"""Smoke test for the wall-clock kernel microbenchmark.

Runs a miniature version of ``repro.bench.wallclock`` (fewer clients, a
short window, one repeat) so CI exercises the measurement path end to
end without paying the full benchmark's cost. Asserts the shape of the
output and the figure-level determinism guard — NOT absolute wall-clock
numbers, which depend on the host.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.wallclock import (_batched_config, main, measure_queue,
                                   measure_read_heavy)

EXPECT_KEYS = {"wall_s", "sim_events", "events_per_wall_s", "sim_ops_per_s",
               "mean_latency_ms", "client_kb_per_op", "completed_ops"}


def test_help_renders(capsys):
    """Help text passes through %-formatting in argparse: no bare '%'."""
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "--guard" in capsys.readouterr().out


def test_measure_queue_shape():
    row = measure_queue("zk", repeat=1, clients=4, measure_ms=100.0)
    assert EXPECT_KEYS <= set(row)
    assert row["wall_s"] > 0
    assert row["events_per_wall_s"] > 0
    assert row["completed_ops"] > 0


def test_measure_queue_deterministic_sim_metrics():
    """Repeats vary only in wall-clock; simulated metrics are fixed."""
    a = measure_queue("zk", repeat=1, clients=4, measure_ms=100.0)
    b = measure_queue("zk", repeat=1, clients=4, measure_ms=100.0)
    for key in ("sim_events", "sim_ops_per_s", "mean_latency_ms",
                "client_kb_per_op", "completed_ops"):
        assert a[key] == b[key]


def test_batched_config_available():
    """The batching knobs exist, so the +batch rows are measurable."""
    config = _batched_config()
    assert config is not None
    assert config.zab.batch_max_txns > 1


def test_measure_read_heavy_scales():
    """Local reads + observers beat the leader-only read baseline."""
    base = measure_read_heavy("zk", scaled=False, repeat=1, clients=16,
                              measure_ms=200.0)
    scaled = measure_read_heavy("zk", scaled=True, repeat=1, clients=16,
                                measure_ms=200.0)
    assert EXPECT_KEYS | {"read_latency_ms", "write_latency_ms"} <= set(base)
    assert base["completed_ops"] > 0 and scaled["completed_ops"] > 0
    assert scaled["sim_ops_per_s"] > base["sim_ops_per_s"]


def test_main_read_heavy_workload(tmp_path, monkeypatch):
    """--workload read-heavy records the read_heavy section + scaling."""
    import repro.bench.wallclock as wc
    monkeypatch.setattr(wc, "CLIENTS", 16)
    monkeypatch.setattr(wc, "MEASURE_MS", 200.0)
    out = tmp_path / "BENCH_core.json"
    assert main(["--workload", "read-heavy", "--output", str(out),
                 "--repeat", "1"]) == 0
    payload = json.loads(out.read_text())
    systems = payload["read_heavy"]["systems"]
    for kind in ("zk", "ezk"):
        assert systems[kind]["read_scaling_x"] > 1.0


def test_main_records_baseline_then_current(tmp_path, monkeypatch):
    """Two invocations produce baseline + current + speedup in the JSON."""
    import repro.bench.wallclock as wc
    monkeypatch.setattr(wc, "CLIENTS", 4)
    monkeypatch.setattr(wc, "MEASURE_MS", 100.0)
    out = tmp_path / "BENCH_core.json"
    assert main(["--baseline", "--output", str(out), "--repeat", "1"]) == 0
    assert main(["--output", str(out), "--repeat", "1"]) == 0
    payload = json.loads(out.read_text())
    assert "baseline" in payload and "current" in payload
    assert set(payload["speedup_events_per_wall_s"]) >= {"zk", "ezk"}
    for kind in ("zk", "ezk"):
        assert payload["current"][kind]["events_per_wall_s"] > 0
