"""Open-loop aggregate-client driver: spec validation, arrival
processes, skew, and the open-loop latency accounting."""

from __future__ import annotations

import math

import pytest

from repro.bench.openloop import (ARRIVALS, Workload, _zipf_cdf,
                                  run_openloop_workload)
from tests.heap_queue import use_heap_queue

SMALL = dict(clients=2_000, ops_per_client_s=1.0, keys=32)


# -- Workload spec -----------------------------------------------------------

def test_workload_defaults_validate():
    Workload().validate()


@pytest.mark.parametrize("bad", [
    dict(arrival="fractal"),
    dict(mix={"read": 0.5, "write": 0.2}),
    dict(mix={"read": 0.5, "scan": 0.5}),
    dict(clients=0),
    dict(burst_fraction=1.0),
    dict(arrival="bursty", burst_factor=20.0, burst_fraction=0.2),
    dict(churn_per_s=-1.0),
    dict(watch_fanout=-1),
])
def test_workload_rejects_bad_specs(bad):
    with pytest.raises(ValueError):
        Workload(**bad).validate()


def test_aggregate_rate():
    w = Workload(clients=100_000, ops_per_client_s=0.5)
    assert w.rate_ops_per_ms == pytest.approx(50.0)


# -- Zipf skew ---------------------------------------------------------------

def test_zipf_cdf_uniform_when_unskewed():
    cdf = _zipf_cdf(4, 0.0)
    assert cdf == pytest.approx([0.25, 0.5, 0.75, 1.0])


def test_zipf_cdf_concentrates_mass_on_low_ranks():
    cdf = _zipf_cdf(100, 0.99)
    assert cdf[0] > 0.15          # rank 1 takes a big bite
    assert cdf[9] > 0.5           # top-10 keys absorb most traffic
    assert cdf[-1] == 1.0
    assert all(b >= a for a, b in zip(cdf, cdf[1:]))


# -- end-to-end smoke --------------------------------------------------------

@pytest.mark.parametrize("arrival", ARRIVALS)
def test_openloop_sustains_offered_load(arrival):
    w = Workload(arrival=arrival, **SMALL)
    result = run_openloop_workload("zk", w, warmup_ms=50.0,
                                   measure_ms=300.0)
    assert result.clients == SMALL["clients"]
    # The ensemble sustains this offered load, so achieved tracks
    # offered (windowing quantization allows a few percent slack).
    offered = result.extra["offered_ops_per_s"]
    assert result.throughput_ops == pytest.approx(offered, rel=0.15)
    assert result.extra["executed"] == result.extra["arrivals"]
    assert result.completed_ops > 0


def test_openloop_percentiles_are_ordered():
    result = run_openloop_workload("zk", Workload(**SMALL),
                                   warmup_ms=50.0, measure_ms=300.0)
    assert (result.p50_latency_ms <= result.p99_latency_ms
            <= result.p999_latency_ms)
    assert not math.isnan(result.p999_latency_ms)


def test_openloop_latency_includes_queueing_delay():
    """Overload the pipe: open-loop tails must reflect waiting time.

    With one session and one in-flight slot, arrivals outpace service
    and each request waits behind the backlog — mean latency must
    exceed the unloaded RTT by a wide margin and the backlog must grow.
    """
    w = Workload(clients=8_000, ops_per_client_s=2.0, keys=8)
    loaded = run_openloop_workload("zk", w, warmup_ms=50.0,
                                   measure_ms=200.0, sessions=1,
                                   inflight_per_session=1)
    unloaded = run_openloop_workload(
        "zk", Workload(clients=50, ops_per_client_s=1.0, keys=8),
        warmup_ms=50.0, measure_ms=200.0)
    assert loaded.extra["max_backlog"] > 10
    assert loaded.mean_latency_ms > 10 * unloaded.mean_latency_ms


# -- session churn / watch fan-out riders ------------------------------------

def test_openloop_churn_and_watch_extras():
    w = Workload(churn_per_s=40.0, watch_fanout=4, **SMALL)
    result = run_openloop_workload("zk", w, warmup_ms=50.0,
                                   measure_ms=400.0)
    assert result.extra["churn_per_s"] == 40.0
    assert result.extra["churn_connects"] > 0
    assert result.extra["churn_closed"] > 0
    assert result.extra["watch_fanout"] == 4.0
    assert result.extra["watch_notifications"] > 0
    # The op stream still flows under churn + fan-out.
    assert result.completed_ops > 0


def test_openloop_extras_absent_when_knobs_off():
    result = run_openloop_workload("zk", Workload(**SMALL),
                                   warmup_ms=50.0, measure_ms=200.0)
    for key in ("churn_per_s", "churn_connects", "churn_closed",
                "churn_abandoned", "watch_fanout", "watch_notifications"):
        assert key not in result.extra


@pytest.mark.parametrize("kind", ("ds", "eds"))
def test_openloop_session_knobs_require_zk_family(kind):
    with pytest.raises(ValueError):
        run_openloop_workload(kind, Workload(churn_per_s=5.0, **SMALL))
    with pytest.raises(ValueError):
        run_openloop_workload(kind, Workload(watch_fanout=2, **SMALL))


def test_openloop_identical_across_kernels(monkeypatch):
    def run():
        return run_openloop_workload(
            "zk", Workload(**SMALL), warmup_ms=50.0, measure_ms=200.0)

    calendar = run()
    use_heap_queue(monkeypatch)
    assert run() == calendar
