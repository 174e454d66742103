"""Observability plane: determinism, trace well-formedness, phase
reconciliation, metrics, and the four-letter introspection endpoint.

The load-bearing guarantees:

* **off path is inert** — a run without ``ObsConfig`` must produce
  byte-identical simulated metrics and event counts to the pre-obs
  code (the figure JSONs and perfbench simulated metrics depend on it);
* **on path is transparent** — tracing is side-table writes only, so
  an instrumented run's *simulated* behaviour is identical to an
  uninstrumented one;
* **one ledger per count** — counts live in the components that own
  them and are kept whether or not obs is on; the metrics registry is
  a view pulled from them (and from the traces, for client retries and
  latency), pinned here to exact values, and ``mntr`` answers the same
  with obs on or off;
* **traces are deterministic** — two same-seed runs dump
  byte-identical JSONL;
* **phases telescope** — per-trace phase sums equal end-to-end
  latency exactly (the tolerance is 1%; construction gives 0).
"""

from __future__ import annotations

import json
import re

import pytest

from repro.bench.workload import run_queue_workload
from repro.chaos.explorer import run_chaos
from repro.chaos.schedule import FaultAction, Schedule
from repro.depspace import DsEnsemble
from repro.depspace.server import DsConfig
from repro.obs import (FOUR_LETTER_COMMANDS, ObsConfig, breakdown,
                       check_trace, format_breakdown, format_waterfall,
                       phases_of, probe)
from repro.zk import ZkEnsemble
from repro.zk.server import ZkConfig

CLIENTS = 8
MEASURE_MS = 200.0


def _traced_fig8(kernel: str = "zab", seed: int = 32):
    """One traced fig8 queue cell; returns (workload result, obs plane)."""
    obs_cfg = ObsConfig()
    config = (ZkConfig(obs=obs_cfg) if kernel == "zab"
              else ZkConfig(kernel=kernel, obs=obs_cfg))
    result = run_queue_workload("zk", CLIENTS, measure_ms=MEASURE_MS,
                                seed=seed, config=config)
    assert obs_cfg.runtime is not None, "servers never installed the plane"
    return result, obs_cfg.runtime


@pytest.fixture(scope="module")
def traced_cell():
    return _traced_fig8()


@pytest.fixture(scope="module")
def traced_dicts(traced_cell):
    _, obs = traced_cell
    return [t.to_dict() for t in obs.tracer.traces()]


class TestOffPathInert:
    def test_obs_on_matches_obs_off_exactly(self):
        """Tracing must not perturb the simulation by one event."""
        off = run_queue_workload("zk", CLIENTS, measure_ms=MEASURE_MS)
        on, _ = _traced_fig8()
        assert on.completed_ops == off.completed_ops
        assert on.throughput_ops == off.throughput_ops
        assert on.mean_latency_ms == off.mean_latency_ms
        assert on.client_kb_per_op == off.client_kb_per_op
        assert on.extra["sim_events"] == off.extra["sim_events"]

    def test_default_config_leaves_env_unobserved(self):
        ensemble = ZkEnsemble(n_replicas=3, seed=7)
        ensemble.start()
        assert ensemble.env.obs is None


class TestTraceWellFormedness:
    def test_traces_exist_and_parse(self, traced_cell, traced_dicts):
        _, obs = traced_cell
        assert len(traced_dicts) > 100
        for line in obs.tracer.dump_jsonl().splitlines():
            json.loads(line)

    def test_every_trace_well_formed(self, traced_dicts):
        defects = [d for d in map(check_trace, traced_dicts) if d]
        assert defects == [], defects[:5]

    def test_write_and_read_pipelines_present(self, traced_dicts):
        shapes = {("quorum" in (phases_of(t) or {}))
                  for t in traced_dicts if phases_of(t)}
        assert shapes == {True, False}, "expected both write and read traces"

    def test_phase_sums_reconcile(self, traced_dicts):
        bd = breakdown(traced_dicts)
        for pipeline in ("write", "read"):
            recon = bd[pipeline]["_recon"]
            assert recon["traces"] > 0
            assert recon["phase_sum_ms"] == pytest.approx(
                recon["end_to_end_ms"], rel=0.01)

    def test_renderers_produce_text(self, traced_dicts):
        text = format_breakdown(breakdown(traced_dicts))
        assert "write pipeline" in text and "drift" in text
        waterfall = format_waterfall(traced_dicts[0])
        assert "send" in waterfall and "recv" in waterfall


class TestDeterminism:
    def test_same_seed_runs_dump_identical_jsonl(self):
        _, obs_a = _traced_fig8(seed=32)
        _, obs_b = _traced_fig8(seed=32)
        assert obs_a.tracer.dump_jsonl() == obs_b.tracer.dump_jsonl()

    def test_metrics_snapshots_identical(self):
        _, obs_a = _traced_fig8(seed=32)
        _, obs_b = _traced_fig8(seed=32)
        assert obs_a.metrics.snapshot() == obs_b.metrics.snapshot()


class TestRaftCell:
    def test_raft_traces_reconcile_too(self):
        _, obs = _traced_fig8(kernel="raft")
        traces = [t.to_dict() for t in obs.tracer.traces()]
        defects = [d for d in map(check_trace, traces) if d]
        assert defects == [], defects[:5]
        recon = breakdown(traces)["write"]["_recon"]
        assert recon["traces"] > 0
        assert recon["phase_sum_ms"] == pytest.approx(
            recon["end_to_end_ms"], rel=0.01)


class TestMetrics:
    def test_protocol_counters_flow(self, traced_cell):
        _, obs = traced_cell
        for name in ("zab.proposals", "zab.commits", "zab.deliveries",
                     "zk.reads", "zk.writes", "sessions.created",
                     "net.msgs_sent", "net.bytes_sent"):
            assert obs.metrics.total(name) > 0, name

    def test_latency_histogram_populated(self, traced_cell):
        _, obs = traced_cell
        buckets = obs.metrics.histograms[("client.latency_ms", "")]
        assert sum(buckets) > 0


#: per-name totals and the client latency histogram of two traced cells,
#: recorded when every count was still pushed into the registry by hand.
#: The pulled view must reproduce them exactly.
FIG8_TOTALS = {
    "net.bytes_received": 5191666, "net.bytes_sent": 5191666,
    "net.msgs_sent": 42556, "sessions.created": 24, "zab.commits": 3614,
    "zab.deliveries": 10842, "zab.proposals": 3614, "zk.forwards": 2223,
    "zk.reads": 5692, "zk.writes": 3614,
}
FIG8_LATENCY = [4996, 1011, 20] + [0] * 12
CHAOS_QUEUE_6_TOTALS = {
    "client.retries": 5, "net.bytes_received": 106914,
    "net.bytes_sent": 111244, "net.dropped": 44, "net.msgs_sent": 1031,
    "sessions.created": 12, "zab.commits": 30, "zab.deliveries": 120,
    "zab.elections": 4, "zab.proposals": 30, "zk.forwards": 30,
    "zk.reads": 68, "zk.writes": 35,
}
CHAOS_QUEUE_6_LATENCY = [76, 27] + [0] * 11 + [1, 0]


def _totals(metrics) -> dict:
    names = {name for name, _node in metrics.counters}
    return {name: metrics.total(name) for name in names}


class TestPulledMetricsParity:
    def test_fig8_cell(self, traced_cell):
        _, obs = traced_cell
        metrics = obs.metrics
        assert _totals(metrics) == FIG8_TOTALS
        assert metrics.histograms == {("client.latency_ms", ""):
                                      FIG8_LATENCY}

    def test_chaos_cell_with_resends(self):
        obs_cfg = ObsConfig()
        run_chaos("zk", "queue", 6, obs=obs_cfg)
        metrics = obs_cfg.runtime.metrics
        assert _totals(metrics) == CHAOS_QUEUE_6_TOTALS
        assert metrics.histograms == {("client.latency_ms", ""):
                                      CHAOS_QUEUE_6_LATENCY}


class TestIntrospection:
    @pytest.fixture(scope="class")
    def live_zk(self):
        obs_cfg = ObsConfig()
        ensemble = ZkEnsemble(n_replicas=3, seed=11,
                              config=ZkConfig(obs=obs_cfg))
        ensemble.start()
        client = ensemble.client()

        def work():
            yield from client.connect()
            yield from client.create("/probe", b"x")
            yield from client.get_data("/probe", watch=True)

        proc = ensemble.env.process(work())
        ensemble.env.run(until=proc)
        return ensemble

    def test_all_four_letter_words_answer(self, live_zk):
        for target in live_zk.replica_ids:
            for command in FOUR_LETTER_COMMANDS:
                payload = probe(live_zk.env, live_zk.net, target, command)
                assert payload

    def test_ruok(self, live_zk):
        assert probe(live_zk.env, live_zk.net,
                     live_zk.replica_ids[0], "ruok") == "imok"

    def test_stat_reports_role_and_zxid(self, live_zk):
        payload = probe(live_zk.env, live_zk.net,
                        live_zk.replica_ids[0], "stat")
        assert "mode:" in payload and "zxid:" in payload

    def test_mntr_carries_registry_counters(self, live_zk):
        payload = probe(live_zk.env, live_zk.net,
                        live_zk.replica_ids[0], "mntr")
        assert "zk_server_state\t" in payload
        assert "zab.proposals\t" in payload

    def test_wchs_counts_watches(self, live_zk):
        payload = probe(live_zk.env, live_zk.net,
                        live_zk.replica_ids[0], "wchs")
        assert "Total watches: 1" in payload

    def test_mntr_independent_of_obs(self):
        """Counts are kept with obs off too: one ``mntr`` path."""
        def zk_mntr(obs_cfg):
            ensemble = ZkEnsemble(n_replicas=3, seed=11,
                                  config=ZkConfig(obs=obs_cfg))
            ensemble.start()
            client = ensemble.client()

            def work():
                yield from client.connect()
                yield from client.create("/probe", b"x")
                yield from client.get_data("/probe", watch=True)
                yield from client.set_data("/probe", b"y")

            ensemble.env.run(until=ensemble.env.process(work()))
            return [probe(ensemble.env, ensemble.net, target, "mntr")
                    for target in ensemble.replica_ids]

        def ds_mntr(obs_cfg):
            ensemble = DsEnsemble(f=1, seed=11, config=DsConfig(obs=obs_cfg))
            ensemble.start()
            client = ensemble.client()

            def work():
                for i in range(3):
                    yield from client.out("k", i)
                yield from client.rdp("k", 0)

            ensemble.env.run(until=ensemble.env.process(work()))
            return [probe(ensemble.env, ensemble.net, target, "mntr")
                    for target in ensemble.replica_ids]

        zk_on, zk_off = zk_mntr(ObsConfig()), zk_mntr(None)
        assert zk_off == zk_on
        assert all("zab.proposals\t" in p and "zk.watch_deliveries\t1" in p
                   for p in zk_off if "zk_server_state\tleader" in p)
        ds_on, ds_off = ds_mntr(ObsConfig()), ds_mntr(None)
        assert ds_off == ds_on
        assert all("ds.ordered\t" in p and "net.msgs_sent\t" in p
                   for p in ds_off)

    def test_unknown_command_is_answered_not_dropped(self, live_zk):
        payload = probe(live_zk.env, live_zk.net,
                        live_zk.replica_ids[0], "xxxx")
        assert "unknown command" in payload

    def test_crashed_server_times_out(self, live_zk):
        victim = live_zk.replica_ids[-1]
        server = next(s for s in live_zk.servers
                      if s.node_id == victim)
        server.crash()
        with pytest.raises(TimeoutError):
            probe(live_zk.env, live_zk.net, victim, "ruok",
                  timeout_ms=200.0)
        server.recover()


class TestDepSpace:
    def test_traced_ds_run(self):
        obs_cfg = ObsConfig()
        ensemble = DsEnsemble(f=1, seed=11, config=DsConfig(obs=obs_cfg))
        ensemble.start()
        client = ensemble.client()

        def work():
            for i in range(6):
                yield from client.out("k", i)
            value = yield from client.rdp("k", 0)
            return value

        proc = ensemble.env.process(work())
        assert ensemble.env.run(until=proc) == ("k", 0)

        obs = obs_cfg.runtime
        traces = [t.to_dict() for t in obs.tracer.traces()]
        defects = [d for d in map(check_trace, traces) if d]
        assert defects == []
        recon = breakdown(traces)["read"]["_recon"]
        assert recon["traces"] == 7
        assert recon["phase_sum_ms"] == pytest.approx(
            recon["end_to_end_ms"], rel=0.01)
        assert obs.metrics.total("ds.requests") > 0
        assert obs.metrics.total("ds.ordered") > 0
        payload = probe(ensemble.env, ensemble.net,
                        ensemble.replica_ids[0], "mntr")
        assert "ds_exec_seq\t" in payload


class TestChaosTrace:
    def test_traced_chaos_replay_matches_untraced_verdict(self):
        plain = run_chaos("zk", "counter", 17)
        obs_cfg = ObsConfig()
        traced = run_chaos("zk", "counter", 17, obs=obs_cfg)
        assert traced.ok == plain.ok
        assert traced.history.canonical() == plain.history.canonical()
        traces = [t.to_dict() for t in obs_cfg.runtime.tracer.traces()]
        assert traces
        defects = [d for d in map(check_trace, traces) if d]
        assert defects == []

    @pytest.mark.parametrize("system", ["zk", "ds"])
    def test_stuck_workers_named_like_the_trace(self, system):
        """The quiesce fires first, so the crash and the partition after
        it never heal: a voter majority stays down past the deadline."""
        outage = Schedule((FaultAction(100.0, "crash_leader"),
                           FaultAction(100.0, "partition_follower")),
                          quiesce_ms=0.0)
        obs_cfg = ObsConfig()
        run = run_chaos(system, "queue", 1, schedule=outage, obs=obs_cfg)
        assert not run.ok
        assert run.result.reason.startswith("liveness: workers")
        stuck = re.findall(r"'c(\d+)=(\w+)'", run.result.reason)
        assert stuck == [(str(i), f"{system}client{i}") for i in range(3)]
        traced = {t.client for t in obs_cfg.runtime.tracer.traces()}
        assert {name for _, name in stuck} <= traced
