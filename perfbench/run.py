"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload queue-zk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics: it sets the workload up
several times, then repeats whole episodes (set-up, warm-up, window,
drain, gates) with the one seed until ``--seconds`` are spent, and
reports medians of the wall-clock figures, scaled to the reference speed
of ``reference.py``. The simulated figures are
those of the first episode; every later episode must reproduce them
exactly. ``--trace 1`` runs one untraced and one traced episode and
prints the per-layer metrics. ``--record FILE`` appends the full result,
with provenance, to a JSON-lines file that ``compare.py`` reads.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every correctness gate held.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = ROOT / "BENCHMARK.json"

#: cold set-ups per measured run, each in a fresh interpreter, so
#: setup_s is a median of several and includes what a process pays once
#: (extension verification and compilation are cached process-wide).
#: Half run before the episodes and half after: a cold set-up lasts
#: 5-150 ms, and the machine switches between a fast and a slow state
#: every few seconds, so probes bunched together share one state.
#: Their median is scaled by the run's slowness, like ops_per_wall_s.
SETUP_REPEATS = 10

#: Traced runs cap the window: per-layer figures are per-op ratios and
#: self times, which a shorter window measures as well, and the traced
#: episode of queue-zk's full 3.6 s window would take minutes.
TRACE_MAX_WINDOW_MS = 1200.0


def _load_simulator():
    """Import the simulator from ``<root>/src``; exit 2 when it is absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _contract():
    with open(CONTRACT) as handle:
        return json.load(handle)


def provenance(spec, seed: int) -> dict:
    """Where a result came from: code, interpreter, machine, inputs."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    from repro.sim import kernel_backend
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "kernel_backend": kernel_backend(),
        "seed": seed,
        "workload": spec.name,
        "system": spec.system,
        "loop": spec.loop,
        "warmup_ms": spec.warmup_ms,
        "window_ms": spec.window_ms,
        "params": spec.params,
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_probe(name: str, seed: int) -> float:
    """Seconds one set-up takes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(spec, seed: int, seconds: float) -> dict:
    """End-to-end metrics (no tracing)."""
    import workloads
    from reference import Gauge

    begin = perf_counter()
    setups = [_setup_probe(spec.name, seed)
              for _ in range(SETUP_REPEATS // 2)]
    probes_left = SETUP_REPEATS - len(setups)
    probe_s = (perf_counter() - begin) / len(setups)
    episodes_begin = perf_counter()
    episodes = []
    gauges = []
    while True:
        gc.collect()
        gauges.append(Gauge())
        episodes.append(workloads.run_episode(spec, seed,
                                              pause=gauges[-1]))
        now = perf_counter()
        per_episode = (now - episodes_begin) / len(episodes)
        if now - begin + per_episode + probes_left * probe_s > seconds:
            break
    setups += [_setup_probe(spec.name, seed) for _ in range(probes_left)]
    first = episodes[0]
    violations = list(first.violations)
    if any(ep.sim != first.sim or ep.counts != first.counts
           for ep in episodes[1:]):
        violations.append(("episodes with one seed disagree", 0))
    raw_rates = [ep.counts["ops"] / ep.sim_wall_s for ep in episodes]
    slowness = [gauge.slowness() for gauge in gauges]
    wall_rates = [r * s for r, s in zip(raw_rates, slowness)]
    metrics = {
        "setup_s": (statistics.median(setups) / statistics.median(slowness),
                    "s"),
        "ops_per_wall_s": (statistics.median(wall_rates), "1/s"),
        "sim_ops_per_s": (first.sim["sim_ops_per_s"], "1/s"),
        "sim_p50_ms": (first.sim["sim_p50_ms"], "ms"),
        "sim_p99_ms": (first.sim["sim_p99_ms"], "ms"),
        "sim_p995_ms": (first.sim["sim_p995_ms"], "ms"),
        "sim_p999_ms": (first.sim["sim_p999_ms"], "ms"),
        "read_p99_ms": (first.sim["read_p99_ms"], "ms"),
        "write_p99_ms": (first.sim["write_p99_ms"], "ms"),
        "client_kb_per_op": (first.sim["client_kb_per_op"], "KiB"),
        "failed_share": (first.sim["failed_share"], "ratio"),
        "unavailable_ms": (first.sim["unavailable_ms"], "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    detail = {
        "episodes": len(episodes),
        "samples": first.sim["samples"],
        "raw_setup_s_all": setups,
        "setup_warm_s_all": [ep.setup_s for ep in episodes],
        "ops_per_wall_s_all": wall_rates,
        "raw_ops_per_wall_s_all": raw_rates,
        "machine_slowness_all": slowness,
        "sim_wall_s_all": [ep.sim_wall_s for ep in episodes],
        "counts": first.counts,
    }
    return {"metrics": metrics, "violations": violations,
            "attempted": first.attempted, "failed": first.failed,
            "detail": detail}


PHASES = ("ingress", "broadcast", "quorum", "apply", "execute", "reply")


def _phase_means(traces) -> tuple:
    """Mean simulated ms per phase over both pipelines, plus the drift
    between phase sums and end-to-end latency (the obs reconciliation)."""
    from repro.obs import breakdown
    stats = breakdown(traces)
    means = {}
    for phase in PHASES:
        count = total = 0
        for pipeline in ("write", "read"):
            row = stats.get(pipeline, {}).get(phase)
            if row:
                count += row["count"]
                total += row["count"] * row["mean_ms"]
        means[phase] = total / count if count else 0.0
    phase_sum = sum(stats[p]["_recon"]["phase_sum_ms"] for p in stats)
    e2e = sum(stats[p]["_recon"]["end_to_end_ms"] for p in stats)
    drift = abs(phase_sum - e2e) / e2e if e2e else 0.0
    return means, drift


def trace(spec, seed: int) -> dict:
    """Per-layer metrics: one untraced and one traced episode."""
    import workloads
    from repro.obs import ObsConfig
    from spans import SpanProfiler

    spec = dataclasses.replace(
        spec, window_ms=min(spec.window_ms, TRACE_MAX_WINDOW_MS))

    # The traced episode runs first, in a cold process, so that extension
    # verification (cached process-wide once done) shows in ext.verify_s.
    profiler = SpanProfiler()
    profiler.install(extra={"driver": [
        (workloads, "closed_client"),
        (workloads.OpenLoop, "arrivals"),
        (workloads.OpenLoop, "executor"),
        (workloads.OpenLoop, "churner"),
        (workloads.OpenLoop, "churn_session"),
    ]})
    obs = ObsConfig()
    gc.collect()
    try:
        t0 = perf_counter()
        traced = workloads.run_episode(spec, seed, obs=obs)
        traced_wall = perf_counter() - t0
    finally:
        profiler.uninstall()
    gc.collect()
    t0 = perf_counter()
    plain = workloads.run_episode(spec, seed)
    plain_wall = perf_counter() - t0

    violations = list(plain.violations)
    if traced.sim != plain.sim or traced.counts != plain.counts:
        violations.append(("tracing changed the simulated run", 0))
    traces = [t.to_dict() for t in obs.runtime.tracer.traces()]
    phases, phase_drift = _phase_means(traces)
    if phase_drift > 1e-9:
        violations.append((f"phase sums drift {phase_drift:.2e} from "
                           "end-to-end latency", 0))
    self_sum = sum(profiler.self_s.values())
    span_drift = abs(self_sum - profiler.root_s)
    residual = traced_wall - profiler.root_s
    if span_drift > 1e-6 * traced_wall or residual < 0:
        violations.append(("layer self times do not reconcile with the "
                           "traced wall time", 0))

    counts = plain.counts
    metrics_reg = obs.runtime.metrics
    rpc_retries = metrics_reg.total("client.retries")
    total_ops = counts["total_ops"]
    p = profiler
    calls = p.calls
    metrics = {
        "sim.events_per_op": (counts["sim.events_per_op"], "count"),
        "sim.self_s": (p.self_of("sim"), "s"),
        "net.msgs_per_op": (counts["net.msgs_per_op"], "count"),
        "net.bytes_per_op": (counts["net.bytes_per_op"], "B"),
        "net.send_calls": (float(p.calls_of("net.send")), "count"),
        "net.send_self_s": (p.self_of("net.send"), "s"),
        "net.size_calls": (float(p.calls_of("net.size")), "count"),
        "net.size_self_s": (p.self_of("net.size"), "s"),
        "consensus.handle_calls": (float(
            calls["ZabPeer.handle"] + calls["RaftPeer.handle"]
            + calls["BftPeer.handle"]), "count"),
        "consensus.self_s": (p.self_of("consensus"), "s"),
        "consensus.elections": (counts["consensus.elections"], "count"),
        "consensus.log_records": (counts["consensus.log_records"], "count"),
        "server.handle_calls": (float(
            calls["ZkServer.handle_message"]
            + calls["DsReplica.handle_message"]), "count"),
        "server.self_s": (p.self_of("server"), "s"),
        "state.self_s": (p.self_of("state"), "s"),
        "tree.ops": (float(p.calls_of("state.tree")), "count"),
        "tree.self_s": (p.self_of("state.tree"), "s"),
        "sessions.closed_retained": (counts["sessions.closed_retained"],
                                     "count"),
        "watches.fired": (metrics_reg.total("zk.watch_deliveries"), "count"),
        "ext.match_calls": (float(p.calls_of("ext.match")), "count"),
        "ext.exec_calls": (float(p.calls_of("ext.exec")), "count"),
        "ext.exec_self_s": (p.self_of("ext") - p.self_of("ext.verify"), "s"),
        "ext.verify_s": (p.total_s.get("ext.verify", 0.0), "s"),
        "ext.proxy_ops": (float(p.calls_of("ext.proxy")), "count"),
        "ds.handle_calls": (float(calls["DsReplica.handle_message"]),
                            "count"),
        "ds.self_s": (p.self_of("server.ds"), "s"),
        "ds.space_self_s": (p.self_of("state.space"), "s"),
        "client.retries_per_op": (
            (total_ops + counts["wasted_attempts"] + rpc_retries)
            / total_ops if total_ops else 0.0, "ratio"),
        "client.self_s": (p.self_of("client"), "s"),
        "driver.max_backlog": (counts["driver.max_backlog"], "count"),
        "driver.self_s": (p.self_of("driver"), "s"),
        "trace.overhead": (traced_wall / plain_wall, "x"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.residual_s": (residual, "s"),
    }
    for phase in PHASES:
        metrics[f"phase.{phase}_ms"] = (phases[phase], "ms")
    detail = {
        "untraced_wall_s": plain_wall,
        "span_self_sum_s": self_sum,
        "span_root_s": profiler.root_s,
        "phase_drift": phase_drift,
        "self_s_by_label": dict(profiler.self_s),
        "calls_by_entry_point": dict(calls),
        "counts": counts,
    }
    return {"metrics": metrics, "violations": violations,
            "attempted": plain.attempted, "failed": plain.failed,
            "detail": detail}


def _print_human(spec, seed: int, mode: str, result: dict,
                 reported: list, why: str) -> None:
    print(f"# perfbench {spec.name} seed={seed} mode={mode}")
    print(f"#   why: {why}")
    for name, (value, unit) in result["metrics"].items():
        mark = "" if name in reported else "   (not in BENCHMARK.json)"
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<26} {shown:>14} {unit}{mark}")
    if mode == "trace":
        d = result["detail"]
        print(f"# reconciliation: sum of layer self times "
              f"{d['span_self_sum_s']:.4f} s = root spans "
              f"{d['span_root_s']:.4f} s; + residual "
              f"{result['metrics']['trace.residual_s'][0]:.4f} s = traced "
              f"wall {result['metrics']['trace.wall_s'][0]:.4f} s; "
              f"phase drift {d['phase_drift']:.2e}")
        print(f"# tracing overhead: {result['metrics']['trace.overhead'][0]:.2f}x "
              f"(untraced {d['untraced_wall_s']:.3f} s)")
    for message, spoiled in result["violations"]:
        print(f"# GATE VIOLATED: {message} ({spoiled} ops)")


def run_one(name: str, seed: int, seconds: float, traced: bool,
            record: str) -> int:
    import workloads
    spec = workloads.WORKLOADS[name]
    contract = _contract()
    section = "per_layer" if traced else "end_to_end"
    reported = [m["name"] for m in contract[section]]
    result = trace(spec, seed) if traced else measure(spec, seed, seconds)
    mode = "trace" if traced else "measure"
    why = next(w["why"] for w in contract["workloads"] if w["name"] == name)
    _print_human(spec, seed, mode, result, reported, why)
    correct = not result["violations"]
    missing = [m for m in reported if result["metrics"][m][0] is None]
    if missing:
        print(f"# metrics without a value: {missing}", file=sys.stderr)
        correct = False
    if record:
        with open(record, "a") as handle:
            handle.write(json.dumps({
                "provenance": provenance(spec, seed), "mode": mode,
                "correct": correct, "attempted": result["attempted"],
                "failed": result["failed"],
                "violations": result["violations"],
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in result["metrics"].items()},
                "detail": result["detail"]}) + "\n")
    out = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": result["metrics"][name][0],
                           "unit": result["metrics"][name][1]}
                    for name in reported if not missing},
    }
    print(json.dumps(out))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' (one process each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default="",
                        help="append the full result to this JSONL file")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not CONTRACT.is_file():
        sys.exit(f"perfbench: {CONTRACT} is missing")
    _load_simulator()
    import workloads
    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.record:
                cmd += ["--record", args.record]
            status |= subprocess.run(cmd).returncode
        return status
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(workloads.WORKLOADS)} or 'all'")
    if args.setup_probe:
        t0 = perf_counter()
        workloads.setup(workloads.WORKLOADS[args.workload], args.seed)
        print(perf_counter() - t0)
        return 0
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.record)


if __name__ == "__main__":
    sys.exit(main())
