"""Compare two result sets (parent and change) recorded by ``run.py``.

Usage::

    python3 perfbench/compare.py parent.jsonl change.jsonl \\
        [--claim queue-zk:ops_per_wall_s]

Each file holds the ``--record`` lines of several measured runs (mode
``measure``), ideally ten or more per workload with the same seeds on
both sides. For every workload one row is printed:

* the claimed metric, if any, is judged by the pair rule: runs are
  paired by seed, the change must win at least nine tenths of the pairs
  (ties count for neither side) and the medians must differ by more than
  the parent's own spread (the distance between its quartiles);
* every other metric must not be worse than the parent's median by more
  than its bound. Where either side's run-to-run spread (quartile
  distance over median) exceeds the bound, the metric is ``unresolved``
  unless every run of the change beats every run of the parent.

Bounds and directions come from ``BENCHMARK.json``; the workload-specific
metrics that only some workloads report use :data:`EXTRA_METRICS`.
Exit code 1 when a metric regressed or the claim was not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: metrics the runner prints that are not in BENCHMARK.json, because
#: they exist on only some workloads: name -> (better, bound).
EXTRA_METRICS = {
    "sim_p99_ms": ("lower", 0.1),
    "sim_p999_ms": ("lower", 0.1),
    "read_p99_ms": ("lower", 0.1),
    "write_p99_ms": ("lower", 0.1),
    "unavailable_ms": ("lower", 0.1),
    "failed_share": ("lower", 0.0),
}


def load(path: str) -> Dict[str, List[dict]]:
    """Measured records of one result set, by workload."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if record.get("mode") == "measure":
                    runs[record["provenance"]["workload"]].append(record)
    return runs


def quartile_spread(values: List[float]) -> float:
    """Quartile distance over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def _values(records: List[dict], metric: str) -> List[Tuple[int, float]]:
    out = []
    for record in records:
        entry = record["metrics"].get(metric)
        if entry is not None and entry["value"] is not None:
            out.append((record["provenance"]["seed"], entry["value"]))
    return out


def judge(parent: List[Tuple[int, float]], change: List[Tuple[int, float]],
          better: str, bound: float) -> Tuple[str, str]:
    """Verdict for one unclaimed metric: ok / REGRESSED / unresolved."""
    sign = 1.0 if better == "lower" else -1.0
    p_vals = [v for _, v in parent]
    c_vals = [v for _, v in change]
    p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
    if p_med:
        worse_by = sign * (c_med - p_med) / abs(p_med)
    else:
        worse_by = float("inf") if sign * c_med > 0 else 0.0
    change_pct = f" ({(c_med - p_med) / abs(p_med):+.1%})" if p_med else ""
    text = f"{p_med:.4g}->{c_med:.4g}{change_pct}"
    spread = max(quartile_spread(p_vals), quartile_spread(c_vals))
    all_better = all(sign * (c - p) < 0 for c in c_vals for p in p_vals)
    if spread > bound and not all_better:
        return "unresolved", f"{text} spread {spread:.1%} > bound {bound:.0%}"
    if worse_by > bound:
        return "REGRESSED", f"{text} worse than bound {bound:.0%}"
    return "ok", text


def judge_claim(parent: List[Tuple[int, float]],
                change: List[Tuple[int, float]],
                better: str) -> Tuple[str, str]:
    """The pair rule for the claimed metric."""
    sign = 1.0 if better == "lower" else -1.0
    p_by_seed = dict(parent)
    pairs = [(p_by_seed[seed], c) for seed, c in change if seed in p_by_seed]
    if not pairs:
        return "NOT MET", "no runs paired by seed"
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_vals = [v for _, v in parent]
    p_med = statistics.median(p_vals)
    c_med = statistics.median([v for _, v in change])
    spread = (statistics.quantiles(p_vals, n=4)[2]
              - statistics.quantiles(p_vals, n=4)[0]
              if len(p_vals) > 1 else 0.0)
    met = wins >= 0.9 * len(pairs) and abs(c_med - p_med) > spread
    text = (f"{p_med:.4g}->{c_med:.4g}, won {wins}/{len(pairs)} pairs, "
            f"median gap {abs(c_med - p_med):.4g} vs parent spread "
            f"{spread:.4g}")
    return ("MET" if met else "NOT MET"), text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", default="",
                        help="workload:metric the change claims to improve")
    args = parser.parse_args(argv)
    with open(CONTRACT) as handle:
        contract = json.load(handle)
    metrics = {m["name"]: (m["better"], m["bound"])
               for m in contract["end_to_end"]}
    metrics.update(EXTRA_METRICS)
    claim_workload, _, claim_metric = args.claim.partition(":")
    parent, change = load(args.parent), load(args.change)
    status = 0
    for workload in sorted(set(parent) | set(change)):
        if not parent.get(workload) or not change.get(workload):
            print(f"{workload}: missing on one side")
            status = 1
            continue
        cells = []
        for name, (better, bound) in metrics.items():
            p_vals = _values(parent[workload], name)
            c_vals = _values(change[workload], name)
            if not p_vals or not c_vals:
                continue
            if workload == claim_workload and name == claim_metric:
                verdict, text = judge_claim(p_vals, c_vals, better)
                name = f"{name} [claimed]"
                failed = verdict != "MET"
            else:
                verdict, text = judge(p_vals, c_vals, better, bound)
                failed = verdict == "REGRESSED"
            status |= failed
            cells.append(f"{name}: {verdict} {text}")
        print(f"{workload} (parent n={len(parent[workload])}, change "
              f"n={len(change[workload])}) | " + " | ".join(cells))
    return status


if __name__ == "__main__":
    sys.exit(main())
