"""Read scaling: local reads plus observers against leader-only reads."""

from conftest import attach_series, save_figure

from repro.bench import print_result, read_scaling
from repro.bench.figures import READ_CLIENTS


def test_read_scaling(benchmark):
    figure = benchmark.pedantic(read_scaling, rounds=1, iterations=1)
    print_result(figure)
    save_figure(figure)
    attach_series(benchmark, figure)

    # Recorded: 57076 -> 162504 ops/s for zk (2.85x); ezk the same.
    for kind in ("zk", "ezk"):
        assert figure.factor(f"{kind} local_reads+2obs",
                             f"{kind} leader-only", READ_CLIENTS) > 2.5
        scaled = figure.series[f"{kind} local_reads+2obs"][0]
        leader_only = figure.series[f"{kind} leader-only"][0]
        assert scaled.extra["read_ms"] < leader_only.extra["read_ms"]
