"""Zipf-hot: lease-protected client caching under skewed open-loop reads."""

from conftest import attach_series, save_figure

from repro.bench import print_result, zipf_hot


def test_zipf_hot(benchmark):
    figure = benchmark.pedantic(zipf_hot, rounds=1, iterations=1)
    print_result(figure)
    save_figure(figure)
    attach_series(benchmark, figure)

    def extra(name, key):
        return figure.series[name][0].extra[key]

    # Recorded: 3.20x saturated read throughput, 171x light-load read p50.
    assert (extra("zk saturated cached", "read_ops_per_s")
            > 3.0 * extra("zk saturated baseline", "read_ops_per_s"))
    assert (extra("zk light baseline", "read_p50_ms")
            > 100.0 * extra("zk light cached", "read_p50_ms"))
    # A cache hit never leaves the client: sub-RTT median reads.
    assert extra("zk light cached", "read_p50_ms") < 0.01
    assert extra("zk light cached", "cache_hit_rate") > 0.5
