#!/usr/bin/env python3
"""Incremental re-diversification under network churn (repro.stream).

A fleet is never static: hosts join and leave, links change, and CVE feeds
re-score product similarity daily.  This example builds a random workload,
draws a synthetic churn trace, and keeps the optimal diversification fresh
with the streaming engine — each event patches the live MRF plan and
warm-starts TRW-S from the previous fixed point instead of rebuilding and
cold-solving.

Run:  python examples/streaming_churn.py [--hosts N] [--events K] [--cold]

``--compare-cold`` also times the batch pipeline's cold rebuild+solve per
event so the per-event speedup column appears (this is what
``benchmarks/bench_stream_churn.py`` pins at ≥3× on host/link events).
"""

import argparse

from repro.network.generator import (
    RandomNetworkConfig,
    random_network,
    random_similarity,
)
from repro.stream import ChurnConfig, random_churn_trace, replay_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hosts", type=int, default=60)
    parser.add_argument("--events", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cold", action="store_true",
                        help="disable warm starts (baseline behaviour)")
    parser.add_argument("--compare-cold", action="store_true",
                        help="time a cold rebuild+solve per event too")
    args = parser.parse_args()

    config = RandomNetworkConfig(
        hosts=args.hosts, degree=3, services=3, products_per_service=6,
        seed=args.seed,
    )
    network = random_network(config)
    similarity = random_similarity(config)
    trace = random_churn_trace(
        network, ChurnConfig(events=args.events, seed=args.seed)
    )

    print(f"workload: {network}")
    print(f"churn trace: {len(trace)} events\n")
    report = replay_trace(
        network,
        similarity,
        trace,
        warm_start=not args.cold,
        compare_cold=args.compare_cold,
    )
    print(report.format_rows())
    print()
    print(report.summary())


if __name__ == "__main__":
    main()
