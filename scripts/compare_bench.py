#!/usr/bin/env python3
"""Warn-only bench-throughput diff for CI.

Compares freshly measured results/BENCH_*.json files against their
committed baselines and prints a warning when a metric regressed
beyond a noise margin, or when a speedup falls under its acceptance
bar. Always exits 0: CI runners are shared and noisy, so throughput
deltas are advisory — the artifact and the log line are the signal,
the committed baseline the record.

Covers the bench suites emitted by bench/microbench:
  BENCH_gemm.json  (--gemm-only)  GEMM-mode sweep throughput
  BENCH_dse.json   (--dse-only)   DSE pipeline sweep throughput
  BENCH_cycle.json (--cycle-only) cycle-level engine throughput
  BENCH_sim.json   (--sim-only)   serving-simulator trace throughput
  BENCH_coevo.json (--coevo-only) arms-race best-response throughput
The suite is picked per file pair from the metrics present, so the
caller just passes matching (baseline, measured) pairs:

Usage: compare_bench.py <baseline.json> <measured.json> [<b2> <m2> ...]
"""

import json
import sys

# Shared CI runners routinely swing this much; only flag beyond it.
NOISE_MARGIN = 0.30

# Throughput metrics per suite (designs/second, higher is better).
SUITES = {
    "BENCH_gemm": [
        "analytic_designs_per_s",
        "tile_sim_aggregated_designs_per_s",
        "tile_sim_cached_designs_per_s",
        "tile_sim_legacy_walk_designs_per_s",
    ],
    "BENCH_dse": [
        "legacy_designs_per_s",
        "serial_designs_per_s",
        "pooled_designs_per_s",
        "streaming_designs_per_s",
        "adaptive_designs_per_s",
    ],
    "BENCH_cycle": [
        "naive_gemms_per_s",
        "coalesced_gemms_per_s",
        "cycle_cold_designs_per_s",
        "cycle_cached_designs_per_s",
    ],
    "BENCH_sim": [
        "legacy_requests_per_s",
        "fast_requests_per_s",
        "fast_events_per_s",
    ],
    "BENCH_coevo": [
        "designer_best_responses_per_s",
    ],
}

# Speedup acceptance bars: (metric, floor, label). Measured-side only;
# each encodes the ISSUE bar its optimization shipped under.
BARS = {
    "BENCH_gemm": [
        ("aggregated_speedup_vs_legacy_walk", 10.0,
         "aggregated vs legacy walk"),
        ("cached_speedup_vs_aggregated", 5.0,
         "cached vs aggregated"),
    ],
    "BENCH_dse": [
        ("streaming_speedup_vs_legacy", 2.0,
         "streaming vs legacy"),
        ("adaptive_speedup_vs_streaming", 10.0,
         "adaptive (effective) vs streaming"),
    ],
    "BENCH_cycle": [
        ("coalesced_speedup_vs_naive", 10.0,
         "coalesced CYCLE_SIM vs naive per-cycle tick"),
    ],
    "BENCH_sim": [
        ("fast_speedup_vs_legacy", 10.0,
         "fast sim path vs legacy heap+map"),
    ],
    "BENCH_coevo": [],
}

# Absolute rate floors: (metric, floor/s, label). A full designer best
# response is an AdaptiveSearch over the whole escape portfolio, so a
# collapsing rate means the adaptive inner loop degraded to something
# closer to an exhaustive sweep. Floor is ~15x under the committed
# baseline to ride out shared-runner noise.
FLOORS = {
    "BENCH_gemm": [],
    "BENCH_dse": [],
    "BENCH_cycle": [],
    "BENCH_sim": [],
    "BENCH_coevo": [
        ("designer_best_responses_per_s", 20.0,
         "designer best responses"),
    ],
}

# Ceilings: (metric, max, label) — lower is better. Warn-only, like
# the speedup bars: the adaptive engine's evaluated fraction (its
# exactness tests assert < 0.30 on the Table 3 spaces, and the fine
# space should prune far harder), and the share of arms-race visits
# that reach the perf kernels (each race keeps one search per escape
# space, so a point is timed once however many rules re-classify it).
CEILINGS = {
    "BENCH_gemm": [],
    "BENCH_cycle": [],
    "BENCH_sim": [],
    "BENCH_dse": [
        ("fraction_evaluated", 0.30, "adaptive fraction evaluated"),
    ],
    # Predicated escape spaces prune less than the predicate-free DSE
    # spaces (corner seeding keeps compliant pockets reachable), so the
    # ceiling is looser than BENCH_dse's.
    "BENCH_coevo": [
        ("fraction_evaluated", 0.60,
         "escape-portfolio fraction evaluated"),
        ("timed_fraction", 0.20, "arms-race visits timed"),
    ],
}


def suite_of(data):
    """The suite whose metrics the measurement actually carries."""
    for name, metrics in SUITES.items():
        if any(key in data for key in metrics):
            return name
    return None


def compare_pair(baseline_path, measured_path):
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
        with open(measured_path) as f:
            measured = json.load(f)
    except (OSError, ValueError) as err:
        print(f"::warning::bench compare skipped: {err}")
        return

    suite = suite_of(measured)
    if suite is None:
        print(f"::warning::{measured_path}: no known bench metrics")
        return
    print(f"-- {suite} ({measured_path})")

    for key in SUITES[suite]:
        base = baseline.get(key)
        meas = measured.get(key)
        if not base or not meas:
            # Baselines predating a metric (e.g. the cached row) are
            # expected right after the metric ships; just note it.
            print(f"::warning::{suite} compare: missing '{key}'")
            continue
        delta = meas / base - 1.0
        line = (f"{key}: baseline {base:.0f}/s, measured {meas:.0f}/s "
                f"({delta:+.1%})")
        if delta < -NOISE_MARGIN:
            print(f"::warning::{suite} throughput regression? {line}")
        else:
            print(line)

    for key, floor, label in BARS[suite]:
        speedup = measured.get(key)
        if speedup is None:
            continue
        line = f"{label}: {speedup:.1f}x"
        if speedup < floor:
            print(f"::warning::{line} (expected >= {floor:g}x)")
        else:
            print(line)

    for key, floor, label in FLOORS[suite]:
        rate = measured.get(key)
        if rate is None:
            continue
        line = f"{label}: {rate:.1f}/s"
        if rate < floor:
            print(f"::warning::{line} (expected >= {floor:g}/s)")
        else:
            print(line)

    for key, ceiling, label in CEILINGS[suite]:
        value = measured.get(key)
        if value is None:
            continue
        line = f"{label}: {value:.4f}"
        if value > ceiling:
            print(f"::warning::{line} (expected <= {ceiling:g})")
        else:
            print(line)

    size = measured.get("frontier_size")
    if size is not None:
        print(f"adaptive frontier size: {size}")

    # Informational (never warned on): cache efficacy and the replay
    # coverage of the coalesced cycle engine — useful trend lines, but
    # both are workload-shaped rather than pure implementation cost.
    rate = measured.get("gemm_cache_hit_rate")
    if rate is not None:
        print(f"gemm cache hit rate: {rate:.4f}")
    fraction = measured.get("replayed_tile_fraction")
    if fraction is not None:
        print(f"replayed tile fraction: {fraction:.4f}")
    for key in ("threshold_final_escaped_perf",
                "firmware_final_escaped_perf",
                "threshold_rounds_to_fixed_point",
                "firmware_rounds_to_fixed_point"):
        value = measured.get(key)
        if value is not None:
            print(f"{key}: {value:g}")


def main(argv):
    if len(argv) < 3 or len(argv) % 2 != 1:
        print(f"usage: {argv[0]} <baseline.json> <measured.json> "
              "[<baseline2.json> <measured2.json> ...]")
        return 0
    for i in range(1, len(argv), 2):
        compare_pair(argv[i], argv[i + 1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
