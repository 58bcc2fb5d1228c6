#!/usr/bin/env python3
"""Bench-regression gate: compare a regenerated `BENCH_kernels.json` against
the checked-in snapshot and fail on large dispatch/overhead regressions.

The committed file is a single-machine recording, so absolute nanoseconds
are not comparable across runners. What *is* comparable is its internal
`speedup_vs_naive` ratios (pool dispatch vs per-section OS threads),
because both sides of a ratio ran on the same machine in the same process.

Two rules, both tuned to be generous to quick-mode CI noise while
catching structural regressions:

* relative: a gated ratio that collapses by more than --factor (default
  3x) against the snapshot fails. This protects the large ratios (pool
  dispatch ~50x).
* absolute floor: a row whose snapshot records a win (ratio >= 1) whose
  current ratio falls below --floor (default 0.5, i.e. the "optimised"
  variant measuring 2x slower than its own baseline) fails even when the
  relative drop is under --factor. This protects near-unity rows, where
  a 3x relative drop would otherwise only trip after the optimisation had
  become ~2x slower than doing nothing.

Usage:
    check_bench_regression.py --baseline BENCH_kernels.json \
        --current regenerated.json [--factor 3.0]
"""

import argparse
import json
import sys

# Kernel groups whose speedup ratios are dispatch-bound: they measure
# bookkeeping (pool dispatch), not arithmetic throughput, so their ratios
# are stable enough to gate. Raw-kernel ratios (matmul/spmm blocking)
# swing with cache hierarchy and stay report-only.
GATED_KERNEL_PREFIXES = ("parallel_dispatch",)


def load_doc(path):
    with open(path) as fh:
        return json.load(fh)


def ratio_rows_kernels(doc):
    """(kernel, variant) -> speedup_vs_naive for gated, non-baseline rows."""
    out = {}
    for row in doc.get("results", []):
        kernel, variant = row.get("kernel", ""), row.get("variant", "")
        speedup = row.get("speedup_vs_naive")
        if variant == "naive" or not isinstance(speedup, (int, float)):
            continue
        if kernel.startswith(GATED_KERNEL_PREFIXES):
            out[(kernel, variant)] = float(speedup)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True, help="checked-in snapshot")
    ap.add_argument("--current", required=True, help="regenerated baseline")
    ap.add_argument(
        "--factor",
        type=float,
        default=3.0,
        help="fail when baseline_ratio / current_ratio exceeds this (default 3)",
    )
    ap.add_argument(
        "--floor",
        type=float,
        default=0.5,
        help="fail when a snapshot-winning ratio (>= 1) measures below this (default 0.5)",
    )
    args = ap.parse_args()

    baseline = ratio_rows_kernels(load_doc(args.baseline))
    current = ratio_rows_kernels(load_doc(args.current))

    if not baseline:
        print(f"gate: no gated ratios in baseline {args.baseline}; nothing to compare")
        return 0

    failures, checked, missing = [], 0, []
    for key, base_ratio in sorted(baseline.items()):
        cur_ratio = current.get(key)
        name = f"{key[0]}/{key[1]}"
        if cur_ratio is None:
            # A vanished row is itself suspicious: the bench stopped
            # producing the comparison the snapshot records.
            missing.append(name)
            continue
        checked += 1
        if cur_ratio <= 0:
            failures.append(f"{name}: current ratio {cur_ratio} is not positive")
            continue
        drop = base_ratio / cur_ratio
        relative_fail = drop > args.factor
        floor_fail = base_ratio >= 1.0 and cur_ratio < args.floor
        status = "FAIL" if (relative_fail or floor_fail) else "ok"
        print(
            f"  [{status}] {name}: snapshot {base_ratio:.3f}x -> current "
            f"{cur_ratio:.3f}x ({drop:.2f}x drop, limit {args.factor:.1f}x, "
            f"floor {args.floor:.2f}x)"
        )
        if relative_fail:
            failures.append(
                f"{name}: ratio collapsed {drop:.2f}x "
                f"(snapshot {base_ratio:.3f}x, current {cur_ratio:.3f}x)"
            )
        elif floor_fail:
            failures.append(
                f"{name}: snapshot recorded a win ({base_ratio:.3f}x) but the "
                f"current ratio {cur_ratio:.3f}x is below the {args.floor:.2f}x "
                f"floor — the optimised variant now loses to its own baseline"
            )

    for name in missing:
        failures.append(f"{name}: present in snapshot but missing from current run")

    if failures:
        print(f"\ngate FAILED ({len(failures)} problem(s)):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"gate passed: {checked} ratio(s) within {args.factor:.1f}x of the snapshot")
    return 0


if __name__ == "__main__":
    sys.exit(main())
