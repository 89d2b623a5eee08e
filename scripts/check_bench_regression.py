#!/usr/bin/env python3
"""Compare a fresh BENCH_throughput.json against a committed baseline.

Flags any (section, config, threads) cell whose txn_per_sec dropped by more
than --threshold (default 30%) versus the baseline, and prints a per-section
worst-drop summary.

Advisory by default: the CI runner is a noisy single-core box (see the
ROADMAP multi-core caveat), so drops are reported as warnings and the exit
code stays 0 unless --hard-fail is given. Cells present in only one file
are reported but never fail the check (sections come and go across PRs).

Usage:
  scripts/check_bench_regression.py BASELINE FRESH [--threshold 0.30]
                                    [--hard-fail]
"""

import argparse
import json
import sys


def load_cells(path):
    with open(path) as f:
        data = json.load(f)
    cells = {}
    for cell in data.get("cells", []):
        key = (cell["section"], cell["config"], cell["threads"])
        cells[key] = cell
    return cells


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="fractional throughput drop that counts as a "
                             "regression (default 0.30)")
    parser.add_argument("--hard-fail", action="store_true",
                        help="exit non-zero on regressions (multi-core "
                             "runners only; the single-core runner warns)")
    args = parser.parse_args()

    try:
        baseline = load_cells(args.baseline)
    except (OSError, ValueError) as e:
        print(f"bench-regression: cannot read baseline ({e}); skipping")
        return 0
    try:
        fresh = load_cells(args.fresh)
    except (OSError, ValueError) as e:
        print(f"bench-regression: cannot read fresh results ({e}); skipping")
        return 0

    regressions = []
    worst_by_section = {}
    for key, base_cell in sorted(baseline.items()):
        fresh_cell = fresh.get(key)
        if fresh_cell is None:
            print(f"  note: cell {key} missing from fresh run")
            continue
        base_tps = base_cell.get("txn_per_sec", 0.0)
        fresh_tps = fresh_cell.get("txn_per_sec", 0.0)
        if base_tps <= 0:
            continue
        drop = (base_tps - fresh_tps) / base_tps
        section = key[0]
        prev = worst_by_section.get(section)
        if prev is None or drop > prev[0]:
            worst_by_section[section] = (drop, key)
        if drop > args.threshold:
            regressions.append((key, base_tps, fresh_tps, drop))
    for key in sorted(fresh.keys() - baseline.keys()):
        print(f"  note: new cell {key} has no baseline yet")

    print("\nworst drop per section (negative = improvement):")
    for section, (drop, key) in sorted(worst_by_section.items()):
        print(f"  {section:20s} {drop * 100:+7.1f}%  at {key}")

    if not regressions:
        print(f"\nbench-regression: OK — no cell dropped more than "
              f"{args.threshold * 100:.0f}%")
        return 0

    print(f"\nbench-regression: {len(regressions)} cell(s) dropped more "
          f"than {args.threshold * 100:.0f}%:")
    for key, base_tps, fresh_tps, drop in regressions:
        print(f"  {key}: {base_tps:.0f} -> {fresh_tps:.0f} txn/s "
              f"({drop * 100:.1f}% drop)")
    if args.hard_fail:
        return 1
    print("advisory mode (single-core runner): not failing the job; "
          "re-measure on a multi-core box before reverting anything")
    return 0


if __name__ == "__main__":
    sys.exit(main())
