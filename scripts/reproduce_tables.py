"""Recompute all three reference tables and run every named check.

Prints each table cell with its expected value where one is bundled, then
the full PASS/FAIL sweep of the closed-form-vs-engine checks.  Exits
nonzero if any cell or check disagrees.

Usage:
    python scripts/reproduce_tables.py [--max-n 5] [--check-max-n 6]
"""
from __future__ import annotations

import argparse
import sys

from forest_patterns.counting import REFERENCE_TABLES, table_rows
from forest_patterns.verify import run_check


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=5, help="table rows to recompute")
    ap.add_argument("--check-max-n", type=int, default=6, help="bound for the named checks")
    args = ap.parse_args()

    failures = 0
    for figure in sorted(REFERENCE_TABLES):
        family = REFERENCE_TABLES[figure]["family"].value
        print(f"== table {figure} ({family} forests) ==")
        for row in table_rows(figure, args.max_n):
            expected = row["expected"]
            status = "."
            if expected is None:
                status = "new"
            elif expected != row["computed"]:
                status = "MISMATCH"
                failures += 1
            print(
                f"  n={row['n']} {row['mode']:<11} {row['pattern']}: "
                f"{row['computed']:>6}  expected={'?' if expected is None else expected}  {status}"
            )

    print(f"== named checks, n <= {args.check_max_n} ==")
    rows = run_check("all", args.check_max_n)
    bad = [r for r in rows if not r.ok]
    failures += len(bad)
    for r in bad:
        print(f"  FAIL {r.check} n={r.n} {r.subject}: expected {r.expected}, got {r.computed}")
    print(f"  {len(rows) - len(bad)}/{len(rows)} checks passed")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
