"""Compute the three ordered-family consecutive-avoidance counts at n = 5
that the bundled reference table (id 13) has no published value for, and
publish them as a golden file.

Two independent code paths must agree before anything is written:

* route A: the counting engine, the gap-state recursion (forests split
  at the tree holding the smallest label, each node weighted by its
  number of child orders);
* route B: explicit enumeration of every ordered forest, checked with the
  per-vertex path checker.

Usage:
    python scripts/compute_missing_table_entries.py            # write golden file
    python scripts/compute_missing_table_entries.py --check    # compare only
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from forest_patterns import FamilyTag, count_sweep, gen_forests, pattern
from forest_patterns.forests import avoids_per_vertex

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "ordered_consecutive_n5.json"
PATTERNS = ("321", "231", "132")
N = 5


def route_a() -> dict[str, int]:
    swept = count_sweep({FamilyTag.ORDERED: N}, [[pattern("!" + p)] for p in PATTERNS])
    return {p: by_n[N].get(0, 0) for p, by_n in zip(PATTERNS, swept[FamilyTag.ORDERED])}


def route_b() -> dict[str, int]:
    pats = {p: [pattern("!" + p)] for p in PATTERNS}
    counts = dict.fromkeys(PATTERNS, 0)
    for forest in gen_forests(N, FamilyTag.ORDERED):
        for p in PATTERNS:
            if avoids_per_vertex(forest, pats[p]):
                counts[p] += 1
    return counts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--check", action="store_true", help="compare with the golden file")
    args = ap.parse_args()

    a, b = route_a(), route_b()
    if a != b:
        print(f"route disagreement: engine={a} explicit={b}", file=sys.stderr)
        return 1
    payload = {
        "family": "ordered",
        "n": N,
        "mode": "consecutive",
        "counts": a,
        "routes": {
            "gap_state_recursion": a,
            "per_vertex_explicit_enumeration": b,
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.check:
        if not GOLDEN.exists():
            print(f"golden file missing: {GOLDEN}", file=sys.stderr)
            return 1
        if GOLDEN.read_text() != text:
            print("golden file is stale", file=sys.stderr)
            return 1
        print(f"golden file up to date: {a}")
        return 0
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(text)
    print(f"wrote {GOLDEN}: {a}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
