"""Regenerate ``perfbench/oracle.json``, the benchmark's table of expected outputs.

The table was pinned once from the library as it stood when the benchmark
was defined; rerunning this script on a later commit is only meant for
auditing it, never for making a failing benchmark pass.  Before writing,
every pinned count is cross-checked by a second route where one exists:
complement duality (a pattern and its complement have equal counts in
every family and mode), the forest Wilf equivalence of 321 and 312, and
the published reference tables.

    python3 perfbench/pin_oracle.py            # prints per-query timings to stderr
"""
from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from forest_patterns import cli, counting, verify  # noqa: E402
from forest_patterns.forests import FamilyTag  # noqa: E402
from forest_patterns.generate import count_forests  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    t0 = time.perf_counter()
    rc = cli.run(argv, out=buf)
    print(f"{time.perf_counter() - t0:7.3f}s  {' '.join(argv)}", file=sys.stderr)
    if rc != 0:
        raise SystemExit(f"exit {rc}: {argv}")
    return buf.getvalue()


def _complement(word: str) -> str:
    k = len(word)
    return "".join(str(k + 1 - int(c)) for c in word)


def pin_counts() -> dict:
    out: dict = {}
    for family, n, budget in workloads.COUNT_SLOTS:
        values = {}
        for token in oracle.count_tokens():
            argv = ["count", "--family", family, "--n", str(n), "--avoid", token, "--jobs", "1"]
            if budget is not None:
                argv += ["--budget", str(budget)]
            values[token] = int(_run(argv))
        for token, value in values.items():
            bang = "!" if token.startswith("!") else ""
            twin = bang + _complement(token.lstrip("!"))
            assert values[twin] == value, (family, n, token, twin)
        if family == "unordered":
            assert values["321"] == values["312"], "Wilf 321 ~ 312"
        out[f"{family}/{n}"] = values
    return out


def pin_enumerations() -> dict:
    out: dict = {}
    for slot in workloads.ENUMERATE_SLOTS:
        for token in slot.pool:
            text = _run(slot.argv(token))
            out[slot.key(token)] = {
                "lines": text.count("\n"),
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
    unimodal = _run(workloads.UNIMODAL_ARGV)
    out["unimodal"] = {
        "lines": unimodal.count("\n"),
        "sha256": hashlib.sha256(unimodal.encode()).hexdigest(),
    }
    assert out["unimodal"]["lines"] == oracle.unimodal_count(workloads.UNIMODAL_N)
    return out


def pin_tables() -> dict:
    """The published reference tables, with the three ordered consecutive
    n=5 cells they leave open filled from ``data/ordered_consecutive_n5.json``
    (which the repository computes by two independent routes)."""
    missing = json.loads((ROOT / "data" / "ordered_consecutive_n5.json").read_text())
    tables: dict = {}
    for figure, ref in counting.REFERENCE_TABLES.items():
        entry: dict = {"family": ref["family"].value}
        for mode in ("classical", "consecutive"):
            entry[mode] = {pat: list(row) for pat, row in ref[mode].items()}
            for pat, row in entry[mode].items():
                for i, value in enumerate(row):
                    if value is None:
                        assert (entry["family"], mode, i + 1) == (
                            missing["family"], missing["mode"], missing["n"])
                        row[i] = missing["counts"][pat]
        tables[figure] = entry
    return tables


def pin_sweep_units(max_n: int, binary_sizes: dict[str, int]) -> int:
    """(forest, pattern set) pairs that ``verify --theorem all`` decides."""
    units = 0
    sweep, refined = counting.sweep_counts, counting.refined_table

    def family_size(n, family):
        return oracle.family_size(family.value, n, binary_sizes)

    def counted_sweep(n, family, sets, *a, **k):
        nonlocal units
        units += family_size(n, family) * len(sets)
        return sweep(n, family, sets, *a, **k)

    def counted_refined(n, family, *a, **k):
        nonlocal units
        units += family_size(n, family)
        return refined(n, family, *a, **k)

    verify.sweep_counts, verify.refined_table = counted_sweep, counted_refined
    try:
        rows = verify.run_check("all", max_n, jobs=1)
    finally:
        verify.sweep_counts, verify.refined_table = sweep, refined
    assert all(r.ok for r in rows)
    return units


def main() -> None:
    binary_sizes = {str(n): count_forests(n, FamilyTag.UNORDERED_BINARY) for n in range(8)}
    for n in range(1, 8):
        assert oracle.family_size("unordered", n, {}) == count_forests(n, FamilyTag.UNORDERED)
        assert oracle.family_size("ordered", n, {}) == count_forests(n, FamilyTag.ORDERED)
    tables = pin_tables()
    verify_argv = ["verify", "--theorem", "all", "--max-n", str(workloads.VERIFY_MAX_N)]
    verify_text = _run(verify_argv + ["--jobs", "1"])
    pinned = {
        "binary_family_size": binary_sizes,
        "tables": tables,
        "verify_rows": verify_text.count("\n"),
        "verify_units": pin_sweep_units(workloads.VERIFY_MAX_N, binary_sizes),
        "counts": pin_counts(),
        "enumerate": pin_enumerations(),
    }
    (HERE / "oracle.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
