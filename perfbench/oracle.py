"""Expected outputs for every benchmark query, independent of the code under test.

Expected values come from four places: the published reference tables
(copied into ``oracle.json``), closed forms computed here, the rule that
``verify`` exits 0 with every row PASS, and counts and output digests
pinned once in ``oracle.json`` by ``pin_oracle.py``.  Nothing here imports
``forest_patterns``.

Each ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is not.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from functools import lru_cache
from math import comb, factorial
from pathlib import Path

PATTERNS = ("123", "132", "213", "231", "312", "321")


def count_tokens() -> list[str]:
    """Every length-3 pattern in both modes, as ``--avoid`` tokens."""
    return [*PATTERNS, *("!" + p for p in PATTERNS)]


@lru_cache(maxsize=None)
def load() -> dict:
    return json.loads((Path(__file__).resolve().parent / "oracle.json").read_text())


@lru_cache(maxsize=None)
def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind."""
    if n == 0 or k == 0:
        return 1 if n == k else 0
    return stirling1(n - 1, k - 1) + (n - 1) * stirling1(n - 1, k)


def tdm_row(n: int) -> dict[int, int]:
    """Unimodal forests on [n] with k top-down maxima number k!·c(n,k)."""
    return {k: factorial(k) * stirling1(n, k) for k in range(1, n + 1)}


def unimodal_count(n: int) -> int:
    return sum(tdm_row(n).values())


def family_size(family: str, n: int, binary_sizes: dict[str, int]) -> int:
    """Forests on [n] in a family: (n+1)^(n-1) unordered, n!·Catalan(n) ordered."""
    if family == "unordered":
        return (n + 1) ** (n - 1)
    if family == "ordered":
        return factorial(n) * comb(2 * n, n) // (n + 1)
    return binary_sizes[str(n)]


def size(family: str, n: int) -> int:
    return family_size(family, n, load()["binary_family_size"])


# -- checks -----------------------------------------------------------------


def check_count(text: str, expected: int) -> str | None:
    if text != f"{expected}\n":
        return f"count printed {text.strip()!r}, expected {expected}"
    return None


def check_tdm(text: str, n: int) -> str | None:
    want = "".join(f"{k} {v}\n" for k, v in tdm_row(n).items())
    if text != want:
        return f"tdm rows {text.split()!r} differ from k!c({n},k)"
    return None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(text: str, key: str) -> str | None:
    pin = load()["enumerate"][key]
    lines = text.count("\n")
    if lines != pin["lines"] or digest(text) != pin["sha256"]:
        return f"{key}: {lines} lines, digest differs from the pinned output ({pin['lines']} lines)"
    return None


def parse_forest_line(line: str) -> tuple[int, tuple[int, ...]]:
    """``(n, parents)`` from a forest's text or JSON line, read without the library."""
    if line.startswith("{"):
        data = json.loads(line)
        return data["n"], tuple(data["parents"])
    head, vec = line.split("|")[:2]
    return int(head), tuple(int(t) for t in vec.split())


def check_parsed_forests(text: str, forests: list) -> str | None:
    """Each forest parsed back by the library has the parents its line shows."""
    lines = text.splitlines()
    if len(forests) != len(lines):
        return f"parsed {len(forests)} forests from {len(lines)} lines"
    for line, f in zip(lines, forests):
        n, parents = parse_forest_line(line)
        if f.n != n or tuple(f.parent[i] for i in range(1, n + 1)) != parents:
            return f"parse-back of {line!r} gave {f!r}"
    return None


_CYCLE = re.compile(r"\(([^()]*)\)")


def check_theta(text: str, trips: list[tuple[str, dict]]) -> str | None:
    """theta^-1 then theta returns every unimodal forest; the images are
    distinct ordered cycle decompositions of [n], each cycle maximum-first."""
    lines = text.splitlines()
    if len(trips) != len(lines):
        return f"{len(trips)} round trips for {len(lines)} forests"
    seen = set()
    for line, (cycles, parent) in zip(lines, trips):
        n, parents = parse_forest_line(line)
        if tuple(parent[i] for i in range(1, n + 1)) != parents or len(parent) != n:
            return f"theta round trip of {line!r} returned {parent!r}"
        cyc = [tuple(int(t) for t in c.split(",")) for c in _CYCLE.findall(cycles)]
        flat = sorted(x for c in cyc for x in c)
        if flat != list(range(1, n + 1)) or any(c[0] != max(c) for c in cyc):
            return f"theta^-1 of {line!r} is not a cycle decomposition of [{n}]: {cycles}"
        seen.add(cycles)
    if len(seen) != len(lines):
        return f"theta^-1 maps {len(lines)} forests to {len(seen)} decompositions"
    return None


def check_phi(trips: list[tuple[str, str, str]], n: int) -> str | None:
    """phi then phi^-1 returns every permutation of [n]; the images are
    distinct increasing forests whose roots are the left-to-right minima."""
    if len(trips) != factorial(n):
        return f"{len(trips)} round trips, expected {factorial(n)}"
    images = set()
    for word, forest, back in trips:
        if back != word:
            return f"phi^-1(phi({word})) = {back}"
        m, parents = parse_forest_line(forest)
        if m != n or any(p >= v for v, p in enumerate(parents, start=1)):
            return f"phi({word}) = {forest} is not an increasing forest on [{n}]"
        values = [int(t) for t in word.split(",")]
        minima = sum(1 for i, x in enumerate(values) if x == min(values[: i + 1]))
        if parents.count(0) != minima:
            return f"phi({word}) = {forest} has {parents.count(0)} roots, expected {minima}"
        images.add(forest)
    if len(images) != len(trips):
        return f"phi maps {len(trips)} permutations to {len(images)} forests"
    return None


def _rows(text: str, fmt: str, line_re: re.Pattern) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    rows = []
    for line in text.splitlines():
        m = line_re.fullmatch(line)
        if m is None:
            raise ValueError(f"unparsable line {line!r}")
        rows.append(m.groupdict())
    return rows


_VERIFY_LINE = re.compile(r"(?P<status>PASS|FAIL) (?P<check>\S+) n=(?P<n>\d+) .*")


def check_verify(text: str, fmt: str) -> str | None:
    """Every row PASS, and as many rows as the pinned run printed."""
    rows = _rows(text, fmt, _VERIFY_LINE)
    failing = [r for r in rows if r["status"] != "PASS"]
    if failing:
        return f"verify rows failed: {failing[:3]}"
    if len(rows) != load()["verify_rows"]:
        return f"verify printed {len(rows)} rows, expected {load()['verify_rows']}"
    return None


_TABLE_LINE = re.compile(
    r"table (?P<figure>\d+) (?P<family>\w+) n=(?P<n>\d+) (?P<mode>\w+) "
    r"(?P<pattern>\d+): computed=(?P<computed>\d+) expected=\S+"
)


def check_table(text: str, fmt: str, figure: str, max_n: int) -> str | None:
    """Every computed cell equals the published (or pinned) value."""
    table = load()["tables"][figure]
    rows = _rows(text, fmt, _TABLE_LINE)
    cells = set()
    for r in rows:
        n, mode, pat = int(r["n"]), r["mode"], str(r["pattern"])
        want = table[mode][pat][n - 1]
        if int(r["computed"]) != want:
            return f"table {figure} n={n} {mode} {pat}: computed {r['computed']}, expected {want}"
        cells.add((n, mode, pat))
    if len(cells) != len(rows) or len(rows) != 6 * max_n:
        return f"table {figure} printed {len(rows)} rows, expected {6 * max_n} distinct cells"
    return None
