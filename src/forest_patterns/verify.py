"""Named machine checks pitting closed forms against the counting engine.

Each check yields one row per (n, subject) pair so the CLI can print a
PASS/FAIL table.  All comparisons are exact.  A check makes one
``count_sweep`` call per statistic, which answers every n it needs.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterator

from .counting import (
    FORMULA_CLASSES,
    binom,
    catalan,
    check_budget,
    count_sweep,
    formula,
    stirling1,
)
from .forests import FamilyTag
from .generate import count_forests
from .perms import Pattern, PatternMode, Permutation, complement, pattern


@dataclass(frozen=True)
class CheckRow:
    check: str
    n: int
    subject: str
    expected: int
    computed: int

    @property
    def ok(self) -> bool:
        return self.expected == self.computed


def _patterns(words: tuple[int, ...], mode=PatternMode.CLASSICAL) -> list[Pattern]:
    return [pattern(w, mode) for w in words]


def _unordered(
    max_n: int, sets: list[list[Pattern]], jobs: int, statistic: str | None = None
) -> list[list[dict[int, int]]]:
    """Unordered avoider weights of each set for n = 0..max_n, by statistic."""
    return count_sweep({FamilyTag.UNORDERED: max_n}, sets, statistic, jobs=jobs)[
        FamilyTag.UNORDERED
    ]


def _formula_check(name: str):
    def run(max_n: int, jobs: int) -> Iterator[CheckRow]:
        classes = FORMULA_CLASSES[name]
        swept = _unordered(max_n, [_patterns(ws) for ws in classes], jobs)
        for n in range(1, max_n + 1):
            expected = formula(name, n)
            for ws, by_n in zip(classes, swept):
                subject = "{" + ",".join(map(str, ws)) + "}"
                yield CheckRow(name, n, subject, expected, by_n[n].get(0, 0))

    return run


def _check_refined_unimodal(max_n: int, jobs: int) -> Iterator[CheckRow]:
    # Unimodal forests with exactly k top-down maxima number k!c(n,k); with
    # exactly m trees, sum over k >= m of c(k,m)c(n,k).
    [by_tdm] = _unordered(max_n, [_patterns((213, 312))], jobs, "tdm")
    [by_trees] = _unordered(max_n, [_patterns((213, 312))], jobs, "trees")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            yield CheckRow(
                "refined_unimodal", n, f"tdm={k}",
                factorial(k) * stirling1(n, k), by_tdm[n].get(k, 0),
            )
        for m in range(1, n + 1):
            expected = sum(stirling1(k, m) * stirling1(n, k) for k in range(m, n + 1))
            yield CheckRow("refined_unimodal", n, f"trees={m}", expected, by_trees[n].get(m, 0))


def _check_refined_uni132(max_n: int, jobs: int) -> Iterator[CheckRow]:
    # Forests avoiding {312, 213, 132} with exactly k trees number
    # (n!/k!) C(n-1, k-1).
    [by_trees] = _unordered(max_n, [_patterns((312, 213, 132))], jobs, "trees")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            expected = factorial(n) // factorial(k) * binom(n - 1, k - 1)
            yield CheckRow("refined_uni132", n, f"trees={k}", expected, by_trees[n].get(k, 0))


def _check_recurrence_trees(max_n: int, jobs: int) -> Iterator[CheckRow]:
    # Single trees avoiding {213, 312, 231} satisfy T(n) = sum (r-1)! F(n-r).
    [by_trees] = _unordered(max_n, [_patterns((213, 312, 231))], jobs, "trees")
    for n in range(1, max_n + 1):
        yield CheckRow(
            "uni231_trees", n, "trees=1", formula("uni231_trees", n), by_trees[n].get(1, 0)
        )


def _check_wilf(max_n: int, jobs: int) -> Iterator[CheckRow]:
    # 321 and 312 are forest-Wilf-equivalent (and so are their complements).
    a, b = _unordered(max_n, [[pattern(321)], [pattern(312)]], jobs)
    for n in range(1, max_n + 1):
        yield CheckRow("wilf_321_312", n, "f(321)=f(312)", a[n].get(0, 0), b[n].get(0, 0))


def _check_increasing(max_n: int, jobs: int) -> Iterator[CheckRow]:
    inc, dec = _unordered(max_n, [[pattern(21)], [pattern(12)]], jobs)
    for n in range(1, max_n + 1):
        yield CheckRow("increasing", n, "f(21)=n!", factorial(n), inc[n].get(0, 0))
        yield CheckRow("increasing", n, "f(12)=n!", factorial(n), dec[n].get(0, 0))


def _complement_words(words: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for w in words:
        digits = [int(c) for c in str(w)]
        comp = complement(Permutation(digits)).word
        out.append(int("".join(map(str, comp))))
    return tuple(out)


_DUALITY_SETS: list[tuple[int, ...]] = [
    (321,), (231,), (132,),
    *FORMULA_CLASSES["unimodal"],
    *FORMULA_CLASSES["uni123"],
    *FORMULA_CLASSES["uni132"],
    *FORMULA_CLASSES["onedescent"],
]


def _duality_caps(max_n: int) -> dict[FamilyTag, int]:
    return {
        family: min(max_n, 6) if family is FamilyTag.ORDERED else max_n for family in FamilyTag
    }


def _check_duality(max_n: int, jobs: int) -> Iterator[CheckRow]:
    # Complementing every pattern in a set preserves the avoider count,
    # in every family and in both modes.
    sets = []
    meta = []
    for words in _DUALITY_SETS:
        comp = _complement_words(words)
        for mode in (PatternMode.CLASSICAL, PatternMode.CONSECUTIVE):
            sets.append(_patterns(words, mode))
            sets.append(_patterns(comp, mode))
            meta.append((words, comp, mode))
    caps = _duality_caps(max_n)
    swept = count_sweep(caps, sets, jobs=jobs)
    for family, cap in caps.items():
        for n in range(1, cap + 1):
            for i, (words, comp, mode) in enumerate(meta):
                a = swept[family][2 * i][n].get(0, 0)
                b = swept[family][2 * i + 1][n].get(0, 0)
                subject = (
                    f"{family.value}:{'!' if mode is PatternMode.CONSECUTIVE else ''}"
                    f"{{{','.join(map(str, words))}}}~{{{','.join(map(str, comp))}}}"
                )
                yield CheckRow("duality", n, subject, a, b)


def _check_totals(max_n: int, jobs: int) -> Iterator[CheckRow]:
    for n in range(1, min(max_n, 8) + 1):
        yield CheckRow(
            "totals", n, "unordered=(n+1)^(n-1)",
            (n + 1) ** (n - 1), count_forests(n, FamilyTag.UNORDERED),
        )
    for n in range(1, min(max_n, 6) + 1):
        yield CheckRow(
            "totals", n, "ordered=n!*catalan(n)",
            factorial(n) * catalan(n), count_forests(n, FamilyTag.ORDERED),
        )


CHECKS = {
    **{name: _formula_check(name) for name in FORMULA_CLASSES},
    "uni231_trees": _check_recurrence_trees,
    "refined_unimodal": _check_refined_unimodal,
    "refined_uni132": _check_refined_uni132,
    "wilf_321_312": _check_wilf,
    "increasing": _check_increasing,
    "duality": _check_duality,
    "totals": _check_totals,
}


def _reach(name: str, max_n: int) -> dict[FamilyTag, int]:
    """The largest n each family is counted to by check ``name``."""
    if name == "duality":
        return _duality_caps(max_n)
    return {} if name == "totals" else {FamilyTag.UNORDERED: max_n}


def run_check(name: str, max_n: int, jobs: int = 1) -> list[CheckRow]:
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    if name != "all" and name not in CHECKS:
        raise KeyError(
            f"unknown theorem {name!r}; valid: {', '.join(sorted(CHECKS) + ['all'])}"
        )
    names = list(CHECKS) if name == "all" else [name]
    # Every budget first, so that no check counts before a later one fails.
    for key in names:
        for family, n in _reach(key, max_n).items():
            check_budget(n, family)
    rows: list[CheckRow] = []
    for key in names:
        rows.extend(CHECKS[key](max_n, jobs))
    return rows
