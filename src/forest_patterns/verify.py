"""Named machine checks pitting closed forms against the counting engine.

Each check yields one row per (n, subject) pair so the CLI can print a
PASS/FAIL table.  All comparisons are exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterator

from .counting import (
    FORMULA_CLASSES,
    binom,
    catalan,
    formula,
    refined_table,
    stirling1,
    sweep_counts,
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


def _formula_check(name: str):
    def run(max_n: int, jobs: int) -> Iterator[CheckRow]:
        for n in range(1, max_n + 1):
            expected = formula(name, n)
            sets = [_patterns(ws) for ws in FORMULA_CLASSES[name]]
            computed = sweep_counts(n, FamilyTag.UNORDERED, sets, jobs=jobs)
            for ws, got in zip(FORMULA_CLASSES[name], computed):
                subject = "{" + ",".join(map(str, ws)) + "}"
                yield CheckRow(name, n, subject, expected, got)

    return run


def _check_refined_unimodal(max_n: int, jobs: int) -> Iterator[CheckRow]:
    # Unimodal forests with exactly k top-down maxima number k!c(n,k); with
    # exactly m trees, sum over k >= m of c(k,m)c(n,k).
    for n in range(1, max_n + 1):
        by_tdm = refined_table(n, FamilyTag.UNORDERED, _patterns((213, 312)), "tdm", jobs=jobs)
        for k in range(1, n + 1):
            yield CheckRow(
                "refined_unimodal", n, f"tdm={k}",
                factorial(k) * stirling1(n, k), by_tdm.get(k, 0),
            )
        by_trees = refined_table(n, FamilyTag.UNORDERED, _patterns((213, 312)), "trees", jobs=jobs)
        for m in range(1, n + 1):
            expected = sum(stirling1(k, m) * stirling1(n, k) for k in range(m, n + 1))
            yield CheckRow("refined_unimodal", n, f"trees={m}", expected, by_trees.get(m, 0))


def _check_refined_uni132(max_n: int, jobs: int) -> Iterator[CheckRow]:
    # Forests avoiding {312, 213, 132} with exactly k trees number
    # (n!/k!) C(n-1, k-1).
    for n in range(1, max_n + 1):
        by_trees = refined_table(
            n, FamilyTag.UNORDERED, _patterns((312, 213, 132)), "trees", jobs=jobs
        )
        for k in range(1, n + 1):
            expected = factorial(n) // factorial(k) * binom(n - 1, k - 1)
            yield CheckRow("refined_uni132", n, f"trees={k}", expected, by_trees.get(k, 0))


def _check_recurrence_trees(max_n: int, jobs: int) -> Iterator[CheckRow]:
    # Single trees avoiding {213, 312, 231} satisfy T(n) = sum (r-1)! F(n-r).
    for n in range(1, max_n + 1):
        by_trees = refined_table(
            n, FamilyTag.UNORDERED, _patterns((213, 312, 231)), "trees", jobs=jobs
        )
        yield CheckRow(
            "uni231_trees", n, "trees=1", formula("uni231_trees", n), by_trees.get(1, 0)
        )


def _check_wilf(max_n: int, jobs: int) -> Iterator[CheckRow]:
    # 321 and 312 are forest-Wilf-equivalent (and so are their complements).
    for n in range(1, max_n + 1):
        a, b = sweep_counts(
            n, FamilyTag.UNORDERED, [[pattern(321)], [pattern(312)]], jobs=jobs
        )
        yield CheckRow("wilf_321_312", n, "f(321)=f(312)", a, b)


def _check_increasing(max_n: int, jobs: int) -> Iterator[CheckRow]:
    for n in range(1, max_n + 1):
        inc, dec = sweep_counts(
            n, FamilyTag.UNORDERED, [[pattern(21)], [pattern(12)]], jobs=jobs
        )
        yield CheckRow("increasing", n, "f(21)=n!", factorial(n), inc)
        yield CheckRow("increasing", n, "f(12)=n!", factorial(n), dec)


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


def _check_duality(max_n: int, jobs: int) -> Iterator[CheckRow]:
    # Complementing every pattern in a set preserves the avoider count,
    # in every family and in both modes.
    for family in FamilyTag:
        cap = min(max_n, 6 if family is FamilyTag.ORDERED else max_n)
        for n in range(1, cap + 1):
            sets = []
            meta = []
            for words in _DUALITY_SETS:
                comp = _complement_words(words)
                for mode in (PatternMode.CLASSICAL, PatternMode.CONSECUTIVE):
                    sets.append(_patterns(words, mode))
                    sets.append(_patterns(comp, mode))
                    meta.append((words, comp, mode))
            counts = sweep_counts(n, family, sets, jobs=jobs)
            for i, (words, comp, mode) in enumerate(meta):
                a, b = counts[2 * i], counts[2 * i + 1]
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


def run_check(name: str, max_n: int, jobs: int = 1) -> list[CheckRow]:
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    if name == "all":
        rows: list[CheckRow] = []
        for key in CHECKS:
            rows.extend(CHECKS[key](max_n, jobs))
        return rows
    if name not in CHECKS:
        raise KeyError(
            f"unknown theorem {name!r}; valid: {', '.join(sorted(CHECKS) + ['all'])}"
        )
    return list(CHECKS[name](max_n, jobs))
