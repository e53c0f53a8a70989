"""Named machine checks pitting closed forms against the counting engine.

Each check yields one row per (n, subject) pair so the CLI can print a
PASS/FAIL table.  All comparisons are exact.  A check declares what it
counts: the pattern sets it reads under each statistic, and the families
it reads them in, each at every n up to ``max_n``; the budgets alone
limit n.  ``run_check`` plans the counts of every check it runs before
any counting: it takes their union, so each pattern set is counted once
per statistic in every family it is needed in, checks the budget of
every family it counts, and makes one ``count_sweep`` per statistic and
family set.  The checks then read their rows from the shared counts,
which are dropped when ``run_check`` returns.  ``totals`` counts the
empty pattern set, that is every forest, through the same recursion.
``run_check(name, max_n)`` takes nothing else: the rows depend on the
check and ``max_n`` alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterable, Iterator, Sequence

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


# ``count(patterns, statistic=None, family=UNORDERED)``: the avoider weight
# of a planned set by statistic value (0 when none is asked for), for
# every n up to ``max_n``.
Count = Callable[..., list[dict[int, int]]]


@dataclass(frozen=True)
class Check:
    """A named check: its rows, read from the planned counts; the
    (statistic, pattern set) pairs those rows read; and the families it
    reads every pair in, each at every n up to ``max_n``."""

    rows: Callable[[int, Count], Iterable[CheckRow]]
    sets: tuple[tuple[str | None, Sequence[Pattern]], ...]
    families: tuple[FamilyTag, ...] = (FamilyTag.UNORDERED,)


def _patterns(words: tuple[int, ...], mode=PatternMode.CLASSICAL) -> list[Pattern]:
    return [pattern(w, mode) for w in words]


def _formula_check(name: str) -> Check:
    classes = FORMULA_CLASSES[name]
    sets = [_patterns(ws) for ws in classes]

    def rows(max_n: int, count: Count) -> Iterator[CheckRow]:
        swept = [count(ps) for ps in sets]
        for n in range(1, max_n + 1):
            expected = formula(name, n)
            for ws, by_n in zip(classes, swept):
                subject = "{" + ",".join(map(str, ws)) + "}"
                yield CheckRow(name, n, subject, expected, by_n[n].get(0, 0))

    return Check(rows, tuple((None, ps) for ps in sets))


_UNIMODAL = _patterns((213, 312))
_UNI132 = _patterns((312, 213, 132))
_UNI231 = _patterns((213, 312, 231))


def _check_refined_unimodal(max_n: int, count: Count) -> Iterator[CheckRow]:
    # Unimodal forests with exactly k top-down maxima number k!c(n,k); with
    # exactly m trees, sum over k >= m of c(k,m)c(n,k).
    by_tdm = count(_UNIMODAL, "tdm")
    by_trees = count(_UNIMODAL, "trees")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            yield CheckRow(
                "refined_unimodal", n, f"tdm={k}",
                factorial(k) * stirling1(n, k), by_tdm[n].get(k, 0),
            )
        for m in range(1, n + 1):
            expected = sum(stirling1(k, m) * stirling1(n, k) for k in range(m, n + 1))
            yield CheckRow("refined_unimodal", n, f"trees={m}", expected, by_trees[n].get(m, 0))


def _check_refined_uni132(max_n: int, count: Count) -> Iterator[CheckRow]:
    # Forests avoiding {312, 213, 132} with exactly k trees number
    # (n!/k!) C(n-1, k-1).
    by_trees = count(_UNI132, "trees")
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            expected = factorial(n) // factorial(k) * binom(n - 1, k - 1)
            yield CheckRow("refined_uni132", n, f"trees={k}", expected, by_trees[n].get(k, 0))


def _check_recurrence_trees(max_n: int, count: Count) -> Iterator[CheckRow]:
    # Single trees avoiding {213, 312, 231} satisfy T(n) = sum (r-1)! F(n-r).
    by_trees = count(_UNI231, "trees")
    for n in range(1, max_n + 1):
        yield CheckRow(
            "uni231_trees", n, "trees=1", formula("uni231_trees", n), by_trees[n].get(1, 0)
        )


_WILF = ([pattern(321)], [pattern(312)])


def _check_wilf(max_n: int, count: Count) -> Iterator[CheckRow]:
    # 321 and 312 are forest-Wilf-equivalent (and so are their complements).
    a, b = (count(ps) for ps in _WILF)
    for n in range(1, max_n + 1):
        yield CheckRow("wilf_321_312", n, "f(321)=f(312)", a[n].get(0, 0), b[n].get(0, 0))


_INCREASING = ([pattern(21)], [pattern(12)])


def _check_increasing(max_n: int, count: Count) -> Iterator[CheckRow]:
    inc, dec = (count(ps) for ps in _INCREASING)
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

# Each duality row compares a set with its complement in one mode:
# (subject, the set, its complement).
_DUALITY_PAIRS = [
    (
        f"{'!' if mode is PatternMode.CONSECUTIVE else ''}"
        f"{{{','.join(map(str, words))}}}~{{{','.join(map(str, comp))}}}",
        _patterns(words, mode),
        _patterns(comp, mode),
    )
    for words in _DUALITY_SETS
    for comp in [_complement_words(words)]
    for mode in (PatternMode.CLASSICAL, PatternMode.CONSECUTIVE)
]


def _check_duality(max_n: int, count: Count) -> Iterator[CheckRow]:
    # Complementing every pattern in a set preserves the avoider count,
    # in every family and in both modes.
    for family in FamilyTag:
        swept = [
            (subject, count(ps, family=family), count(comp, family=family))
            for subject, ps, comp in _DUALITY_PAIRS
        ]
        for n in range(1, max_n + 1):
            for subject, a, b in swept:
                yield CheckRow(
                    "duality", n, f"{family.value}:{subject}", a[n].get(0, 0), b[n].get(0, 0)
                )


# (family, subject, the number of forests on [n] in the family)
_TOTALS = (
    (FamilyTag.UNORDERED, "unordered=(n+1)^(n-1)", lambda n: (n + 1) ** (n - 1)),
    (FamilyTag.ORDERED, "ordered=n!*catalan(n)", lambda n: factorial(n) * catalan(n)),
)


def _check_totals(max_n: int, count: Count) -> Iterator[CheckRow]:
    # The empty pattern set: every forest.
    for family, subject, size in _TOTALS:
        every = count([], family=family)
        for n in range(1, max_n + 1):
            yield CheckRow("totals", n, subject, size(n), every[n].get(0, 0))


CHECKS: dict[str, Check] = {
    **{name: _formula_check(name) for name in FORMULA_CLASSES},
    "uni231_trees": Check(_check_recurrence_trees, (("trees", _UNI231),)),
    "refined_unimodal": Check(_check_refined_unimodal, (("tdm", _UNIMODAL), ("trees", _UNIMODAL))),
    "refined_uni132": Check(_check_refined_uni132, (("trees", _UNI132),)),
    "wilf_321_312": Check(_check_wilf, tuple((None, ps) for ps in _WILF)),
    "increasing": Check(_check_increasing, tuple((None, ps) for ps in _INCREASING)),
    "duality": Check(
        _check_duality,
        tuple((None, ps) for _, *pair in _DUALITY_PAIRS for ps in pair),
        tuple(FamilyTag),
    ),
    "totals": Check(_check_totals, ((None, []),), tuple(family for family, *_ in _TOTALS)),
}


def run_check(name: str, max_n: int) -> list[CheckRow]:
    """The rows of check ``name`` (or of every check, for ``"all"``) for
    n up to ``max_n``."""
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    if name != "all" and name not in CHECKS:
        raise KeyError(
            f"unknown theorem {name!r}; valid: {', '.join(sorted(CHECKS) + ['all'])}"
        )
    checks = list(CHECKS.values()) if name == "all" else [CHECKS[name]]
    # The plan: the families of each (statistic, atom set).
    plan: dict[tuple[str | None, frozenset[Pattern]], set[FamilyTag]] = {}
    for check in checks:
        for statistic, patterns in check.sets:
            plan.setdefault((statistic, frozenset(patterns)), set()).update(check.families)
    # Every budget first, so that no set is counted before a later one fails.
    planned = set().union(*plan.values())
    for family in FamilyTag:
        if family in planned:
            check_budget(max_n, family)
    # One sweep per statistic and family set, so that the families of a
    # set share its path memos.
    groups: dict[tuple, list[frozenset[Pattern]]] = {}
    for (statistic, atoms), families in plan.items():
        key = tuple(family for family in FamilyTag if family in families)
        groups.setdefault((statistic, key), []).append(atoms)
    counted: dict[tuple[str | None, frozenset[Pattern]], dict[FamilyTag, list]] = {}
    for (statistic, families), sets in groups.items():
        caps = dict.fromkeys(families, max_n)
        swept = count_sweep(caps, [list(atoms) for atoms in sets], statistic)
        for i, atoms in enumerate(sets):
            counted[statistic, atoms] = {family: swept[family][i] for family in families}

    def count(patterns, statistic=None, family=FamilyTag.UNORDERED):
        return counted[statistic, frozenset(patterns)][family]

    rows: list[CheckRow] = []
    for check in checks:
        rows.extend(check.rows(max_n, count))
    return rows
