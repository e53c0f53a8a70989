"""Exact counting: combinatorial number families, closed-form counts for
the forest avoidance classes, and the brute-force engine they are checked
against.

Everything is exact integer arithmetic.  Formulas with rational
intermediate terms (1/k!, 1/2^l) are evaluated with ``fractions.Fraction``
and must come out integral; a non-integral result means the formula was
transcribed wrong and raises :class:`InternalNonInteger`.

The brute-force engine is one tally pass.  One worker per slice of parent
vectors (split by the first vertex's parent) enumerates its vectors,
memoizes pattern containment per root-to-leaf label path, and adds each
forest's weight under the key (mask of pattern atoms hit, statistic
value); plain counts are the value-0 case, and refined counts use the
number of trees or of top-down maxima.  Each pattern set then sums the
keys whose mask misses it, so sweeping many pattern sets over one family
costs a single enumeration pass.  Counting for the ordered family weights
each parent vector by the number of child-order arrangements (avoidance
never depends on child order).

The avoider stream ``gen_avoiders`` walks the same parent vectors with
the same memoized path masks, stops at the first leaf path that hits a
pattern, and builds forests (and, for the ordered family, child orders)
only for the vectors that avoid every pattern.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Iterator, Sequence

from .forests import FamilyTag, Forest, _leaf_paths
from .generate import _child_order_weight, _forests_of_vector, iter_parent_vectors
from .perms import Pattern, PatternMode, pattern, word_contains_classical, word_contains_consecutive


class BudgetExceeded(RuntimeError):
    """The requested n is above the configured enumeration budget."""


class InternalNonInteger(ArithmeticError):
    """A closed-form count with rational terms failed to be an integer."""


# ---------------------------------------------------------------------------
# number families


@lru_cache(maxsize=None)
def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind c(n, k): permutations
    of [n] with k cycles."""
    if n < 0 or k < 0:
        return 0
    if n == 0 or k == 0:
        return 1 if n == k else 0
    if k > n:
        return 0
    return stirling1(n - 1, k - 1) + (n - 1) * stirling1(n - 1, k)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind S(n, k): partitions of [n]
    into k nonempty blocks."""
    if n < 0 or k < 0:
        return 0
    if n == 0 or k == 0:
        return 1 if n == k else 0
    if k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def bell(n: int) -> int:
    """Bell numbers: B(0) = 1, B(n) = sum over k of S(n, k)."""
    return sum(stirling2(n, k) for k in range(n + 1)) if n else 1


def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# closed-form counts per avoidance class


def _count_unimodal(n: int) -> int:
    return sum(factorial(k) * stirling1(n, k) for k in range(1, n + 1))


def _count_uni123(n: int) -> int:
    return sum(bell(k) * stirling1(n, k) for k in range(1, n + 1))


def _count_uni321(n: int) -> int:
    return sum(factorial(k) * stirling2(n, k) for k in range(1, n + 1))


def _count_uni132(n: int) -> int:
    total = sum(
        Fraction(factorial(n), factorial(k)) * binom(n - 1, k - 1)
        for k in range(1, n + 1)
    )
    if total.denominator != 1:
        raise InternalNonInteger(f"uni132({n}) = {total}")
    return int(total)


def _count_onedescent(n: int) -> int:
    total = Fraction(1)
    for k in range(1, n + 1):
        for ell in range(1, k + 1):
            if ell + k > n:
                break
            total += Fraction(1, 2**ell) * binom(n - k - 1, ell - 1) * binom(k, ell)
    total *= factorial(n)
    if total.denominator != 1:
        raise InternalNonInteger(f"onedescent({n}) = {total}")
    return int(total)


@lru_cache(maxsize=None)
def _recurrence_forests(n: int) -> int:
    # F(0) = 1 makes the recurrence well-founded and reproduces the brute
    # counts F(1) = 1, F(2) = 3, F(3) = 13.
    if n == 0:
        return 1
    return sum(
        binom(n - 1, k - 1)
        * factorial(r - 1)
        * _recurrence_forests(n - k)
        * _recurrence_forests(k - r)
        for k in range(1, n + 1)
        for r in range(1, k + 1)
    )


def _recurrence_trees(n: int) -> int:
    return sum(factorial(r - 1) * _recurrence_forests(n - r) for r in range(1, n + 1))


FORMULAS = {
    "unimodal": _count_unimodal,
    "uni123": _count_uni123,
    "uni321": _count_uni321,
    "uni132": _count_uni132,
    "onedescent_plus": _count_uni132,  # same sum as uni132
    "onedescent": _count_onedescent,
    "uni231_recurrence": _recurrence_forests,
    "uni231_trees": _recurrence_trees,
}


def formula(name: str, n: int) -> int:
    """Closed-form (or recurrence) count for an avoidance class, by name."""
    if name not in FORMULAS:
        raise KeyError(f"unknown formula {name!r}; valid: {sorted(FORMULAS)}")
    if n < 1:
        raise ValueError("n must be at least 1")
    return FORMULAS[name](n)


# Which pattern sets each formula enumerates; every pair is checked against
# the brute-force engine in the test suite.
FORMULA_CLASSES: dict[str, list[tuple[int, ...]]] = {
    "unimodal": [(213, 312), (231, 132)],
    "uni123": [(213, 312, 123), (231, 132, 321)],
    "uni321": [(213, 312, 321), (231, 132, 123)],
    "uni132": [(312, 213, 132), (132, 231, 312)],
    "onedescent_plus": [(321, 132, 213), (123, 312, 231)],
    "uni231_recurrence": [(213, 312, 231), (231, 132, 213)],
    "onedescent": [(321, 2143, 3142), (123, 3412, 2413)],
}


# ---------------------------------------------------------------------------
# enumeration budgets

DEFAULT_BUDGETS = {
    FamilyTag.UNORDERED: 8,
    FamilyTag.UNORDERED_BINARY: 9,
    FamilyTag.ORDERED: 6,
}

_ENV_BUDGET = "FOREST_PATTERNS_BUDGET"


def budget_for(family: FamilyTag) -> int:
    """Budget for a family; the environment variable overrides either with
    a single integer for all families or ``unordered=9,binary=10,ordered=7``."""
    raw = os.environ.get(_ENV_BUDGET, "").strip()
    if not raw:
        return DEFAULT_BUDGETS[family]
    try:
        if "=" not in raw:
            return int(raw)
        table = {}
        for item in raw.split(","):
            key, value = item.split("=", 1)
            table[FamilyTag(key.strip())] = int(value)
    except ValueError:
        raise ValueError(
            f"{_ENV_BUDGET}={raw!r} is malformed; expected N or "
            "unordered=N,binary=N,ordered=N"
        ) from None
    return table.get(family, DEFAULT_BUDGETS[family])


def _check_budget(n: int, family: FamilyTag, budget: int | None) -> None:
    cap = budget if budget is not None else budget_for(family)
    if n > cap:
        raise BudgetExceeded(
            f"n={n} exceeds the {family.value} budget {cap}; raise it via the "
            f"budget argument or the {_ENV_BUDGET} environment variable"
        )


# ---------------------------------------------------------------------------
# brute-force sweep engine

AtomSpec = tuple[tuple[int, ...], bool]  # (pattern word, consecutive?)


def _atom_spec(p: Pattern) -> AtomSpec:
    return (p.perm.word, p.mode is PatternMode.CONSECUTIVE)


def _path_mask(path: tuple[int, ...], atoms: Sequence[AtomSpec]) -> int:
    mask = 0
    for bit, (word, consecutive) in enumerate(atoms):
        hit = (
            word_contains_consecutive(path, word)
            if consecutive
            else word_contains_classical(path, word)
        )
        if hit:
            mask |= 1 << bit
    return mask


def _leaf_paths_of_vector(n: int, vec: tuple[int, ...]) -> list[tuple[int, ...]]:
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for i, p in enumerate(vec):
        children[p].append(i + 1)
    return _leaf_paths(children)


STATISTICS = ("tdm", "trees")


def _statistic(statistic: str, vec: tuple[int, ...], paths) -> int:
    if statistic == "trees":
        return vec.count(0)
    tdm: set[int] = set()  # top-down maxima, collected along the leaf paths
    for path in paths:
        best = 0
        for v in path:
            if v > best:
                tdm.add(v)
                best = v
    return len(tdm)


def _tally_slice(args) -> dict[tuple[int, int], int]:
    """Forest weight of one generation slice, keyed by (mask of atoms hit,
    statistic value); the value is 0 when no statistic is asked for."""
    n, family_value, atoms, statistic, first_parent = args
    family = FamilyTag(family_value)
    binary = family is FamilyTag.UNORDERED_BINARY
    ordered = family is FamilyTag.ORDERED
    tally: dict[tuple[int, int], int] = {}
    cache: dict[tuple[int, ...], int] = {}
    for vec in iter_parent_vectors(n, binary=binary, first_parent=first_parent):
        paths = _leaf_paths_of_vector(n, vec)
        mask = 0
        for path in paths:
            m = cache.get(path)
            if m is None:
                m = _path_mask(path, atoms)
                cache[path] = m
            mask |= m
        # A refined count has one pattern set holding every atom, so only
        # forests that hit no atom need their statistic.
        value = _statistic(statistic, vec, paths) if statistic and not mask else 0
        key = (mask, value)
        tally[key] = tally.get(key, 0) + (_child_order_weight(vec) if ordered else 1)
    return tally


def _compile_sets(
    pattern_sets: Sequence[Sequence[Pattern]],
) -> tuple[tuple[AtomSpec, ...], list[int]]:
    atoms: list[AtomSpec] = []
    index: dict[AtomSpec, int] = {}
    set_masks = []
    for ps in pattern_sets:
        if not ps:
            raise ValueError("pattern sets must be nonempty")
        mask = 0
        for p in ps:
            spec = _atom_spec(p)
            if spec not in index:
                index[spec] = len(atoms)
                atoms.append(spec)
            mask |= 1 << index[spec]
        set_masks.append(mask)
    return tuple(atoms), set_masks


def gen_avoiders(n: int, family: FamilyTag, patterns: Iterable[Pattern]) -> Iterator[Forest]:
    """The forests of ``gen_forests(n, family)`` that avoid every pattern,
    in the same order.  Avoidance is decided on each parent vector, with
    one memoized atom mask per leaf path, and only avoiders become forests
    (for the ordered family, only avoiders get their child orders)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    atoms, _ = _compile_sets([list(patterns)])
    ordered = family is FamilyTag.ORDERED
    cache: dict[tuple[int, ...], int] = {}
    for vec in iter_parent_vectors(n, binary=family is FamilyTag.UNORDERED_BINARY):
        for path in _leaf_paths_of_vector(n, vec):
            mask = cache.get(path)
            if mask is None:
                mask = cache[path] = _path_mask(path, atoms)
            if mask:
                break
        else:
            yield from _forests_of_vector(n, vec, ordered)


def _tally(
    n: int,
    family: FamilyTag,
    pattern_sets: Sequence[Sequence[Pattern]],
    statistic: str | None,
    jobs: int,
    budget: int | None,
) -> list[dict[int, int]]:
    """Avoider weight of each pattern set, by statistic value, in one pass.

    The pass is partitioned by the first vertex's parent, so the result is
    a fixed sum of per-slice tallies and identical for any number of jobs.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    _check_budget(n, family, budget)
    atoms, set_masks = _compile_sets(pattern_sets)
    slices = [j for j in range(n + 1) if j != 1] if n else [None]
    arg_list = [(n, family.value, atoms, statistic, j) for j in slices]
    if jobs > 1 and len(slices) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(slices))) as pool:
            partials = list(pool.map(_tally_slice, arg_list))
    else:
        partials = [_tally_slice(a) for a in arg_list]
    totals: list[dict[int, int]] = [{} for _ in set_masks]
    for part in partials:
        for (mask, value), weight in part.items():
            for sm, total in zip(set_masks, totals):
                if not mask & sm:
                    total[value] = total.get(value, 0) + weight
    return totals


def sweep_counts(
    n: int,
    family: FamilyTag,
    pattern_sets: Sequence[Sequence[Pattern]],
    jobs: int = 1,
    budget: int | None = None,
) -> list[int]:
    """Avoider counts for many pattern sets in one enumeration pass,
    identical for any number of jobs."""
    return [t.get(0, 0) for t in _tally(n, family, pattern_sets, None, jobs, budget)]


def brute_count(
    n: int,
    family: FamilyTag,
    patterns: Iterable[Pattern],
    jobs: int = 1,
    budget: int | None = None,
) -> int:
    """Number of family forests on [n] avoiding every given pattern."""
    return sweep_counts(n, family, [list(patterns)], jobs=jobs, budget=budget)[0]


# -- refined counts ---------------------------------------------------------


def refined_table(
    n: int,
    family: FamilyTag,
    patterns: Iterable[Pattern],
    statistic: str,
    jobs: int = 1,
    budget: int | None = None,
) -> dict[int, int]:
    """Avoider counts refined by a statistic (``tdm`` or ``trees``)."""
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; valid: {STATISTICS}")
    return _tally(n, family, [list(patterns)], statistic, jobs, budget)[0]


def refined_count(
    n: int,
    family: FamilyTag,
    patterns: Iterable[Pattern],
    statistic: str,
    value: int,
    jobs: int = 1,
    budget: int | None = None,
) -> int:
    return refined_table(n, family, patterns, statistic, jobs=jobs, budget=budget).get(
        value, 0
    )


# ---------------------------------------------------------------------------
# bundled reference tables (ids 7, 12, 13): avoider counts for single
# length-3 patterns, classical and consecutive, n = 1..5.  ``None`` marks
# entries with no published value; the engine computes them anyway.

REFERENCE_TABLES: dict[str, dict] = {
    "7": {
        "family": FamilyTag.UNORDERED,
        "classical": {
            "321": (1, 3, 15, 104, 918),
            "231": (1, 3, 15, 104, 917),
            "132": (1, 3, 15, 104, 918),
        },
        "consecutive": {
            "321": (1, 3, 15, 107, 997),
            "231": (1, 3, 15, 106, 973),
            "132": (1, 3, 15, 106, 972),
        },
    },
    "12": {
        "family": FamilyTag.UNORDERED_BINARY,
        "classical": {
            "321": (1, 3, 14, 87, 668),
            "231": (1, 3, 14, 87, 667),
            "132": (1, 3, 14, 87, 668),
        },
        "consecutive": {
            "321": (1, 3, 14, 90, 747),
            "231": (1, 3, 14, 89, 723),
            "132": (1, 3, 14, 89, 722),
        },
    },
    "13": {
        "family": FamilyTag.ORDERED,
        "classical": {
            "321": (1, 4, 29, 304, 4158),
            "231": (1, 4, 29, 304, 4156),
            "132": (1, 4, 29, 304, 4158),
        },
        "consecutive": {
            "321": (1, 4, 29, 307, None),
            "231": (1, 4, 29, 306, None),
            "132": (1, 4, 29, 306, None),
        },
    },
}

TABLE_PATTERNS = ("321", "231", "132")


def table_rows(figure: str, max_n: int, jobs: int = 1, budget: int | None = None):
    """Computed-vs-expected rows for one reference table.

    Yields dicts with keys figure, family, n, pattern, mode, computed,
    expected, source.
    """
    if figure not in REFERENCE_TABLES:
        raise KeyError(f"unknown table {figure!r}; valid: {sorted(REFERENCE_TABLES)}")
    ref = REFERENCE_TABLES[figure]
    family: FamilyTag = ref["family"]
    _check_budget(max_n, family, budget)
    pattern_sets = []
    meta = []
    for mode in ("classical", "consecutive"):
        for pat in TABLE_PATTERNS:
            word = pat if mode == "classical" else "!" + pat
            pattern_sets.append([pattern(word)])
            meta.append((pat, mode))
    for n in range(1, max_n + 1):
        computed = sweep_counts(n, family, pattern_sets, jobs=jobs, budget=budget)
        for (pat, mode), value in zip(meta, computed):
            expected_row = ref[mode][pat]
            expected = expected_row[n - 1] if n - 1 < len(expected_row) else None
            yield {
                "figure": figure,
                "family": family.value,
                "n": n,
                "pattern": pat,
                "mode": mode,
                "computed": value,
                "expected": expected,
                "source": "computed",
            }
