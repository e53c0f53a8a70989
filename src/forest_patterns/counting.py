"""Exact counting: combinatorial number families, closed-form counts for
the forest avoidance classes, and the engine they are checked against.

Everything is exact integer arithmetic.  Formulas with rational
intermediate terms (1/k!, 1/2^l) are evaluated with ``fractions.Fraction``
and must come out integral; a non-integral result means the formula was
transcribed wrong and raises :class:`InternalNonInteger`.

Avoider counts come from the gap-state recursion (``_gap_count``).
Avoidance depends only on the relative order of each root path and of the
labels still to place, so a state is a standardized root path plus the
number of labels left in each gap between its values.  Splitting off one
tree (the first of an ordered forest, else the one that holds the
smallest label) gives a recursion over a few hundred to a few thousand
states per pattern set.  The forest of the state ``((), (n,))`` recurses
into ``((), (n - c,))``, so one recursion answers every n up to the
largest asked for; ``count_sweep`` runs one per pattern set and family.
The families of a sweep share the set's path memos (grown paths, prefix
occurrences, drop plans), which depend on the patterns alone, and every
set and family shares the split tables (``_GapTables``), which depend on
gap counts and the split rule alone; only rows of binomial coefficients
outlive a call.  One rule (``_needless``) decides what a path keeps, for
every mix of patterns and every statistic: the values of the undominated
prefix occurrences of the classical patterns, the last k - 1 values for
consecutive patterns of length up to k (when they are alone and tdm is
not asked for, just the longest suffix that starts like one), and, for
the top-down maxima, the path maximum.  A state with a label in a dead
gap, where the path grown by that label hits a classical atom, weighs
zero and is never expanded.  A binary forest is at most two trees, so
what is left after one tree is a single tree; an ordered forest splits at
its first tree, so no count of trees is kept.  Every value is indexed by
its statistic alone: the refined counts key each forest by its trees
(counted at the top level only) or its top-down maxima.  A value is one
int holding a polynomial in the statistic, one field of ``B`` bits per
statistic value; ``B`` fits the number of ordered forests on the largest
n, which bounds every weight, so fields never carry and one
multiplication convolves two values.  ``count_sweep`` is the one counting
entry: a plain count, a refined table, many sets and many n are all read
from its result.

The parent-vector tally (``_tally``) enumerates every forest instead,
through the unpruned ``iter_parent_vectors``; no command uses it, and
the tests keep it as the independent oracle of the recursion.  Listing
the avoiders themselves is generation, not counting: see
``generate.iter_parent_vectors`` with patterns and ``gen_avoiders``.
"""
from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, prod
from typing import Mapping, Sequence

from .forests import FamilyTag, _leaf_paths
from .generate import _child_order_weight, iter_parent_vectors
from .perms import Pattern, PatternMode, _std_word, pattern
from .perms import word_contains_classical, word_contains_consecutive


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


@lru_cache(maxsize=None)
def _binomials(n: int) -> tuple[int, ...]:
    return tuple(comb(n, k) for k in range(n + 1))


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
# the counting engine in the test suite.
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
    FamilyTag.ORDERED: 8,
}

_ENV_BUDGET = "FOREST_PATTERNS_BUDGET"


def budget_for(family: FamilyTag) -> int:
    """Budget for a family; the environment variable overrides either with
    a single integer for all families or ``unordered=9,binary=10,ordered=7``.
    A malformed or negative value raises ``ValueError``."""
    raw = os.environ.get(_ENV_BUDGET, "").strip()
    if not raw:
        return DEFAULT_BUDGETS[family]
    try:
        if "=" not in raw:
            table = dict.fromkeys(FamilyTag, int(raw))
        else:
            table = {}
            for item in raw.split(","):
                key, value = item.split("=", 1)
                table[FamilyTag(key.strip())] = int(value)
    except ValueError:
        raise ValueError(
            f"{_ENV_BUDGET}={raw!r} is malformed; expected N or "
            "unordered=N,binary=N,ordered=N"
        ) from None
    for value in table.values():
        if value < 0:
            raise ValueError(f"{_ENV_BUDGET}={raw!r} sets a negative budget {value}")
    return table.get(family, DEFAULT_BUDGETS[family])


def check_budget(n: int, family: FamilyTag, budget: int | None = None) -> None:
    """Raise :class:`BudgetExceeded` when ``n`` is above ``budget``, or above
    ``budget_for(family)`` when no budget is given; a negative budget
    raises ``ValueError``."""
    if budget is not None:
        if budget < 0:
            raise ValueError(f"budget must be nonnegative, got {budget}")
        if n > budget:
            raise BudgetExceeded(f"n={n} exceeds the given {family.value} budget {budget}")
        return
    cap = budget_for(family)
    if n > cap:
        raise BudgetExceeded(
            f"n={n} exceeds the {family.value} budget {cap}; set the "
            f"{_ENV_BUDGET} environment variable to raise it"
        )


# ---------------------------------------------------------------------------
# pattern atoms and root paths

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
    return _leaf_paths(children, children[0])


def _compile_sets(
    pattern_sets: Sequence[Sequence[Pattern]],
) -> tuple[tuple[AtomSpec, ...], list[int]]:
    atoms: list[AtomSpec] = []
    index: dict[AtomSpec, int] = {}
    set_masks = []
    for ps in pattern_sets:
        mask = 0
        for p in ps:
            spec = _atom_spec(p)
            if spec not in index:
                index[spec] = len(atoms)
                atoms.append(spec)
            mask |= 1 << index[spec]
        set_masks.append(mask)
    return tuple(atoms), set_masks


STATISTICS = ("tdm", "trees")


# ---------------------------------------------------------------------------
# the gap-state recursion (the counting engine)


# For each atom, the occurrences in a path of its proper prefixes, longest
# prefixes first: (prefix length, values used, for each later letter the
# gaps of its interval as a bit mask, and the intervals that need two or
# more later letters as (first gap, end gap, how many)).
Occurrences = list[list[tuple[int, tuple[int, ...], tuple[int, ...], tuple]]]


def _intervals(word: tuple[int, ...], a: int) -> list[int]:
    """For each letter of ``word`` after the first ``a``, how many of the
    first ``a`` letters are smaller: the interval between them it lies in."""
    return [sum(x < y for x in word[:a]) for y in word[a:]]


def _occurrences(path: tuple[int, ...], words: Sequence[tuple[int, ...]]) -> Occurrences:
    """The occurrences in ``path`` of every proper prefix of every atom."""
    top = len(path) + 1
    out = []
    for word in words:
        found = []
        for a in range(len(word) - 1, 0, -1):
            head = word[:a]
            order = [(x, y, head[x] < head[y]) for x in range(a) for y in range(x + 1, a)]
            need = _intervals(word, a)
            crowded = {j for j in need if need.count(j) > 1}
            for values in combinations(path, a):
                if order and any((values[x] < values[y]) != less for x, y, less in order):
                    continue
                bounds = (0, *sorted(values), top)
                found.append((
                    a,
                    values,
                    tuple([(1 << bounds[j + 1]) - (1 << bounds[j]) for j in need]),
                    tuple([(bounds[j], bounds[j + 1], need.count(j)) for j in crowded]),
                ))
        out.append(found)
    return out


def _crowding(words: Sequence[tuple[int, ...]]) -> int:
    """The most later letters of an atom that share one interval between
    the values of a prefix (at least 1): ``_needless`` reads gap counts
    only up to it."""
    most = 1
    for word in words:
        for a in range(1, len(word)):
            need = _intervals(word, a)
            most = max(most, *map(need.count, need))
    return most


def _needless(caps: tuple[int, ...], found: Occurrences, fixed: tuple[int, ...]) -> tuple[int, ...]:
    """The values of a path that no future needs, given its gap counts
    ``caps`` (capped at ``_crowding``), the ``_occurrences`` in it of the
    classical atoms' prefixes, and the values ``fixed`` that always stay.

    An occurrence of the first ``a`` letters of an atom is finished by
    later values with the pattern of the other letters, each from the
    gaps inside its interval between the occurrence's values; it is dead
    when those gaps hold too few labels.  A live occurrence of the first
    ``b >= a`` letters dominates it when, for each letter after the
    ``b``-th, its interval holds every nonempty gap of the other's: every
    future that finishes the dominated occurrence finishes the dominating
    one too.  Occurrences of one prefix with the same nonempty gaps form
    a class, and a tie between prefixes goes to the longer one.  Values
    are dropped while every undominated class keeps an occurrence whose
    values all stay; then no future changes whether the path hits a
    classical atom, with the gaps beside each dropped value merged.  That
    holds for any larger kept set, so the ``fixed`` values are never tried.
    """
    nonempty = sum(1 << i for i, c in enumerate(caps) if c)
    classes = []  # (prefix length, nonempty gaps per later letter, occurrences with exactly those)
    for prefixes in found:
        best: list[tuple[int, list[int], list[tuple[int, ...]]]] = []  # undominated
        for a, values, spans, crowded in prefixes:
            masks = [span & nonempty for span in spans]
            if not all(masks) or any(sum(caps[start:end]) < k for start, end, k in crowded):
                continue  # dead: an interval holds too few labels
            for b, other, same in best:
                if b == a and other == masks:
                    same.append(values)
                    break
                if not any(mine & ~theirs for theirs, mine in zip(other, masks[b - a :])):
                    break  # dominated
            else:
                best = [
                    (b, other, same)
                    for b, other, same in best
                    if b != a or any(theirs & ~mine for theirs, mine in zip(other, masks))
                ]
                best.append((a, masks, [values]))
        classes += best
    # Every undominated class needs one of its occurrences on the path;
    # drop values while that holds.
    kept = {v for _, _, same in classes for values in same for v in values}.union(fixed)
    must = {v for _, _, same in classes if len(same) == 1 for v in same[0]}.union(fixed)
    for v in sorted(kept - must):
        kept.discard(v)
        if not all(any(kept.issuperset(values) for values in same) for _, _, same in classes):
            kept.add(v)
    return tuple(v for v in range(1, len(caps)) if v not in kept)


def _drop_plan(path: tuple[int, ...], drop: tuple[int, ...]) -> tuple[tuple[int, ...], tuple]:
    """``path`` without the values ``drop``, restandardized, and the slices
    of its gaps that merge into one: the two beside each dropped value."""
    starts = [0] + [v for v in range(1, len(path) + 1) if v not in drop]
    slices = tuple(zip(starts, starts[1:] + [len(path) + 1]))
    return tuple(x - sum(d < x for d in drop) for x in path if x not in drop), slices


class _Memos:
    """Dicts named by ``__slots__``, all emptied by ``clear``."""

    __slots__ = ()

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, {})

    def clear(self) -> None:
        for name in self.__slots__:
            getattr(self, name).clear()


class _PathMemos(_Memos):
    """What the recursion learns from a root path alone: one ``grown``
    entry per path, with the path grown by a root in each gap (empty when
    it hits an atom) and the mask of its dead gaps (where it hits a
    classical atom), from one pass of containment tests; the occurrences
    in it of the classical atoms' prefixes; and its drop plan
    (``_drop_plan`` of the ``_needless`` values, empty when none are),
    keyed by the path and its capped gaps, or by the path alone when no
    atom is classical; each plan is ``built`` once per path and dropped
    values.  None of it depends on the family, so the families of one
    sweep share one instance per pattern set."""

    __slots__ = ("grown", "occurrences", "plans", "built")


class _Memo(dict):
    """A memo whose missing entry ``key`` is ``fill(*key)``, then kept."""

    def __missing__(self, key: tuple) -> int:
        out = self[key] = self.fill(*key)
        return out


class _GapTables(_Memos):
    """What the recursion computes from gap counts alone, built on demand
    and shared by every set and family of one sweep: the ``splits`` of a
    gap vector, keyed by the vector and the split rule.  Equal tuples are
    stored once, in ``tuples``."""

    __slots__ = ("splits", "tuples")

    def split(self, gaps: tuple[int, ...], first: bool) -> tuple:
        """For each way one tree fills the gaps: its ``counts``, the ways to
        choose its labels, and the labels left (None when none are), as
        three tuples.  The tree is the first one (``first``: any nonempty
        choice of labels) or the one holding the smallest label ``m``."""
        intern = self.tuples.setdefault
        low = -1 if first else next(i for i, size in enumerate(gaps) if size)  # m's gap
        # C(g, c) ways in a gap, C(g - 1, c - 1) in m's own: the free labels
        free = [size - (i == low) for i, size in enumerate(gaps)]
        tops = list(product(*[range(size - f, size + 1) for size, f in zip(gaps, free)]))
        # gaps - counts in the same order, up to the last (nothing left)
        rests = list(product(*[range(f, -1, -1) for f in free]))
        ways = list(map(prod, product(*map(_binomials, free))))
        if first:
            del tops[0], rests[0], ways[0]  # the empty tree
        del rests[-1]
        tops, rests = tuple(map(intern, tops, tops)), (*map(intern, rests, rests), None)
        out = self.splits[gaps, first] = (tops, tuple(ways), rests)
        return out


def _gap_count(
    max_n: int,
    family: FamilyTag,
    atoms: Sequence[AtomSpec],
    statistic: str | None,
    paths: _PathMemos,
    tables: _GapTables,
) -> list[dict[int, int]]:
    """Avoider weight on [n] of the forests whose root paths hit no atom,
    by statistic value (0 when none is asked for), for every n from 0 to
    ``max_n``: entry n holds only positive weights.

    A state ``(P, g)`` is a standardized root path ``P`` and the numbers
    ``g[i]`` of labels still to place between its i-th and (i+1)-th
    smallest values (gap 0 lies below them all, gap ``len(P)`` above).
    The forests of a state split into one tree and the forest of the
    others.  That tree takes ``c[i]`` labels from gap ``i``, its root ``r``
    is the (j+1)-th of them in some gap ``i`` (skipped when ``P·r``
    contains an atom), and the subtrees of the root form the forest of the
    state with path ``P·r`` and gap ``i`` split into ``j`` and
    ``c[i] - 1 - j``.  The others form ``(P, g - c)``.  An ordered forest
    is a sequence of trees, so it splits at its first tree, which takes
    any nonempty choice of labels, in ``C(g[i], c[i])`` ways per gap.  An
    unordered forest splits at the tree holding the smallest label ``m``,
    which takes ``C(g[i] - 1, c[i] - 1)`` ways in m's own gap instead; in
    a binary forest the others are at most one tree.

    A value is one nonnegative int, a polynomial in the statistic packed
    at ``2**B``: its field ``s``, the bits ``s·B`` to ``s·B + B - 1``,
    holds the weight at statistic value ``s``.  ``B`` is the bit length
    of ``max_n!·Catalan(max_n)``, the number of ordered forests on
    ``max_n`` labels, which no family exceeds.  Every weight and every
    partial sum of one counts distinct forests on at most ``max_n``
    labels, so it fits in its field and no field carries into the next.
    The empty forest is ``1``, a split adds ``ways * first * rest`` (a
    product of polynomials), and a tree that adds ``lift`` to the
    statistic is shifted left by ``lift·B``; only the result loop unpacks
    the fields.  Under tdm a tree whose root lies in
    the top gap adds one top-down maximum.  Under trees, ``forest`` and
    ``tree`` add their ``shift`` to every tree, and only the chain of
    top-level states ``((), (n,))`` takes ``shift = 1``, so deeper
    forests count at 0.  ``shift`` is part of the memo keys: a compressed
    path can become ``()`` below a vertex too.

    Gap ``i`` of ``P`` is dead when ``P`` grown by a label in it contains
    a classical atom.  Every label of that gap, at any depth, lies on a
    root path that holds that grown path as a subsequence, so a state
    with a nonempty dead gap has weight zero: ``tree`` never builds one.
    Only classical atoms mark a gap dead.  A consecutive atom that the
    grown path hits can miss every deeper label of the gap, since a
    vertex between the root and that label breaks the run.

    Entry n reads the state ``((), (n,))``; the recursion from the largest
    of them passes through all the others, so one call answers every n.
    The forest and tree memos (``_Memo``) live for one call.  The path
    memos ``paths`` may serve the calls for other families, and the gap
    ``tables``, which depend on no path or pattern, every call of a sweep.
    """
    binary = family is FamilyTag.UNORDERED_BINARY
    ordered = family is FamilyTag.ORDERED
    tdm = statistic == "tdm"
    bits = (factorial(max_n) * catalan(max_n)).bit_length()  # B: one field per statistic value
    # A path keeps what a future can use (``_needless``): what the classical
    # atoms need, the last k - 1 values (contiguous, so consecutive atoms are
    # read there alone; with no other atom and no tdm, just the longest suffix
    # that starts like one) and under tdm the maximum, which bounds the top gap.
    words = [word for word, consecutive in atoms if not consecutive]
    runs = [word for word, consecutive in atoms if consecutive]
    window = max(map(len, runs), default=1) - 1
    starts = set() if words or tdm else {_std_word(w[:j]) for w in runs for j in range(1, len(w))}
    cap = _crowding(words)
    grown, occurrences, plans, built = paths.grown, paths.occurrences, paths.plans, paths.built
    splits, intern = tables.splits, tables.tuples.setdefault
    forests, trees = _Memo(), _Memo()

    def below(path: tuple[int, ...], gaps: tuple[int, ...]) -> int:
        """Forests under a vertex, with its path compressed."""
        capped = tuple([g if g < cap else cap for g in gaps]) if words else gaps
        key = (path, capped) if words else path  # no classical atom: drops need the path alone
        plan = plans.get(key)
        if plan is None:
            found = occurrences.get(path)
            if found is None:
                found = occurrences[path] = _occurrences(path, words)
            keep = min(window, len(path))
            if starts:  # the longest suffix that starts like an atom
                keep = next((j for j in range(keep, 0, -1) if _std_word(path[-j:]) in starts), 0)
            fixed = path[len(path) - keep :] + ((len(path),) if tdm else ())
            drop = _needless(capped, found, fixed)
            plan = ()
            if drop:
                plan = built.get((path, drop))
                if plan is None:
                    plan = built[path, drop] = _drop_plan(path, drop)
            plans[(path, intern(capped, capped)) if words else path] = plan
        if plan:
            path, slices = plan
            gaps = tuple([sum(gaps[a:b]) for a, b in slices])
        return forests[path, gaps, 0] if any(gaps) else 1  # 1: the empty forest

    def grow(path: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The entry of ``path`` in ``grown``: the path grown by a root in
        each gap, ``()`` when that hits an atom, and the mask of the gaps
        where it hits a classical atom."""
        ups = []
        dead = 0
        for i in range(len(path) + 1):
            up = tuple(v + (v > i) for v in path) + (i + 1,)
            if any(word_contains_classical(up, w) for w in words):
                dead |= 1 << i
                up = ()
            elif any(word_contains_consecutive(up[-len(w) :], w) for w in runs):
                up = ()
            ups.append(up)
        out = grown[path] = (tuple(ups), dead)
        return out

    def tree(path: tuple[int, ...], counts: tuple[int, ...], shift: int) -> int:
        """Trees below ``path`` whose labels fill its gaps as ``counts``."""
        acc = 0
        ups = (grown.get(path) or grow(path))[0]
        nonempty = sum(1 << i for i, size in enumerate(counts) if size) if words else 0
        for i, size in enumerate(counts):
            up = ups[i]
            if not size or not up:
                continue
            lo, hi = 0, size  # the labels of gap i below the root: j in range(lo, hi)
            if words:
                dead = (grown.get(up) or grow(up))[1]
                if dead:
                    # gap i of ``path`` splits into gaps i and i + 1 of ``up``
                    others = (nonempty & ((1 << i) - 1)) | (nonempty >> (i + 1)) << (i + 2)
                    if dead & others:
                        continue
                    if dead >> i & 1:
                        hi = 1  # nothing below the root
                    if dead >> (i + 1) & 1:
                        lo = size - 1  # nothing above it
            lift = shift + 1 if tdm and i == len(path) else shift
            head, tail = counts[:i], counts[i + 1 :]
            subtrees = 0
            for j in range(lo, hi):
                subtrees += below(up, head + (j, size - 1 - j) + tail)
            acc += subtrees << lift * bits
        return acc

    def forest(path: tuple[int, ...], gaps: tuple[int, ...], shift: int) -> int:
        """Forests below ``path`` whose labels fill its gaps as ``gaps``."""
        acc = 0
        for counts, ways, left in zip(*(splits.get((gaps, ordered)) or tables.split(gaps, ordered))):
            first = trees[path, counts, shift]
            if first:
                acc += ways * first * (others[path, left, shift] if left else 1)
        return acc

    forests.fill, trees.fill = forest, tree
    others = trees if binary else forests  # a binary forest is at most two trees
    try:
        shift = 1 if statistic == "trees" else 0
        field = (1 << bits) - 1
        fields = range(max_n + 1)
        values = [forests[(), (m,), shift] if m else 1 for m in fields]
        return [{s: w for s in fields if (w := value >> s * bits & field)} for value in values]
    finally:
        forests.clear()
        trees.clear()


def count_sweep(
    caps: Mapping[FamilyTag, int],
    pattern_sets: Sequence[Sequence[Pattern]],
    statistic: str | None = None,
    budget: int | None = None,
) -> dict[FamilyTag, list[list[dict[int, int]]]]:
    """Avoider weight of each pattern set by statistic value (0 when none
    is asked for), in each family of ``caps`` for every n from 0 to its
    cap: ``out[family][i][n]`` for the i-th set.  That entry is the table
    refined by ``statistic``; with no statistic, its ``.get(0, 0)`` is the
    plain avoider count.  The empty set is avoided by every forest.

    The statistic, every n and every budget are checked before any
    counting; an n or budget that is not an ``int`` (or is a ``bool``)
    raises ``ValueError``.  Sets run one at a time, and sets with the same
    patterns run once: one recursion per family answers every n, the
    families share the set's path memos, and the memos are freed before
    the next set.  Every set and family shares the sweep's gap tables
    (``_GapTables``), which are freed when the sweep returns.
    """
    if statistic is not None and statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; valid: {STATISTICS}")
    for name, values in (("n", caps.values()), ("budget", () if budget is None else (budget,))):
        for value in values:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
    for n in caps.values():
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
    for family, n in caps.items():
        check_budget(n, family, budget)
    atoms, set_masks = _compile_sets(pattern_sets)
    out: dict[FamilyTag, list[list[dict[int, int]]]] = {family: [] for family in caps}
    done: dict[int, dict[FamilyTag, list[dict[int, int]]]] = {}
    paths, tables = _PathMemos(), _GapTables()
    try:
        for mask in set_masks:
            if mask not in done:
                paths.clear()
                chosen = [a for bit, a in enumerate(atoms) if mask >> bit & 1]
                done[mask] = {
                    family: _gap_count(n, family, chosen, statistic, paths, tables)
                    for family, n in caps.items()
                }
            for family in caps:
                out[family].append(done[mask][family])
    finally:
        paths.clear()
        tables.clear()
    return out


# ---------------------------------------------------------------------------
# the parent-vector tally (the independent oracle of the tests)


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


def _tally(
    n: int,
    family: FamilyTag,
    pattern_sets: Sequence[Sequence[Pattern]],
    statistic: str | None = None,
) -> list[dict[int, int]]:
    """Avoider weight of each pattern set, by statistic value, from one pass
    over every parent vector: each forest's weight is tallied under (mask of
    atoms hit, statistic value), with one memoized mask per leaf path, and
    each set sums the keys whose mask misses it.  The ordered family weights
    a vector by its child orders (avoidance never depends on them)."""
    atoms, set_masks = _compile_sets(pattern_sets)
    ordered = family is FamilyTag.ORDERED
    tally: dict[tuple[int, int], int] = {}
    cache: dict[tuple[int, ...], int] = {}
    for vec in iter_parent_vectors(n, binary=family is FamilyTag.UNORDERED_BINARY):
        paths = _leaf_paths_of_vector(n, vec)
        mask = 0
        for path in paths:
            m = cache.get(path)
            if m is None:
                m = cache[path] = _path_mask(path, atoms)
            mask |= m
        # A refined count has one pattern set holding every atom, so only
        # forests that hit no atom need their statistic.
        value = _statistic(statistic, vec, paths) if statistic and not mask else 0
        key = (mask, value)
        tally[key] = tally.get(key, 0) + (_child_order_weight(vec) if ordered else 1)
    totals: list[dict[int, int]] = [{} for _ in set_masks]
    for (mask, value), weight in tally.items():
        for sm, total in zip(set_masks, totals):
            if not mask & sm:
                total[value] = total.get(value, 0) + weight
    return totals


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


def table_rows(figure: str, max_n: int, budget: int | None = None):
    """Computed-vs-expected rows for one reference table.

    Returns a lazy stream of dicts with keys figure, family, n, pattern,
    mode, computed, expected, source.  An unknown figure or a ``max_n``
    below 1 raises here, before the stream is first advanced.
    """
    if figure not in REFERENCE_TABLES:
        raise KeyError(f"unknown table {figure!r}; valid: {sorted(REFERENCE_TABLES)}")
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    return _table_rows(figure, max_n, budget)


def _table_rows(figure: str, max_n: int, budget: int | None):
    ref = REFERENCE_TABLES[figure]
    family: FamilyTag = ref["family"]
    pattern_sets, meta = [], []
    for mode in ("classical", "consecutive"):
        for pat in TABLE_PATTERNS:
            word = pat if mode == "classical" else "!" + pat
            pattern_sets.append([pattern(word)])
            meta.append((pat, mode))
    swept = count_sweep({family: max_n}, pattern_sets, budget=budget)
    for n in range(1, max_n + 1):
        for (pat, mode), by_n in zip(meta, swept[family]):
            value = by_n[n].get(0, 0)
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
