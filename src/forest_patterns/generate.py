"""Exhaustive, deterministic generation of forests and partition-like objects.

All streams are lazy, duplicate-free, and emit objects in a fixed order, so
two runs produce identical sequences.  Forests are enumerated directly as
acyclic parent vectors in lexicographic order; the parent vector is the
canonical form for unordered forests, so no isomorphism deduplication is
ever needed.  Ordered (plane) forests extend each parent vector with every
combination of child orders.  ``iter_parent_vectors`` is the one walk:
given patterns, it cuts each branch at the first partial root path that
hits one, so ``gen_avoiders`` (and ``enumerate --avoid``) generates only
the avoiders, in the order of the full stream.

Cardinalities (used as oracles by the test suite):

* unordered forests on [n]: (n+1)^(n-1)
* ordered forests on [n]: n! * Catalan(n)
* set partitions: Bell(n); ordered set partitions: sum k! S(n,k)
* ordered cycle decompositions: sum k! c(n,k)
* partitioned cycle decompositions: sum Bell(k) c(n,k)
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Iterator, Sequence

from .forests import FamilyTag, Forest, _leaf_paths
from .perms import CycleDecomposition, Pattern, word_contains


# ---------------------------------------------------------------------------
# partition-like domain objects


def _check_disjoint_blocks(blocks: Sequence[Sequence[int]]) -> None:
    flat = [x for b in blocks for x in b]
    if len(set(flat)) != len(flat):
        raise ValueError(f"blocks must be disjoint: {blocks!r}")
    if any(len(b) == 0 for b in blocks):
        raise ValueError("blocks must be nonempty")


@dataclass(frozen=True)
class _Blocks:
    """Support and text form of the partitions stored as ``blocks``."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(x for b in self.blocks for x in b))

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


@dataclass(frozen=True)
class SetPartition(_Blocks):
    """Disjoint nonempty sets; canonical form sorts blocks by minimum."""

    def __init__(self, blocks: Iterable[Iterable[int]]):
        bl = [tuple(sorted(b)) for b in blocks]
        _check_disjoint_blocks(bl)
        bl.sort(key=lambda b: b[0])
        object.__setattr__(self, "blocks", tuple(bl))


@dataclass(frozen=True)
class OrderedSetPartition(_Blocks):
    """Disjoint nonempty sets whose order matters; sets sorted internally."""

    def __init__(self, blocks: Iterable[Iterable[int]]):
        bl = [tuple(sorted(b)) for b in blocks]
        _check_disjoint_blocks(bl)
        object.__setattr__(self, "blocks", tuple(bl))


def _canonical_up_to_reverse(block: tuple[int, ...]) -> tuple[int, ...]:
    # Identify a list with its reversal: store the one where the smallest
    # element sits to the right of the second smallest.
    if len(block) < 2:
        return block
    lo1 = block.index(min(block))
    rest = min(x for x in block if x != block[lo1])
    return block if block.index(rest) < lo1 else block[::-1]


@dataclass(frozen=True)
class ListPartition(_Blocks):
    """A partition whose blocks are internally ordered lists.

    ``ordered_blocks`` makes the block sequence significant (otherwise
    blocks are stored sorted by minimum).  ``up_to_reverse`` identifies
    each block with its reversal and stores the canonical representative.
    """

    ordered_blocks: bool = False
    up_to_reverse: bool = False

    def __init__(
        self,
        blocks: Iterable[Iterable[int]],
        ordered_blocks: bool = False,
        up_to_reverse: bool = False,
    ):
        bl = [tuple(b) for b in blocks]
        _check_disjoint_blocks(bl)
        if up_to_reverse:
            bl = [_canonical_up_to_reverse(b) for b in bl]
        if not ordered_blocks:
            bl.sort(key=min)
        object.__setattr__(self, "blocks", tuple(bl))
        object.__setattr__(self, "ordered_blocks", ordered_blocks)
        object.__setattr__(self, "up_to_reverse", up_to_reverse)


@dataclass(frozen=True)
class Composition:
    """Positive integer parts with a significant order."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        p = tuple(parts)
        if any(x < 1 for x in p):
            raise ValueError(f"parts must be positive: {p!r}")
        object.__setattr__(self, "parts", p)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return ",".join(map(str, self.parts))


# ---------------------------------------------------------------------------
# forest enumeration


def iter_parent_vectors(
    n: int, binary: bool = False, patterns: Iterable[Pattern] = ()
) -> Iterator[tuple[int, ...]]:
    """All acyclic parent vectors (p_1, ..., p_n) in lexicographic order,
    or, given ``patterns``, those whose forests avoid every pattern, in
    the same order.  Child orders play no part: an ordered forest avoids
    the patterns iff its vector does.

    ``binary`` caps every vertex, including the virtual root, at two
    children.

    With patterns, a branch is cut at the first chain that hits one.  When
    vertex ``i`` takes a parent, the labels from each leaf hanging below
    ``i``, up through ``i`` to the root or to the first ancestor that has
    no parent yet, form a factor of every later root path through that
    leaf, so a hit (classical or consecutive) rules out every completion.
    Each root path is checked whole when its largest label takes a
    parent, so the vectors that survive are exactly the avoiders.  Chain
    hits are memoized until the stream ends.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    patterns = tuple(patterns)
    parents = [0] * (n + 1)
    children: list[list[int]] = [[] for _ in range(n + 1)]  # among vertices with a parent
    hits: dict[tuple[int, ...], bool] = {}

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        below = _leaf_paths(children, (i,)) if patterns else ()
        for j in range(n + 1):
            if j == i or (binary and len(children[j]) >= 2):
                continue
            w = j
            while 0 < w < i:
                w = parents[w]
            if w == i:  # assigning i -> j would close a cycle
                continue
            if below:
                up = []  # from j up to the root or to the first ancestor with no parent yet
                v = j
                while v != w:
                    up.append(v)
                    v = parents[v]
                if w:
                    up.append(w)
                top = tuple(reversed(up))
                for chain in below:
                    chain = top + chain
                    hit = hits.get(chain)
                    if hit is None:
                        hit = hits[chain] = any(word_contains(chain, p) for p in patterns)
                    if hit:
                        break
                if hit:
                    continue
            parents[i] = j
            if i == n:
                yield tuple(parents[1:])
                continue
            children[j].append(i)
            yield from rec(i + 1)
            children[j].pop()

    try:
        yield from rec(1)
    finally:
        hits.clear()


def _child_orders(n: int, vec: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every combination of child orders of an acyclic parent vector on
    [n], as the orders of vertices 0..n: lexicographically by the orders
    of vertex 0, then of vertex 1, and so on, each an arrangement of the
    ascending child list."""
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for i, p in enumerate(vec, 1):
        children[p].append(i)
    return itertools.product(*(list(itertools.permutations(kids)) for kids in children))


def _family_forests(n: int, family: FamilyTag, patterns: tuple[Pattern, ...]) -> Iterator[Forest]:
    """The forests of the vectors ``iter_parent_vectors`` walks for the
    family, for the ordered family one per combination of child orders."""
    ordered = family is FamilyTag.ORDERED
    for vec in iter_parent_vectors(n, family is FamilyTag.UNORDERED_BINARY, patterns):
        base = Forest(dict(zip(range(1, n + 1), vec)))
        if not ordered:
            yield base
            continue
        for combo in _child_orders(n, vec):
            yield Forest(base.parent, dict(enumerate(combo)))


def gen_forests(n: int, family: FamilyTag) -> Iterator[Forest]:
    """Every forest on [n] in the family, exactly once, lexicographically
    by parent vector (then by child orders for the ordered family)."""
    yield from _family_forests(n, family, ())


def gen_avoiders(n: int, family: FamilyTag, patterns: Iterable[Pattern]) -> Iterator[Forest]:
    """The forests of ``gen_forests(n, family)`` that avoid every pattern,
    in the same order; only those are generated."""
    patterns = tuple(patterns)
    if n >= 0 and not patterns:  # a negative n is the walk's error, and comes first
        raise ValueError("pattern sets must be nonempty")
    yield from _family_forests(n, family, patterns)


def _child_order_weight(vec: Sequence[int]) -> int:
    """Number of child orders of a parent vector: the product of the
    factorials of the child counts, the virtual root's included."""
    counts = [0] * (len(vec) + 1)
    for p in vec:
        counts[p] += 1
    weight = 1
    for c in counts:
        if c > 1:
            weight *= factorial(c)
    return weight


def count_forests(n: int, family: FamilyTag) -> int:
    """Number of family forests on [n], by running the same enumeration
    without materializing objects (ordered forests are counted by
    multiplying each parent vector by its child-order arrangements).  No
    command uses it; the tests keep it as the oracle of the family sizes."""
    if family is FamilyTag.ORDERED:
        return sum(_child_order_weight(vec) for vec in iter_parent_vectors(n))
    return sum(1 for _ in iter_parent_vectors(n, binary=family is FamilyTag.UNORDERED_BINARY))


def satisfies_family(f: Forest, family: FamilyTag) -> bool:
    if family is FamilyTag.ORDERED:
        return f.is_ordered()
    if f.is_ordered():
        return False
    if family is FamilyTag.UNORDERED_BINARY:
        return all(len(f.children(v)) <= 2 for v in (0,) + f.labels)
    return True


# ---------------------------------------------------------------------------
# partition streams


def _set_partitions(n: int) -> Iterator[list[tuple[int, ...]]]:
    """Set partitions of [n] as ascending blocks ordered by minimum, in
    restricted-growth order: each element joins every open block in turn,
    then opens a new one."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    blocks: list[list[int]] = []

    def rec(v: int) -> Iterator[list[tuple[int, ...]]]:
        if v > n:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(v)
            yield from rec(v + 1)
            b.pop()
        blocks.append([v])
        yield from rec(v + 1)
        blocks.pop()

    yield from rec(1)


def gen_set_partitions(n: int) -> Iterator[SetPartition]:
    """All Bell(n) set partitions of [n], blocks sorted by minimum."""
    for blocks in _set_partitions(n):
        yield SetPartition(blocks)


def gen_ordered_set_partitions(n: int) -> Iterator[OrderedSetPartition]:
    """All sum-of-k!·S(n,k) ordered set partitions of [n]."""
    for blocks in _set_partitions(n):
        for perm in itertools.permutations(blocks):
            yield OrderedSetPartition(perm)


def gen_compositions(n: int, k: int | None = None) -> Iterator[Composition]:
    """Compositions of ``n`` (into ``k`` parts when given); C(n-1, k-1) many."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k is None:
        for kk in range(1, n + 1):
            yield from gen_compositions(n, kk)
        return

    def rec(rest: int, parts_left: int, acc: list[int]) -> Iterator[Composition]:
        if parts_left == 1:
            if rest >= 1:
                yield Composition(acc + [rest])
            return
        for first in range(1, rest - parts_left + 2):
            yield from rec(rest - first, parts_left - 1, acc + [first])

    if 1 <= k <= n:
        yield from rec(n, k, [])


def _orderings(block: Sequence[int], up_to_reverse: bool) -> Iterator[tuple[int, ...]]:
    for perm in itertools.permutations(sorted(block)):
        if not up_to_reverse or _canonical_up_to_reverse(perm) == perm:
            yield perm


def gen_list_partitions(
    n: int, ordered_blocks: bool = False, up_to_reverse: bool = False
) -> Iterator[ListPartition]:
    """Partitions of [n] into internally ordered lists.

    With neither flag the block sequence is canonical (sorted by minimum)
    and every within-block ordering appears.  ``up_to_reverse`` keeps one
    representative per block reversal class; ``ordered_blocks`` emits every
    arrangement of the blocks.
    """
    for blocks in _set_partitions(n):
        pools = [list(_orderings(b, up_to_reverse)) for b in blocks]
        for combo in itertools.product(*pools):
            if ordered_blocks:
                for arrangement in itertools.permutations(combo):
                    yield ListPartition(arrangement, True, up_to_reverse)
            else:
                yield ListPartition(combo, False, up_to_reverse)


def _cycle_choices(block: Sequence[int]) -> list[tuple[int, ...]]:
    m = max(block)
    rest = sorted(x for x in block if x != m)
    return [(m,) + perm for perm in itertools.permutations(rest)]


def gen_ordered_cycle_decomps(n: int) -> Iterator[CycleDecomposition]:
    """Ordered cycle decompositions over [n]: sum of k!·c(n,k) objects."""
    for blocks in _set_partitions(n):
        pools = [_cycle_choices(b) for b in blocks]
        for cycles in itertools.product(*pools):
            for arrangement in itertools.permutations(cycles):
                yield CycleDecomposition(arrangement)


def gen_partitioned_cycle_decomps(n: int) -> Iterator[CycleDecomposition]:
    """Partitioned cycle decompositions over [n]: sum of Bell(k)·c(n,k)."""
    for blocks in _set_partitions(n):
        pools = [_cycle_choices(b) for b in blocks]
        for cycles in itertools.product(*pools):
            for grouping in _set_partitions(len(cycles)):
                yield CycleDecomposition(cycles, [[i - 1 for i in b] for b in grouping])
