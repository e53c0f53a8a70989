"""Constructive bijections between forests and partition-like objects.

Each map here sends a family of combinatorial objects (permutations, set
partitions, cycle decompositions, partitions into lists) onto a forest
avoidance class, and each is checked in the test suite by exhaustive
round trips and image comparisons on small ground sets.

The unimodal maps (``theta``, ``xi``, ``gamma``) and the ordered-lists
map (``psi``) share one decomposition: a forest is an increasing skeleton,
the vertices whose root path increases, with a group hung below each
skeleton vertex.  In a unimodal forest the skeleton is the top-down
maxima and each group is decreasing; in a forest avoiding
{321, 2143, 3142} each skeleton vertex with its group is a tree with a
proper descent at the root and no other descents.  Both directions work
on parent maps: ``_join`` adds the groups' parent maps to the skeleton's
and validates one ``Forest``, and ``_split`` reads each skeleton vertex
and its group's word straight off the forest's child lists in one DFS,
so no skeleton or group forest is built.  The maps differ only in how
they encode the skeleton and the groups.

Inverse maps marked "derived" below (for the partitioned-cycle, ordered-
partition and ordered-lists maps) read the structure back off the forest
rather than following an explicitly stated recipe; they are validated by
the same exhaustive round-trip tests as the rest.
"""
from __future__ import annotations

import enum
from bisect import bisect_right
from typing import Callable, Iterable, Mapping, Sequence

from .forests import (
    DescentKind,
    Forest,
    avoids,
    descent_kind,
    height,
    is_decreasing,
    is_increasing,
    top_down_maxima,
)
from .generate import ListPartition, OrderedSetPartition, SetPartition
from .perms import CycleDecomposition, Permutation, inverse, pattern


class NotIncreasing(ValueError):
    """The forest is not increasing (some parent exceeds its child)."""


class NotUnimodal(ValueError):
    """The forest is not unimodal (it contains 213 or 312 along a path)."""


class NotInClass(ValueError):
    """The forest is outside the avoidance class this map is defined on."""


class TwoAfterOne(ValueError):
    """The second-smallest entry does not precede the smallest one."""


class TauVariant(enum.Enum):
    """Which tree-building rule the list-partition map uses: the unimodal
    rule (image avoids {312, 213, 132}) or the single-descent rule (image
    avoids {321, 132, 213})."""

    UNIMODAL132 = "unimodal132"
    ONE_DESCENT = "one_descent"


_P312 = (pattern(312),)
_P321 = (pattern(321),)
_XI_CLASS = (pattern(213), pattern(312), pattern(123))
_GAMMA_CLASS = (pattern(213), pattern(312), pattern(321))
_TAU_CLASS = (pattern(312), pattern(213), pattern(132))
_TAU_ONE_DESCENT_CLASS = (pattern(321), pattern(132), pattern(213))
_PSI_CLASS = (pattern(321), pattern(2143), pattern(3142))


# ---------------------------------------------------------------------------
# permutations <-> increasing / decreasing forests


def _rightmost_earlier_smaller(word: Sequence[int], root: int = 0) -> dict[int, int]:
    """For each entry of ``word``, in word order, the rightmost earlier
    entry smaller than it, or ``root`` if there is none: one pass over a
    stack of the entries that can still be the answer (increasing
    upwards)."""
    parent: dict[int, int] = {}
    stack: list[int] = []
    for v in word:
        while stack and stack[-1] > v:
            stack.pop()
        parent[v] = stack[-1] if stack else root
        stack.append(v)
    return parent


def _decreasing_parents(word: Sequence[int], root: int = 0) -> dict[int, int]:
    """The increasing forest of ``word`` with its labels complemented
    within the entries of ``word``, as a parent map whose roots hang from
    ``root``."""
    labels = sorted(word)
    flip = dict(zip(labels, reversed(labels)))
    flip[0] = root
    return {flip[v]: flip[p] for v, p in _rightmost_earlier_smaller(word).items()}


def _decreasing_word(f: Forest, roots: Sequence[int]) -> list[int]:
    """Inverse of :func:`_decreasing_parents` on the vertices below
    ``roots`` (ascending): the preorder that visits smaller labels first,
    with labels complemented within the vertices visited."""
    word: list[int] = []
    stack = list(reversed(roots))  # popping yields smallest first
    while stack:
        v = stack.pop()
        word.append(v)
        stack.extend(reversed(f.children(v)))
    labels = sorted(word)
    flip = dict(zip(labels, reversed(labels)))
    return [flip[v] for v in word]


def perm_to_increasing_forest(p: Permutation) -> Forest:
    """Increasing forest from a permutation: left-to-right minima become
    roots; every other entry becomes a child of the rightmost earlier
    entry smaller than it."""
    return Forest(_rightmost_earlier_smaller(p.word))


def _clockwise(f: Forest, roots: Sequence[int]) -> list[int]:
    """Preorder from ``roots`` visiting roots and children in decreasing
    label order (the clockwise reading when children are drawn smallest
    to largest)."""
    word: list[int] = []
    stack = list(roots)  # ascending; popping yields largest first
    while stack:
        v = stack.pop()
        word.append(v)
        stack.extend(f.children(v))
    return word


def increasing_forest_to_perm(f: Forest) -> Permutation:
    """Inverse of :func:`perm_to_increasing_forest`: the clockwise reading."""
    if not is_increasing(f):
        raise NotIncreasing(f"forest has a non-increasing edge: {f.parent}")
    return Permutation(_clockwise(f, f.roots))


def perm_to_decreasing_forest(p: Permutation) -> Forest:
    """Decreasing forest: the increasing forest with labels complemented
    within the ground set."""
    return Forest(_decreasing_parents(p.word))


def decreasing_forest_to_perm(f: Forest) -> Permutation:
    if not is_decreasing(f):
        raise NotIncreasing(f"forest has a non-decreasing edge: {f.parent}")
    return Permutation(_decreasing_word(f, f.roots))


# ---------------------------------------------------------------------------
# the shared decomposition: an increasing skeleton and the groups below it


def _join(top: dict[int, int], groups: Iterable[Mapping[int, int]]) -> Forest:
    """The forest with skeleton parent map ``top`` (updated in place) and
    the parent maps ``groups``, whose roots hang from skeleton vertices.
    Inverse of :func:`_split`."""
    for group in groups:
        top.update(group)
    return Forest(top)


def _split(
    f: Forest, read: Callable[[Forest, Sequence[int]], list[int]]
) -> list[tuple[int, ...]]:
    """The skeleton vertices of ``f`` and their groups, read off its child
    lists: one tuple per skeleton vertex ``m``, in the clockwise order of
    the skeleton, each ``m`` followed by the word ``read`` takes off the
    roots (ascending) of the group hung below it.  The skeleton is the
    vertices whose root path increases; in a unimodal forest these are
    the top-down maxima.  A child of a skeleton vertex is in the skeleton
    exactly when it is larger, and the smaller children root the group,
    so one DFS through the skeleton finds every group."""
    words: list[tuple[int, ...]] = []
    stack = list(f.roots)  # ascending; popping yields largest first
    while stack:
        m = stack.pop()
        kids = f.children(m)
        cut = bisect_right(kids, m)
        words.append((m, *read(f, kids[:cut])))
        stack.extend(kids[cut:])
    return words


def _cycle_group(cycle: Sequence[int]) -> dict[int, int]:
    """The decreasing forest of a cycle's entries after its maximum (the
    first entry, by canonical rotation), as a group whose roots hang from
    that maximum."""
    return _decreasing_parents(cycle[1:], cycle[0])


def _has_valley(f: Forest) -> bool:
    """True iff some vertex is smaller than its parent and than one of its
    children, which is exactly when a path contains 213 or 312."""
    for v, p in f.parent.items():
        if p > v:
            kids = f.children(v)  # ascending
            if kids and kids[-1] > v:
                return True
    return False


# ---------------------------------------------------------------------------
# ordered cycle decompositions <-> unimodal forests


def cycles_to_unimodal_forest(cd: CycleDecomposition) -> Forest:
    """Unimodal forest from an ordered cycle decomposition.

    The cycle maxima, in decomposition order, arrange into an increasing
    forest; each cycle's remaining entries hang below its maximum as a
    decreasing forest.
    """
    if cd.blocks is not None:
        raise ValueError("expected an ordered (unpartitioned) decomposition")
    top = _rightmost_earlier_smaller([c[0] for c in cd.cycles])
    return _join(top, map(_cycle_group, cd.cycles))


def unimodal_forest_to_cycles(f: Forest) -> CycleDecomposition:
    """Inverse of :func:`cycles_to_unimodal_forest`."""
    if _has_valley(f):
        raise NotUnimodal("forest contains 213 or 312 along a path")
    return CycleDecomposition(_split(f, _decreasing_word))


# ---------------------------------------------------------------------------
# set partitions <-> increasing forests of height <= 2


def _shallow_parents(blocks: Iterable[Sequence[int]]) -> dict[int, int]:
    """Each sorted block's minimum is a root with the rest as children."""
    parent: dict[int, int] = {}
    for block in blocks:
        r = block[0]
        parent[r] = 0
        for v in block[1:]:
            parent[v] = r
    return parent


def set_partition_to_shallow_forest(sp: SetPartition) -> Forest:
    """Each block's minimum becomes a root with the rest of the block as
    its children; the image is exactly the increasing forests of height
    at most two, one tree per block."""
    return Forest(_shallow_parents(sp.blocks))  # blocks are stored sorted


def shallow_forest_to_set_partition(f: Forest) -> SetPartition:
    if not is_increasing(f) or height(f) > 2:
        raise NotInClass("expected an increasing forest of height at most 2")
    return SetPartition([(r,) + f.children(r) for r in f.roots])


# ---------------------------------------------------------------------------
# partitioned cycle decompositions <-> unimodal 123-avoiding forests


def partitioned_cycles_to_forest(cd: CycleDecomposition) -> Forest:
    """Forest avoiding {213, 312, 123} from a partitioned cycle
    decomposition: the partition of the cycle maxima gives the (height
    <= 2) increasing subforest, and each cycle's remaining entries hang
    below its maximum as a decreasing forest."""
    if cd.blocks is None:
        raise ValueError("expected a partitioned decomposition")
    maxima_blocks = [[cd.cycles[i][0] for i in b] for b in cd.blocks]
    top = _shallow_parents(SetPartition(maxima_blocks).blocks)
    return _join(top, map(_cycle_group, cd.cycles))


def forest_to_partitioned_cycles(f: Forest) -> CycleDecomposition:
    """Derived inverse of :func:`partitioned_cycles_to_forest`."""
    if not avoids(f, _XI_CLASS):
        raise NotInClass("forest contains 213, 312 or 123 along a path")
    cycles = sorted(_split(f, _decreasing_word))  # by maximum
    index_of_max = {c[0]: i for i, c in enumerate(cycles)}
    # The skeleton has height <= 2: each root with its larger children.
    blocks = [
        [index_of_max[v] for v in (r, *f.children(r)) if v >= r] for r in f.roots
    ]
    return CycleDecomposition(cycles, blocks)


# ---------------------------------------------------------------------------
# ordered set partitions <-> unimodal 321-avoiding forests


def ordered_partition_to_forest(osp: OrderedSetPartition) -> Forest:
    """Forest avoiding {213, 312, 321}: block maxima, in block order,
    arrange into an increasing forest; the other elements of each block
    become children of their block's maximum."""
    maxima = [b[-1] for b in osp.blocks]  # blocks are stored sorted
    top = _rightmost_earlier_smaller(maxima)
    return _join(top, (dict.fromkeys(b[:-1], b[-1]) for b in osp.blocks))


def forest_to_ordered_partition(f: Forest) -> OrderedSetPartition:
    """Derived inverse of :func:`ordered_partition_to_forest`: each block
    is a maximum with its group."""
    if not avoids(f, _GAMMA_CLASS):
        raise NotInClass("forest contains 213, 312 or 321 along a path")
    return OrderedSetPartition(_split(f, _decreasing_word))


# ---------------------------------------------------------------------------
# partitions into lists <-> forests, two variants


def _tree_from_list(block: Sequence[int], variant: TauVariant) -> dict[int, int]:
    r = block[0]
    parent = {r: 0}
    for idx in range(1, len(block)):
        v = block[idx]
        j = 0
        if v > r:
            # climb the increasing part: rightmost earlier entry in [r, v)
            for u in reversed(block[:idx]):
                if r <= u < v:
                    j = u
                    break
        elif variant is TauVariant.UNIMODAL132:
            # decreasing chains below the root: rightmost earlier larger entry
            for u in reversed(block[:idx]):
                if u > v:
                    j = u
                    break
        else:
            # increasing chains below the root: rightmost earlier entry that
            # is either at/above the root or smaller than v
            for u in reversed(block[:idx]):
                if u >= r or u < v:
                    j = u
                    break
        parent[v] = j
    return parent


def list_partition_to_forest(
    lp: ListPartition, variant: TauVariant = TauVariant.UNIMODAL132
) -> Forest:
    """One tree per list, rooted at the list's first entry.

    The ``UNIMODAL132`` rule produces exactly the forests avoiding
    {312, 213, 132}; the ``ONE_DESCENT`` rule produces exactly the forests
    avoiding {321, 132, 213}.
    """
    parent: dict[int, int] = {}
    for block in lp.blocks:
        parent.update(_tree_from_list(block, variant))
    return Forest(parent)


def forest_to_list_partition(f: Forest) -> ListPartition:
    """Inverse of the ``UNIMODAL132`` variant: per tree, read the labels
    clockwise with children below the root value drawn in decreasing order
    to the right of those above it."""
    if not avoids(f, _TAU_CLASS):
        raise NotInClass("forest contains 312, 213 or 132 along a path")
    blocks = []
    for r in f.roots:
        word: list[int] = []
        stack = [r]
        while stack:
            v = stack.pop()
            word.append(v)
            kids = f.children(v)
            low = [c for c in kids if c < r]
            high = [c for c in kids if c > r]
            # visit low ascending then high descending => push in reverse
            for c in reversed(low + high[::-1]):
                stack.append(c)
        blocks.append(tuple(word))
    return ListPartition(blocks)


# ---------------------------------------------------------------------------
# permutations with 2 before 1 <-> trees with a proper descent at the root


def _descent_group(word: Sequence[int]) -> tuple[int, dict[int, int]]:
    """The root of the proper-descent tree of ``word`` (the inverse word's
    first entry) and the parent map of its other vertices: the increasing
    forest of the rest of the inverse word, its roots hung below the
    root."""
    iw = inverse(Permutation(word)).word
    return iw[0], _rightmost_earlier_smaller(iw[1:], iw[0])


def perm_to_proper_descent_tree(p: Permutation) -> Forest:
    """Tree with a proper descent at the root and no other descents.

    Requires the second-smallest entry to precede the smallest, which makes
    the inverse permutation start with a descent.  The inverse word's first
    entry becomes the root, its other left-to-right minima become children
    of the root, and every remaining entry becomes a child of the rightmost
    earlier entry smaller than it.
    """
    w = p.word
    if len(w) < 2:
        raise TwoAfterOne("need at least two entries")
    g = p.ground
    if w.index(g[1]) > w.index(g[0]):
        raise TwoAfterOne(
            f"second-smallest entry {g[1]} must precede smallest {g[0]} in {w}"
        )
    root, group = _descent_group(w)
    return Forest({root: 0, **group})


def proper_descent_tree_to_perm(f: Forest) -> Permutation:
    """Inverse of :func:`perm_to_proper_descent_tree`: read the tree
    clockwise (children drawn smallest to largest) and invert the word."""
    if len(f.roots) != 1:
        raise NotInClass("expected a single tree")
    r = f.roots[0]
    if descent_kind(f, r) is not DescentKind.PROPER_DESCENT:
        raise NotInClass("root must be greater than all of its children")
    for v in f.labels:
        if v != r and descent_kind(f, v) is not DescentKind.NONE:
            raise NotInClass(f"unexpected descent at vertex {v}")
    return inverse(Permutation(_clockwise(f, (r,))))


# ---------------------------------------------------------------------------
# ordered partitions into lists (up to reverse) <-> at most one descent per path


def ordered_lists_to_forest(lp: ListPartition) -> Forest:
    """Forest avoiding {321, 2143, 3142} from an ordered partition into
    lists up to reverse: each block goes through the proper-descent-tree
    map (a singleton block is a lone root), and the tree roots, in block
    order, arrange into an increasing skeleton."""
    if not (lp.ordered_blocks and lp.up_to_reverse):
        raise ValueError("expected an ordered partition into lists up to reverse")
    trees = [_descent_group(block) for block in lp.blocks]
    top = _rightmost_earlier_smaller([root for root, _ in trees])
    return _join(top, (group for _, group in trees))


def forest_to_ordered_lists(f: Forest) -> ListPartition:
    """Derived inverse of :func:`ordered_lists_to_forest`: each block is a
    skeleton vertex with its group, read as by
    :func:`proper_descent_tree_to_perm`.  The skeleton vertices are the
    block roots (top-down maxima deeper inside a block do not qualify)."""
    if not avoids(f, _PSI_CLASS):
        raise NotInClass("forest contains 321, 2143 or 3142 along a path")
    blocks = [inverse(Permutation(c)).word for c in _split(f, _clockwise)]
    return ListPartition(blocks, ordered_blocks=True, up_to_reverse=True)


# ---------------------------------------------------------------------------
# 312-avoiding forests <-> 321-avoiding forests (shape-preserving)


def _bfs_levels(f: Forest) -> list[list[int]]:
    levels = []
    frontier = list(f.roots)
    while frontier:
        levels.append(frontier)
        nxt: list[int] = []
        for v in frontier:
            nxt.extend(f.children(v))
        frontier = nxt
    return levels


def _rearrange_non_maxima(f: Forest, pick) -> Forest:
    """Shared engine for the shape-preserving label rearrangements.

    Top-down maxima keep their labels.  Vertices are processed level by
    level; at each non-maximum vertex, ``pick`` chooses a replacement label
    from the non-maximum labels currently in its subtree (itself included),
    and the displaced labels are redistributed over the remaining subtree
    positions preserving their relative order.
    """
    tdm = top_down_maxima(f)
    label = {v: v for v in f.labels}
    for level in _bfs_levels(f):
        for pos in sorted(level, key=lambda q: label[q]):
            if pos in tdm:
                continue
            positions = [q for q in f.subtree(pos) if q not in tdm]
            labels_here = sorted(label[q] for q in positions)
            chosen = pick(pos, labels_here, label)
            if chosen is None or chosen == label[pos]:
                continue
            rest = [q for q in positions if q != pos]
            rest.sort(key=lambda q: label[q])
            remaining = [x for x in labels_here if x != chosen]
            for q, x in zip(rest, remaining):
                label[q] = x
            label[pos] = chosen
    parent = {
        label[v]: (0 if f.parent[v] == 0 else label[f.parent[v]]) for v in f.labels
    }
    return Forest(parent)


def avoid312_to_avoid321(f: Forest) -> Forest:
    """Shape- and maxima-preserving bijection from 312-avoiding forests to
    321-avoiding forests: each non-maximum vertex takes the smallest
    non-maximum label in its subtree."""
    if not avoids(f, _P312):
        raise NotInClass("forest contains 312 along a path")

    def pick(pos, labels_here, label):
        return labels_here[0]

    return _rearrange_non_maxima(f, pick)


def avoid321_to_avoid312(f: Forest) -> Forest:
    """Inverse of :func:`avoid312_to_avoid321`: each non-maximum vertex
    takes the largest subtree label that stays below some ancestor (so no
    new top-down maximum appears)."""
    if not avoids(f, _P321):
        raise NotInClass("forest contains 321 along a path")

    def pick(pos, labels_here, label):
        ceiling = 0
        w = f.parent[pos]
        while w != 0:
            if label[w] > ceiling:
                ceiling = label[w]
            w = f.parent[w]
        candidates = [x for x in labels_here if x < ceiling]
        return max(candidates) if candidates else None

    return _rearrange_non_maxima(f, pick)
