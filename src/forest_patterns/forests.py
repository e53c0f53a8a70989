"""Unordered rooted labeled forests, with optional child order.

A forest on a label set ``V`` (usually [n]) is stored as a parent map:
``parent[v]`` is the parent of ``v``, with ``0`` standing for the unlabeled
virtual root that all tree roots hang from.  The parent map is a canonical
form for unordered forests, so equality is just parent-map equality.

An ordered (plane) forest additionally carries, for every vertex including
the virtual root, a total order on its children.  Child order never affects
pattern avoidance (which only looks at root-to-vertex label paths); it only
changes how many distinct objects there are.
"""
from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping, Sequence

from .perms import Pattern, word_contains


class CycleDetected(ValueError):
    """Parent map has a directed cycle, so it is not a forest."""


class ParentOutOfRange(ValueError):
    """A parent value is not 0 and not a vertex of the forest."""


class InvalidChildOrder(ValueError):
    """A child order is not a permutation of the actual child set."""


class NotAncestorClosed(ValueError):
    """The top-down maxima do not form a subforest (some ancestor is missing)."""


class FamilyTag(enum.Enum):
    """The three forest families: plain unordered, unordered binary
    (every vertex, including the virtual root, has at most two children),
    and ordered/plane."""

    UNORDERED = "unordered"
    UNORDERED_BINARY = "binary"
    ORDERED = "ordered"


class DescentKind(enum.Enum):
    NONE = "none"
    DESCENT = "descent"
    PROPER_DESCENT = "proper_descent"


class Forest:
    """An unordered rooted labeled forest, optionally with child order.

    Vertices may be any distinct positive integers; ``0`` is reserved for
    the virtual root.  Immutable and hashable.
    """

    __slots__ = ("parent", "labels", "n", "child_order", "_children", "_key", "_hash")

    def __init__(
        self,
        parent: Mapping[int, int],
        child_order: Mapping[int, Sequence[int]] | None = None,
    ):
        parent = dict(parent)
        labels = tuple(sorted(parent))
        if labels and labels[0] <= 0:
            raise _reject(parent, labels)
        # Child lists fill in ascending label order, so each comes out sorted.
        children: dict[int, list[int]] = {v: [] for v in (0, *labels)}
        try:
            for v in labels:
                children[parent[v]].append(v)
        except KeyError:  # a parent that is neither 0 nor a vertex
            raise _reject(parent, labels) from None
        # Acyclic iff the sweep down from the virtual root reaches every
        # label; a self-parent or a cycle is never reached.
        reached: dict[int, tuple[int, ...]] = {}
        stack = [0]
        while stack:
            v = stack.pop()
            kids = children[v]
            reached[v] = tuple(kids)
            stack += kids
        if len(reached) != len(children):
            raise _reject(parent, labels)

        if child_order is not None:
            co: dict[int, tuple[int, ...]] = {}
            for v, kids in children.items():
                order = tuple(child_order.get(v, ()))
                if sorted(order) != kids:
                    raise InvalidChildOrder(
                        f"child order {order} of vertex {v} does not match children {kids}"
                    )
                co[v] = order
            if not child_order.keys() <= children.keys():
                extra = next(v for v in child_order if v not in children)
                raise InvalidChildOrder(f"child order key {extra!r} is neither 0 nor a vertex")
            self.child_order: dict[int, tuple[int, ...]] | None = co
        else:
            self.child_order = None

        self.parent = parent
        self.labels = labels
        self.n = len(labels)
        self._children = reached
        self._hash = None  # the identity key and its hash, made when first asked

    def _identity(self) -> tuple:
        if self._hash is None:
            order_key = None if self.child_order is None else tuple(self.child_order.values())
            self._key = (self.labels, tuple(map(self.parent.__getitem__, self.labels)), order_key)
            self._hash = hash(self._key)
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Forest) and self._identity() == other._identity()

    def __hash__(self) -> int:
        self._identity()
        return self._hash

    def __repr__(self) -> str:
        return f"Forest({self.parent!r})"

    def children(self, v: int) -> tuple[int, ...]:
        """Children of ``v`` (ascending); ``v`` may be 0."""
        return self._children[v]

    @property
    def roots(self) -> tuple[int, ...]:
        return self._children[0]

    def subtree(self, v: int) -> list[int]:
        """Vertices of the subtree rooted at ``v``, including ``v``."""
        out = []
        stack = [v]
        while stack:
            w = stack.pop()
            out.append(w)
            stack.extend(self._children[w])
        return out

    def is_ordered(self) -> bool:
        return self.child_order is not None


def _reject(parent: dict[int, int], labels: tuple[int, ...]) -> ValueError:
    """The error for a parent map that is not a forest (``labels`` are its
    sorted keys), from checks in this order: vertex labels, then each
    parent, then cycles."""
    vertex_set = set(labels)
    if 0 in vertex_set:
        return ParentOutOfRange("0 is the virtual root, not a vertex")
    if any(v < 0 for v in labels):
        return ParentOutOfRange("vertices must be positive integers")
    for v, p in parent.items():
        if p == v:
            return CycleDetected(f"vertex {v} is its own parent")
        if p != 0 and p not in vertex_set:
            return ParentOutOfRange(f"parent {p} of vertex {v} is not a vertex")
    # Walk every vertex up to 0; any repeat inside the walk is a cycle.
    state: dict[int, int] = {}  # 0 = in progress, 1 = reaches the root
    for v in labels:
        path = []
        w = v
        while w != 0 and state.get(w) is None:
            state[w] = 0
            path.append(w)
            w = parent[w]
            if state.get(w) == 0:
                return CycleDetected(f"cycle through vertex {w}")
        for u in path:
            state[u] = 1


def from_parents(
    n: int,
    parent: Mapping[int, int] | Sequence[int],
    child_order: Mapping[int, Sequence[int]] | None = None,
) -> Forest:
    """Build a forest on [n] from a parent map or a parent vector, with
    ``child_order`` as in :class:`Forest`.

    A sequence is read as ``parent[i] = seq[i-1]``.  The first fault
    found is raised, in this order: ``n`` is not a nonnegative integer;
    the vertices are not 1..n (a map) or there are not n parents (a
    sequence); the first parent that is not an integer or is outside
    0..n; then what :class:`Forest` checks.  A valid input is checked
    once, by :class:`Forest`.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    # dicts, lists and tuples skip the costlier Mapping check
    if isinstance(parent, dict) or (
        not isinstance(parent, (list, tuple)) and isinstance(parent, Mapping)
    ):
        parent = dict(parent)
        if sorted(parent) != list(range(1, n + 1)):
            raise ParentOutOfRange(f"vertices must be exactly 1..{n}")
    else:
        if not isinstance(parent, (list, tuple)):
            parent = list(parent)
        if len(parent) != n:
            raise ParentOutOfRange(f"expected {n} parents, got {len(parent)}")
        parent = dict(zip(range(1, n + 1), parent))
    try:
        return Forest(parent, child_order)
    except (ValueError, TypeError):
        # Only a rejected input is searched for the parent that, not an
        # integer or out of range, is the earlier fault.
        for v, p in parent.items():
            if not isinstance(p, int):
                raise ValueError(f"parent {p!r} of vertex {v} is not an integer") from None
            if not 0 <= p <= n:
                raise ParentOutOfRange(f"parent {p} of vertex {v} out of range 0..{n}") from None
        raise


def _leaf_paths(children, roots) -> list[tuple[int, ...]]:
    """The label paths from each of ``roots`` down to every leaf below
    it, read from ascending child lists (``children[v]`` holds the
    children of ``v``); the largest label is walked first.  With the
    roots of a forest, ``children[0]``, these are its root-to-leaf paths."""
    paths: list[tuple[int, ...]] = []
    stack = [(r, (r,)) for r in roots]
    while stack:
        v, path = stack.pop()
        kids = children[v]
        if kids:
            for c in kids:
                stack.append((c, path + (c,)))
        else:
            paths.append(path)
    return paths


def root_leaf_paths(f: Forest) -> list[tuple[int, ...]]:
    """Label sequences along each path from a tree root down to a leaf.

    Every root-to-vertex path is a prefix of one of these, so checking
    leaves is enough for pattern avoidance.
    """
    return _leaf_paths(f._children, f.roots)


def root_vertex_paths(f: Forest) -> list[tuple[int, ...]]:
    """Label sequences from a tree root to *every* vertex (cross-check oracle)."""
    paths: list[tuple[int, ...]] = []
    for r in f.roots:
        stack: list[tuple[int, tuple[int, ...]]] = [(r, (r,))]
        while stack:
            v, path = stack.pop()
            paths.append(path)
            for c in reversed(f.children(v)):
                stack.append((c, path + (c,)))
    return paths


def _avoids_on(paths: Iterable[tuple[int, ...]], patterns: Iterable[Pattern]) -> bool:
    pats = list(patterns)
    if not pats:
        raise ValueError("pattern set must be nonempty")
    for path in paths:
        for pat in pats:
            if word_contains(path, pat):
                return False
    return True


def avoids(f: Forest, patterns: Iterable[Pattern]) -> bool:
    """True iff no root-to-vertex label path contains any of the patterns."""
    return _avoids_on(root_leaf_paths(f), patterns)


def avoids_per_vertex(f: Forest, patterns: Iterable[Pattern]) -> bool:
    """Second route for cross-checks: test the path to every vertex, not just leaves."""
    return _avoids_on(root_vertex_paths(f), patterns)


def complement_forest(f: Forest) -> Forest:
    """Same shape, with the i-th smallest label swapped for the i-th largest."""
    return relabel(f, dict(zip(f.labels, reversed(f.labels))))


def top_down_maxima(f: Forest) -> frozenset[int]:
    """Vertices larger than all of their ancestors.  Roots always qualify."""
    out: set[int] = set()
    stack: list[tuple[int, int]] = [(r, 0) for r in f.roots]
    while stack:
        v, best = stack.pop()
        if v > best:
            out.add(v)
            best = v
        for c in f.children(v):
            stack.append((c, best))
    return frozenset(out)


def largest_increasing_subforest(f: Forest) -> Forest:
    """The induced subforest on the top-down maxima (parents inherited).

    Raises :class:`NotAncestorClosed` when some top-down maximum has a
    non-maximum ancestor, i.e. the maxima do not form a subforest.
    """
    tdm = top_down_maxima(f)
    parent = {}
    for v in tdm:
        p = f.parent[v]
        if p != 0 and p not in tdm:
            raise NotAncestorClosed(f"parent {p} of top-down maximum {v} is not one")
        parent[v] = p
    return Forest(parent)


def is_increasing(f: Forest) -> bool:
    """Every edge goes from a smaller parent to a larger child."""
    return all(p == 0 or p < v for v, p in f.parent.items())


def is_decreasing(f: Forest) -> bool:
    return all(p == 0 or p > v for v, p in f.parent.items())


def height(f: Forest) -> int:
    """Number of vertices on the longest root-to-leaf path (0 if empty)."""
    if f.n == 0:
        return 0
    return max(len(p) for p in root_leaf_paths(f))


def descent_kind(f: Forest, v: int) -> DescentKind:
    """Descent at ``v``: greater than at least one child; proper descent:
    greater than all children.  Leaves have no descent of either kind."""
    kids = f.children(v)
    if not kids:
        return DescentKind.NONE
    if all(v > c for c in kids):
        return DescentKind.PROPER_DESCENT
    if any(v > c for c in kids):
        return DescentKind.DESCENT
    return DescentKind.NONE


def shape_signature(f: Forest) -> bytes:
    """Canonical byte string of the unlabeled unordered shape.

    Two forests get equal signatures iff their shapes are isomorphic:
    each subtree is encoded recursively and child encodings are sorted.
    """

    def encode(v: int) -> str:
        return "(" + "".join(sorted(encode(c) for c in f.children(v))) + ")"

    return "".join(sorted(encode(r) for r in f.roots)).encode("ascii")


def relabel(f: Forest, mapping: Mapping[int, int]) -> Forest:
    """Apply a label bijection to a forest (shape unchanged)."""
    m = dict(mapping)
    m[0] = 0
    parent = {m[v]: m[p] for v, p in f.parent.items()}
    if f.child_order is None:
        return Forest(parent)
    order = {m[v]: tuple(m[c] for c in kids) for v, kids in f.child_order.items()}
    return Forest(parent, order)
