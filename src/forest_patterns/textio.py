"""Every text and JSON form of the objects the command line deals in.

This module is the one place that knows how objects are spelled; the
command line only looks the forms up here.

Forests on [n] serialize as ``n|p_1 p_2 ... p_n`` (parent of vertex i at
position i, 0 = virtual root); ordered forests append ``|`` and the child
orders of vertices 0..n as semicolon-separated comma lists.  The JSON form
uses keys ``n``, ``parents``, ``childOrder``.  ``vector_to_text`` and
``vector_to_json`` spell both forms from the parent vector and child
orders alone, for a ``Forest`` and for a stream of vectors alike.

Permutations are comma-separated integers; cycle decompositions are
parenthesized cycles, wrapped in braces per block when partitioned;
partition-like objects are brace-delimited blocks.  Every object but a
forest writes its text form through its own ``__str__``.

A JSON object carries a ``kind`` tag from ``_KINDS``.  A forest adds its
forest keys; every other kind adds its dataclass fields under camelCase
keys, with tuples as lists (``word``, ``cycles``, ``blocks``,
``orderedBlocks``, ``upToReverse``, ``parts``).  ``object_from_json``
reads exactly the keys ``object_to_json`` writes.
"""
from __future__ import annotations

import json
import re
from dataclasses import fields
from typing import Iterable, Sequence

from .forests import Forest, from_parents
from .generate import Composition, ListPartition, OrderedSetPartition, SetPartition
from .perms import CycleDecomposition, Permutation

_PERM = "a permutation like 3,1,2"
_FOREST = "a forest like n|p_1 ... p_n[|orders]"
_CYCLES = "cycles like (3,1)(2) or {(2,1)(3)}{(4)}"
_BLOCKS = "blocks like {1,3}{2}"
_COMPOSITION = "a composition like 3,1,2"


def _ints(tokens: Iterable[str], form: str, text: str) -> tuple[int, ...]:
    """Integer tokens; a token that is not an integer is an error that
    names the expected ``form`` of the whole ``text``."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ValueError(f"expected {form}, got {text!r}") from None


# -- permutations -----------------------------------------------------------


def perm_to_text(p: Permutation) -> str:
    return str(p)


def parse_perm(text: str) -> Permutation:
    text = text.strip()
    if not text:
        return Permutation(())
    return Permutation(_ints(text.split(","), _PERM, text))


# -- forests ----------------------------------------------------------------


def vector_to_text(
    n: int, parents: Sequence[int], orders: Sequence[Sequence[int]] | None = None
) -> str:
    """The text form of the forest on [n] with ``parents[i - 1]`` the
    parent of ``i`` and, for an ordered forest, ``orders[v]`` the child
    order of vertex ``v`` in 0..n."""
    base = f"{n}|" + " ".join(map(str, parents))
    if orders is None:
        return base
    return base + "|" + ";".join(",".join(map(str, kids)) for kids in orders)


def vector_to_json(
    n: int, parents: Sequence[int], orders: Sequence[Sequence[int]] | None = None
) -> dict:
    """The JSON form of the forest that ``vector_to_text`` spells."""
    return {
        "n": n,
        "parents": list(parents),
        "childOrder": None if orders is None else [list(kids) for kids in orders],
    }


def _vector_of(f: Forest, form: str) -> tuple[int, list[int], list[tuple[int, ...]] | None]:
    if f.labels != tuple(range(1, f.n + 1)):
        raise ValueError(f"{form} form is defined for forests on 1..n only")
    parents = [f.parent[i] for i in range(1, f.n + 1)]
    if f.child_order is None:
        return f.n, parents, None
    return f.n, parents, [f.child_order[v] for v in range(f.n + 1)]


def forest_to_text(f: Forest) -> str:
    return vector_to_text(*_vector_of(f, "text"))


def parse_forest(text: str) -> Forest:
    parts = text.strip().split("|")
    if len(parts) not in (2, 3):
        raise ValueError(f"expected {_FOREST}, got {text!r}")
    n = _ints(parts[:1], _FOREST, text)[0]
    parents = _ints(parts[1].split(), _FOREST, text)
    if len(parts) == 2:
        return from_parents(n, parents)
    chunks = parts[2].split(";")
    try:
        if len(chunks) != n + 1:
            raise ValueError(f"expected {n + 1} child orders, got {len(chunks)}")
        order = {
            v: _ints((tok for tok in chunk.split(",") if tok.strip()), _FOREST, text)
            for v, chunk in enumerate(chunks)
        }
    except ValueError:
        from_parents(n, parents)  # a bad parent vector is the first error
        raise
    return from_parents(n, parents, order)


def forest_to_json(f: Forest) -> dict:
    return vector_to_json(*_vector_of(f, "JSON"))


def forest_from_json(data: dict | str) -> Forest:
    """The forest of a JSON object with keys ``n``, ``parents`` and
    ``childOrder``.  A bad parent vector is the first error; then a parent
    that is not an integer; then the child orders, ``null`` or a list of
    n + 1 lists of integers."""
    if isinstance(data, str):
        data = json.loads(data)
    n = _key(data, "n")
    parents = _key(data, "parents")
    try:
        if isinstance(parents, (list, tuple)):
            for v, p in enumerate(parents, 1):
                if type(p) is not int:  # true and 1.0 would pass as 1
                    raise ValueError(f"parent {p!r} of vertex {v} is not an integer")
        child_order = _key(data, "childOrder")
        order = None
        if child_order is not None:
            if not isinstance(child_order, (list, tuple)):
                raise ValueError(f"childOrder must be null or a list, got {child_order!r}")
            if len(child_order) != n + 1:
                raise ValueError(f"expected {n + 1} child orders, got {len(child_order)}")
            for v, kids in enumerate(child_order):
                if not isinstance(kids, (list, tuple)) or any(type(c) is not int for c in kids):
                    raise ValueError(f"child order {kids!r} of vertex {v} is not a list of integers")
            order = {v: tuple(kids) for v, kids in enumerate(child_order)}
    except (ValueError, TypeError):
        from_parents(n, parents)  # a bad parent vector is the first error
        raise
    return from_parents(n, parents, order)


# -- cycle decompositions ----------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_BLOCK_RE = re.compile(r"\{([^{}]*)\}")


def _bodies(part: str, regex: re.Pattern, brackets: str, form: str, text: str) -> list[str]:
    """The bodies, in ``brackets``, that make up all of ``part`` of ``text``."""
    bodies = regex.findall(part)
    if "".join(brackets[0] + b + brackets[1] for b in bodies) != part:
        raise ValueError(f"expected {form}, got {text!r}")
    return bodies


def cycles_to_text(cd: CycleDecomposition) -> str:
    return str(cd)


def parse_cycles(text: str) -> CycleDecomposition:
    """Parse ``(11,4,10,7)(12)`` (ordered) or ``{(2,1)(3)}{(4)}`` (partitioned)."""
    text = text.strip().replace(" ", "")
    if text.startswith("{"):
        cycles: list[tuple[int, ...]] = []
        blocks: list[list[int]] = []
        for chunk in _bodies(text, _BLOCK_RE, "{}", _CYCLES, text):
            indices = []
            for body in _bodies(chunk, _CYCLE_RE, "()", _CYCLES, text):
                indices.append(len(cycles))
                cycles.append(_ints(body.split(","), _CYCLES, text))
            blocks.append(indices)
        return CycleDecomposition(cycles, blocks)
    bodies = _bodies(text, _CYCLE_RE, "()", _CYCLES, text)
    return CycleDecomposition(_ints(body.split(","), _CYCLES, text) for body in bodies)


# -- partitions --------------------------------------------------------------


def _parse_blocks(text: str) -> list[tuple[int, ...]]:
    text = text.strip().replace(" ", "")
    bodies = _bodies(text, _BLOCK_RE, "{}", _BLOCKS, text)
    if not bodies:
        raise ValueError(f"expected {_BLOCKS}, got {text!r}")
    return [_ints(body.split(","), _BLOCKS, text) for body in bodies]


def parse_set_partition(text: str) -> SetPartition:
    return SetPartition(_parse_blocks(text))


def parse_ordered_set_partition(text: str) -> OrderedSetPartition:
    return OrderedSetPartition(_parse_blocks(text))


def parse_list_partition(
    text: str, ordered_blocks: bool = False, up_to_reverse: bool = False
) -> ListPartition:
    return ListPartition(_parse_blocks(text), ordered_blocks, up_to_reverse)


def parse_composition(text: str) -> Composition:
    text = text.strip()
    return Composition(_ints(text.split(","), _COMPOSITION, text))


# -- any object ----------------------------------------------------------------

_KINDS: dict[str, type] = {
    "forest": Forest,
    "permutation": Permutation,
    "cycles": CycleDecomposition,
    "setPartition": SetPartition,
    "orderedSetPartition": OrderedSetPartition,
    "listPartition": ListPartition,
    "composition": Composition,
}
_TAGS = {cls: kind for kind, cls in _KINDS.items()}


# (field, camelCase JSON key) of every kind but the forest, in constructor order
_FIELDS = {
    cls: tuple((f.name, re.sub("_(.)", lambda m: m[1].upper(), f.name)) for f in fields(cls))
    for cls in _KINDS.values()
    if cls is not Forest
}


def _key(data: dict, key: str):
    try:
        return data[key]
    except KeyError:
        raise ValueError(f"JSON object lacks key {key!r}") from None


def _plain(value):
    return [_plain(x) for x in value] if isinstance(value, tuple) else value


def object_to_json(obj) -> dict:
    kind = _TAGS.get(type(obj))
    if kind is None:
        raise TypeError(f"no JSON form for {type(obj).__name__}")
    if kind == "forest":
        return {"kind": kind, **forest_to_json(obj)}
    return {"kind": kind, **{key: _plain(getattr(obj, name)) for name, key in _FIELDS[type(obj)]}}


def object_from_json(data: dict | str):
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {data!r}")
    kind = _key(data, "kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown kind {kind!r}; expected one of {', '.join(_KINDS)}")
    try:
        if cls is Forest:
            return forest_from_json(data)
        return cls(*(_key(data, key) for _, key in _FIELDS[cls]))
    except TypeError as exc:  # a value of the wrong JSON type
        raise ValueError(f"malformed {kind} JSON: {exc}") from None


def object_to_text(obj) -> str:
    return forest_to_text(obj) if type(obj) is Forest else str(obj)
