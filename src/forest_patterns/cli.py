"""Command line entry point: enumerate / count / map / verify / table.

Exit codes: 0 on success, 1 when a verify row fails or a table cell
differs from its published value, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import re
import sys
from typing import Callable, Iterable, Iterator, Sequence

from . import bijections as bij
from . import counting, textio, verify
from .forests import FamilyTag, Forest
from .generate import (
    ListPartition,
    _child_orders,
    gen_compositions,
    gen_list_partitions,
    gen_ordered_cycle_decomps,
    gen_ordered_set_partitions,
    gen_partitioned_cycle_decomps,
    gen_set_partitions,
    iter_parent_vectors,
)
from .perms import Pattern, PatternMode, pattern
from .textio import object_from_json, object_to_json, object_to_text

FOREST_FAMILIES = {tag.value: tag for tag in FamilyTag}

# the output of json.dumps(value, sort_keys=True), with no new encoder per call
_to_json = json.JSONEncoder(sort_keys=True).encode

OBJECT_FAMILIES: dict[str, Callable[[int], object]] = {
    "set-partitions": gen_set_partitions,
    "ordered-set-partitions": gen_ordered_set_partitions,
    "list-partitions": gen_list_partitions,
    "ordered-list-partitions": lambda n: gen_list_partitions(
        n, ordered_blocks=True, up_to_reverse=True
    ),
    "compositions": gen_compositions,
    "ordered-cycle-decompositions": gen_ordered_cycle_decomps,
    "partitioned-cycle-decompositions": gen_partitioned_cycle_decomps,
}


def parse_pattern_list(text: str, mode: str = "mixed") -> list[Pattern]:
    """Parse ``321,!231``: a ``!`` prefix marks a consecutive pattern.

    ``mode`` = classical or consecutive forces every pattern to that mode;
    ``mixed`` (the default) honors the prefixes.  A token is one optional
    ``!`` and digits; empty tokens are skipped.
    """
    pats = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if not re.fullmatch(r"!?[0-9]+", tok):
            raise ValueError(f"bad pattern {tok!r}: expected digits with an optional leading '!'")
        consecutive = tok.startswith("!")
        word = tok.removeprefix("!")
        if mode == "classical":
            consecutive = False
        elif mode == "consecutive":
            consecutive = True
        pats.append(
            pattern(word, PatternMode.CONSECUTIVE if consecutive else PatternMode.CLASSICAL)
        )
    if not pats:
        raise ValueError("empty pattern list")
    return pats


# -- the bijection registry ---------------------------------------------------


def _parse_ordered_lists(text: str) -> ListPartition:
    return textio.parse_list_partition(text, ordered_blocks=True, up_to_reverse=True)


def _tau(variant: bij.TauVariant) -> Callable[[ListPartition], Forest]:
    return lambda lp: bij.list_partition_to_forest(lp, variant)


# name -> (domain parser, forward map, inverse map or None); every inverse
# reads a forest.
BIJECTIONS: dict[str, tuple[Callable[[str], object], Callable, Callable | None]] = {
    "phi": (textio.parse_perm, bij.perm_to_increasing_forest, bij.increasing_forest_to_perm),
    "phi_d": (textio.parse_perm, bij.perm_to_decreasing_forest, bij.decreasing_forest_to_perm),
    "theta": (textio.parse_cycles, bij.cycles_to_unimodal_forest, bij.unimodal_forest_to_cycles),
    "shallow": (
        textio.parse_set_partition,
        bij.set_partition_to_shallow_forest,
        bij.shallow_forest_to_set_partition,
    ),
    "xi": (
        textio.parse_cycles,
        bij.partitioned_cycles_to_forest,
        bij.forest_to_partitioned_cycles,
    ),
    "gamma": (
        textio.parse_ordered_set_partition,
        bij.ordered_partition_to_forest,
        bij.forest_to_ordered_partition,
    ),
    "tau": (
        textio.parse_list_partition,
        _tau(bij.TauVariant.UNIMODAL132),
        bij.forest_to_list_partition,
    ),
    "tau_onedescent": (textio.parse_list_partition, _tau(bij.TauVariant.ONE_DESCENT), None),
    "rho": (textio.parse_perm, bij.perm_to_proper_descent_tree, bij.proper_descent_tree_to_perm),
    "psi": (_parse_ordered_lists, bij.ordered_lists_to_forest, bij.forest_to_ordered_lists),
    "alpha": (textio.parse_forest, bij.avoid312_to_avoid321, bij.avoid321_to_avoid312),
    "beta_wilf": (textio.parse_forest, bij.avoid321_to_avoid312, bij.avoid312_to_avoid321),
}


# -- output helpers -----------------------------------------------------------


def _emit_rows(rows: list[dict], fmt: str, out, line: Callable[[dict], str]) -> None:
    """Print ``rows`` as one JSON list, as CSV, or as one ``line`` each."""
    if fmt == "json":
        print(_to_json(rows), file=out)
    elif fmt == "csv":
        if rows:
            writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    else:
        for row in rows:
            print(line(row), file=out)


def _object_line(obj, fmt: str) -> str:
    if fmt == "json":
        return _to_json(object_to_json(obj))
    return object_to_text(obj)


def _forest_lines(
    n: int, vectors: Iterable[Sequence[int]], ordered: bool, fmt: str
) -> Iterator[str]:
    """The lines of ``_object_line`` for the forests of parent ``vectors``
    on [n] (for ``ordered``, one per combination of child orders), spelled
    from the vectors with no ``Forest`` built."""
    for parents in vectors:
        for orders in _child_orders(n, parents) if ordered else (None,):
            if fmt == "json":
                yield _to_json({"kind": "forest", **textio.vector_to_json(n, parents, orders)})
            else:
                yield textio.vector_to_text(n, parents, orders)


# -- subcommands --------------------------------------------------------------


def _cmd_enumerate(args, out) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be nonnegative")
    if args.n < 0:  # a stream checks n only when first advanced
        raise ValueError("n must be nonnegative")
    if args.family in FOREST_FAMILIES:
        family = FOREST_FAMILIES[args.family]
        pats = () if args.avoid is None else parse_pattern_list(args.avoid, args.mode)
        vectors = iter_parent_vectors(args.n, family is FamilyTag.UNORDERED_BINARY, pats)
        lines = _forest_lines(args.n, vectors, family is FamilyTag.ORDERED, args.format)
    else:
        if args.avoid is not None:
            raise ValueError("--avoid only applies to forest families")
        lines = (_object_line(obj, args.format) for obj in OBJECT_FAMILIES[args.family](args.n))
    for line in itertools.islice(lines, args.limit):
        print(line, file=out)
    return 0


def _cmd_count(args, out) -> int:
    family = FOREST_FAMILIES[args.family]
    pats = parse_pattern_list(args.avoid, args.mode)
    base = {
        "family": args.family,
        "n": args.n,
        "patterns": ",".join(str(p) for p in pats),
    }
    swept = counting.count_sweep({family: args.n}, [pats], args.by, budget=args.budget)
    table = swept[family][0][args.n]
    if args.by:
        rows = [
            {**base, "by": args.by, "value": k, "count": table[k]}
            for k in sorted(table)
        ]
        _emit_rows(rows, args.format, out, lambda row: f"{row['value']} {row['count']}")
    else:
        value = table.get(0, 0)
        _emit_rows([{**base, "count": value}], args.format, out, lambda row: str(row["count"]))
    return 0


def _cmd_map(args, out) -> int:
    parse, forward, inverse = BIJECTIONS[args.bijection]
    map_fn = forward
    if args.inverse:
        if inverse is None:
            raise ValueError(f"bijection {args.bijection!r} exposes no inverse map")
        parse, map_fn = textio.parse_forest, inverse
    text = args.input.strip()
    # JSON input, read as its text form, opens with a key; {1,2}{3} does not
    if re.match(r'\{\s*"', text):
        text = object_to_text(object_from_json(text))
    print(_object_line(map_fn(parse(text)), args.format), file=out)
    return 0


def _verify_line(row: dict) -> str:
    return (
        f"{row['status']} {row['check']} n={row['n']} {row['subject']} "
        f"expected={row['expected']} computed={row['computed']}"
    )


def _cmd_verify(args, out) -> int:
    rows = verify.run_check(args.theorem, args.max_n)
    payload = [
        {
            "check": r.check,
            "n": r.n,
            "subject": r.subject,
            "expected": r.expected,
            "computed": r.computed,
            "status": "PASS" if r.ok else "FAIL",
        }
        for r in rows
    ]
    _emit_rows(payload, args.format, out, _verify_line)
    return 0 if all(r.ok for r in rows) else 1


def _table_line(row: dict) -> str:
    expected = "?" if row["expected"] is None else row["expected"]
    return (
        f"table {row['figure']} {row['family']} n={row['n']} "
        f"{row['mode']} {row['pattern']}: computed={row['computed']} "
        f"expected={expected}"
    )


def _cmd_table(args, out) -> int:
    rows = list(counting.table_rows(args.figure, args.max_n, budget=args.budget))
    for row in rows:
        row["match"] = (
            "" if row["expected"] is None else str(row["computed"] == row["expected"])
        )
    _emit_rows(rows, args.format, out, _table_line)
    ok = all(row["expected"] is None or row["computed"] == row["expected"] for row in rows)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="forest-patterns",
        description="Pattern avoidance in rooted labeled forests: enumeration, "
        "bijections, counting, and table reproduction.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json", "csv")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("enumerate", help="stream every object of a family")
    p.add_argument(
        "--family",
        required=True,
        choices=sorted(FOREST_FAMILIES) + sorted(OBJECT_FAMILIES),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--avoid", help="pattern list, e.g. 321,!231 (forest families only)")
    p.add_argument("--mode", choices=["classical", "consecutive", "mixed"], default="mixed")
    p.add_argument("--limit", type=int)
    add_format(p, ("text", "json"))

    p = sub.add_parser("count", help="count avoiders of a pattern set")
    p.add_argument("--family", required=True, choices=sorted(FOREST_FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--avoid", required=True)
    p.add_argument("--mode", choices=["classical", "consecutive", "mixed"], default="mixed")
    p.add_argument("--by", choices=list(counting.STATISTICS))
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int)
    add_format(p)

    p = sub.add_parser("map", help="apply a bijection to one object")
    p.add_argument("--bijection", required=True, choices=sorted(BIJECTIONS))
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--input", required=True)
    add_format(p, ("text", "json"))

    p = sub.add_parser("verify", help="check a named result against the counting engine")
    p.add_argument(
        "--theorem", required=True, choices=sorted(verify.CHECKS) + ["all"]
    )
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--jobs", type=int, default=1)
    add_format(p)

    p = sub.add_parser("table", help="recompute a bundled reference table")
    p.add_argument("--figure", required=True, choices=sorted(counting.REFERENCE_TABLES))
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int)
    add_format(p)

    return ap


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "map": _cmd_map,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def run(argv: Sequence[str] | None = None, out=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        # Counting runs in one process, so --jobs changes no result; count,
        # verify and table keep the flag for the callers that pass it.
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"jobs must be at least 1, got {args.jobs}")
        return _COMMANDS[args.command](args, out)
    except (ValueError, KeyError, counting.BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone (say, ``| head -1``).  Point stdout at devnull
        # so that the flush at exit cannot fail again, and say nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
