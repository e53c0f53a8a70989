"""The benchmark's three workloads, each a fixed list of queries built from a seed.

A query's ``run`` is the timed part: it drives the package the way a user
does, through ``cli.run(argv, out=...)`` or the public ``bijections`` and
``textio`` functions, looking each name up on its module at call time so
the traced run sees the same calls.  Its ``check`` compares the output with
``oracle`` outside the timed region.  ``units`` is the work the query
stands for: (forest, pattern set) pairs decided for counting queries,
objects emitted or round-tripped for enumerate-map.
"""
from __future__ import annotations

import io
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import oracle
from forest_patterns import bijections, cli, textio


class Output(NamedTuple):
    rc: int
    text: str  # what the CLI printed; its size is the cli.out_bytes counter
    extra: Any = None


@dataclass(frozen=True)
class Query:
    label: str
    run: Callable[[], Output]
    check: Callable[[Output], str | None]
    units: int


def _cli(argv: list[str]) -> Output:
    buf = io.StringIO()
    rc = cli.run(argv, out=buf)
    return Output(rc, buf.getvalue())


def _checked(check: Callable[[Output], str | None]) -> Callable[[Output], str | None]:
    def run(out: Output) -> str | None:
        return f"exit code {out.rc}" if out.rc != 0 else check(out)

    return run


# -- count-deep ---------------------------------------------------------------

# (family, n, --budget): the deepest points one core finishes in about 2 s.
COUNT_SLOTS = (("unordered", 7, None), ("binary", 7, None), ("ordered", 7, 7))
TDM_N = 6


def count_deep(rng: random.Random) -> list[Query]:
    pinned = oracle.load()["counts"]
    queries = []
    for family, n, budget in COUNT_SLOTS:
        token = rng.choice(oracle.count_tokens())
        argv = ["count", "--family", family, "--n", str(n), "--avoid", token, "--jobs", "1"]
        if budget is not None:
            argv += ["--budget", str(budget)]
        expected = pinned[f"{family}/{n}"][token]
        queries.append(Query(
            " ".join(argv),
            lambda argv=argv: _cli(argv),
            _checked(lambda out, e=expected: oracle.check_count(out.text, e)),
            oracle.size(family, n),
        ))
    argv = ["count", "--family", "unordered", "--n", str(TDM_N), "--avoid", "213,312",
            "--by", "tdm", "--jobs", "1"]
    queries.append(Query(
        " ".join(argv),
        lambda argv=argv: _cli(argv),
        _checked(lambda out: oracle.check_tdm(out.text, TDM_N)),
        oracle.size("unordered", TDM_N),
    ))
    return queries


# -- verify-sweep -------------------------------------------------------------

VERIFY_MAX_N = 6
TABLE_MAX_N = 5
# The tables run at --jobs 2 and start a process pool for every sweep past
# n=1, a pool per ~10 ms of work.  verify runs at --jobs 1: at --jobs 2 its
# 92 pool starts made wall_s swing by more than a quarter between runs on a
# shared 2-vCPU host, too wide for any bound this benchmark may set.
VERIFY_JOBS = "1"
TABLE_JOBS = "2"


def verify_sweep(rng: random.Random) -> list[Query]:
    fmt = rng.choice(("text", "json", "csv"))
    argv = ["verify", "--theorem", "all", "--max-n", str(VERIFY_MAX_N), "--jobs", VERIFY_JOBS,
            "--format", fmt]
    queries = [Query(
        " ".join(argv),
        lambda argv=argv: _cli(argv),
        _checked(lambda out, f=fmt: oracle.check_verify(out.text, f)),
        oracle.load()["verify_units"],
    )]
    for figure in ("7", "12", "13"):
        fmt = rng.choice(("text", "json", "csv"))
        family = oracle.load()["tables"][figure]["family"]
        argv = ["table", "--figure", figure, "--max-n", str(TABLE_MAX_N), "--jobs", TABLE_JOBS,
                "--format", fmt]
        queries.append(Query(
            " ".join(argv),
            lambda argv=argv: _cli(argv),
            _checked(lambda out, f=fmt, g=figure: oracle.check_table(out.text, f, g, TABLE_MAX_N)),
            6 * sum(oracle.size(family, n) for n in range(1, TABLE_MAX_N + 1)),
        ))
    return queries


# -- enumerate-map ------------------------------------------------------------


@dataclass(frozen=True)
class EnumerateSlot:
    family: str
    n: int
    fmt: str
    pool: tuple[str, ...]

    def argv(self, token: str) -> list[str]:
        return ["enumerate", "--family", self.family, "--n", str(self.n), "--avoid", token,
                "--format", self.fmt]

    def key(self, token: str) -> str:
        return f"{self.family}/{self.n}/{self.fmt}/{token}"


# Ordered forests run at n=5: at n=6 the stream materializes 95,040 plane
# forests, which alone would outlast the rest of the workload.
ENUMERATE_SLOTS = (
    EnumerateSlot("unordered", 6, "text", oracle.PATTERNS),
    EnumerateSlot("binary", 6, "json", tuple("!" + p for p in oracle.PATTERNS)),
    EnumerateSlot("ordered", 5, "text", oracle.PATTERNS),
)
UNIMODAL_N = 6
UNIMODAL_ARGV = ["enumerate", "--family", "unordered", "--n", str(UNIMODAL_N),
                 "--avoid", "213,312"]
PHI_N = 7


def _enumerate_and_parse(argv: list[str], fmt: str) -> Output:
    out = _cli(argv)
    parse = textio.forest_from_json if fmt == "json" else textio.parse_forest
    return out._replace(extra=[parse(line) for line in out.text.splitlines()])


def _theta_round_trips() -> Output:
    out = _cli(UNIMODAL_ARGV)
    trips = []
    for line in out.text.splitlines():
        cycles = textio.cycles_to_text(bijections.unimodal_forest_to_cycles(textio.parse_forest(line)))
        back = bijections.cycles_to_unimodal_forest(textio.parse_cycles(cycles))
        trips.append((cycles, back.parent))
    return out._replace(extra=trips)


def _phi_round_trips(words: list[str]) -> Output:
    trips = []
    for word in words:
        forest = textio.forest_to_text(bijections.perm_to_increasing_forest(textio.parse_perm(word)))
        back = bijections.increasing_forest_to_perm(textio.parse_forest(forest))
        trips.append((word, forest, textio.perm_to_text(back)))
    return Output(0, "", trips)


def enumerate_map(rng: random.Random) -> list[Query]:
    pinned = oracle.load()["enumerate"]
    queries = []
    for slot in ENUMERATE_SLOTS:
        token = rng.choice(slot.pool)
        key = slot.key(token)
        queries.append(Query(
            " ".join(slot.argv(token)),
            lambda argv=slot.argv(token), f=slot.fmt: _enumerate_and_parse(argv, f),
            _checked(lambda out, k=key: oracle.check_digest(out.text, k)
                     or oracle.check_parsed_forests(out.text, out.extra)),
            pinned[key]["lines"],
        ))
    queries.append(Query(
        " ".join(UNIMODAL_ARGV) + " | theta^-1 | theta",
        _theta_round_trips,
        _checked(lambda out: oracle.check_digest(out.text, "unimodal")
                 or oracle.check_theta(out.text, out.extra)),
        2 * oracle.unimodal_count(UNIMODAL_N),
    ))
    words = [",".join(map(str, p)) for p in itertools.permutations(range(1, PHI_N + 1))]
    rng.shuffle(words)
    queries.append(Query(
        f"phi | phi^-1 on the permutations of [{PHI_N}]",
        lambda: _phi_round_trips(words),
        _checked(lambda out: oracle.check_phi(out.extra, PHI_N)),
        len(words),
    ))
    return queries


WORKLOADS = {
    "count-deep": count_deep,
    "verify-sweep": verify_sweep,
    "enumerate-map": enumerate_map,
}
