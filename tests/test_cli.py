import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from forest_patterns import FamilyTag, avoids, forests, gen_avoiders, pattern
from forest_patterns.cli import (
    BIJECTIONS,
    object_from_json,
    object_to_json,
    parse_pattern_list,
    run,
)
from forest_patterns.generate import (
    gen_forests,
    gen_list_partitions,
    gen_ordered_cycle_decomps,
    gen_ordered_set_partitions,
    gen_partitioned_cycle_decomps,
    gen_set_partitions,
)
from forest_patterns.perms import PatternMode, Permutation
from forest_patterns.textio import object_to_text, parse_forest


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def test_pattern_list_parsing():
    pats = parse_pattern_list("321,!231")
    assert [p.mode for p in pats] == [PatternMode.CLASSICAL, PatternMode.CONSECUTIVE]
    forced = parse_pattern_list("321,!231", mode="classical")
    assert all(p.mode is PatternMode.CLASSICAL for p in forced)
    forced = parse_pattern_list("321", mode="consecutive")
    assert forced[0].mode is PatternMode.CONSECUTIVE
    assert parse_pattern_list(" 21,, !12 ,") == [pattern(21), pattern("!12")]  # empty tokens skipped


@pytest.mark.parametrize("token", ["!!21", "21!", "2!1", "!", "x", "-21", "2 1", "２１"])
@pytest.mark.parametrize("command", ["count", "enumerate"])
def test_bad_pattern_token_exits_two_naming_it(command, token, capsys):
    for mode in ("mixed", "consecutive"):
        code, out = invoke(
            command, "--family", "unordered", "--n", "3", "--avoid", f"321,{token}", "--mode", mode
        )
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            f"error: bad pattern {token!r}: expected digits with an optional leading '!'\n"
        )


def test_count_known_value():
    code, out = invoke("count", "--family", "unordered", "--n", "5", "--avoid", "321", "--jobs", "1")
    assert code == 0 and out == "918\n"


def test_count_consecutive_mode_flag():
    _, a = invoke("count", "--family", "unordered", "--n", "4", "--avoid", "!321", "--jobs", "1")
    _, b = invoke(
        "count", "--family", "unordered", "--n", "4", "--avoid", "321",
        "--mode", "consecutive", "--jobs", "1",
    )
    assert a == b == "107\n"


def test_count_by_tree_count_sums_to_total():
    code, out = invoke(
        "count", "--family", "unordered", "--n", "4", "--avoid", "321",
        "--by", "trees", "--format", "json", "--jobs", "1",
    )
    assert code == 0
    rows = json.loads(out)
    total = sum(r["count"] for r in rows)
    _, plain = invoke("count", "--family", "unordered", "--n", "4", "--avoid", "321", "--jobs", "1")
    assert total == int(plain)


def test_map_cycle_input():
    code, out = invoke("map", "--bijection", "theta", "--input", "(2,1)")
    assert code == 0 and out == "2|2 0\n"


def test_map_inverse_round_trip():
    _, forward = invoke("map", "--bijection", "phi", "--input", "3,1,2")
    _, back = invoke("map", "--bijection", "phi", "--inverse", "--input", forward.strip())
    assert back == "3,1,2\n"


def test_map_json_output_parses_back():
    code, out = invoke(
        "map", "--bijection", "phi", "--input", "3,6,8,4,1,10,2,9,7,5",
        "--format", "json",
    )
    assert code == 0
    forest = object_from_json(out)
    assert forest == parse_forest("10|0 1 0 3 2 3 2 6 2 1")


def test_map_accepts_json_input():
    data = object_to_json(parse_forest("2|2 0"))
    compact = json.dumps(data)
    # whitespace after the opening brace still reads as JSON
    for payload in (compact, "{ " + compact[1:], json.dumps(data, indent=1)):
        code, out = invoke("map", "--bijection", "theta", "--inverse", "--input", payload)
        assert code == 0 and out == "(2,1)\n"
    spaced = '{ "kind": "permutation", "word": [2,1]}'
    assert invoke("map", "--bijection", "phi", "--input", spaced) == invoke(
        "map", "--bijection", "phi", "--input", "2,1"
    )


def test_map_out_of_class_input_is_usage_error():
    code, _ = invoke("map", "--bijection", "alpha", "--input", "3|3 1 0")
    assert code == 2


def test_map_without_inverse():
    code, _ = invoke("map", "--bijection", "tau_onedescent", "--inverse", "--input", "2|2 0")
    assert code == 2


def test_every_bijection_has_a_registry_entry():
    assert set(BIJECTIONS) == {
        "phi", "phi_d", "theta", "shallow", "xi", "gamma",
        "tau", "tau_onedescent", "rho", "psi", "alpha", "beta_wilf",
    }


def test_enumerate_unordered_n2():
    code, out = invoke("enumerate", "--family", "unordered", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["2|0 0", "2|0 1", "2|2 0"]


def test_enumerate_limit_and_avoid():
    _, out = invoke("enumerate", "--family", "unordered", "--n", "3", "--avoid", "21")
    assert len(out.splitlines()) == 6  # increasing forests on [3]
    _, out = invoke("enumerate", "--family", "unordered", "--n", "3", "--limit", "2")
    assert len(out.splitlines()) == 2


def test_enumerate_object_families():
    _, out = invoke("enumerate", "--family", "set-partitions", "--n", "3")
    assert len(out.splitlines()) == 5
    _, out = invoke("enumerate", "--family", "ordered-list-partitions", "--n", "3")
    assert len(out.splitlines()) == 15


def test_enumerate_json_round_trips():
    _, out = invoke("enumerate", "--family", "ordered", "--n", "2", "--format", "json")
    lines = out.splitlines()
    assert len(lines) == 4
    for line in lines:
        assert object_to_json(object_from_json(line)) == json.loads(line)


def test_enumerate_avoid_rejected_for_object_families():
    code, _ = invoke("enumerate", "--family", "set-partitions", "--n", "3", "--avoid", "21")
    assert code == 2


@pytest.mark.parametrize(
    "family, message",
    [("unordered", "empty pattern list"), ("set-partitions", "--avoid only applies to forest families")],
)
def test_enumerate_empty_avoid_exits_two(family, message, capsys):
    code, out = invoke("enumerate", "--family", family, "--n", "3", "--avoid", "")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_pass_exit_code():
    code, out = invoke("verify", "--theorem", "unimodal", "--max-n", "3", "--jobs", "1")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_verify_failure_exits_one(monkeypatch):
    from forest_patterns import verify as verify_mod
    from forest_patterns.verify import Check, CheckRow

    monkeypatch.setitem(
        verify_mod.CHECKS,
        "unimodal",
        Check(lambda max_n, count: [CheckRow("unimodal", 1, "x", 1, 2)], ()),
    )
    code, out = invoke("verify", "--theorem", "unimodal", "--max-n", "1", "--jobs", "1")
    assert code == 1 and out.startswith("FAIL")


def test_verify_json_rows():
    code, out = invoke(
        "verify", "--theorem", "increasing", "--max-n", "3", "--jobs", "1",
        "--format", "json",
    )
    rows = json.loads(out)
    assert code == 0 and all(r["status"] == "PASS" for r in rows)


def test_table_csv_matches():
    code, out = invoke("table", "--figure", "7", "--max-n", "3", "--format", "csv", "--jobs", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("figure,family,n,pattern,mode,computed,expected")
    assert len(lines) == 19
    assert all(line.endswith("True") for line in lines[1:])


@pytest.mark.parametrize(
    "published, code", [((1, 3, 999), 1), ((1, 3), 0)], ids=["differs", "unpublished"]
)
def test_table_exit_code_follows_published_cells(monkeypatch, published, code):
    from forest_patterns import counting

    monkeypatch.setitem(counting.REFERENCE_TABLES["7"]["classical"], "321", published)
    got, out = invoke("table", "--figure", "7", "--max-n", "3", "--jobs", "1")
    expected = "?" if len(published) < 3 else published[2]
    assert got == code
    assert f"n=3 classical 321: computed=15 expected={expected}\n" in out


def test_usage_errors_exit_two():
    for argv in (
        ["count", "--family", "nosuch", "--n", "3", "--avoid", "321"],
        ["map", "--bijection", "nosuch", "--input", "1"],
        ["enumerate", "--family", "set-partitions", "--n", "2", "--format", "csv"],
        ["map", "--bijection", "phi", "--input", "2,1", "--format", "csv"],
    ):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2


def test_budget_exceeded_is_reported():
    code, _ = invoke("count", "--family", "ordered", "--n", "9", "--avoid", "321", "--jobs", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["count", "--family", "unordered", "--n", "0", "--avoid", "321", "--budget", "-3"],
         None, "budget must be nonnegative, got -3"),
        (["table", "--figure", "7", "--max-n", "1", "--budget", "-1"],
         None, "budget must be nonnegative, got -1"),
        (["count", "--family", "unordered", "--n", "0", "--avoid", "321"],
         "-2", "FOREST_PATTERNS_BUDGET='-2' sets a negative budget -2"),
        (["count", "--family", "binary", "--n", "2", "--avoid", "321"],
         "unordered=-2", "FOREST_PATTERNS_BUDGET='unordered=-2' sets a negative budget -2"),
        (["verify", "--theorem", "totals", "--max-n", "2"],
         "unordered=-2", "FOREST_PATTERNS_BUDGET='unordered=-2' sets a negative budget -2"),
    ],
)
def test_negative_budget_exits_two_before_counting(monkeypatch, capsys, argv, env, message):
    from forest_patterns import counting

    def refuse(*args):
        raise AssertionError("counted before the budget check")

    monkeypatch.setattr(counting, "_gap_count", refuse)
    if env:
        monkeypatch.setenv("FOREST_PATTERNS_BUDGET", env)
    code, out = invoke(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["--theorem", "duality", "--max-n", "9"], None, "n=9 exceeds the unordered budget 8"),
        (["--theorem", "all", "--max-n", "6"], "binary=5", "n=6 exceeds the binary budget 5"),
        (["--theorem", "totals", "--max-n", "5"], "unordered=3", "n=5 exceeds the unordered budget 3"),
        (["--theorem", "duality", "--max-n", "7"], "ordered=6", "n=7 exceeds the ordered budget 6"),
    ],
)
def test_verify_checks_every_budget_before_counting(monkeypatch, capsys, argv, env, message):
    from forest_patterns import counting

    def refuse(*args):
        raise AssertionError("counted before the budget check")

    monkeypatch.setattr(counting, "_gap_count", refuse)
    if env:
        monkeypatch.setenv("FOREST_PATTERNS_BUDGET", env)
    code, out = invoke("verify", *argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}; set the FOREST_PATTERNS_BUDGET")
    assert "budget argument" not in err


def test_verify_counts_each_set_once_and_walks_no_parent_vector(monkeypatch):
    from forest_patterns import counting, generate

    seen = []
    gap_count = counting._gap_count

    def spy(max_n, family, atoms, statistic, paths, tables):
        seen.append((family, statistic, frozenset(atoms)))
        return gap_count(max_n, family, atoms, statistic, paths, tables)

    def refuse(*args, **kwargs):
        raise AssertionError("verify walked parent vectors")

    monkeypatch.setattr(counting, "_gap_count", spy)
    monkeypatch.setattr(counting, "iter_parent_vectors", refuse)
    monkeypatch.setattr(generate, "iter_parent_vectors", refuse)
    code, out = invoke("verify", "--theorem", "all", "--max-n", "4")
    assert code == 0 and out.count("\n") == 374
    assert len(seen) == len(set(seen))
    # totals counts every forest as the empty pattern set
    every = {(family, None, frozenset()) for family in (FamilyTag.UNORDERED, FamilyTag.ORDERED)}
    assert every <= set(seen)


def test_verify_output_is_the_same_for_every_jobs():
    code, one = invoke("verify", "--theorem", "all", "--max-n", "5", "--jobs", "1")
    assert code == 0
    assert invoke("verify", "--theorem", "all", "--max-n", "5", "--jobs", "3") == (0, one)


# `verify --theorem totals --max-n 8`: the family sizes up to the default
# budgets, (n+1)^(n-1) unordered and n!*catalan(n) ordered.
TOTALS_8 = [
    ("unordered=(n+1)^(n-1)", [1, 3, 16, 125, 1296, 16807, 262144, 4782969]),
    ("ordered=n!*catalan(n)", [1, 4, 30, 336, 5040, 95040, 2162160, 57657600]),
]


def test_verify_totals_rows_are_pinned():
    code, out = invoke("verify", "--theorem", "totals", "--max-n", "8")
    assert code == 0
    assert out.splitlines() == [
        f"PASS totals n={n} {subject} expected={size} computed={size}"
        for subject, sizes in TOTALS_8
        for n, size in enumerate(sizes, 1)
    ]


def test_verify_duality_checks_ordered_forests_to_the_budget():
    code, out = invoke("verify", "--theorem", "duality", "--max-n", "8")
    lines = out.splitlines()
    assert code == 0 and all(line.startswith("PASS duality ") for line in lines)
    for n in (7, 8):
        # 11 pattern sets, each in both modes
        assert sum(f" n={n} ordered:" in line for line in lines) == 22


# SHA-256 of `verify --theorem all --max-n 5` stdout (475 rows); a change to
# how the engine shares work across n, sets or families must keep these bytes.
VERIFY_ALL_5_SHA256 = {
    "text": "4045325bccc9d0ea57843d1b69ff947e5721faf0e571bcd6182c86f0dba66798",
    "json": "1fa82c7bf35e0598fc31b0a867a31804653436a366f6c4295c85a72456bdcd50",
    "csv": "02ea1e6374042d967c7e38cd7712b96da3961915b1092ae8d96ba3bf27603a59",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_ALL_5_SHA256))
def test_verify_all_output_bytes_are_pinned(fmt):
    code, out = invoke("verify", "--theorem", "all", "--max-n", "5", "--format", fmt)
    assert code == 0
    if fmt == "text":
        assert out.count("\n") == 475
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_5_SHA256[fmt]


# The benchmark oracle pins the stdout of 19 `enumerate --avoid` queries:
# "family/n/format/token" keys, plus "unimodal" for the unordered n = 6
# stream of 213,312 that the theta round trips read.
ROOT = Path(__file__).resolve().parents[1]
ENUMERATE_PINS = json.loads((ROOT / "perfbench" / "oracle.json").read_text())["enumerate"]


def _enumerate_argv(key):
    if key == "unimodal":
        return ["enumerate", "--family", "unordered", "--n", "6", "--avoid", "213,312"]
    family, n, fmt, token = key.split("/")
    return ["enumerate", "--family", family, "--n", n, "--avoid", token, "--format", fmt]


def test_oracle_pins_every_enumerate_query():
    assert len(ENUMERATE_PINS) == 19


@pytest.mark.parametrize("key", sorted(ENUMERATE_PINS))
def test_enumerate_avoid_output_bytes_are_pinned(key):
    code, out = invoke(*_enumerate_argv(key))
    assert code == 0
    assert out.count("\n") == ENUMERATE_PINS[key]["lines"]
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_PINS[key]["sha256"]


# Every forest family with no --avoid and with a classical, a consecutive
# and a mixed set, at n <= 5 (ordered n <= 4).
TWO_ROUTE_SETS = [None, "213", "!231", "321,!213"]
TWO_ROUTE_TOP = {"unordered": 5, "binary": 5, "ordered": 4}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("avoid", TWO_ROUTE_SETS)
@pytest.mark.parametrize("family", sorted(TWO_ROUTE_TOP))
def test_enumerate_lines_parse_back_to_the_library_forests(family, avoid, fmt):
    tag = FamilyTag(family)
    parse = object_from_json if fmt == "json" else parse_forest
    for n in range(TWO_ROUTE_TOP[family] + 1):
        if avoid is None:
            expected = list(gen_forests(n, tag))
        else:
            expected = list(gen_avoiders(n, tag, parse_pattern_list(avoid)))
        for limit in (0, 3, None):
            argv = ["enumerate", "--family", family, "--n", str(n), "--format", fmt]
            argv += [] if avoid is None else ["--avoid", avoid]
            argv += [] if limit is None else ["--limit", str(limit)]
            code, out = invoke(*argv)
            assert code == 0
            assert [parse(line) for line in out.splitlines()] == expected[:limit], argv


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("avoid", [None, "321,!213"])
@pytest.mark.parametrize("family", sorted(TWO_ROUTE_TOP))
def test_enumerate_builds_no_forest_for_a_forest_family(monkeypatch, family, avoid, fmt):
    argv = ["enumerate", "--family", family, "--n", "4", "--format", fmt]
    argv += [] if avoid is None else ["--avoid", avoid]
    expected = invoke(*argv)

    def refuse(self, *args, **kwargs):
        raise AssertionError("enumerate built a Forest")

    monkeypatch.setattr(forests.Forest, "__init__", refuse)
    with pytest.raises(AssertionError):
        forests.Forest({})
    assert invoke(*argv) == expected


@pytest.mark.parametrize(
    "argv, keep",
    [
        # about 137 kB, more than a pipe holds, so the writer meets the closed end
        (["enumerate", "--family", "unordered", "--n", "6", "--avoid", "321"], 1),
        # a few bytes, written only at exit, so the read end is closed first
        (["count", "--family", "unordered", "--n", "5", "--avoid", "321", "--format", "csv"], 0),
    ],
)
def test_a_closed_stdout_ends_the_command_quietly_with_exit_one(argv, keep):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    reader = os.fdopen(read_end)
    if not keep:
        reader.close()
    proc = subprocess.Popen(
        [sys.executable, "-m", "forest_patterns.cli", *argv],
        stdout=write_end, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_end)
    lines = [reader.readline() for _ in range(keep)]
    reader.close()
    _, err = proc.communicate(timeout=120)
    assert lines == ["6|0 0 0 0 0 0\n"][:keep]
    assert err == b""
    assert proc.returncode == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "unordered", "--n", "-1", "--avoid", "321", "--jobs", "1"],
        ["count", "--family", "unordered", "--n", "3", "--avoid", "321", "--jobs", "0"],
        ["count", "--family", "unordered", "--n", "3", "--avoid", "321", "--jobs", "-3"],
        ["verify", "--theorem", "all", "--max-n", "0", "--jobs", "1"],
        ["verify", "--theorem", "unimodal", "--max-n", "-1", "--jobs", "1"],
        ["verify", "--theorem", "all", "--max-n", "3", "--jobs", "0"],
        ["table", "--figure", "7", "--max-n", "0"],
        ["table", "--figure", "12", "--max-n", "-1"],
        ["table", "--figure", "13", "--max-n", "3", "--jobs", "0"],
        ["enumerate", "--family", "set-partitions", "--n", "-1"],
        ["enumerate", "--family", "compositions", "--n", "-2"],
        ["enumerate", "--family", "unordered", "--n", "3", "--limit", "-1"],
        ["enumerate", "--family", "unordered", "--n", "-1", "--avoid", "321", "--limit", "0"],
        ["enumerate", "--family", "set-partitions", "--n", "-1", "--limit", "0"],
    ],
)
def test_out_of_range_arguments_exit_two(argv, capsys):
    code, out = invoke(*argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if argv[-2:] == ["--jobs", "0"]:
        assert err == "error: jobs must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--family", "unordered", "--n", "-1", "--avoid", "321"],
        ["enumerate", "--family", "set-partitions", "--n", "-1"],
    ],
)
def test_negative_n_fails_before_the_stream_is_read(argv, capsys):
    errors = []
    for extra in ([], ["--limit", "0"]):
        code, out = invoke(*argv, *extra)
        assert code == 2 and out == ""
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: n must be nonnegative\n"


@pytest.mark.parametrize(
    "bijection, payload",
    [
        ("phi", '{"kind":"forest","n":1,"parents":[0],"childOrder":null}'),
        ("theta", '{"kind":"cycles","cycles":[[2,1]]}'),
        ("shallow", '{"kind":"setPartition"}'),
        ("gamma", '{"kind":"nosuch","blocks":[[1]]}'),
        ("phi", '{"kind":"permutation","word":5}'),
        ("phi", "1|0"),
        ("theta", "(2,x)"),
        ("shallow", "{1,2}{3,y}"),
    ],
)
def test_map_rejects_wrong_input(bijection, payload, capsys):
    code, out = invoke("map", "--bijection", bijection, "--input", payload)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "payload, message",
    [
        ('{"kind":"forest","n":-1,"parents":[],"childOrder":null}',
         "n must be a nonnegative integer, got -1"),
        ('{"kind":"forest","n":"2","parents":[0,1],"childOrder":null}',
         "n must be a nonnegative integer, got '2'"),
        ('{"kind":"forest","n":2,"parents":[0,true],"childOrder":null}',
         "parent True of vertex 2 is not an integer"),
        ('{"kind":"forest","n":2,"parents":[0,1.0],"childOrder":null}',
         "parent 1.0 of vertex 2 is not an integer"),
        ('{"kind":"forest","n":2,"parents":[0,"a"],"childOrder":null}',
         "parent 'a' of vertex 2 is not an integer"),
        ('{"kind":"forest","n":2,"parents":[0,null],"childOrder":null}',
         "parent None of vertex 2 is not an integer"),
        ('{"kind":"forest","n":2,"parents":[0,1],"childOrder":[[1.0],[2],[]]}',
         "child order [1.0] of vertex 0 is not a list of integers"),
        ('{"kind":"forest","n":2,"parents":[0,1],"childOrder":5}',
         "childOrder must be null or a list, got 5"),
        ("-1|", "n must be a nonnegative integer, got -1"),
    ],
)
def test_map_names_a_bad_n_or_a_non_integer_parent(payload, message, capsys):
    code, out = invoke("map", "--bijection", "alpha", "--inverse", f"--input={payload}")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_map_rejects_child_orders_of_non_vertices(capsys):
    payload = '{"kind":"forest","n":1,"parents":[0],"childOrder":[[1],[],[9]]}'
    code, out = invoke("map", "--bijection", "alpha", "--inverse", "--input", payload)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: expected 2 child orders, got 3\n"


def _perms(n):
    return [Permutation(w) for w in itertools.permutations(range(1, n + 1))]


def _forests_avoiding(n, word):
    return [f for f in gen_forests(n, FamilyTag.UNORDERED) if avoids(f, [pattern(word)])]


# every bijection's domain objects on [3]
DOMAINS = {
    "phi": lambda: _perms(3),
    "phi_d": lambda: _perms(3),
    "theta": lambda: list(gen_ordered_cycle_decomps(3)),
    "shallow": lambda: list(gen_set_partitions(3)),
    "xi": lambda: list(gen_partitioned_cycle_decomps(3)),
    "gamma": lambda: list(gen_ordered_set_partitions(3)),
    "tau": lambda: list(gen_list_partitions(3)),
    "tau_onedescent": lambda: list(gen_list_partitions(3)),
    "rho": lambda: [p for p in _perms(3) if p.word.index(2) < p.word.index(1)],
    "psi": lambda: list(gen_list_partitions(3, ordered_blocks=True, up_to_reverse=True)),
    "alpha": lambda: _forests_avoiding(3, 312),
    "beta_wilf": lambda: _forests_avoiding(3, 321),
}


@pytest.mark.parametrize("name", sorted(BIJECTIONS))
def test_map_round_trips_every_domain_object(name):
    assert set(DOMAINS) == set(BIJECTIONS)
    inverse = BIJECTIONS[name][2]
    for obj in DOMAINS[name]():
        text = object_to_text(obj)
        code, image = invoke("map", "--bijection", name, "--input", text)
        assert code == 0, text
        payload = json.dumps(object_to_json(obj))
        assert invoke("map", "--bijection", name, "--input", payload) == (0, image)
        if inverse is not None:
            back = invoke("map", "--bijection", name, "--inverse", "--input", image.strip())
            assert back == (0, text + "\n")
