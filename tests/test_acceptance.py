"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  All comparisons are exact; the only tolerances are the runtime
targets, asserted with wide margins.
"""
import io
import itertools
import json
import time
from contextlib import contextmanager
from math import factorial
from pathlib import Path

from forest_patterns import (
    FamilyTag,
    REFERENCE_TABLES,
    catalan,
    complement,
    count_forests,
    count_sweep,
    formula,
    gen_forests,
    gen_list_partitions,
    gen_ordered_cycle_decomps,
    gen_ordered_set_partitions,
    gen_partitioned_cycle_decomps,
    gen_set_partitions,
    pattern,
    shape_signature,
    stirling1,
    top_down_maxima,
)
from forest_patterns.bijections import (
    TauVariant,
    avoid312_to_avoid321,
    avoid321_to_avoid312,
    cycles_to_unimodal_forest,
    forest_to_list_partition,
    forest_to_ordered_lists,
    forest_to_ordered_partition,
    forest_to_partitioned_cycles,
    increasing_forest_to_perm,
    list_partition_to_forest,
    ordered_lists_to_forest,
    ordered_partition_to_forest,
    partitioned_cycles_to_forest,
    perm_to_increasing_forest,
    perm_to_proper_descent_tree,
    proper_descent_tree_to_perm,
    set_partition_to_shallow_forest,
    shallow_forest_to_set_partition,
    unimodal_forest_to_cycles,
)
from forest_patterns.cli import run
from forest_patterns.counting import FORMULA_CLASSES, _leaf_paths_of_vector, _path_mask, binom
from forest_patterns.forests import avoids, avoids_per_vertex, height
from forest_patterns.generate import iter_parent_vectors
from forest_patterns.perms import PatternMode, Permutation
from forest_patterns.verify import _DUALITY_SETS, _complement_words, _patterns

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "ordered_consecutive_n5.json"


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {description}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} {description}: PASS ({elapsed:.1f}s)")


def _rows(n, family, sets, statistic=None):
    """Row n of ``count_sweep`` for each of ``sets``: the avoider weight on
    [n] by statistic value (all under 0 with none)."""
    return [by_n[n] for by_n in count_sweep({family: n}, sets, statistic)[family]]


def _table_counts(figure, max_n=5):
    ref = REFERENCE_TABLES[figure]
    sets, meta = [], []
    for mode in ("classical", "consecutive"):
        for pat in ("321", "231", "132"):
            sets.append([pattern(pat if mode == "classical" else "!" + pat)])
            meta.append((mode, pat))
    out = {}
    for n in range(1, max_n + 1):
        for (mode, pat), got in zip(meta, _rows(n, ref["family"], sets)):
            out[(mode, pat, n)] = got.get(0, 0)
    return out


def test_criterion_1_unordered_table():
    with criterion(1, "unordered avoider table n=1..5 (classical + consecutive)"):
        start = time.monotonic()
        got = _table_counts("7")
        ref = REFERENCE_TABLES["7"]
        for mode in ("classical", "consecutive"):
            for pat, expected in ref[mode].items():
                assert tuple(got[(mode, pat, n)] for n in range(1, 6)) == expected
        assert time.monotonic() - start < 10


def test_criterion_2_binary_table():
    with criterion(2, "binary avoider table n=1..5 validates the family definition"):
        got = _table_counts("12")
        ref = REFERENCE_TABLES["12"]
        for mode in ("classical", "consecutive"):
            for pat, expected in ref[mode].items():
                assert tuple(got[(mode, pat, n)] for n in range(1, 6)) == expected


def test_criterion_3_ordered_table_and_missing_entries():
    with criterion(3, "ordered avoider table + published n=5 consecutive entries"):
        got = _table_counts("13")
        ref = REFERENCE_TABLES["13"]
        for mode in ("classical", "consecutive"):
            for pat, expected in ref[mode].items():
                for n in range(1, 6):
                    if expected[n - 1] is not None:
                        assert got[(mode, pat, n)] == expected[n - 1]

        golden = json.loads(GOLDEN.read_text())
        assert golden["family"] == "ordered" and golden["n"] == 5
        # route A: the counting engine, the gap-state recursion
        for pat, value in golden["counts"].items():
            assert got[("consecutive", pat, 5)] == value
        # route B: per-vertex checker over explicitly enumerated ordered forests
        counts = dict.fromkeys(golden["counts"], 0)
        pats = {p: [pattern("!" + p)] for p in counts}
        for forest in gen_forests(5, FamilyTag.ORDERED):
            for p in counts:
                if avoids_per_vertex(forest, pats[p]):
                    counts[p] += 1
        assert counts == golden["counts"]


def test_criterion_4_theorems_vs_brute_force():
    with criterion(4, "every enumeration formula equals brute force for n=1..7"):
        start = time.monotonic()
        sets, meta = [], []
        for name, classes in FORMULA_CLASSES.items():
            for words in classes:
                sets.append([pattern(w) for w in words])
                meta.append((name, words))
        for n in range(1, 8):
            counts = _rows(n, FamilyTag.UNORDERED, sets)
            for (name, words), got in zip(meta, counts):
                assert got.get(0, 0) == formula(name, n), (name, words, n)

        for n in range(1, 7):
            unimodal = _patterns((213, 312))
            [by_tdm] = _rows(n, FamilyTag.UNORDERED, [unimodal], "tdm")
            for k in range(1, n + 1):
                assert by_tdm.get(k, 0) == factorial(k) * stirling1(n, k)
            [by_trees] = _rows(n, FamilyTag.UNORDERED, [unimodal], "trees")
            for m in range(1, n + 1):
                expected = sum(stirling1(k, m) * stirling1(n, k) for k in range(m, n + 1))
                assert by_trees.get(m, 0) == expected

            flat = _patterns((312, 213, 132))
            [by_trees] = _rows(n, FamilyTag.UNORDERED, [flat], "trees")
            for k in range(1, n + 1):
                expected = factorial(n) // factorial(k) * binom(n - 1, k - 1)
                assert by_trees.get(k, 0) == expected

            rec = _patterns((213, 312, 231))
            [by_trees] = _rows(n, FamilyTag.UNORDERED, [rec], "trees")
            assert by_trees.get(1, 0) == formula("uni231_trees", n)
        assert time.monotonic() - start < 120


def test_criterion_5_bijection_suite(unordered_forests):
    with criterion(5, "bijections: round trips, images, shape/maxima preservation, n<=6"):
        for n in range(1, 7):
            classes = {}

            def cls(*words):
                if words not in classes:
                    pats = [pattern(w) for w in words]
                    classes[words] = {f for f in unordered_forests(n) if avoids(f, pats)}
                return classes[words]

            image = set()
            for w in itertools.permutations(range(1, n + 1)):
                p = Permutation(w)
                f = perm_to_increasing_forest(p)
                assert increasing_forest_to_perm(f) == p
                image.add(f)
            assert image == cls(21)

            image = set()
            for cd in gen_ordered_cycle_decomps(n):
                f = cycles_to_unimodal_forest(cd)
                assert unimodal_forest_to_cycles(f) == cd
                image.add(f)
            assert image == cls(213, 312)

            image = set()
            for sp in gen_set_partitions(n):
                f = set_partition_to_shallow_forest(sp)
                assert shallow_forest_to_set_partition(f) == sp
                image.add(f)
            assert image == {f for f in cls(21) if height(f) <= 2}

            image = set()
            for lp in gen_list_partitions(n):
                f = list_partition_to_forest(lp)
                assert forest_to_list_partition(f) == lp
                image.add(f)
            assert image == cls(312, 213, 132)

            image = set()
            for cd in gen_partitioned_cycle_decomps(n):
                f = partitioned_cycles_to_forest(cd)
                assert forest_to_partitioned_cycles(f) == cd
                image.add(f)
            assert image == cls(213, 312, 123)

            image = set()
            for osp in gen_ordered_set_partitions(n):
                f = ordered_partition_to_forest(osp)
                assert forest_to_ordered_partition(f) == osp
                image.add(f)
            assert image == cls(213, 312, 321)

            image = set()
            count = 0
            for lp in gen_list_partitions(n):
                image.add(list_partition_to_forest(lp, TauVariant.ONE_DESCENT))
                count += 1
            assert len(image) == count
            assert image == cls(321, 132, 213)

            if n >= 2:
                image = set()
                for w in itertools.permutations(range(1, n + 1)):
                    if w.index(2) < w.index(1):
                        p = Permutation(w)
                        t = perm_to_proper_descent_tree(p)
                        assert proper_descent_tree_to_perm(t) == p
                        image.add(t)
                assert len(image) == factorial(n) // 2

            domain = cls(312)
            target = cls(321)
            image = set()
            for f in domain:
                g = avoid312_to_avoid321(f)
                assert avoid321_to_avoid312(g) == f
                assert shape_signature(g) == shape_signature(f)
                assert top_down_maxima(g) == top_down_maxima(f)
                image.add(g)
            assert image == target
            if n == 5:
                assert len(image) == 918

        # the ordered-lists map has a larger domain; exhaustive through n=5
        for n in range(1, 6):
            pats = [pattern(321), pattern(2143), pattern(3142)]
            target = {f for f in unordered_forests(n) if avoids(f, pats)}
            image = set()
            for lp in gen_list_partitions(n, ordered_blocks=True, up_to_reverse=True):
                f = ordered_lists_to_forest(lp)
                assert forest_to_ordered_lists(f) == lp
                image.add(f)
            assert image == target


def test_criterion_6_structural_sanity(unordered_forests):
    with criterion(6, "pattern-length-2 counts, family totals, complement duality"):
        for n in range(1, 8):
            inc, dec = _rows(n, FamilyTag.UNORDERED, [[pattern(21)], [pattern(12)]])
            assert inc.get(0, 0) == dec.get(0, 0) == factorial(n)

        for n in range(0, 9):
            assert count_forests(n, FamilyTag.UNORDERED) == (n + 1) ** max(n - 1, 0)
        for n in range(0, 7):
            assert count_forests(n, FamilyTag.ORDERED) == factorial(n) * catalan(n)
        # the ordered stream itself is duplicate-free and complete at n = 6
        stream = set(gen_forests(6, FamilyTag.ORDERED))
        assert len(stream) == factorial(6) * catalan(6)

        for family in FamilyTag:
            for n in range(1, 7):
                sets, pairs = [], []
                for words in _DUALITY_SETS:
                    comp = _complement_words(words)
                    for mode in PatternMode:
                        sets.append(_patterns(words, mode))
                        sets.append(_patterns(comp, mode))
                        pairs.append((words, comp, mode))
                counts = [by_value.get(0, 0) for by_value in _rows(n, family, sets)]
                for i, (words, comp, mode) in enumerate(pairs):
                    assert counts[2 * i] == counts[2 * i + 1], (family, n, words, mode)

        # per-forest duality for single length-3 patterns, both modes, n <= 6
        atoms = []
        for words in itertools.permutations((1, 2, 3)):
            for consecutive in (False, True):
                atoms.append((words, consecutive))
        comp_of = {
            i: atoms.index((complement(Permutation(w)).word, c))
            for i, (w, c) in enumerate(atoms)
        }
        for n in range(1, 7):
            cache = {}

            def mask_of(vec):
                mask = 0
                for path in _leaf_paths_of_vector(n, vec):
                    m = cache.get(path)
                    if m is None:
                        m = _path_mask(path, atoms)
                        cache[path] = m
                    mask |= m
                return mask

            comp_label = {i + 1: n - i for i in range(n)}
            for vec in iter_parent_vectors(n):
                comp_vec = [0] * n
                for child_index, p in enumerate(vec):
                    child = comp_label[child_index + 1]
                    comp_vec[child - 1] = 0 if p == 0 else comp_label[p]
                mask, comp_mask = mask_of(vec), mask_of(tuple(comp_vec))
                for i, j in comp_of.items():
                    assert bool(mask & (1 << i)) == bool(comp_mask & (1 << j))


def _cli_lines(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    assert code == 0, argv
    return out.getvalue()


def test_criterion_7_parallel_determinism():
    with criterion(7, "count output is byte-identical for --jobs 1 and --jobs 8"):
        for figure, family in (("7", "unordered"), ("12", "binary"), ("13", "ordered")):
            for mode_prefix in ("", "!"):
                for pat in ("321", "231", "132"):
                    for n in range(1, 6):
                        base = [
                            "count", "--family", family, "--n", str(n),
                            "--avoid", mode_prefix + pat, "--format", "json",
                        ]
                        one = _cli_lines(base + ["--jobs", "1"])
                        eight = _cli_lines(base + ["--jobs", "8"])
                        assert one == eight
            table_one = _cli_lines(
                ["table", "--figure", figure, "--max-n", "5", "--format", "csv", "--jobs", "1"]
            )
            table_eight = _cli_lines(
                ["table", "--figure", figure, "--max-n", "5", "--format", "csv", "--jobs", "8"]
            )
            assert table_one == table_eight
