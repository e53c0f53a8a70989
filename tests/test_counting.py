import inspect
from collections import Counter
from itertools import accumulate, combinations, permutations, product
from math import comb, factorial, prod

import pytest

from forest_patterns import (
    BudgetExceeded,
    FamilyTag,
    REFERENCE_TABLES,
    bell,
    binom,
    catalan,
    formula,
    gen_avoiders,
    gen_forests,
    pattern,
    shape_signature,
    stirling1,
    stirling2,
    table_rows,
)
import forest_patterns
from forest_patterns import counting, generate, verify
from forest_patterns.counting import FORMULA_CLASSES, STATISTICS, budget_for
from forest_patterns.forests import avoids, avoids_per_vertex, top_down_maxima
from forest_patterns.bijections import avoid312_to_avoid321
from forest_patterns.perms import (
    PatternMode,
    word_contains,
    word_contains_classical,
    word_contains_consecutive,
)

# one classical, one consecutive, and one two-pattern set
OBJECT_ROUTE_SETS = [("321",), ("!231",), ("213", "312")]


def _count(n, family, patterns, statistic=None, budget=None):
    """Row n of a one-set ``count_sweep``: the avoider weight of
    ``patterns`` on [n] by statistic value (all under 0 with none)."""
    swept = counting.count_sweep({family: n}, [list(patterns)], statistic, budget=budget)
    return swept[family][0][n]


class TestOneEntry:
    def test_no_counting_wrappers_are_exported(self):
        for name in ("sweep_counts", "brute_count", "refined_table", "refined_count"):
            assert not hasattr(forest_patterns, name), name
            assert not hasattr(counting, name), name
        assert "count_sweep" in forest_patterns.__all__

    def test_no_public_function_takes_jobs(self):
        for module in (forest_patterns, counting, verify):
            for name, value in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(value):
                    assert "jobs" not in inspect.signature(value).parameters, (module, name)


class TestNumberFamilies:
    def test_stirling_first_kind(self):
        assert stirling1(3, 2) == 3
        assert stirling1(0, 0) == 1
        assert stirling1(4, 5) == 0
        # row sums are factorials
        for n in range(0, 8):
            assert sum(stirling1(n, k) for k in range(n + 1)) == factorial(n)

    def test_stirling_second_kind(self):
        assert stirling2(4, 2) == 7
        for n in range(1, 7):
            assert stirling2(n, n) == 1
            assert stirling2(n, 1) == 1

    def test_bell(self):
        assert bell(0) == 1
        assert bell(3) == 5
        for n in range(0, 8):
            assert bell(n) == sum(stirling2(n, k) for k in range(n + 1))

    def test_binom_total_function(self):
        assert binom(3, 5) == 0
        assert binom(5, -1) == 0
        assert binom(5, 2) == 10

    def test_catalan(self):
        assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]


class TestFormulas:
    def test_known_small_values(self):
        assert formula("unimodal", 3) == 14
        assert formula("uni123", 3) == 13
        assert formula("uni321", 3) == 13
        assert formula("uni132", 3) == 13
        assert formula("onedescent", 3) == 15
        assert formula("onedescent_plus", 3) == 13

    def test_recurrence_values(self):
        assert [formula("uni231_recurrence", n) for n in (1, 2, 3)] == [1, 3, 13]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            formula("nope", 3)

    @pytest.mark.parametrize("name", sorted(FORMULA_CLASSES))
    @pytest.mark.parametrize("n", [*range(1, 6), 9])
    def test_formula_matches_brute_force(self, name, n):
        expected = formula(name, n)
        for words in FORMULA_CLASSES[name]:
            got = _count(n, FamilyTag.UNORDERED, [pattern(w) for w in words], budget=9).get(0, 0)
            assert got == expected


class TestBruteCounts:
    @pytest.mark.parametrize("figure", ["7", "12", "13"])
    def test_reference_tables_up_to_n4(self, figure):
        ref = REFERENCE_TABLES[figure]
        for mode in ("classical", "consecutive"):
            for pat, expected in ref[mode].items():
                word = pat if mode == "classical" else "!" + pat
                for n in range(1, 5):
                    got = _count(n, ref["family"], [pattern(word)]).get(0, 0)
                    assert got == expected[n - 1], (figure, mode, pat, n)

    def test_wilf_split_at_n5(self):
        assert _count(5, FamilyTag.UNORDERED, [pattern(321)]).get(0, 0) == 918
        assert _count(5, FamilyTag.UNORDERED, [pattern(231)]).get(0, 0) == 917
        assert _count(5, FamilyTag.UNORDERED, [pattern(132)]).get(0, 0) == 918

    def test_empty_ground(self):
        assert _count(0, FamilyTag.UNORDERED, [pattern(21)]).get(0, 0) == 1

    def test_pattern_length_two(self):
        for n in range(1, 6):
            assert _count(n, FamilyTag.UNORDERED, [pattern(21)]).get(0, 0) == factorial(n)
            assert _count(n, FamilyTag.UNORDERED, [pattern(12)]).get(0, 0) == factorial(n)

    def test_mixed_mode_pattern_set(self):
        from forest_patterns import avoids, gen_forests

        pats = [pattern(321), pattern("!231")]
        expected = sum(
            1 for f in gen_forests(4, FamilyTag.UNORDERED) if avoids(f, pats)
        )
        assert _count(4, FamilyTag.UNORDERED, pats).get(0, 0) == expected

    @pytest.mark.parametrize("family", list(FamilyTag))
    @pytest.mark.parametrize("word", ["312", "!213", "2143"])
    def test_engine_agrees_with_naive_filter(self, family, word):
        from forest_patterns import avoids, gen_forests

        pats = [pattern(word)]
        expected = sum(1 for f in gen_forests(4, family) if avoids(f, pats))
        assert _count(4, family, pats).get(0, 0) == expected

    def test_sweep_matches_individual_counts(self):
        sets = [[pattern(321)], [pattern(231)], [pattern(321), pattern(231)]]
        swept = counting.count_sweep({FamilyTag.UNORDERED: 4}, sets)[FamilyTag.UNORDERED]
        assert [by_n[4].get(0, 0) for by_n in swept] == [
            _count(4, FamilyTag.UNORDERED, s).get(0, 0) for s in sets
        ]

    def test_uneven_shape_on_five_vertices(self):
        # exactly one shape on [5] has 60 labelings of which 43 avoid 321
        # and 42 avoid 231; it accounts for the whole 918 vs 917 split
        groups = {}
        for f in gen_forests(5, FamilyTag.UNORDERED):
            sig = shape_signature(f)
            entry = groups.setdefault(sig, [0, 0, 0])
            entry[0] += 1
            entry[1] += avoids(f, [pattern(321)])
            entry[2] += avoids(f, [pattern(231)])
        uneven = [v for v in groups.values() if v[1] != v[2]]
        assert uneven == [[60, 43, 42]]


class TestRefinedCounts:
    def test_unimodal_single_tree_n2(self):
        assert _count(2, FamilyTag.UNORDERED, [pattern(213), pattern(312)], "trees").get(1, 0) == 2

    def test_uni132_all_singletons(self):
        pats = [pattern(312), pattern(213), pattern(132)]
        assert _count(3, FamilyTag.UNORDERED, pats, "trees").get(3, 0) == 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_maximal_tdm_means_increasing(self, n):
        pats = [pattern(213), pattern(312)]
        assert _count(n, FamilyTag.UNORDERED, pats, "tdm").get(n, 0) == factorial(n)

    @pytest.mark.parametrize("statistic", ["tdm", "trees"])
    def test_refined_sums_to_unrefined(self, statistic):
        sets = [[pattern(w) for w in words] for words in [("2143",), ("213", "312"), ("321", "!213")]]
        caps = {family: 11 for family in FamilyTag}
        plain = counting.count_sweep(caps, sets, budget=11)
        refined = counting.count_sweep(caps, sets, statistic, budget=11)
        for family in FamilyTag:
            for by_n, totals in zip(refined[family], plain[family]):
                assert [sum(table.values()) for table in by_n] == [t.get(0, 0) for t in totals]

    @pytest.mark.parametrize("family", list(FamilyTag))
    @pytest.mark.parametrize("words", OBJECT_ROUTE_SETS)
    def test_refined_agrees_with_object_route(self, family, words):
        pats = [pattern(w) for w in words]
        for n in range(5):
            by_trees, by_tdm = Counter(), Counter()
            for f in gen_forests(n, family):
                if avoids_per_vertex(f, pats):
                    by_trees[len(f.roots)] += 1
                    by_tdm[len(top_down_maxima(f))] += 1
            assert _count(n, family, pats, "trees") == by_trees, n
            assert _count(n, family, pats, "tdm") == by_tdm, n

    def test_unknown_statistic(self):
        with pytest.raises(ValueError):
            _count(3, FamilyTag.UNORDERED, [pattern(21)], "leaves")
        with pytest.raises(ValueError, match="unknown statistic"):
            counting.count_sweep({FamilyTag.UNORDERED: 3}, [[pattern(21)]], "leaves")


LENGTH_THREE = ("123", "132", "213", "231", "312", "321")
LENGTH_THREE_SETS = [
    words for r in range(1, 7) for words in combinations(LENGTH_THREE, r)
]
MIXED_AND_LONGER_SETS = [("123", "!321"), ("!321", "132"), ("321", "2143", "3142"), ("!2143",), ("1",)]


def _top_n(family):
    return 4 if family is FamilyTag.ORDERED else 5


def _assert_rows(family, words, statistic, max_n):
    """Row n of one call up to ``max_n`` equals the tally for n <= 4 and a
    fresh call up to n above that."""
    sets = [[pattern(w) for w in ws] for ws in words]
    swept = counting.count_sweep({family: max_n}, sets, statistic, budget=max_n)[family]
    assert all(len(by_n) == max_n + 1 for by_n in swept)
    for n in range(max_n):
        if n > 4:
            oracle = [by_n[n] for by_n in counting.count_sweep({family: n}, sets, statistic)[family]]
        elif statistic is None:
            oracle = counting._tally(n, family, sets)
        else:
            oracle = [counting._tally(n, family, [s], statistic)[0] for s in sets]
        assert [by_n[n] for by_n in swept] == oracle, n


class TestTwoRoutes:
    """The recursion behind every count against the parent-vector tally."""

    @pytest.mark.parametrize("family", list(FamilyTag))
    @pytest.mark.parametrize("prefix", ["", "!"], ids=["classical", "consecutive"])
    def test_every_set_of_length_three_patterns(self, family, prefix):
        assert len(LENGTH_THREE_SETS) == 63
        sets = [[pattern(prefix + w) for w in words] for words in LENGTH_THREE_SETS]
        for n in range(_top_n(family) + 1):
            oracle = [t.get(0, 0) for t in counting._tally(n, family, sets)]
            swept = counting.count_sweep({family: n}, sets)[family]
            assert [by_n[n].get(0, 0) for by_n in swept] == oracle, n

    @pytest.mark.parametrize("family", list(FamilyTag))
    def test_mixed_and_longer_sets(self, family):
        sets = [[pattern(w) for w in words] for words in MIXED_AND_LONGER_SETS]
        for n in range(6):
            oracle = [t.get(0, 0) for t in counting._tally(n, family, sets)]
            swept = counting.count_sweep({family: n}, sets)[family]
            assert [by_n[n].get(0, 0) for by_n in swept] == oracle, n

    @pytest.mark.parametrize("family", list(FamilyTag))
    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_refinements(self, family, statistic):
        for words in [(w,) for w in LENGTH_THREE] + [("!" + w,) for w in LENGTH_THREE] + [
            *OBJECT_ROUTE_SETS,
            *MIXED_AND_LONGER_SETS,
        ]:
            pats = [pattern(w) for w in words]
            for n in range(5):
                oracle = counting._tally(n, family, [pats], statistic)[0]
                assert _count(n, family, pats, statistic) == oracle, (words, n)

    @pytest.mark.parametrize("family", list(FamilyTag))
    @pytest.mark.parametrize("prefix", ["", "!"], ids=["classical", "consecutive"])
    @pytest.mark.parametrize("statistic", [None, *STATISTICS], ids=["plain", *STATISTICS])
    def test_one_call_answers_every_n(self, family, prefix, statistic):
        words = [tuple(prefix + w for w in ws) for ws in LENGTH_THREE_SETS]
        if not prefix:
            words += MIXED_AND_LONGER_SETS
        _assert_rows(family, words, statistic, 6)

    @pytest.mark.parametrize("family", list(FamilyTag))
    @pytest.mark.parametrize("statistic", [None, *STATISTICS], ids=["plain", *STATISTICS])
    def test_one_call_answers_every_n_up_to_seven(self, family, statistic):
        words = [(p + w,) for p in ("", "!") for w in LENGTH_THREE] + MIXED_AND_LONGER_SETS
        _assert_rows(family, words, statistic, 7)

    @pytest.mark.parametrize("statistic", [None, *STATISTICS], ids=["plain", *STATISTICS])
    def test_families_share_path_memos(self, statistic):
        words = [*OBJECT_ROUTE_SETS, *MIXED_AND_LONGER_SETS, *COMPRESSED_SETS]
        sets = [[pattern(w) for w in ws] for ws in words]
        caps = {family: 6 for family in FamilyTag}
        shared = counting.count_sweep(caps, sets, statistic)
        for family in FamilyTag:
            assert shared[family] == counting.count_sweep({family: 6}, sets, statistic)[family]

    @pytest.mark.parametrize("family", list(FamilyTag))
    def test_trees_expand_the_plain_states(self, family):
        # Trees are counted along the top-level chain alone, so the trees
        # statistic reaches exactly the compressed states of a plain count.
        for words in [("2143",), ("213", "312"), ("321", "!213")]:
            atoms, _ = counting._compile_sets([[pattern(w) for w in words]])
            keys = []
            for statistic in (None, "trees"):
                paths = counting._PathMemos()
                counting._gap_count(8, family, atoms, statistic, paths, counting._GapTables())
                keys.append(set(paths.plans))
            assert keys[0] and keys[0] == keys[1], words

    def test_memos_are_freed_per_set_and_equal_sets_run_once(self, monkeypatch):
        seen = []
        gap_count = counting._gap_count

        def spy(max_n, family, atoms, statistic, paths, tables):
            seen.append((family, tuple(atoms), len(paths.grown)))
            return gap_count(max_n, family, atoms, statistic, paths, tables)

        monkeypatch.setattr(counting, "_gap_count", spy)
        sets = [[pattern(321)], [pattern(231)], [pattern(321)]]
        caps = {FamilyTag.UNORDERED: 4, FamilyTag.ORDERED: 3}
        swept = counting.count_sweep(caps, sets)
        assert [(family, atoms) for family, atoms, _ in seen] == [
            (FamilyTag.UNORDERED, (((3, 2, 1), False),)),
            (FamilyTag.ORDERED, (((3, 2, 1), False),)),
            (FamilyTag.UNORDERED, (((2, 3, 1), False),)),
            (FamilyTag.ORDERED, (((2, 3, 1), False),)),
        ]
        # each set starts from empty path memos, and its second family
        # finds the first one's
        assert [hits == 0 for _, _, hits in seen] == [True, False, True, False]
        for family in caps:
            assert swept[family][2] == swept[family][0]

    @pytest.mark.parametrize("statistic", [None, *STATISTICS], ids=["plain", *STATISTICS])
    def test_sets_sharing_gap_tables_count_as_alone(self, statistic):
        words = [*COMPRESSED_SETS, *MIXED_AND_LONGER_SETS, *OBJECT_ROUTE_SETS]
        sets = [[pattern(w) for w in ws] for ws in words]
        caps = {family: 6 for family in FamilyTag}
        shared = counting.count_sweep(caps, sets, statistic)
        for i, patterns in enumerate(sets):
            alone = counting.count_sweep(caps, [patterns], statistic)
            for family in FamilyTag:
                assert shared[family][i] == alone[family][0], (words[i], family)

    @pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
    def test_gap_tables_are_shared_by_a_sweep_and_freed_after_it(self, monkeypatch, fail):
        seen = []
        gap_count = counting._gap_count

        def spy(max_n, family, atoms, statistic, paths, tables):
            seen.append((tables, len(tables.splits)))
            if fail and len(seen) == 3:
                raise RuntimeError("stop")
            return gap_count(max_n, family, atoms, statistic, paths, tables)

        monkeypatch.setattr(counting, "_gap_count", spy)
        sets = [[pattern(321)], [pattern("!231")]]
        caps = {FamilyTag.UNORDERED: 5, FamilyTag.UNORDERED_BINARY: 5}
        if fail:
            with pytest.raises(RuntimeError, match="stop"):
                counting.count_sweep(caps, sets)
        else:
            counting.count_sweep(caps, sets)
        tables = seen[0][0]
        # one instance serves the whole sweep: only the first call finds it
        # empty, and nothing is left in it once the sweep is over
        assert all(t is tables for t, _ in seen)
        assert [size == 0 for _, size in seen] == [True] + [False] * (len(seen) - 1)
        assert not (tables.splits or tables.tuples)
        first = len(seen)
        counting.count_sweep(caps, sets)
        assert seen[first][0] is not tables and seen[first][1] == 0

    def test_empty_set_counts_every_forest(self):
        caps = {FamilyTag.UNORDERED: 6, FamilyTag.UNORDERED_BINARY: 7, FamilyTag.ORDERED: 6}
        swept = counting.count_sweep(caps, [[]])
        totals = {
            family: [by_n.get(0, 0) for by_n in swept[family][0]] for family in caps
        }
        for family, cap in caps.items():
            assert totals[family] == [generate.count_forests(n, family) for n in range(cap + 1)]
        assert totals[FamilyTag.UNORDERED] == [(n + 1) ** max(n - 1, 0) for n in range(7)]
        assert totals[FamilyTag.ORDERED] == [factorial(n) * catalan(n) for n in range(7)]

    def test_no_count_enumerates_parent_vectors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a count enumerated parent vectors")

        monkeypatch.setattr(counting, "iter_parent_vectors", refuse)
        assert _count(7, FamilyTag.UNORDERED, [pattern(321)]).get(0, 0) == 123417
        swept = counting.count_sweep({FamilyTag.UNORDERED: 5}, [[pattern(321)], [pattern(231)]])
        assert [by_n[5].get(0, 0) for by_n in swept[FamilyTag.UNORDERED]] == [918, 917]
        tdm = _count(5, FamilyTag.UNORDERED, [pattern(213), pattern(312)], "tdm")
        assert tdm == {k: factorial(k) * stirling1(5, k) for k in range(1, 6)}
        assert [r["computed"] for r in table_rows("13", 4) if r["n"] == 4][:3] == [304, 304, 304]
        with pytest.raises(AssertionError, match="parent vectors"):
            counting._tally(2, FamilyTag.UNORDERED, [[pattern(21)]])


COMPRESSED_SETS = [(w,) for w in LENGTH_THREE] + [("213", "312"), ("321", "2143", "3142"), ("1234",)]


def _futures(caps, longest):
    """Every word of 1..longest values taken from the gaps of a path, at most
    caps[i] from gap i, once per relative order.  Path value x stands for
    10 * x, the r-th smallest new value of gap i for 10 * i + 1 + r."""
    for length in range(1, longest + 1):
        for seq in product(range(len(caps)), repeat=length):
            uses = Counter(seq)
            if any(k > caps[i] for i, k in uses.items()):
                continue
            used = sorted(uses)
            for ranks in product(*(permutations(range(uses[i])) for i in used)):
                order = {i: iter(r) for i, r in zip(used, ranks)}
                yield tuple(10 * i + 1 + next(order[i]) for i in seq)


# COMPRESSED_SETS, then the mixed and longer sets it lacks
RULE_SETS = COMPRESSED_SETS + [w for w in MIXED_AND_LONGER_SETS if w not in COMPRESSED_SETS]


class TestClassicalCompression:
    """Dropping the path values that no future needs."""

    @pytest.mark.parametrize("words", RULE_SETS, ids="-".join)
    def test_dropped_values_change_no_future(self, words):
        atoms = [pattern(w) for w in words]
        classical = [p.perm.word for p in atoms if p.mode is PatternMode.CLASSICAL]
        runs = [p.perm.word for p in atoms if p.mode is PatternMode.CONSECUTIVE]
        window = max(map(len, runs), default=1) - 1
        longest = max(len(p.perm.word) for p in atoms) - 1  # values an occurrence takes after the path

        def hit(seq, start):
            """Classical atoms on all of ``seq``, consecutive ones on the
            windows that end at ``start`` or later."""
            return any(word_contains_classical(seq, a) for a in classical) or any(
                word_contains_consecutive(seq[max(start - len(a) + 1, 0) :], a) for a in runs
            )

        dropped = checked = 0
        for length in range(1, 6 - longest):
            for path in permutations(range(1, length + 1)):
                if hit(path, 0):
                    continue
                found = counting._occurrences(path, classical)
                last = path[max(length - window, 0) :]
                for fixed in (last, last + (length,)):  # under tdm the maximum stays too
                    for caps in product(range(3), repeat=length + 1):
                        drop = counting._needless(caps, found, fixed)
                        assert not set(drop) & set(fixed), (path, caps, drop)
                        dropped += len(drop)
                        whole = tuple(10 * x for x in path)
                        rest = tuple(10 * x for x in path if x not in drop)
                        for future in _futures(caps, longest):
                            checked += 1
                            assert hit(whole + future, len(whole)) == hit(rest + future, len(rest)), (
                                path, caps, fixed, drop, future,
                            )
        # a set drops values unless no path avoids it or its window covers
        # every path checked
        assert dropped or not checked or window >= 5 - longest

    def test_321_keeps_the_maximum_and_the_largest_value_after_a_larger_one(self):
        found = counting._occurrences((2, 4, 1, 3), [(3, 2, 1)])
        assert counting._needless((2, 2, 2, 2, 2), found, ()) == (1, 2)
        # with no label between 1 and 4, the pairs (2, 1), (4, 1) and (4, 3)
        # need the same labels, and one of them is enough
        assert counting._needless((2, 0, 0, 0, 2), found, ()) == (1, 2)

    def test_dead_occurrences_are_dropped(self):
        found = counting._occurrences((1,), [(1, 2, 3)])
        assert counting._needless((2, 1), found, ()) == (1,)  # one label above 1
        assert counting._needless((0, 2), found, ()) == ()

    @pytest.mark.parametrize("family", list(FamilyTag))
    def test_equals_the_uncompressed_recursion(self, family, monkeypatch):
        sets = [[pattern(w) for w in words] for words in COMPRESSED_SETS + MIXED_AND_LONGER_SETS]
        statistics = (None, *STATISTICS)
        compressed = [counting.count_sweep({family: 7}, sets, s, budget=7) for s in statistics]
        # drop nothing, and skip the occurrences that nothing reads then
        monkeypatch.setattr(counting, "_needless", lambda caps, found, fixed: ())
        monkeypatch.setattr(counting, "_occurrences", lambda path, words: [])
        assert [counting.count_sweep({family: 7}, sets, s, budget=7) for s in statistics] == compressed

    def test_tdm_and_mixed_sets_drop_path_values(self, monkeypatch):
        drops = []

        def spy(path, drop):
            drops.append(drop)
            return drop_plan(path, drop)

        drop_plan = counting._drop_plan
        monkeypatch.setattr(counting, "_drop_plan", spy)
        _count(7, FamilyTag.UNORDERED, [pattern(312)], "tdm")
        assert drops
        drops.clear()
        _count(7, FamilyTag.UNORDERED, [pattern(321), pattern("!213")])
        assert drops

    @pytest.mark.parametrize("family", list(FamilyTag))
    def test_312_and_321_share_the_tdm_split(self, family):
        # the engine's route; the shape- and maxima-preserving bijection
        # avoid312_to_avoid321 is the second
        for n in range(10):
            tdm = _count(n, family, [pattern(312)], "tdm", budget=9)
            assert tdm == _count(n, family, [pattern(321)], "tdm", budget=9), n
        if family is not FamilyTag.ORDERED:
            for n in range(6):
                mapped = Counter(
                    len(top_down_maxima(avoid312_to_avoid321(f)))
                    for f in gen_avoiders(n, family, [pattern(312)])
                )
                assert mapped == _count(n, family, [pattern(321)], "tdm"), n


# Consecutive atoms alone, of mixed lengths, and some that every long path hits.
CONSECUTIVE_SETS = [("!2143",), ("!1324", "!21"), ("!123", "!321"), ("!2413", "!132"), ("!12",)]


class TestConsecutiveSuffix:
    """With consecutive atoms alone and no tdm, a path keeps just its
    longest suffix that starts like an atom."""

    def test_a_path_keeps_its_longest_suffix_that_starts_an_atom(self):
        atoms, _ = counting._compile_sets([[pattern("!213")]])
        for statistic, kept in ((None, (1,)), ("trees", (1,)), ("tdm", (1, 2))):
            paths, tables = counting._PathMemos(), counting._GapTables()
            counting._gap_count(6, FamilyTag.UNORDERED, atoms, statistic, paths, tables)
            # 1 2 cannot start 213 and drops its 1, but tdm keeps the last two
            # values and the maximum; 2 1 can start 213, and stays whole
            assert (paths.plans[(1, 2)] or ((1, 2),))[0] == kept, statistic
            assert paths.plans[(2, 1)] == (), statistic

    @pytest.mark.parametrize("family", list(FamilyTag))
    @pytest.mark.parametrize("statistic", [None, "trees"], ids=["plain", "trees"])
    def test_equals_the_tally(self, family, statistic):
        sets = [[pattern(w) for w in words] for words in CONSECUTIVE_SETS]
        swept = counting.count_sweep({family: 6}, sets, statistic, budget=6)[family]
        for n in range(7):
            oracle = [counting._tally(n, family, [s], statistic)[0] for s in sets]
            assert [by_n[n] for by_n in swept] == oracle, n


def _grown(path, i):
    """``path`` grown by a value in its gap ``i``."""
    return tuple(v + (v > i) for v in path) + (i + 1,)


class TestDeadGaps:
    """A state with a label in a gap where the grown path hits a classical
    atom weighs zero, and the recursion never expands it."""

    @pytest.mark.parametrize("words", [("213", "312"), ("2143",), ("321", "2143", "3142")], ids="-".join)
    def test_no_zero_state_is_expanded(self, words):
        atoms, _ = counting._compile_sets([[pattern(w) for w in words]])
        paths, tables = counting._PathMemos(), counting._GapTables()
        counting._gap_count(8, FamilyTag.UNORDERED, atoms, None, paths, tables)
        # every state that reached ``below`` left a drop plan keyed by its
        # path and capped gaps; none of its nonempty gaps is dead
        assert paths.plans
        for path, gaps in paths.plans:
            for i, size in enumerate(gaps):
                dead = any(word_contains_classical(_grown(path, i), w) for w, _ in atoms)
                assert not (size and dead), (path, gaps, i)

    @pytest.mark.parametrize("family", list(FamilyTag))
    @pytest.mark.parametrize("statistic", [None, *STATISTICS], ids=["plain", *STATISTICS])
    def test_a_consecutive_atom_never_marks_a_gap_dead(self, family, statistic):
        # Under !132 the root path 1 3 takes no child in its middle gap, yet
        # a label there can still sit deeper, below a 4.
        sets = [[pattern(w) for w in words] for words in [("!132", "4321"), ("!132", "2143"), ("!231", "123")]]
        top = 5 if family is FamilyTag.ORDERED else 6
        swept = counting.count_sweep({family: top}, sets, statistic, budget=top)[family]
        for n in range(top + 1):
            oracle = [counting._tally(n, family, [s], statistic)[0] for s in sets]
            assert [by_n[n] for by_n in swept] == oracle, n

    def test_reach_of_two_closed_forms(self):
        n = 20
        lah = sum(comb(n - 1, k - 1) * factorial(n) // factorial(k) for k in range(1, n + 1))
        assert lah == 327697927886085654441
        lah_class = [pattern(w) for w in ("312", "213", "132")]
        assert _count(n, FamilyTag.UNORDERED, lah_class, budget=n) == {0: lah}
        unimodal = _count(13, FamilyTag.UNORDERED, [pattern(213), pattern(312)], budget=13)
        assert unimodal == {0: formula("unimodal", 13)}
        # increasing plane forests: (2n - 1)!!
        assert _count(14, FamilyTag.ORDERED, [pattern(21)], budget=14) == {0: 213458046676875}
        assert prod(range(1, 28, 2)) == 213458046676875
        # increasing binary forests: the Euler zigzag number E(n + 1)
        row = [1]
        for _ in range(17):  # the boustrophedon, row k ending in E(k)
            row = list(accumulate(reversed(row), initial=0))
        assert row[-1] == 209865342976
        assert _count(16, FamilyTag.UNORDERED_BINARY, [pattern(21)], budget=16) == {0: row[-1]}
        totals = counting.count_sweep({FamilyTag.ORDERED: 12}, [[]], budget=12)[FamilyTag.ORDERED][0]
        assert totals == [{0: factorial(n) * catalan(n)} for n in range(13)]


class TestPackedValues:
    @pytest.mark.parametrize("family", list(FamilyTag))
    def test_no_field_carries(self, family):
        # The empty set gives the largest weight any set can, in every field.
        top = 24
        plain, trees, tdm = (
            counting.count_sweep({family: top}, [[]], statistic, budget=top)[family][0]
            for statistic in (None, "trees", "tdm")
        )
        closed = {  # forests on [n] with k trees
            FamilyTag.UNORDERED: lambda n, k: comb(n - 1, k - 1) * n ** (n - k),  # Cayley
            FamilyTag.ORDERED: lambda n, k: factorial(n - 1) * k * comb(2 * n - k - 1, n - 1),
        }
        for n in range(1, top + 1):
            assert sum(trees[n].values()) == plain[n][0] == sum(tdm[n].values()), n
            if family in closed:
                assert trees[n] == {k: closed[family](n, k) for k in range(1, n + 1)}, n


# Pattern sets whose unordered and binary streams are also checked at n = 6.
STREAM_SETS_AT_SIX = [("213", "312"), ("!231",), ("123", "!321"), ("1",)]


class TestAvoiderStream:
    @pytest.mark.parametrize("family", list(FamilyTag))
    @pytest.mark.parametrize(
        "words",
        [("321",), ("!231",), ("213", "312"), ("123", "!321"), ("321", "2143", "3142"), ("1",)],
    )
    def test_equals_filtered_forest_stream(self, family, words):
        pats = [pattern(w) for w in words]
        if family is FamilyTag.ORDERED:
            top = 5
        else:
            top = 7 if words in STREAM_SETS_AT_SIX else 6
        for n in range(top):
            expected = [f for f in gen_forests(n, family) if avoids_per_vertex(f, pats)]
            assert list(gen_avoiders(n, family, pats)) == expected, n

    def test_never_lists_every_parent_vector(self, monkeypatch):
        pats = [pattern(w) for w in ("213", "!312")]
        for family in FamilyTag:
            expected = [f for f in gen_forests(4, family) if avoids_per_vertex(f, pats)]
            assert list(gen_avoiders(4, family, pats)) == expected

        # Every chain contains 1, so the walk dies at vertex 1 after one
        # chain test per parent it tries; a walk that tested whole vectors
        # would visit about 10^8 of them at n = 9.
        n = 9
        tests = []

        def spy(word, pat):
            tests.append(word)
            if len(tests) > n + 1:
                raise AssertionError(f"{len(tests)} chain tests: the walk is not pruned")
            return word_contains(word, pat)

        monkeypatch.setattr(generate, "word_contains", spy)
        for family in FamilyTag:
            tests.clear()
            assert list(gen_avoiders(n, family, [pattern(1)])) == []
            assert tests

    def test_rejects_negative_n_and_empty_pattern_set(self):
        with pytest.raises(ValueError, match="nonnegative"):
            next(gen_avoiders(-1, FamilyTag.UNORDERED, [pattern(21)]))
        with pytest.raises(ValueError, match="nonempty"):
            next(gen_avoiders(2, FamilyTag.UNORDERED, []))


class TestBudgets:
    def test_default_budget_blocks_large_n(self):
        with pytest.raises(BudgetExceeded):
            _count(9, FamilyTag.UNORDERED, [pattern(21)])
        with pytest.raises(BudgetExceeded):
            _count(9, FamilyTag.ORDERED, [pattern(21)])

    def test_explicit_budget_argument(self, monkeypatch):
        monkeypatch.setenv("FOREST_PATTERNS_BUDGET", "unordered=3")
        with pytest.raises(BudgetExceeded):
            _count(4, FamilyTag.UNORDERED, [pattern(21)])
        assert _count(4, FamilyTag.UNORDERED, [pattern(21)], budget=4).get(0, 0) == 24

    def test_env_budget_formats(self, monkeypatch):
        monkeypatch.setenv("FOREST_PATTERNS_BUDGET", "5")
        assert budget_for(FamilyTag.ORDERED) == 5
        monkeypatch.setenv("FOREST_PATTERNS_BUDGET", "unordered=9,ordered=4")
        assert budget_for(FamilyTag.UNORDERED) == 9
        assert budget_for(FamilyTag.ORDERED) == 4
        assert budget_for(FamilyTag.UNORDERED_BINARY) == 9
        for bad in ("unordered:9", "unordered=x", "unorderd=9", "unordered=9,"):
            monkeypatch.setenv("FOREST_PATTERNS_BUDGET", bad)
            with pytest.raises(ValueError, match="FOREST_PATTERNS_BUDGET.*N or unordered=N"):
                budget_for(FamilyTag.UNORDERED)

    @pytest.mark.parametrize("env", ["-2", "unordered=-2", "binary=5,ordered=-1"])
    def test_negative_env_budget_is_rejected_for_every_family(self, monkeypatch, env):
        monkeypatch.setenv("FOREST_PATTERNS_BUDGET", env)
        bad = env.rsplit("=", 1)[-1]
        for family in FamilyTag:
            with pytest.raises(ValueError, match=f"FOREST_PATTERNS_BUDGET=.*negative budget {bad}$"):
                budget_for(family)

    def test_negative_budget_is_rejected_before_counting(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("counted before the budget check")

        monkeypatch.setattr(counting, "_gap_count", refuse)
        with pytest.raises(ValueError, match="budget must be nonnegative, got -3"):
            _count(0, FamilyTag.UNORDERED, [pattern(321)], budget=-3)
        monkeypatch.setenv("FOREST_PATTERNS_BUDGET", "-2")
        with pytest.raises(ValueError, match="negative budget -2"):
            counting.count_sweep({FamilyTag.UNORDERED: 0}, [[pattern(321)]])

    @pytest.mark.parametrize(
        "n, budget, message",
        [
            (True, None, "n must be an integer, got True"),
            (2.0, None, "n must be an integer, got 2.0"),
            (None, None, "n must be an integer, got None"),
            (2, 2.5, "budget must be an integer, got 2.5"),
            (2, True, "budget must be an integer, got True"),
            (2, "9", "budget must be an integer, got '9'"),
        ],
    )
    def test_non_integer_n_or_budget_is_rejected_before_counting(self, monkeypatch, n, budget, message):
        def refuse(*args):
            raise AssertionError("counted before the type check")

        monkeypatch.setattr(counting, "_gap_count", refuse)
        with pytest.raises(ValueError, match=f"^{message}$"):
            counting.count_sweep({FamilyTag.UNORDERED: n}, [[pattern(321)]], budget=budget)


class TestTableRows:
    def test_rows_match_expectations_up_to_n3(self):
        rows = list(table_rows("7", 3))
        assert len(rows) == 18
        assert all(r["computed"] == r["expected"] for r in rows)

    def test_missing_entries_reported_as_none(self):
        rows = [r for r in table_rows("13", 5) if r["n"] == 5 and r["mode"] == "consecutive"]
        assert [r["expected"] for r in rows] == [None, None, None]
        assert all(isinstance(r["computed"], int) for r in rows)

    def test_budget_checked_before_any_sweep(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("counted before the budget check")

        monkeypatch.setattr(counting, "_gap_count", refuse)
        with pytest.raises(BudgetExceeded):
            next(table_rows("7", 9))

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            list(table_rows("99", 3))

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_max_n_below_one_fails_before_the_stream_is_read(self, max_n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("counted before max_n was checked")

        monkeypatch.setattr(counting, "count_sweep", refuse)
        with pytest.raises(ValueError, match=f"^max_n must be at least 1, got {max_n}$"):
            table_rows("7", max_n)
