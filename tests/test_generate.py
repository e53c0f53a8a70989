from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_patterns import (
    Composition,
    FamilyTag,
    ListPartition,
    SetPartition,
    bell,
    binom,
    catalan,
    count_forests,
    count_sweep,
    gen_compositions,
    gen_forests,
    gen_list_partitions,
    gen_ordered_cycle_decomps,
    gen_ordered_set_partitions,
    gen_partitioned_cycle_decomps,
    gen_set_partitions,
    iter_parent_vectors,
    pattern,
    stirling1,
    stirling2,
)
from forest_patterns.forests import avoids_per_vertex, from_parents
from forest_patterns.generate import _child_order_weight, satisfies_family
from forest_patterns.perms import PatternMode


class TestForestStreams:
    def test_small_counts(self):
        assert len(list(gen_forests(2, FamilyTag.UNORDERED))) == 3
        assert len(list(gen_forests(2, FamilyTag.ORDERED))) == 4
        assert len(list(gen_forests(3, FamilyTag.UNORDERED_BINARY))) == 15

    def test_empty_ground(self):
        for family in FamilyTag:
            assert len(list(gen_forests(0, family))) == 1

    @pytest.mark.parametrize("binary", [False, True])
    def test_negative_n_yields_no_parent_vector(self, binary):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            next(iter_parent_vectors(-1, binary))

    @pytest.mark.parametrize("family", list(FamilyTag))
    def test_negative_n_has_no_forest_count(self, family):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            count_forests(-1, family)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_unordered_total(self, n):
        assert count_forests(n, FamilyTag.UNORDERED) == (n + 1) ** max(n - 1, 0)

    @pytest.mark.parametrize("n", range(0, 5))
    def test_ordered_total(self, n):
        expected = factorial(n) * catalan(n)
        assert count_forests(n, FamilyTag.ORDERED) == expected
        assert len(list(gen_forests(n, FamilyTag.ORDERED))) == expected

    @pytest.mark.parametrize("family", list(FamilyTag))
    def test_no_duplicates_and_family_membership(self, family):
        top = 6 if family is not FamilyTag.ORDERED else 5
        for n in range(0, top):
            seen = set()
            for f in gen_forests(n, family):
                assert f not in seen
                seen.add(f)
                assert satisfies_family(f, family)

    def test_determinism(self):
        a = list(gen_forests(4, FamilyTag.ORDERED))
        b = list(gen_forests(4, FamilyTag.ORDERED))
        assert a == b

    def test_lexicographic_parent_vectors(self):
        vecs = list(iter_parent_vectors(3))
        assert vecs == sorted(vecs)
        assert len(vecs) == 16

    def test_binary_restricts_virtual_root_too(self):
        tri_root = tuple(f.roots for f in gen_forests(3, FamilyTag.UNORDERED_BINARY))
        assert (1, 2, 3) not in tri_root


# Sets of one to three atoms of length 1 to 4, each classical or consecutive.
atom_sets = st.lists(
    st.builds(
        pattern,
        st.integers(1, 4).flatmap(lambda k: st.permutations(range(1, k + 1))).map(tuple),
        st.sampled_from(PatternMode),
    ),
    min_size=1,
    max_size=3,
    unique=True,
)
families_and_n = st.sampled_from(list(FamilyTag)).flatmap(
    lambda family: st.tuples(st.just(family), st.integers(0, 4 if family is FamilyTag.ORDERED else 5))
)


@settings(max_examples=200, deadline=None)
@given(families_and_n, atom_sets)
def test_pruned_walk_lists_exactly_the_avoiders(family_and_n, pats):
    family, n = family_and_n
    binary = family is FamilyTag.UNORDERED_BINARY
    pruned = list(iter_parent_vectors(n, binary, pats))
    assert pruned == [
        vec for vec in iter_parent_vectors(n, binary) if avoids_per_vertex(from_parents(n, vec), pats)
    ]
    weight = _child_order_weight if family is FamilyTag.ORDERED else (lambda vec: 1)
    assert sum(map(weight, pruned)) == count_sweep({family: n}, [pats])[family][0][n].get(0, 0)


class TestSetPartitions:
    def test_bell_counts(self):
        assert len(list(gen_set_partitions(3))) == 5
        for n in range(0, 9):
            assert len(list(gen_set_partitions(n))) == bell(n)

    def test_blocks_sorted_by_minimum(self):
        for sp in gen_set_partitions(4):
            mins = [b[0] for b in sp.blocks]
            assert mins == sorted(mins)

    def test_ordered_count(self):
        for n in range(0, 6):
            expected = sum(factorial(k) * stirling2(n, k) for k in range(n + 1))
            assert len(list(gen_ordered_set_partitions(n))) == max(expected, 1)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            SetPartition([(1, 2), (2, 3)])


class TestCompositions:
    def test_known_compositions_of_ten(self):
        parts = {c.parts for c in gen_compositions(10)}
        assert (3, 3, 4) in parts and (3, 4, 3) in parts and (2, 2, 1, 4, 1) in parts

    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts(self, n):
        assert len(list(gen_compositions(n))) == 2 ** (n - 1)
        for k in range(1, n + 1):
            assert len(list(gen_compositions(n, k))) == binom(n - 1, k - 1)

    def test_rejects_zero_parts(self):
        with pytest.raises(ValueError):
            Composition([2, 0, 1])


class TestListPartitions:
    def test_orderings_distinguished(self):
        a = ListPartition([(1, 6), (2,), (3, 4, 5)])
        b = ListPartition([(6, 1), (2,), (3, 5, 4)])
        assert a != b

    def test_reverse_identification(self):
        base = ListPartition([(1, 2), (3, 4, 5)], ordered_blocks=True, up_to_reverse=True)
        assert base == ListPartition([(2, 1), (3, 4, 5)], True, True)
        assert base == ListPartition([(2, 1), (5, 4, 3)], True, True)
        assert base != ListPartition([(1, 2), (4, 3, 5)], True, True)
        assert base != ListPartition([(3, 4, 5), (1, 2)], True, True)

    def test_canonical_blocks_put_second_smallest_first(self):
        lp = ListPartition([(1, 3, 2)], up_to_reverse=True)
        assert lp.blocks == ((2, 3, 1),)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_plain_count(self, n):
        expected = sum(
            factorial(n) // factorial(k) * binom(n - 1, k - 1) for k in range(1, n + 1)
        )
        assert len(list(gen_list_partitions(n))) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_up_to_reverse_halves_each_longer_block(self, n):
        expected = sum(
            prod(max(1, factorial(len(b)) // 2) for b in sp.blocks)
            for sp in gen_set_partitions(n)
        )
        assert len(list(gen_list_partitions(n, up_to_reverse=True))) == expected

    def test_ordered_up_to_reverse_count_small(self):
        assert len(list(gen_list_partitions(3, ordered_blocks=True, up_to_reverse=True))) == 15

    @pytest.mark.parametrize("n", range(1, 6))
    def test_no_duplicates(self, n):
        for kwargs in (
            {},
            {"ordered_blocks": True, "up_to_reverse": True},
            {"up_to_reverse": True},
        ):
            items = list(gen_list_partitions(n, **kwargs))
            assert len(items) == len(set(items))


class TestCycleDecompositionStreams:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_ordered_count(self, n):
        expected = sum(factorial(k) * stirling1(n, k) for k in range(1, n + 1))
        items = list(gen_ordered_cycle_decomps(n))
        assert len(items) == expected
        assert len(set(items)) == expected

    @pytest.mark.parametrize("n", range(1, 6))
    def test_partitioned_count(self, n):
        expected = sum(bell(k) * stirling1(n, k) for k in range(1, n + 1))
        items = list(gen_partitioned_cycle_decomps(n))
        assert len(items) == expected
        assert len(set(items)) == expected

    def test_cycles_are_max_first(self):
        for cd in gen_ordered_cycle_decomps(4):
            for c in cd.cycles:
                assert c[0] == max(c)

    def test_supports_cover_ground(self):
        for cd in gen_partitioned_cycle_decomps(4):
            assert cd.support == (1, 2, 3, 4)


def test_partition_stream_order():
    # The exact sequences, so that `enumerate` keeps its output order.
    assert [str(sp) for sp in gen_set_partitions(4)] == [
        "{1,2,3,4}", "{1,2,3}{4}", "{1,2,4}{3}", "{1,2}{3,4}", "{1,2}{3}{4}",
        "{1,3,4}{2}", "{1,3}{2,4}", "{1,3}{2}{4}", "{1,4}{2,3}", "{1}{2,3,4}",
        "{1}{2,3}{4}", "{1,4}{2}{3}", "{1}{2,4}{3}", "{1}{2}{3,4}", "{1}{2}{3}{4}",
    ]
    assert [str(cd) for cd in gen_partitioned_cycle_decomps(3)] == [
        "{(3,1,2)}", "{(3,2,1)}", "{(2,1)(3)}", "{(2,1)}{(3)}", "{(3,1)(2)}",
        "{(3,1)}{(2)}", "{(1)(3,2)}", "{(1)}{(3,2)}", "{(1)(2)(3)}",
        "{(1)(2)}{(3)}", "{(1)(3)}{(2)}", "{(1)}{(2)(3)}", "{(1)}{(2)}{(3)}",
    ]
