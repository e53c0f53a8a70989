import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forest_patterns import (
    CycleDetected,
    DescentKind,
    Forest,
    NotAncestorClosed,
    ParentOutOfRange,
    Pattern,
    PatternMode,
    Permutation,
    avoids,
    avoids_per_vertex,
    complement,
    complement_forest,
    descent_kind,
    from_parents,
    height,
    largest_increasing_subforest,
    pattern,
    root_leaf_paths,
    shape_signature,
    top_down_maxima,
)
from forest_patterns.forests import InvalidChildOrder, is_increasing, relabel, root_vertex_paths

from .conftest import forest_st

ALL_LENGTH3 = [
    Pattern(Permutation(w), mode)
    for w in itertools.permutations((1, 2, 3))
    for mode in PatternMode
]


def chain(*labels):
    """Tree whose root-to-leaf path reads off ``labels``."""
    parent = {labels[0]: 0}
    for a, b in zip(labels, labels[1:]):
        parent[b] = a
    return Forest(parent)


class TestConstruction:
    def test_two_chain(self):
        f = from_parents(2, {1: 0, 2: 1})
        assert f.roots == (1,) and f.children(1) == (2,)

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            from_parents(2, {1: 2, 2: 1})
        with pytest.raises(CycleDetected):
            Forest({1: 1})

    def test_parent_out_of_range(self):
        with pytest.raises(ParentOutOfRange):
            from_parents(2, {1: 0, 2: 3})
        with pytest.raises(ParentOutOfRange):
            from_parents(2, {1: 0, 3: 0})

    def test_ten_vertex_parent_map(self, ten_vertex_increasing):
        f = ten_vertex_increasing
        assert set(f.roots) == {1, 3}
        assert f.children(2) == (5, 7, 9)
        assert is_increasing(f)

    def test_vector_form_matches_mapping_form(self):
        assert from_parents(3, [0, 1, 1]) == from_parents(3, {1: 0, 2: 1, 3: 1})

    def test_equality_is_parent_map_equality(self):
        assert Forest({1: 0, 2: 1}) == Forest({2: 1, 1: 0})
        assert Forest({1: 0, 2: 1}) != Forest({1: 2, 2: 0})

    def test_ordered_equality_includes_child_order(self):
        base = {1: 0, 2: 0}
        a = Forest(base, {0: (1, 2), 1: (), 2: ()})
        b = Forest(base, {0: (2, 1), 1: (), 2: ()})
        assert a != b and a != Forest(base)
        assert a == Forest(base, {0: (1, 2), 1: (), 2: ()})

    def test_ordered_forest_differs_from_its_unordered_base(self):
        plain = from_parents(3, [0, 1, 1])
        # child orders in ascending order: only being ordered tells them apart
        ordered = Forest(plain.parent, {0: (1,), 1: (2, 3), 2: (), 3: ()})
        assert ordered != plain and plain != ordered
        assert len({plain, ordered, from_parents(3, {1: 0, 2: 1, 3: 1})}) == 2
        assert hash(plain) == hash(from_parents(3, [0, 1, 1]))

    def test_child_order_must_match_children(self):
        with pytest.raises(ValueError):
            Forest({1: 0, 2: 0}, {0: (1,), 1: (), 2: ()})

    def test_empty_forest(self):
        f = Forest({})
        assert f.n == 0 and f.roots == () and height(f) == 0

    @pytest.mark.parametrize(
        "parent, order, error, message",
        [
            ({0: 1, 1: 0}, None, ParentOutOfRange, "0 is the virtual root, not a vertex"),
            ({2: 0, -3: 2}, None, ParentOutOfRange, "vertices must be positive integers"),
            ({1: 0, 2: 2}, None, CycleDetected, "vertex 2 is its own parent"),
            ({1: 0, 2: 5}, None, ParentOutOfRange, "parent 5 of vertex 2 is not a vertex"),
            ({1: 2, 2: 1}, None, CycleDetected, "cycle through vertex 1"),
            ({1: 0, 2: 1, 3: 5, 4: 3, 5: 4}, None, CycleDetected, "cycle through vertex 3"),
            ({3: 4, 4: 3, 1: 0, 2: 1}, None, CycleDetected, "cycle through vertex 3"),
            (
                {1: 0, 2: 1},
                {0: (1,), 1: (3,)},
                InvalidChildOrder,
                "child order (3,) of vertex 1 does not match children [2]",
            ),
        ],
    )
    def test_malformed_map_errors(self, parent, order, error, message):
        with pytest.raises(error) as info:
            Forest(parent, order)
        assert type(info.value) is error and str(info.value) == message

    def test_child_order_of_a_non_vertex_rejected(self):
        with pytest.raises(InvalidChildOrder, match="key 7 is neither 0 nor a vertex"):
            Forest({1: 0}, {0: (1,), 1: (), 7: (3,)})


class TestPaths:
    def test_two_chain_single_path(self):
        assert root_leaf_paths(chain(1, 2)) == [(1, 2)]

    def test_fourteen_vertex_contains_path(self, fourteen_vertex_example):
        assert (11, 12, 14) in root_leaf_paths(fourteen_vertex_example)

    def test_unimodal_longest_path(self, unimodal_twelve):
        paths = root_leaf_paths(unimodal_twelve)
        assert (8, 9, 6, 2) in paths
        assert height(unimodal_twelve) == 4

    def test_every_vertex_path_is_a_prefix_of_a_leaf_path(self, unordered_forests):
        for f in unordered_forests(4):
            leafpaths = root_leaf_paths(f)
            for p in root_vertex_paths(f):
                assert any(q[: len(p)] == p for q in leafpaths)


class TestAvoidance:
    def test_descending_chain_contains_321(self):
        assert not avoids(chain(3, 2, 1), [pattern(321)])

    def test_valley_chain_avoids_312(self):
        assert avoids(chain(2, 1, 3), [pattern(312)])

    def test_unimodal_fixture_avoids_213_312(self, unimodal_twelve):
        assert avoids(unimodal_twelve, [pattern(213), pattern(312)])

    def test_empty_pattern_set_rejected(self):
        with pytest.raises(ValueError):
            avoids(chain(1, 2), [])

    def test_child_order_never_affects_avoidance(self):
        base = {1: 0, 2: 1, 3: 1}
        plain = Forest(base)
        for order in [(2, 3), (3, 2)]:
            ordered = Forest(base, {0: (1,), 1: order, 2: (), 3: ()})
            for pat in ALL_LENGTH3:
                assert avoids(ordered, [pat]) == avoids(plain, [pat])

    @pytest.mark.parametrize("n", range(0, 6))
    def test_leaf_path_checker_equals_per_vertex_checker(self, n, unordered_forests):
        for f in unordered_forests(n):
            for pat in ALL_LENGTH3:
                assert avoids(f, [pat]) == avoids_per_vertex(f, [pat])

    @pytest.mark.parametrize("n", range(1, 5))
    def test_complement_duality_per_forest(self, n, unordered_forests):
        for f in unordered_forests(n):
            fc = complement_forest(f)
            for pat in ALL_LENGTH3:
                comp = Pattern(complement(pat.perm), pat.mode)
                assert avoids(f, [pat]) == avoids(fc, [comp])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_avoiding_21_means_all_top_down_maxima(self, n, unordered_forests):
        for f in unordered_forests(n):
            assert avoids(f, [pattern(21)]) == (
                top_down_maxima(f) == frozenset(f.labels)
            )


class TestComplement:
    def test_two_chain(self):
        assert complement_forest(chain(1, 2)) == chain(2, 1)

    def test_involution(self, fourteen_vertex_example):
        f = fourteen_vertex_example
        assert complement_forest(complement_forest(f)) == f

    def test_ten_vertex_complement_roots(self, ten_vertex_increasing):
        assert set(complement_forest(ten_vertex_increasing).roots) == {8, 10}

    @given(forest_st())
    def test_involution_property(self, f):
        assert complement_forest(complement_forest(f)) == f


class TestTopDownMaxima:
    def test_fourteen_vertex_example(self, fourteen_vertex_example):
        assert top_down_maxima(fourteen_vertex_example) == frozenset(
            {2, 6, 9, 11, 12, 13, 14}
        )

    def test_increasing_forest_all_maxima(self, ten_vertex_increasing):
        assert top_down_maxima(ten_vertex_increasing) == frozenset(range(1, 11))

    def test_valley_chain(self):
        assert top_down_maxima(chain(2, 1, 3)) == frozenset({2, 3})

    def test_roots_always_qualify(self, unordered_forests):
        for f in unordered_forests(4):
            assert set(f.roots) <= top_down_maxima(f)


class TestLargestIncreasingSubforest:
    def test_unimodal_fixture(self, unimodal_twelve):
        sub = largest_increasing_subforest(unimodal_twelve)
        assert sub.labels == (8, 9, 11, 12)
        assert sub.parent == {8: 0, 9: 8, 11: 0, 12: 11}

    def test_increasing_forest_is_fixed(self, ten_vertex_increasing):
        assert largest_increasing_subforest(ten_vertex_increasing) == ten_vertex_increasing

    def test_not_ancestor_closed(self):
        with pytest.raises(NotAncestorClosed):
            largest_increasing_subforest(chain(2, 1, 3))


class TestHeightAndDescents:
    def test_singleton_height(self):
        assert height(Forest({1: 0})) == 1

    def test_descent_kinds(self):
        mixed = Forest({3: 0, 1: 3, 5: 3})
        assert descent_kind(mixed, 3) is DescentKind.DESCENT
        proper = Forest({3: 0, 1: 3, 2: 3})
        assert descent_kind(proper, 3) is DescentKind.PROPER_DESCENT
        assert descent_kind(proper, 1) is DescentKind.NONE


class TestShapeSignature:
    def test_chains_share_shape(self):
        assert shape_signature(chain(1, 2)) == shape_signature(chain(2, 1))

    def test_different_sizes_differ(self):
        assert shape_signature(chain(1, 2)) != shape_signature(chain(1, 2, 3))

    def test_star_versus_chain(self):
        star = Forest({1: 0, 2: 1, 3: 1})
        assert shape_signature(star) != shape_signature(chain(1, 2, 3))

    @pytest.mark.parametrize("n", range(0, 6))
    def test_invariant_under_relabeling(self, n, unordered_forests):
        import random

        rng = random.Random(1234)
        labels = list(range(1, n + 1))
        for f in unordered_forests(n):
            shuffled = labels[:]
            rng.shuffle(shuffled)
            g = relabel(f, dict(zip(labels, shuffled)))
            assert shape_signature(g) == shape_signature(f)

    @given(forest_st(), st.randoms(use_true_random=False))
    def test_invariant_under_random_relabeling(self, f, rng):
        labels = list(f.labels)
        shuffled = labels[:]
        rng.shuffle(shuffled)
        g = relabel(f, dict(zip(labels, shuffled)))
        assert shape_signature(g) == shape_signature(f)
