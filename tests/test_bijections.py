import hashlib
import itertools
from math import factorial
from typing import Callable, NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forest_patterns import (
    CycleDecomposition,
    FamilyTag,
    Forest,
    ListPartition,
    OrderedSetPartition,
    Permutation,
    SetPartition,
    avoids,
    from_parents,
    gen_forests,
    gen_list_partitions,
    gen_ordered_cycle_decomps,
    gen_ordered_set_partitions,
    gen_partitioned_cycle_decomps,
    gen_set_partitions,
    height,
    pattern,
    shape_signature,
    top_down_maxima,
)
from forest_patterns.bijections import (
    NotInClass,
    NotIncreasing,
    NotUnimodal,
    TauVariant,
    TwoAfterOne,
    avoid312_to_avoid321,
    avoid321_to_avoid312,
    cycles_to_unimodal_forest,
    decreasing_forest_to_perm,
    forest_to_list_partition,
    forest_to_ordered_lists,
    forest_to_ordered_partition,
    forest_to_partitioned_cycles,
    increasing_forest_to_perm,
    list_partition_to_forest,
    ordered_lists_to_forest,
    ordered_partition_to_forest,
    partitioned_cycles_to_forest,
    perm_to_decreasing_forest,
    perm_to_increasing_forest,
    perm_to_proper_descent_tree,
    proper_descent_tree_to_perm,
    set_partition_to_shallow_forest,
    shallow_forest_to_set_partition,
    unimodal_forest_to_cycles,
)
from forest_patterns.forests import descent_kind, DescentKind
from forest_patterns.textio import object_to_text


def forests_avoiding(n, words):
    pats = [pattern(w) for w in words]
    return {f for f in gen_forests(n, FamilyTag.UNORDERED) if avoids(f, pats)}


class TestIncreasingForestMap:
    def test_ten_vertex_word(self, ten_vertex_increasing):
        f = perm_to_increasing_forest(Permutation([3, 6, 8, 4, 1, 10, 2, 9, 7, 5]))
        assert f == ten_vertex_increasing

    def test_identity_gives_chain(self):
        f = perm_to_increasing_forest(Permutation([1, 2, 3, 4]))
        assert f.parent == {1: 0, 2: 1, 3: 2, 4: 3}

    def test_reversal_gives_singletons(self):
        f = perm_to_increasing_forest(Permutation([4, 3, 2, 1]))
        assert f.roots == (1, 2, 3, 4)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_round_trip_and_image(self, n):
        image = set()
        for w in itertools.permutations(range(1, n + 1)):
            p = Permutation(w)
            f = perm_to_increasing_forest(p)
            assert increasing_forest_to_perm(f) == p
            image.add(f)
        assert image == forests_avoiding(n, [21])

    @given(st.permutations(list(range(1, 9))))
    def test_round_trip_property(self, word):
        p = Permutation(word)
        assert increasing_forest_to_perm(perm_to_increasing_forest(p)) == p

    def test_inverse_rejects_non_increasing(self):
        with pytest.raises(NotIncreasing):
            increasing_forest_to_perm(Forest({2: 0, 1: 2}))

    def test_empty_permutation(self):
        f = perm_to_increasing_forest(Permutation(()))
        assert f == Forest({})
        assert increasing_forest_to_perm(f) == Permutation(())


class TestDecreasingForestMap:
    def test_on_subset_ground(self):
        f = perm_to_decreasing_forest(Permutation([4, 10, 7]))
        assert f.parent == {10: 0, 4: 10, 7: 10}
        g = perm_to_decreasing_forest(Permutation([5, 2, 6]))
        assert g.parent == {5: 0, 6: 0, 2: 6}

    def test_singleton(self):
        assert perm_to_decreasing_forest(Permutation([3])).parent == {3: 0}

    @given(st.permutations(list(range(1, 8))))
    def test_round_trip_property(self, word):
        p = Permutation(word)
        assert decreasing_forest_to_perm(perm_to_decreasing_forest(p)) == p


class TestUnimodalCycleMap:
    def test_twelve_vertex_decomposition(self, unimodal_twelve):
        cd = CycleDecomposition([(11, 4, 10, 7), (12,), (8, 3, 1), (9, 5, 2, 6)])
        assert cycles_to_unimodal_forest(cd) == unimodal_twelve
        assert unimodal_forest_to_cycles(unimodal_twelve) == cd

    def test_singleton_cycles_reduce_to_increasing_forest_map(self):
        cd = CycleDecomposition([(3,), (1,), (2,)])
        assert cycles_to_unimodal_forest(cd) == perm_to_increasing_forest(
            Permutation([3, 1, 2])
        )

    def test_single_transposition(self):
        assert cycles_to_unimodal_forest(CycleDecomposition([(2, 1)])).parent == {
            2: 0,
            1: 2,
        }

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip_image_and_maxima_refinement(self, n):
        image = set()
        for cd in gen_ordered_cycle_decomps(n):
            f = cycles_to_unimodal_forest(cd)
            assert unimodal_forest_to_cycles(f) == cd
            assert len(top_down_maxima(f)) == len(cd.cycles)
            image.add(f)
        assert image == forests_avoiding(n, [213, 312])

    def test_inverse_rejects_non_unimodal(self):
        with pytest.raises(NotUnimodal):
            unimodal_forest_to_cycles(Forest({2: 0, 1: 2, 3: 1}))


class TestShallowForestMap:
    def test_worked_partition(self):
        sp = SetPartition([(1, 3, 4, 5), (2, 6)])
        f = set_partition_to_shallow_forest(sp)
        assert f.parent == {1: 0, 3: 1, 4: 1, 5: 1, 2: 0, 6: 2}
        assert shallow_forest_to_set_partition(f) == sp

    def test_singletons_and_single_block(self):
        n = 4
        allsing = SetPartition([(i,) for i in range(1, n + 1)])
        assert set_partition_to_shallow_forest(allsing).roots == (1, 2, 3, 4)
        one = SetPartition([tuple(range(1, n + 1))])
        f = set_partition_to_shallow_forest(one)
        assert f.roots == (1,) and f.children(1) == (2, 3, 4)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_and_image(self, n):
        image = set()
        for sp in gen_set_partitions(n):
            f = set_partition_to_shallow_forest(sp)
            assert shallow_forest_to_set_partition(f) == sp
            image.add(f)
        target = {f for f in forests_avoiding(n, [21]) if height(f) <= 2}
        assert image == target

    def test_inverse_rejects_tall_forests(self):
        with pytest.raises(NotInClass):
            shallow_forest_to_set_partition(Forest({1: 0, 2: 1, 3: 2}))


class TestPartitionedCycleMap:
    def test_two_cycles_one_block(self):
        cd = CycleDecomposition([(2, 1), (3,)], blocks=[[0, 1]])
        f = partitioned_cycles_to_forest(cd)
        assert f.parent == {2: 0, 3: 2, 1: 2}
        assert forest_to_partitioned_cycles(f) == cd

    def test_all_singletons(self):
        cd = CycleDecomposition([(i,) for i in range(1, 5)], blocks=[[i] for i in range(4)])
        assert partitioned_cycles_to_forest(cd).roots == (1, 2, 3, 4)

    def test_domain_size_n3(self):
        assert len(list(gen_partitioned_cycle_decomps(3))) == 13
        assert len(forests_avoiding(3, [213, 312, 123])) == 13

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip_and_image(self, n):
        image = set()
        for cd in gen_partitioned_cycle_decomps(n):
            f = partitioned_cycles_to_forest(cd)
            assert forest_to_partitioned_cycles(f) == cd
            image.add(f)
        assert image == forests_avoiding(n, [213, 312, 123])

    def test_inverse_rejects_out_of_class(self):
        with pytest.raises(NotInClass):
            forest_to_partitioned_cycles(Forest({1: 0, 2: 1, 3: 2}))


class TestOrderedPartitionMap:
    def test_two_block_example(self):
        osp = OrderedSetPartition([(2,), (1, 3)])
        f = ordered_partition_to_forest(osp)
        assert f.parent == {2: 0, 3: 2, 1: 3}
        assert forest_to_ordered_partition(f) == osp

    def test_increasing_singletons_give_chain(self):
        osp = OrderedSetPartition([(1,), (2,), (3,)])
        assert ordered_partition_to_forest(osp).parent == {1: 0, 2: 1, 3: 2}

    def test_domain_size_n3(self):
        assert len(list(gen_ordered_set_partitions(3))) == 13
        assert len(forests_avoiding(3, [213, 312, 321])) == 13

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip_and_image(self, n):
        image = set()
        for osp in gen_ordered_set_partitions(n):
            f = ordered_partition_to_forest(osp)
            assert forest_to_ordered_partition(f) == osp
            image.add(f)
        assert image == forests_avoiding(n, [213, 312, 321])


class UnimodalPin(NamedTuple):
    words: tuple[str, ...]  # the class the inverse is defined on
    inverse: Callable
    forward: Callable
    domain: Callable  # generator of the forward map's domain on [n]
    inverse_images: tuple[int, str]  # line count and SHA-256 on [6]
    forward_images: tuple[int, str]
    error: tuple[type, str]  # raised by the inverse outside the class


# The unimodal maps' outputs on [6], pinned byte for byte: the text forms,
# one per line, of the inverse images of the class members in parent-vector
# order and of the forward images of the domain in generation order.
UNIMODAL_PINS = {
    "theta": UnimodalPin(
        ("213", "312"),
        unimodal_forest_to_cycles,
        cycles_to_unimodal_forest,
        gen_ordered_cycle_decomps,
        (6578, "893f9daa20923c0013368d2b6694ccd548c228f02050f2ce1a824f4851e28c96"),
        (6578, "6e3978ba207f0891142d40bfa063c29202636737e5469c5b4353cdcb339bfa36"),
        (NotUnimodal, "forest contains 213 or 312 along a path"),
    ),
    "xi": UnimodalPin(
        ("213", "312", "123"),
        forest_to_partitioned_cycles,
        partitioned_cycles_to_forest,
        gen_partitioned_cycle_decomps,
        (4051, "cccc6f762a2ec35586cdc59ac50a38b78fcb23f6816fa6e34e9095f75a4505fc"),
        (4051, "49ef9efcd64433316aa5e2c94ca3842d36fb4e99377a800e4869033ad62c18f6"),
        (NotInClass, "forest contains 213, 312 or 123 along a path"),
    ),
    "gamma": UnimodalPin(
        ("213", "312", "321"),
        forest_to_ordered_partition,
        ordered_partition_to_forest,
        gen_ordered_set_partitions,
        (4683, "a64cd35858df32a4f19c4701ab5991a1e7c7212d7bc7920efb467e9582b96bd3"),
        (4683, "09e559218410155fba50523457c89932fd9b13640c9868f960dd7b61023eb765"),
        (NotInClass, "forest contains 213, 312 or 321 along a path"),
    ),
}


def _lines_digest(objects):
    lines = [object_to_text(x) for x in objects]
    return len(lines), hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(UNIMODAL_PINS))
class TestUnimodalMapsPinned:
    def test_inverse_images_on_6(self, name):
        pin = UNIMODAL_PINS[name]
        pats = [pattern(w) for w in pin.words]
        members = [f for f in gen_forests(6, FamilyTag.UNORDERED) if avoids(f, pats)]
        assert _lines_digest(map(pin.inverse, members)) == pin.inverse_images

    def test_forward_images_on_6(self, name):
        pin = UNIMODAL_PINS[name]
        assert _lines_digest(map(pin.forward, pin.domain(6))) == pin.forward_images

    def test_inverse_rejects_every_forest_outside_the_class(self, name):
        pin = UNIMODAL_PINS[name]
        pats = [pattern(w) for w in pin.words]
        error, message = pin.error
        for n in range(6):
            for f in gen_forests(n, FamilyTag.UNORDERED):
                if avoids(f, pats):
                    continue
                with pytest.raises(ValueError) as caught:
                    pin.inverse(f)
                assert type(caught.value) is error and str(caught.value) == message, f


class TestListPartitionMap:
    def test_fifteen_vertex_two_trees(self):
        lp = ListPartition([(11, 9, 12, 5, 3, 8, 15, 2, 6), (13, 10, 14, 1, 7, 4)])
        f = list_partition_to_forest(lp)
        assert f.parent == {
            11: 0, 9: 11, 12: 11, 5: 12, 3: 5, 8: 12, 15: 12, 2: 15, 6: 15,
            13: 0, 10: 13, 14: 13, 1: 14, 7: 14, 4: 7,
        }
        assert set(f.roots) == {11, 13}
        assert forest_to_list_partition(f) == lp

    def test_small_example(self):
        f = list_partition_to_forest(ListPartition([(3, 4, 1), (2,)]))
        assert f.parent == {3: 0, 4: 3, 1: 4, 2: 0}

    def test_increasing_list_gives_chain(self):
        f = list_partition_to_forest(ListPartition([tuple(range(1, 6))]))
        assert f.parent == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}

    def test_roots_are_first_entries(self):
        for lp in gen_list_partitions(4):
            f = list_partition_to_forest(lp)
            assert set(f.roots) == {b[0] for b in lp.blocks}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip_and_image(self, n):
        image = set()
        for lp in gen_list_partitions(n):
            f = list_partition_to_forest(lp)
            assert forest_to_list_partition(f) == lp
            image.add(f)
        assert image == forests_avoiding(n, [312, 213, 132])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_one_descent_variant_is_a_bijection_onto_its_class(self, n):
        image = set()
        total = 0
        for lp in gen_list_partitions(n):
            image.add(list_partition_to_forest(lp, TauVariant.ONE_DESCENT))
            total += 1
        assert len(image) == total
        assert image == forests_avoiding(n, [321, 132, 213])

    def test_inverse_rejects_out_of_class(self):
        with pytest.raises(NotInClass):
            forest_to_list_partition(Forest({2: 0, 1: 2, 3: 1}))


class TestProperDescentTreeMap:
    def test_six_entry_word(self):
        t = perm_to_proper_descent_tree(Permutation([12, 3, 11, 2, 9, 8]))
        assert t.parent == {9: 0, 3: 9, 2: 9, 12: 3, 11: 3, 8: 3}
        assert proper_descent_tree_to_perm(t).word == (12, 3, 11, 2, 9, 8)

    def test_transposition(self):
        assert perm_to_proper_descent_tree(Permutation([2, 1])).parent == {2: 0, 1: 2}

    def test_requires_two_before_one(self):
        with pytest.raises(TwoAfterOne):
            perm_to_proper_descent_tree(Permutation([1, 2]))
        with pytest.raises(TwoAfterOne):
            perm_to_proper_descent_tree(Permutation([3]))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_bijection_with_proper_descent_trees(self, n):
        domain = [
            Permutation(w)
            for w in itertools.permutations(range(1, n + 1))
            if w.index(2) < w.index(1)
        ]
        assert len(domain) == factorial(n) // 2
        image = set()
        for p in domain:
            t = perm_to_proper_descent_tree(p)
            assert proper_descent_tree_to_perm(t) == p
            image.add(t)
        target = {
            f
            for f in gen_forests(n, FamilyTag.UNORDERED)
            if len(f.roots) == 1
            and descent_kind(f, f.roots[0]) is DescentKind.PROPER_DESCENT
            and all(
                descent_kind(f, v) is DescentKind.NONE
                for v in f.labels
                if v != f.roots[0]
            )
        }
        assert image == target

    def test_tree_count_n4(self):
        trees = {
            f
            for f in gen_forests(4, FamilyTag.UNORDERED)
            if len(f.roots) == 1
            and descent_kind(f, f.roots[0]) is DescentKind.PROPER_DESCENT
            and all(
                descent_kind(f, v) is DescentKind.NONE for v in f.labels if v != f.roots[0]
            )
        }
        assert len(trees) == 12


class TestOrderedListsMap:
    def test_fifteen_vertex_forest(self):
        lp = ListPartition(
            [(5,), (14, 13), (7,), (4,), (15,), (12, 3, 11, 2, 9, 8), (6, 1), (10,)],
            ordered_blocks=True,
            up_to_reverse=True,
        )
        f = ordered_lists_to_forest(lp)
        assert f.parent == {
            5: 0, 14: 5, 7: 5, 13: 14,
            4: 0, 15: 4, 9: 4, 6: 4, 3: 9, 2: 9, 12: 3, 11: 3, 8: 3, 1: 6, 10: 6,
        }
        assert avoids(f, [pattern(321), pattern(2143), pattern(3142)])
        assert forest_to_ordered_lists(f) == lp

    def test_each_map_builds_one_forest_at_most(self, monkeypatch):
        """psi joins one parent map, psi inverse splits the forest it is
        given, and rho hangs the inverse word's roots in one parent map."""
        lp = ListPartition(
            [(5,), (14, 13), (7,), (4,), (15,), (12, 3, 11, 2, 9, 8), (6, 1), (10,)],
            ordered_blocks=True,
            up_to_reverse=True,
        )
        f = ordered_lists_to_forest(lp)
        p = Permutation([12, 3, 11, 2, 9, 8])
        built = []
        init = Forest.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Forest, "__init__", counted)
        counts = []
        for call, arg in (
            (ordered_lists_to_forest, lp),
            (forest_to_ordered_lists, f),
            (perm_to_proper_descent_tree, p),
        ):
            call(arg)
            counts.append(len(built))
            built.clear()
        assert counts == [1, 0, 1]

    def test_all_singletons_reduce_to_increasing_forest_map(self):
        lp = ListPartition(
            [(3,), (1,), (2,)], ordered_blocks=True, up_to_reverse=True
        )
        assert ordered_lists_to_forest(lp) == perm_to_increasing_forest(
            Permutation([3, 1, 2])
        )

    def test_image_count_n3(self):
        assert len(forests_avoiding(3, [321, 2143, 3142])) == 15

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_and_image(self, n):
        image = set()
        for lp in gen_list_partitions(n, ordered_blocks=True, up_to_reverse=True):
            f = ordered_lists_to_forest(lp)
            assert forest_to_ordered_lists(f) == lp
            image.add(f)
        assert image == forests_avoiding(n, [321, 2143, 3142])


class TestWilfPairMap:
    def test_chain_example(self):
        f = from_parents(4, {1: 0, 4: 1, 3: 4, 2: 3})
        g = avoid312_to_avoid321(f)
        assert g.parent == {1: 0, 4: 1, 2: 4, 3: 2}
        assert avoid321_to_avoid312(g) == f

    def test_increasing_forest_is_fixed(self, ten_vertex_increasing):
        assert avoid312_to_avoid321(ten_vertex_increasing) == ten_vertex_increasing
        assert avoid321_to_avoid312(ten_vertex_increasing) == ten_vertex_increasing

    def test_rejects_out_of_class_input(self):
        contains312 = from_parents(3, {3: 0, 1: 3, 2: 1})
        with pytest.raises(NotInClass):
            avoid312_to_avoid321(contains312)
        contains321 = from_parents(3, {3: 0, 2: 3, 1: 2})
        with pytest.raises(NotInClass):
            avoid321_to_avoid312(contains321)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_mutual_inverses_preserving_shape_and_maxima(self, n):
        domain = forests_avoiding(n, [312])
        target = forests_avoiding(n, [321])
        image = set()
        for f in domain:
            g = avoid312_to_avoid321(f)
            assert avoid321_to_avoid312(g) == f
            assert shape_signature(g) == shape_signature(f)
            assert top_down_maxima(g) == top_down_maxima(f)
            image.add(g)
        assert image == target
