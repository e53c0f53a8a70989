import json

import pytest
from hypothesis import given

from forest_patterns import CycleDecomposition, Forest, Permutation
from forest_patterns.forests import (
    CycleDetected,
    InvalidChildOrder,
    ParentOutOfRange,
    from_parents,
)
from forest_patterns.generate import (
    Composition,
    ListPartition,
    OrderedSetPartition,
    SetPartition,
)
from forest_patterns.textio import (
    cycles_to_text,
    forest_from_json,
    forest_to_json,
    forest_to_text,
    object_from_json,
    object_to_json,
    parse_composition,
    parse_cycles,
    parse_forest,
    parse_list_partition,
    parse_perm,
    parse_set_partition,
    perm_to_text,
)

from .conftest import forest_st


def test_perm_round_trip():
    p = Permutation([3, 6, 8, 4, 1, 10, 2, 9, 7, 5])
    assert parse_perm(perm_to_text(p)) == p
    assert perm_to_text(p) == "3,6,8,4,1,10,2,9,7,5"
    assert parse_perm("") == Permutation(())


def test_forest_text_round_trip():
    f = Forest({1: 0, 2: 1, 3: 1})
    assert forest_to_text(f) == "3|0 1 1"
    assert parse_forest("3|0 1 1") == f
    assert parse_forest(forest_to_text(f)) == f


def test_empty_forest_text():
    f = Forest({})
    assert forest_to_text(f) == "0|"
    assert parse_forest("0|") == f


def test_ordered_forest_text_round_trip():
    f = Forest({1: 0, 2: 0, 3: 1}, {0: (2, 1), 1: (3,), 2: (), 3: ()})
    text = forest_to_text(f)
    assert text == "3|0 0 1|2,1;3;;"
    assert parse_forest(text) == f


def test_forest_text_requires_standard_labels():
    with pytest.raises(ValueError):
        forest_to_text(Forest({4: 0, 7: 4}))


def test_forest_json_round_trip():
    f = Forest({1: 0, 2: 1, 3: 1})
    data = forest_to_json(f)
    assert data == {"n": 3, "parents": [0, 1, 1], "childOrder": None}
    assert forest_from_json(data) == f


def test_ordered_forest_json_round_trip():
    f = Forest({1: 0, 2: 0}, {0: (2, 1), 1: (), 2: ()})
    data = forest_to_json(f)
    assert data["childOrder"] == [[2, 1], [], []]
    assert forest_from_json(data) == f


@given(forest_st(max_n=6))
def test_standard_label_forests_round_trip(f):
    assert parse_forest(forest_to_text(f)) == f
    assert forest_from_json(forest_to_json(f)) == f


def test_parse_forest_rejects_malformed():
    with pytest.raises(ValueError):
        parse_forest("3|0 1")
    with pytest.raises(ValueError):
        parse_forest("nonsense")
    with pytest.raises(ValueError):
        parse_forest("2|0 1|1;2")  # needs n+1 order chunks


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("2|0 3|1;2", ParentOutOfRange, "parent 3 of vertex 2 out of range 0..2"),
        ("2|0 1 1|1", ParentOutOfRange, "expected 2 parents, got 3"),
        ("2|2 1|x;;", CycleDetected, "cycle through vertex 1"),
        ("2|0 1|1;x;", ValueError, "expected a forest like"),
        ("2|0 1|;1;2", InvalidChildOrder, r"child order \(\) of vertex 0"),
    ],
)
def test_parse_forest_reports_a_bad_parent_vector_before_bad_child_orders(text, error, message):
    with pytest.raises(error, match=message):
        parse_forest(text)


@pytest.mark.parametrize(
    "data, error, message",
    [
        ({"n": 2, "parents": [0, 3]}, ParentOutOfRange, "parent 3 of vertex 2 out of range 0..2"),
        ({"n": 2, "parents": [0, 1, 1], "childOrder": None}, ParentOutOfRange,
         "expected 2 parents, got 3"),
        ({"n": 2, "parents": [2, 1], "childOrder": [[1]]}, CycleDetected, "cycle through vertex 1"),
        ({"n": 2, "parents": [0, 1], "childOrder": [[], [2], [1]]}, InvalidChildOrder,
         r"child order \(\) of vertex 0"),
    ],
)
def test_forest_json_reports_a_bad_parent_vector_first(data, error, message):
    with pytest.raises(error, match=message):
        forest_from_json(data)


def test_a_good_forest_line_is_checked_once(monkeypatch):
    """A well-formed text or JSON line builds one Forest, plain or ordered."""
    built = []
    init = Forest.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    for f in (Forest({1: 0, 2: 1, 3: 1}), Forest({1: 0, 2: 0}, {0: (2, 1), 1: (), 2: ()})):
        text, data = forest_to_text(f), forest_to_json(f)
        monkeypatch.setattr(Forest, "__init__", counted)
        assert parse_forest(text) == f
        assert forest_from_json(data) == f
        assert forest_from_json(json.dumps(data)) == f
        monkeypatch.undo()
        assert len(built) == 3
        built.clear()


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda: from_parents(-1, []), "n must be a nonnegative integer, got -1"),
        (lambda: parse_forest("-1|"), "n must be a nonnegative integer, got -1"),
        (lambda: forest_from_json({"n": -1, "parents": []}),
         "n must be a nonnegative integer, got -1"),
        (lambda: forest_from_json({"n": "2", "parents": [0, 1]}),
         "n must be a nonnegative integer, got '2'"),
        (lambda: forest_from_json('{"n": 2, "parents": [0, true], "childOrder": null}'),
         "parent True of vertex 2 is not an integer"),
        (lambda: forest_from_json('{"n": 2, "parents": [0, 1.0], "childOrder": null}'),
         "parent 1.0 of vertex 2 is not an integer"),
        (lambda: forest_from_json('{"n": 2, "parents": [0, "a"], "childOrder": null}'),
         "parent 'a' of vertex 2 is not an integer"),
        (lambda: forest_from_json('{"n": 2, "parents": [0, null], "childOrder": null}'),
         "parent None of vertex 2 is not an integer"),
        (lambda: forest_from_json('{"n": 2, "parents": [0, [1]], "childOrder": null}'),
         "parent [1] of vertex 2 is not an integer"),
        (lambda: from_parents(2, [0, "a"]), "parent 'a' of vertex 2 is not an integer"),
        (lambda: from_parents(2, [0, None]), "parent None of vertex 2 is not an integer"),
        (lambda: from_parents(2, [0, [1]]), "parent [1] of vertex 2 is not an integer"),
        (lambda: from_parents(3, [5, "a", 0]), "parent 5 of vertex 1 out of range 0..3"),
    ],
)
def test_a_bad_n_or_a_non_integer_parent_is_named(read, message):
    with pytest.raises(ValueError) as err:
        read()
    assert str(err.value) == message


def test_forest_json_needs_one_child_order_per_vertex_and_root():
    for orders in ([[1], [], [5, 6]], [[1]]):
        with pytest.raises(ValueError, match=f"expected 2 child orders, got {len(orders)}"):
            forest_from_json({"n": 1, "parents": [0], "childOrder": orders})


@pytest.mark.parametrize(
    "orders, message",
    [
        ("[[1.0], [2], []]", "child order [1.0] of vertex 0 is not a list of integers"),
        ("[[true], [2], []]", "child order [True] of vertex 0 is not a list of integers"),
        ("[[1], [2.0], []]", "child order [2.0] of vertex 1 is not a list of integers"),
        ("[[1], [2], 3]", "child order 3 of vertex 2 is not a list of integers"),
        ("5", "childOrder must be null or a list, got 5"),
        ('"ab"', "childOrder must be null or a list, got 'ab'"),
    ],
)
def test_forest_json_child_orders_are_lists_of_integers(orders, message):
    with pytest.raises(ValueError) as err:
        forest_from_json(f'{{"n": 2, "parents": [0, 1], "childOrder": {orders}}}')
    assert str(err.value) == message
    # a bad parent vector is still the first error
    with pytest.raises(ParentOutOfRange, match="parent 5 of vertex 2 out of range 0..2"):
        forest_from_json(f'{{"n": 2, "parents": [0, 5], "childOrder": {orders}}}')


def test_cycles_round_trip():
    cd = CycleDecomposition([(11, 4, 10, 7), (12,), (8, 3, 1), (9, 5, 2, 6)])
    text = cycles_to_text(cd)
    assert text == "(11,4,10,7)(12)(8,3,1)(9,5,2,6)"
    assert parse_cycles(text) == cd
    assert parse_cycles("(11, 4, 10, 7)(12)(8,3,1)(9,5,2,6)") == cd


def test_partitioned_cycles_round_trip():
    cd = CycleDecomposition([(2, 1), (3,)], blocks=[[0, 1]])
    text = cycles_to_text(cd)
    assert parse_cycles(text) == cd


def test_parse_cycles_rejects_malformed():
    with pytest.raises(ValueError):
        parse_cycles("(1,2")
    with pytest.raises(ValueError):
        parse_cycles("(1)extra(2)")


def test_block_parsers():
    sp = parse_set_partition("{1,3,4,5}{2,6}")
    assert sp.blocks == ((1, 3, 4, 5), (2, 6))
    lp = parse_list_partition("{3,4,1}{2}")
    assert lp.blocks == ((3, 4, 1), (2,))
    with pytest.raises(ValueError):
        parse_set_partition("{1,2")
    with pytest.raises(ValueError):
        parse_set_partition("")


def test_parse_composition():
    assert parse_composition("3,1,2,2").parts == (3, 1, 2, 2)


@pytest.mark.parametrize(
    "obj, data",
    [
        (
            Forest({1: 0, 2: 1, 3: 1}),
            {"kind": "forest", "n": 3, "parents": [0, 1, 1], "childOrder": None},
        ),
        (
            Forest({1: 0, 2: 0}, {0: (2, 1), 1: (), 2: ()}),
            {"kind": "forest", "n": 2, "parents": [0, 0], "childOrder": [[2, 1], [], []]},
        ),
        (Permutation([3, 1, 2]), {"kind": "permutation", "word": [3, 1, 2]}),
        (
            CycleDecomposition([(1, 3), (2,)]),
            {"kind": "cycles", "cycles": [[3, 1], [2]], "blocks": None},
        ),
        (
            CycleDecomposition([(3,), (2, 1)], blocks=[[0, 1]]),
            {"kind": "cycles", "cycles": [[2, 1], [3]], "blocks": [[0, 1]]},
        ),
        (SetPartition([[2], [3, 1]]), {"kind": "setPartition", "blocks": [[1, 3], [2]]}),
        (
            OrderedSetPartition([[2], [3, 1]]),
            {"kind": "orderedSetPartition", "blocks": [[2], [1, 3]]},
        ),
        (
            ListPartition([[2], [3, 1]]),
            {"kind": "listPartition", "blocks": [[3, 1], [2]],
             "orderedBlocks": False, "upToReverse": False},
        ),
        (
            ListPartition([[2], [1, 3]], ordered_blocks=True, up_to_reverse=True),
            {"kind": "listPartition", "blocks": [[2], [3, 1]],
             "orderedBlocks": True, "upToReverse": True},
        ),
        (Composition([2, 1]), {"kind": "composition", "parts": [2, 1]}),
    ],
)
def test_object_json_of_every_kind(obj, data):
    assert object_to_json(obj) == data
    assert object_from_json(data) == obj
    assert object_from_json(json.dumps(data)) == obj


@pytest.mark.parametrize(
    "data, message",
    [
        ({"kind": "cycles", "cycles": [[2, 1]]}, "'blocks'"),
        ({"n": 1, "parents": [0], "childOrder": None}, "'kind'"),
        ({"kind": "forest", "n": 1, "parents": [0]}, "'childOrder'"),
        ({"kind": "nosuch"}, "'nosuch'"),
        ({"kind": ["forest"]}, "unknown kind"),
        ([1, 2], "JSON object"),
    ],
)
def test_object_from_json_names_what_is_missing(data, message):
    with pytest.raises(ValueError, match=message):
        object_from_json(data)


@pytest.mark.parametrize(
    "parse, text, form",
    [
        (parse_perm, "1|0", "permutation"),
        (parse_forest, "2|0 x", "forest"),
        (parse_forest, "1|0|x;", "forest"),
        (parse_cycles, "(2,x)", "cycles"),
        (parse_cycles, "{(2,1)3}", "cycles"),
        (parse_set_partition, "{1,x}", "blocks"),
        (parse_composition, "2,x", "composition"),
    ],
)
def test_parse_errors_name_the_expected_form(parse, text, form):
    with pytest.raises(ValueError, match=f"expected .*{form}"):
        parse(text)
