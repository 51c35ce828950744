"""Outputs do not follow the iteration order of neighbor sets.

A DynGraph keeps each neighborhood as a set, whose iteration order depends
on insertion history and need not be ascending (in CPython,
list({1, 8}) == [8, 1]).  Every order that reaches an output is taken
explicitly; these graphs put such ids in play and check that it is.
"""

import mwis
from mwis import TransformLog, degree_two_fold, twin_merge
from mwis.struction import (extended_reduced_struction, extended_struction,
                            modified_struction, original_struction)
from mwis.translog import (DegreeTwoFold, Pair, Struction, TwinMerge,
                           VertexSet)


def _center_with_neighbors_1_and_8():
    """Vertex 0 (weight 1) with non-adjacent neighbors 1 and 8 (weight 2),
    each with one more neighbor of its own."""
    g = mwis.new_graph(10, [1, 2] + [1] * 6 + [2, 1])
    g.add_edge(0, 8)
    g.add_edge(0, 1)
    g.add_edge(1, 5)
    g.add_edge(8, 4)
    assert list(g._nbs[0]) != sorted(g._nbs[0])
    return g


def test_neighbors_is_ascending():
    g = _center_with_neighbors_1_and_8()
    assert g.neighbors(0) == [1, 8]


def test_twin_merge_absorbs_the_lowest_id_twin():
    g = mwis.new_graph(10, [1] * 10)
    for t in (9, 8, 1):
        for hub in (2, 3):
            g.add_edge(t, hub)
    assert list(g._nbs[2]) != sorted(g._nbs[2])
    log = TransformLog()
    assert twin_merge(g, 9, log)
    assert log.events == [TwinMerge(kept=9, absorbed=1)]
    assert g.weight(9) == 2 and g.is_active(8)


def test_degree_two_fold_records_ascending_neighbors():
    g = mwis.new_graph(9, [3, 2] + [1] * 6 + [2])
    g.add_edge(0, 8)
    g.add_edge(0, 1)
    assert list(g._nbs[0]) == [8, 1]
    log = TransformLog()
    assert degree_two_fold(g, 0, log)
    assert log.events == [DegreeTwoFold(v=0, u=1, x=8, folded=9, w=3)]


def test_extended_struction_follows_ascending_neighbor_order():
    g = _center_with_neighbors_1_and_8()
    log = TransformLog()
    event = extended_struction(g, 0, 10, log)
    assert event == Struction(
        "extended", 0, 1, (1, 8), ((0, 1), (1, 2), (8, 2)),
        ((10, 1, VertexSet((1,))), (11, 3, VertexSet((1, 8))),
         (12, 1, VertexSet((8,)))))
    assert g.neighbors(10) == [5, 11, 12]
    assert g.neighbors(12) == [4, 10, 11]


def test_extended_reduced_struction_follows_ascending_neighbor_order():
    g = _center_with_neighbors_1_and_8()
    event = extended_reduced_struction(g, 0, 10, TransformLog())
    assert event.neighbors == (1, 8)
    assert [u for u, _w in event.removed] == [0, 1, 8]
    assert [(nid, prov) for nid, _w, prov in event.created][:2] == [
        (10, VertexSet((1,))), (11, VertexSet((8,)))]


def test_original_struction_follows_ascending_neighbor_order():
    g = _center_with_neighbors_1_and_8()
    event = original_struction(g, 0, 10, TransformLog())
    assert event.neighbors == (1, 8)
    assert event.created == ((10, 1, Pair(1, 8)),)
    assert g.neighbors(10) == [4, 5]
    assert g.weight(1) == g.weight(8) == 1


def test_modified_struction_follows_ascending_neighbor_order():
    g = _center_with_neighbors_1_and_8()
    event = modified_struction(g, 0, 10, TransformLog())
    assert event.neighbors == (1, 8)
    assert event.created == ((10, 2, Pair(1, 8)),)
    assert g.neighbors(10) == [4, 5, 8]
    assert g.neighbors(1) == [5, 8]
