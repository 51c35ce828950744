import copy

import pytest
from hypothesis import given, settings, strategies as st

import mwis
from mwis import (DuplicateEdge, DynGraph, InactiveVertex, InvalidWeight,
                  SelfLoop)


def test_add_vertex_ids_are_sequential():
    g = DynGraph()
    assert g.add_vertex(1) == 0
    assert g.add_vertex(2) == 1
    assert g.counts() == (2, 0)


def test_add_vertex_with_neighbors(c4a):
    n, m = c4a.counts()
    v = c4a.add_vertex(4, [3, 0, 2])
    assert c4a.counts() == (n + 1, m + 3)
    assert c4a.neighbors(v) == [0, 2, 3]
    for u in (0, 2, 3):
        assert c4a.is_adjacent(u, v)
    assert not c4a.is_adjacent(1, v)
    assert c4a.add_vertex(1, []) == v + 1
    assert c4a.neighbors(v + 1) == []


def test_refused_add_vertex_writes_nothing(c4a):
    c4a.remove_vertex(1)
    before = c4a.copy()
    for w, nbrs, error in ((1, [0, 2, 0], DuplicateEdge),
                           (1, [0, 1], InactiveVertex),
                           (-1, [0], InvalidWeight)):
        with pytest.raises(error):
            c4a.add_vertex(w, nbrs)
        assert c4a == before
        assert c4a.next_id == before.next_id


def test_ids_never_reused_after_removal():
    g = mwis.new_graph(3, [1, 1, 1])
    g.remove_vertex(1)
    fresh = g.add_vertex(7)
    assert fresh == 3
    assert g.next_id == 4
    assert g.active_vertices() == [0, 2, 3]


def test_remove_vertex_strips_neighbor_lists(p3a):
    p3a.remove_vertex(1)
    assert p3a.counts() == (2, 0)
    assert p3a.neighbors(0) == []
    assert p3a.neighbors(2) == []


def test_edge_endpoints_symmetric(p3a):
    assert p3a.is_adjacent(0, 1) and p3a.is_adjacent(1, 0)
    assert not p3a.is_adjacent(0, 2)
    assert p3a.neighbors(1) == [0, 2]


def test_degree_and_weights(s3):
    assert s3.degree(0) == 3
    assert s3.degree(1) == 1
    assert s3.weight(0) == 5


def test_set_weight(p3a):
    p3a.set_weight(1, 9)
    assert p3a.weight(1) == 9
    with pytest.raises(InvalidWeight):
        p3a.set_weight(1, -1)


def test_error_conditions(p3a):
    with pytest.raises(SelfLoop):
        p3a.add_edge(0, 0)
    with pytest.raises(DuplicateEdge):
        p3a.add_edge(0, 1)
    p3a.remove_vertex(2)
    with pytest.raises(InactiveVertex):
        p3a.weight(2)
    with pytest.raises(InactiveVertex):
        p3a.add_edge(0, 2)


def test_new_graph_rejects_zero_weights():
    with pytest.raises(InvalidWeight):
        mwis.new_graph(2, [1, 0])
    with pytest.raises(InvalidWeight):
        mwis.new_graph(3, [1, 1])


def test_copy_is_independent(c4a):
    before = copy.deepcopy(c4a)
    h = c4a.copy()
    assert h == c4a
    h.remove_vertex(0)
    h.add_edge(1, 3)
    h.set_weight(2, 7)
    assert h != c4a
    assert c4a == before


def test_subgraph_preserves_ids_and_next_id(c4a):
    before = copy.deepcopy(c4a)
    sub = c4a.subgraph([0, 1, 2])
    assert sub.active_vertices() == [0, 1, 2]
    assert sub.counts() == (3, 2)
    assert sub.next_id == c4a.next_id
    assert not sub.is_adjacent(0, 2)
    sub.remove_vertex(1)
    sub.add_edge(0, 2)
    sub.set_weight(0, 9)
    # original untouched, neighbor sets included
    assert c4a == before


def test_subgraph_rejects_an_inactive_vertex(c4a):
    c4a.remove_vertex(3)
    for ids in ([0, 3], [9]):
        with pytest.raises(InactiveVertex):
            c4a.subgraph(ids)


edges_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda e: e[0] != e[1]),
    max_size=25,
)


@given(edges=edges_strategy, removals=st.lists(st.integers(0, 9), max_size=6))
@settings(max_examples=200, deadline=None)
def test_edge_count_matches_adjacency(edges, removals):
    """counts()[1] always equals half the summed adjacency list lengths."""
    g = mwis.new_graph(10, [1] * 10)
    for u, v in edges:
        if not g.is_adjacent(u, v):
            g.add_edge(u, v)
    for v in removals:
        if g.is_active(v):
            g.remove_vertex(v)
    n, m = g.counts()
    assert n == len(g.active_vertices())
    assert 2 * m == sum(g.degree(v) for v in g.active_vertices())
    for v in g.active_vertices():
        nbrs = g.neighbors(v)
        assert nbrs == sorted(nbrs)
        for u in nbrs:
            assert v in g.neighbors(u)
