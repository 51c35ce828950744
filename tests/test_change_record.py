"""DynGraph's change record names exactly what a transformation changed.

The reduction queue and the blow-up re-test only the region around the
record, so a write that bypasses the four mutators would leave rules
untested.  Every simple rule, both struction rules under all four variants
and every variant called directly are attempted at each vertex of seeded
random graphs.  After a firing, the record's live vertices must be exactly
those that are new, reweighted or hold a different neighbor set than in a
copy taken before, and its second part's live vertices exactly those that
are new, reweighted or end a new edge between two old vertices; an attempt
that does not fire must leave the graph equal to the copy and the record
empty.  Every other vertex that is not next to the second part must keep
its weighted closed neighborhood, which is what the reduction queue's
marks rest on.
"""

import random

import pytest

from mwis import (BlowupConfig, DuplicateEdge, DynGraph, GraphError,
                  blow_up, new_graph, random_gnp_graph, random_path_graph)
from mwis.blowup import CHANGED
from mwis.metisio import parse_graph, write_graph
from mwis.reductions import (_SIMPLE_RULES, _mark, decreasing_struction,
                             plateau_struction)
from mwis.struction import VARIANT_OPS, Aborted, NotMinimal
from mwis.translog import TransformLog

from reference import random_graph

VARIANTS = ("original", "modified", "extended", "extended_reduced")
MIN_FIRINGS = 100


def _diff(before, after):
    """Vertices of `after` that are new, reweighted or have a different
    neighbor set than in `before`."""
    return {v for v in after.active_vertices()
            if not before.is_active(v)
            or before.weight(v) != after.weight(v)
            or before.neighbors(v) != after.neighbors(v)}


def _touched(before, after):
    """Vertices of `after` that are new, reweighted or end an edge that
    `before` lacks between two of its vertices."""
    return {v for v in after.active_vertices()
            if not before.is_active(v)
            or before.weight(v) != after.weight(v)
            or any(before.is_active(u) and not before.is_adjacent(u, v)
                   for u in after.neighbors(v))}


def _closed_neighborhood(g, v):
    """v's weighted G[N[v]]: its weight, its neighbors with their weights
    and the edges among them."""
    nbrs = set(g.neighbors(v))
    return (g.weight(v), {(u, g.weight(u)) for u in nbrs},
            {(a, b) for a in nbrs for b in g.neighbors(a) if b in nbrs})


def _graphs(seed, count):
    """Random graphs with a planted twin and planted degree-2 vertices whose
    two neighbors are non-adjacent and weigh enough for a fold."""
    rnd = random.Random(seed)
    for _ in range(count):
        n = rnd.randint(5, 14)
        wmax = rnd.choice((3, 9))
        g = random_graph(rnd, n, rnd.choice((0.15, 0.3, 0.5)), wmax=wmax)
        twin = g.add_vertex(rnd.randint(1, wmax))
        for x in g.neighbors(rnd.randrange(n)):
            g.add_edge(twin, x)
        for _ in range(rnd.randint(1, 3)):
            u, x = rnd.sample(range(n), 2)
            if not g.is_adjacent(u, x):
                wu, wx = g.weight(u), g.weight(x)
                v = g.add_vertex(rnd.randint(max(wu, wx), wu + wx - 1))
                g.add_edge(v, u)
                g.add_edge(v, x)
        yield g


def _simple(rule):
    def attempt(g, v, log, rnd):
        return _SIMPLE_RULES[rule](g, v, log)
    return attempt


def _decreasing(variant):
    cfg = BlowupConfig(variant=variant, d_max=16)

    def attempt(g, v, log, rnd):
        return decreasing_struction(g, v, cfg, log)
    return attempt


def _plateau(variant):
    cfg = BlowupConfig(variant=variant, d_max=16)

    def attempt(g, v, log, rnd):
        return plateau_struction(g, v, cfg, log)
    return attempt


def _direct(variant):
    def attempt(g, v, log, rnd):
        cap = rnd.choice((0, 1, len(g._nbs[v]) + 1, 16))
        try:
            out = VARIANT_OPS[variant](g, v, cap, log)
        except NotMinimal:
            return False
        return not isinstance(out, Aborted)
    return attempt


KINDS = {f"rule:{r}": _simple(r) for r in _SIMPLE_RULES}
KINDS.update((f"decreasing:{v}", _decreasing(v)) for v in VARIANTS)
KINDS.update((f"plateau:{v}", _plateau(v)) for v in VARIANTS)
KINDS.update((f"direct:{v}", _direct(v)) for v in VARIANTS)


def _firings(kind):
    """Attempt `kind` once at each starting vertex of the seeded graphs, on
    the evolving graph, so later attempts see what earlier firings built.
    Checks that an attempt that does not fire changes nothing, and yields
    (copy before, graph after, live record, live second part) per firing."""
    attempt = KINDS[kind]
    rnd = random.Random(kind)
    for g in _graphs(0xC4A, 120):
        g.take_changed()
        log = TransformLog()
        for v in g.active_vertices():
            if not g.is_active(v):
                continue
            before = g.copy()
            if attempt(g, v, log, rnd):
                touched = {x for x in g._touched if g.is_active(x)}
                live = {x for x in g.take_changed() if g.is_active(x)}
                yield before, g, live, touched
            else:
                assert g == before, (kind, v)
                assert g.take_changed() == set(), (kind, v)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_record_is_exactly_what_a_firing_changed(kind):
    fired = 0
    for before, g, live, touched in _firings(kind):
        fired += 1
        assert live == _diff(before, g), kind
        assert touched == _touched(before, g), kind
    assert fired >= MIN_FIRINGS, fired


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_vertices_off_the_record_keep_their_closed_neighborhood(kind):
    """Every live vertex outside P and N(T) kept its weighted G[N[v]],
    where P is the record and T its second part, by brute force."""
    kept = 0
    for before, g, live, touched in _firings(kind):
        near = live.union(*(g.neighbors(t) for t in touched))
        for v in g.active_vertices():
            if v in near:
                continue
            assert (_closed_neighborhood(before, v)
                    == _closed_neighborhood(g, v)), (kind, v)
            # the far vertices, next to the record, are where it matters
            kept += not live.isdisjoint(g.neighbors(v))
    # a decreasing pair struction reweights all of N(v), so few far
    # vertices lie outside N(T) there (97 for the original variant)
    assert kept >= 50, kept


@pytest.mark.parametrize("variant", VARIANTS)
def test_blow_up_seeds_are_the_change_and_its_neighbors(variant):
    """blow_up clears the record on entry and leaves exactly its one
    struction's change there (failed attempts record nothing); the
    re-reduction is seeded with what _mark queues from that record, the
    change and its neighbors."""
    cfg = BlowupConfig(n_max=64, d_max=16, variant=variant)
    phases = 0
    for g in _graphs(0xB10, 40):
        bounds = {}
        for _phase in range(4):
            before = g.copy()
            status, _center = blow_up(g, bounds, cfg, TransformLog())
            if status != CHANGED:
                assert g == before
                assert g.take_changed() == set()
                break
            phases += 1
            changed = _diff(before, g)
            assert {x for x in g._changed if g.is_active(x)} == changed
            assert {x for x in g._touched if g.is_active(x)} == _touched(
                before, g)
            seeds = set()
            _mark(g, 0, lambda vs, mask: seeds.update(vs))
            assert seeds == changed.union(*(g.neighbors(x) for x in changed))
            assert g.take_changed() == set()
    assert phases >= MIN_FIRINGS, phases


def test_each_mutator_records_what_it_touches():
    g = DynGraph()
    a, b, c = g.add_vertex(1), g.add_vertex(2), g.add_vertex(3)
    assert g._touched == {a, b, c}
    assert g.take_changed() == {a, b, c}
    assert g.take_changed() == set() and g._touched == set()
    g.add_edge(a, b)
    assert g._touched == {a, b}
    assert g.take_changed() == {a, b}
    g.set_weight(c, 5)
    assert g._touched == {c}
    assert g.take_changed() == {c}
    g.add_edge(b, c)
    g.take_changed()
    g.remove_vertex(b)  # its neighbors get new sets; b itself is gone
    assert g._touched == set()
    assert g.take_changed() == {a, c}
    # reads and refused writes record nothing
    g.add_edge(a, c)
    g.take_changed()
    g.neighbors(a), g.weight(c), g.degree(a), g.is_adjacent(a, c)
    with pytest.raises(DuplicateEdge):
        g.add_edge(c, a)
    assert g.take_changed() == set()


def test_add_vertex_records_the_vertex_and_its_neighbors():
    g = DynGraph()
    a, b, c = g.add_vertex(1), g.add_vertex(2), g.add_vertex(3)
    g.take_changed()
    v = g.add_vertex(4, [c, a])
    assert g._touched == {v}
    assert g.take_changed() == {v, a, c}
    g.remove_vertex(b)
    g.take_changed()
    for w, nbrs in ((1, [a, a]), (1, [a, b]), (-1, [a])):
        with pytest.raises(GraphError):
            g.add_vertex(w, nbrs)
        assert g.take_changed() == set()


def test_fresh_graphs_start_with_an_empty_record(tmp_path):
    path = tmp_path / "g.graph"
    write_graph(random_gnp_graph(30, 0.2, 1), path)
    for g in (parse_graph(path), new_graph(3, [1, 2, 3]),
              random_gnp_graph(30, 0.2, 1),
              random_path_graph(10, 1, cycle=True)):
        assert g.counts()[0] > 0
        assert g.take_changed() == set()


def test_copies_start_with_an_empty_record_and_equality_ignores_it():
    g = DynGraph()
    a, b = g.add_vertex(1), g.add_vertex(1)
    g.add_edge(a, b)
    h, s = g.copy(), g.subgraph([a, b])
    assert h.take_changed() == set() and s.take_changed() == set()
    assert g == h == s
    assert g.take_changed() == {a, b}
