"""`_outer_neighbors(g, S)` is N(S) - S from either side.

The reduction queue uses it to find the vertices two steps from a
firing: by the forward union over S when S has few incident edges, and
by a reverse scan of the vertices outside S otherwise.  Both sides must
give the set the forward union gives, so that `_mark` hands the queue the
same vertices with the same rule masks whichever side it took.
"""

from mwis.reductions import (_ALL, _CNR, _DOM, _FOLD, _REVERSE_SCAN, _TWIN,
                             _mark, _outer_neighbors)

from reference import planted_clique_graphs


def _forward(g, S):
    return set().union(*(g._nbs[p] for p in S)) - S


def _reverse_side(g, S):
    return sum(len(g._nbs[p]) for p in S) > _REVERSE_SCAN * len(g._nbs)


def _mark_forward(g, removed, enqueue):
    """The reference for _mark: far from one set update per vertex of P,
    the record and the neighbors of its second part kept apart, each far
    vertex's domination mark read from its own neighbors in P, and after
    a single removal one mask per vertex of P."""
    nbs = g._nbs
    w = g._w
    T = {x for x in g._touched if x in nbs}
    P = {x for x in g.take_changed() if x in nbs}
    far = set()
    for p in P:
        far.update(nbs[p])
    far -= P
    near = P.union(*(nbs[t] for t in T))
    for y in far - near:
        mask = _TWIN
        if any(w[p] >= w[y] and len(nbs[p]) <= len(nbs[y])
               for p in nbs[y] & P):
            mask |= _DOM
        enqueue([y], mask)
    if T or removed != 1:
        enqueue(near, _ALL)
        return
    far_degrees = {len(nbs[y]) for y in far}
    top = max((w[p] for p in P), default=None)
    for p in P:
        mask = _ALL & ~(_CNR | _FOLD | _DOM | _TWIN)
        if not any(w[h] == top > w[p] for h in nbs[p] & P):
            mask |= _CNR
        if len(nbs[p]) == 2:
            mask |= _FOLD
        if len(nbs[p]) in far_degrees or nbs[p].isdisjoint(P):
            mask |= _TWIN
        enqueue([p], mask)


def _marks(mark, h, removed):
    """The vertex -> mask map a mark call queues for h's change record,
    taken on a copy so that h keeps its record."""
    g = h.copy()
    g._changed, g._touched = set(h._changed), set(h._touched)
    marks = {}

    def enqueue(vs, mask):
        for x in vs:
            marks[x] = marks.get(x, 0) | mask

    mark(g, removed, enqueue)
    return marks


def _removal_cases(rnd, g):
    """(graph after the change, S, vertices removed) for one vertex
    removal, one closed-neighborhood removal, one removal next to a
    reweighted vertex, and random subsets S of the unchanged graph; each
    graph's change record holds the live vertices it changed."""
    vs = g.active_vertices()
    x = rnd.choice(vs)
    h = g.copy()
    P = set(h._nbs[x])
    h.remove_vertex(x)
    yield h, P, 1

    h = g.copy()
    closed = h._nbs[x] | {x}
    P = {y for u in closed for y in h._nbs[u]} - closed
    for u in sorted(closed):
        h.remove_vertex(u)
    yield h, P, len(closed)

    h = g.copy()
    y = rnd.choice(vs)
    h.set_weight(y, h.weight(y) + 1)
    if x != y:
        h.remove_vertex(x)
    yield h, {y} | (set(g._nbs[x]) - {y} if x != y else set()), int(x != y)

    for size in (1, len(vs) // 4, len(vs) // 2, len(vs)):
        h = g.copy()
        S = set(rnd.sample(vs, size))
        h._changed = set(S)
        yield h, S, rnd.choice((1, 2))


def test_outer_neighbors_equals_the_forward_union_on_both_sides():
    sides = {True: 0, False: 0}
    for rnd, g in planted_clique_graphs(0x2D, 160):
        for h, S, _removed in _removal_cases(rnd, g):
            assert _outer_neighbors(h, S) == _forward(h, S)
            sides[_reverse_side(h, S)] += 1
    # the equality means something only if both sides ran often
    assert sides[True] >= 100
    assert sides[False] >= 100


def test_mark_queues_the_forward_scan_marks():
    sides = {True: 0, False: 0}
    kinds = {"single": 0, "multi": 0, "touched": 0}
    skips = {"clique": 0, "fold": 0}
    for rnd, g in planted_clique_graphs(0x2E, 120):
        for h, P, removed in _removal_cases(rnd, g):
            assert {x for x in h._changed if x in h._nbs} == P
            got = _marks(_mark, h, removed)
            assert got == _marks(_mark_forward, h, removed)
            sides[_reverse_side(h, P)] += 1
            kind = ("touched" if h._touched else
                    "single" if removed == 1 else "multi")
            kinds[kind] += 1
            if kind == "single":
                for p in P:
                    skips["clique"] += not got[p] & _CNR
                    skips["fold"] += not got[p] & _FOLD
    assert sides[True] >= 100
    assert sides[False] >= 100
    assert min(kinds.values()) >= 100, kinds
    # the single-removal masks drop both rules at many survivors
    assert min(skips.values()) >= 2000, skips
