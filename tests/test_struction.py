import random

import pytest
from hypothesis import given, settings, strategies as st

import mwis
from mwis import (Aborted, NotMinimal, TransformLog, enumerate_exceeding_sets,
                  extended_reduced_struction, extended_struction, lift,
                  modified_struction, original_struction, verify_lift)
from mwis import struction
from mwis.struction import NeighborhoodSet
from mwis.translog import Pair, VertexSet, VertexSetPlus

from reference import (exceeding_sets_eager, exceeding_sets_recursive,
                       is_independent, mwis_oracle, random_graph)


def weights_of(g):
    return {v: g.weight(v) for v in g.active_vertices()}


def edges_of(g):
    return {(u, v) for u in g.active_vertices() for v in g.neighbors(u) if u < v}


# -- the cycle example, all four variants ------------------------------------
# vertices: 0(w1) - 1(w2) - 2(w3) - 3(w2) - 0, center 0

def test_original_struction_on_cycle(c4a):
    log = TransformLog()
    out = original_struction(c4a, 0, cap=10, log=log)
    assert not isinstance(out, Aborted)
    assert log.offset == 1
    # neighbors 1 and 3 lowered by 1, pair vertex 4 carries the center weight
    assert weights_of(c4a) == {1: 1, 2: 3, 3: 1, 4: 1}
    assert edges_of(c4a) == {(1, 2), (2, 3), (2, 4)}
    assert out.created == ((4, Pair(1, 3)),)
    assert mwis_oracle(c4a)[0] == 3


def test_modified_struction_on_cycle(c4a):
    log = TransformLog()
    out = modified_struction(c4a, 0, cap=10, log=log)
    assert not isinstance(out, Aborted)
    # pair vertex keeps the original weight of its second member
    assert weights_of(c4a) == {1: 1, 2: 3, 3: 1, 4: 2}
    # neighborhood clique edge 1-3 plus the k != x connections
    assert edges_of(c4a) == {(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)}
    w, sol = mwis_oracle(c4a)
    assert w == 3
    # both optima lift to weight-4 solutions of the original cycle
    assert lift(log, {1, 4}) == {1, 3}
    assert verify_lift(_fresh_c4a(), lift(log, sol), 4)


def test_extended_struction_on_cycle(c4a):
    log = TransformLog()
    out = extended_struction(c4a, 0, cap=10, log=log)
    assert not isinstance(out, Aborted)
    # N[0] gone; one vertex per exceeding independent set {1}, {1,3}, {3}
    provs = {prov.c: c4a.weight(cid) for cid, prov in out.created}
    assert provs == {(1,): 1, (1, 3): 3, (3,): 1}
    assert weights_of(c4a) == {2: 3, 4: 1, 5: 3, 6: 1}
    assert edges_of(c4a) == {(2, 4), (2, 5), (2, 6), (4, 5), (4, 6), (5, 6)}
    assert mwis_oracle(c4a)[0] == 3


def test_extended_reduced_struction_on_cycle(c4a):
    log = TransformLog()
    out = extended_reduced_struction(c4a, 0, cap=10, log=log)
    assert not isinstance(out, Aborted)
    # minimal sets {1}, {3}; extensions add the respective other neighbor
    core = {prov.c: c4a.weight(cid) for cid, prov in out.created
            if isinstance(prov, VertexSet)}
    ext = {(prov.c, prov.y): c4a.weight(cid) for cid, prov in out.created
           if isinstance(prov, VertexSetPlus)}
    assert core == {(1,): 1, (3,): 1}
    assert ext == {((1,), 3): 2, ((3,), 1): 2}
    assert c4a.counts() == (5, 8)
    w, sol = mwis_oracle(c4a)
    assert w == 3
    lifted = lift(log, sol)
    assert verify_lift(_fresh_c4a(), lifted, 4)


def _fresh_c4a():
    g = mwis.new_graph(4, [1, 2, 3, 2])
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        g.add_edge(u, v)
    return g


# -- degenerate and error cases ----------------------------------------------

def test_pair_variants_require_minimal_center(c4a):
    for op in (original_struction, modified_struction):
        g = c4a.copy()
        with pytest.raises(NotMinimal):
            op(g, 2, cap=10, log=TransformLog())  # w(2)=3 > its neighbors


def test_clique_neighborhood_degenerates_to_removal(k3u):
    # center 2 has weight 1, minimal in its closed neighborhood
    log = TransformLog()
    out = original_struction(k3u, 2, cap=10, log=log)
    assert out.created == ()
    assert weights_of(k3u) == {0: 3, 1: 1}
    assert log.offset == 1
    assert mwis_oracle(k3u)[0] == 3


def test_isolated_center_is_pure_inclusion():
    g = mwis.new_graph(2, [5, 2])
    log = TransformLog()
    out = extended_struction(g, 0, cap=10, log=log)
    assert out.created == ()
    assert g.active_vertices() == [1]
    assert log.offset == 5
    assert lift(log, set()) == {0}


def test_center_outweighing_neighborhood_is_pure_inclusion(s3):
    # center weight 5 > total leaf weight 3: no exceeding sets exist
    log = TransformLog()
    out = extended_struction(s3, 0, cap=10, log=log)
    assert out.created == ()
    assert s3.counts() == (0, 0)
    assert log.offset == 5


def test_abort_leaves_graph_untouched(c4a):
    snap = c4a.copy()
    for op in (original_struction, modified_struction,
               extended_struction, extended_reduced_struction):
        log = TransformLog()
        out = op(c4a, 0, cap=0, log=log)
        assert isinstance(out, Aborted)
        assert c4a == snap
        assert len(log) == 0 and log.offset == 0


def test_budget_abort_is_transactional():
    # 16 independent leaves of weight 1 around a centre of weight 100: no
    # set exceeds the centre, and the 2^16 subsets pass the default node
    # budget of max(8192, 16 * (cap + 1)) before the cap is ever reached
    g = mwis.new_graph(17, [1] * 16 + [100])
    for u in range(16):
        g.add_edge(u, 16)
    snap = g.copy()
    out = extended_struction(g, 16, cap=10, log=TransformLog())
    assert isinstance(out, Aborted) and out.reason == "budget"
    assert g == snap


def test_zero_weight_neighbors_cleaned_up():
    # equal weights: the struction zeroes every neighbor, which must then
    # disappear as recorded exclusions
    g = mwis.new_graph(3, [2, 2, 2])
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    log = TransformLog()
    original_struction(g, 0, cap=10, log=log)
    assert all(g.weight(v) > 0 for v in g.active_vertices())
    assert mwis_oracle(g)[0] + log.offset == 4


# -- exceeding-set enumeration -------------------------------------------------

def test_enumerate_all_exceeding_sets(c4a):
    sets = enumerate_exceeding_sets(c4a, [1, 3], threshold=1, cap=10)
    assert sets == [NeighborhoodSet((1,), 2), NeighborhoodSet((1, 3), 4),
                    NeighborhoodSet((3,), 2)]


def test_enumerate_minimal_only(c4a):
    sets = enumerate_exceeding_sets(c4a, [1, 3], threshold=1, cap=10,
                                    minimal_only=True)
    assert sets == [NeighborhoodSet((1,), 2), NeighborhoodSet((3,), 2)]


def test_enumerate_pair_is_minimal_when_singletons_fail():
    g = mwis.new_graph(3, [2, 1, 1])
    sets = enumerate_exceeding_sets(g, [1, 2], threshold=1, cap=10,
                                    minimal_only=True)
    assert sets == [NeighborhoodSet((1, 2), 2)]


def test_enumerate_threshold_above_total(c4a):
    assert enumerate_exceeding_sets(c4a, [1, 3], threshold=4, cap=10) == []


def test_enumerate_cap_abort(c4a):
    out = enumerate_exceeding_sets(c4a, [1, 3], threshold=1, cap=1)
    assert isinstance(out, Aborted) and out.reason == "cap"


def test_enumerate_respects_adjacency(k3u):
    # neighbors of nothing in particular: a clique allows only singletons
    sets = enumerate_exceeding_sets(k3u, [0, 1, 2], threshold=1, cap=10)
    assert sets == [NeighborhoodSet((0,), 4), NeighborhoodSet((1,), 2)]


def test_enumerate_matches_recursive_reference(monkeypatch):
    # same sets in the same order, or an abort for the same reason, as the
    # recursive DFS it replaced, over caps and node budgets on both sides
    # of every abort; lowering the budget's floor brings budget aborts
    # into these small neighborhoods
    outcomes = {"empty": 0, "sets": 0, "cap": 0, "budget": 0}
    for case in range(1200):
        rnd = random.Random(case)
        n = rnd.randint(0, 26)
        g = random_graph(rnd, n, rnd.choice([0.1, 0.3, 0.5, 0.8]), wmax=20)
        S = rnd.sample(range(n), rnd.randint(0, n))
        threshold = rnd.randint(0, sum(g.weight(u) for u in S) + 1)
        cap = rnd.choice([0, 1, 3, 10, 40, 200, 5000])
        minimal_only = rnd.random() < 0.5
        floor = rnd.choice([8192, 5, 50, 500])
        monkeypatch.setattr(struction, "_MIN_NODE_BUDGET", floor)
        got = enumerate_exceeding_sets(g, S, threshold, cap, minimal_only)
        want = exceeding_sets_recursive(g, S, threshold, cap, minimal_only,
                                        max(floor, 16 * (cap + 1)))
        if isinstance(got, Aborted):
            assert got.reason == want, case
            outcomes[want] += 1
        else:
            assert [(ns.members, ns.weight) for ns in got] == want, case
            outcomes["sets" if got else "empty"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_enumerate_matches_eager_mask_reference(monkeypatch):
    # building each conflict mask on first descent changes nothing: the
    # same sets in the same order, or an abort for the same reason, as the
    # search with every mask built up front, in random neighborhoods
    outcomes = {(kind, minimal_only): 0
                for kind in ("empty", "sets", "cap", "budget")
                for minimal_only in (False, True)}
    for case in range(1500):
        rnd = random.Random(0xEA6E5 + case)
        n = rnd.randint(1, 40)
        g = random_graph(rnd, n, rnd.choice([0.05, 0.2, 0.5, 0.9]), wmax=30)
        v = rnd.randrange(n)
        S = g.neighbors(v) if rnd.random() < 0.5 else rnd.sample(
            range(n), rnd.randint(0, n))
        threshold = rnd.randint(0, sum(g.weight(u) for u in S) + 1)
        cap = rnd.choice([0, 1, 2, 5, 20, 100, 5000])
        minimal_only = rnd.random() < 0.5
        floor = rnd.choice([8192, 3, 30, 300, 3000])
        monkeypatch.setattr(struction, "_MIN_NODE_BUDGET", floor)
        got = enumerate_exceeding_sets(g, S, threshold, cap, minimal_only)
        want = exceeding_sets_eager(g, S, threshold, cap, minimal_only,
                                    max(floor, 16 * (cap + 1)))
        if isinstance(got, Aborted):
            assert got.reason == want, case
            kind = want
        else:
            assert [(ns.members, ns.weight) for ns in got] == want, case
            kind = "sets" if got else "empty"
        outcomes[kind, minimal_only] += 1
    assert min(outcomes.values()) >= 60, outcomes


def test_enumerate_reads_only_the_neighbor_sets_it_descends_into():
    # in a 40-leaf star's neighborhood the search descends into the first
    # two leaves and aborts on the cap at the third, so it reads their two
    # neighbor sets and not all 40 up front
    g = mwis.new_graph(41, [100] + [1] * 40)
    for u in range(1, 41):
        g.add_edge(0, u)

    class CountingDict(dict):
        reads = []

        def __getitem__(self, key):
            CountingDict.reads.append(key)
            return dict.__getitem__(self, key)

    g._nbs = CountingDict(g._nbs)
    out = enumerate_exceeding_sets(g, range(1, 41), threshold=2, cap=0)
    assert out == Aborted("cap")
    assert CountingDict.reads == [1, 2]


def test_extended_struction_on_deep_star_aborts_without_recursion():
    # a 500-leaf star puts a 500-deep chain into the set DFS, far below
    # the recursion limit's reach for a recursive search
    g = mwis.new_graph(501, [499] + [1] * 500)
    for leaf in range(1, 501):
        g.add_edge(0, leaf)
    before = g.copy()
    out = extended_struction(g, 0, 2048, TransformLog())
    assert isinstance(out, Aborted)
    assert g == before


# -- the weight identity, property style ---------------------------------------

def oracle_any(g):
    """Reference oracle where subset enumeration is affordable, otherwise the
    package's own exhaustive search (itself validated against the reference
    on small graphs in test_solver)."""
    if g.counts()[0] <= 14:
        return mwis_oracle(g, limit=14)
    return mwis.brute_force_mwis(g, size_limit=500)


@st.composite
def graph_and_center(draw):
    n = draw(st.integers(3, 8))
    seed = draw(st.integers(0, 10**9))
    rnd = random.Random(seed)
    g = random_graph(rnd, n, draw(st.sampled_from([0.2, 0.4, 0.6])))
    v = draw(st.integers(0, n - 1))
    return g, v


@given(gc=graph_and_center())
@settings(max_examples=80, deadline=None)
def test_every_variant_preserves_shifted_optimum(gc):
    g0, v = gc
    w0, _ = mwis_oracle(g0)
    for name, op in mwis.VARIANT_OPS.items():
        g = g0.copy()
        log = TransformLog()
        try:
            out = op(g, v, cap=10**9, log=log)
        except NotMinimal:
            assert name in ("original", "modified")
            continue
        assert not isinstance(out, Aborted)
        w1, s1 = oracle_any(g)
        assert w0 == w1 + log.offset, name
        lifted = lift(log, s1)
        assert verify_lift(g0, lifted, w0), name
        # hygiene: sorted unique adjacency everywhere
        for u in g.active_vertices():
            nbrs = g.neighbors(u)
            assert nbrs == sorted(set(nbrs))


def _random_independent_set(rnd, g):
    """Vertices in random order, each kept with one probability if none of
    its neighbors is in yet: maximal for probability 1, sparse near 0."""
    keep = rnd.random()
    out = set()
    order = sorted(g.active_vertices())
    rnd.shuffle(order)
    for u in order:
        if rnd.random() < keep and not any(x in out for x in g.neighbors(u)):
            out.add(u)
    return out


def test_every_variant_lifts_any_independent_set_to_one_no_lighter():
    """The inverse needs no optimal kernel solution: any independent set S
    of the struck graph lifts to an independent set of the input of weight
    at least w(S) + w(v)."""
    rnd = random.Random(20261020)
    checks = 0
    for _ in range(400):
        n = rnd.randint(3, 12)
        g0 = random_graph(rnd, n, rnd.choice([0.2, 0.4, 0.6]))
        for name, op in mwis.VARIANT_OPS.items():
            for v in range(n):
                g = g0.copy()
                log = TransformLog()
                try:
                    op(g, v, cap=10**9, log=log)
                except NotMinimal:
                    continue
                for _ in range(10):
                    s = _random_independent_set(rnd, g)
                    lifted = lift(log, s)
                    assert all(g0.is_active(u) for u in lifted), name
                    assert is_independent(g0, lifted), name
                    assert (sum(g0.weight(u) for u in lifted)
                            >= sum(g.weight(u) for u in s) + log.offset), name
                    checks += 1
    assert checks > 50_000
