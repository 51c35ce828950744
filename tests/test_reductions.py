import random

import pytest
from hypothesis import given, settings, strategies as st

import mwis
from mwis import (RULE_ORDER, Aborted, BlowupConfig, DynGraph, TransformLog,
                  clique_neighborhood_removal, cyclic_blow_up,
                  degree_two_fold, domination, lift, twin_merge, verify_lift)
from mwis import reductions
from mwis.reductions import _SIMPLE_RULES, _reduce_into
from mwis.struction import count_small_exceeding_sets
from mwis.translog import DegreeTwoFold, ExcludedVertex, IncludedVertex, TwinMerge

from reference import (clique_cover_removal_fires, mwis_oracle,
                       planted_clique_graphs, random_graph)

SIMPLE_RULES = (clique_neighborhood_removal, degree_two_fold, domination,
                twin_merge)


# -- single rules ---------------------------------------------------------------

# the neighborhood_removal and clique_reduction tests check the two include
# rules of Lamm et al. that clique_neighborhood_removal covers

def test_neighborhood_removal_fires_on_heavy_center(s3):
    log = TransformLog()
    assert clique_neighborhood_removal(s3, 0, log)
    assert s3.counts() == (0, 0)
    assert log.events == [IncludedVertex(0, 5)]
    assert log.offset == 5


def test_neighborhood_removal_skips_light_center(p3a):
    # 3 < 2 + 2
    assert not clique_neighborhood_removal(p3a, 1, TransformLog())
    assert p3a.counts() == (3, 2)


def test_degree_two_fold(p3a):
    log = TransformLog()
    assert degree_two_fold(p3a, 1, log)
    assert log.events == [DegreeTwoFold(v=1, u=0, x=2, folded=3, w=3)]
    assert p3a.active_vertices() == [3]
    assert p3a.weight(3) == 1  # 2 + 2 - 3
    assert log.offset == 3


def test_degree_two_fold_requires_weight_window():
    # w(v) below both neighbors: folding would lose weight
    g = mwis.new_graph(3, [5, 1, 5])
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    assert not degree_two_fold(g, 1, TransformLog())
    # adjacent neighbors: not a fold shape either
    h = mwis.new_graph(3, [2, 3, 2])
    for u, v in ((0, 1), (1, 2), (0, 2)):
        h.add_edge(u, v)
    assert not degree_two_fold(h, 1, TransformLog())


def test_clique_reduction(k3u):
    log = TransformLog()
    assert clique_neighborhood_removal(k3u, 0, log)
    assert k3u.counts() == (0, 0)
    assert log.events == [IncludedVertex(0, 4)]
    assert log.offset == 4


def test_clique_reduction_needs_max_weight(k3u):
    # 2 < 4 next door
    assert not clique_neighborhood_removal(k3u, 1, TransformLog())


def test_domination():
    # 0 and 1 adjacent, N[1] within N[0], w(1) >= w(0): 0 is dominated
    g = mwis.new_graph(4, [2, 3, 1, 1])
    for u, v in ((0, 1), (0, 2), (0, 3), (1, 2)):
        g.add_edge(u, v)
    log = TransformLog()
    assert domination(g, 0, log)
    assert log.events == [ExcludedVertex(0)]
    assert log.offset == 0
    assert not g.is_active(0)


def test_domination_requires_heavier_dominator():
    g = mwis.new_graph(2, [3, 2])
    g.add_edge(0, 1)
    assert not domination(g, 0, TransformLog())   # neighbor is lighter
    assert domination(g, 1, TransformLog())       # but 1 is dominated by 0


def test_twin_merge(s3):
    log = TransformLog()
    assert twin_merge(s3, 1, log)
    assert log.events == [TwinMerge(kept=1, absorbed=2)]
    assert s3.weight(1) == 2
    assert not s3.is_active(2)


def test_twin_merge_degree_zero():
    g = mwis.new_graph(3, [1, 2, 3])
    g.add_edge(1, 2)
    # vertex 0 is isolated and alone in that class: nothing to merge
    assert not twin_merge(g, 0, TransformLog())
    g2 = mwis.new_graph(2, [1, 2])
    log = TransformLog()
    assert twin_merge(g2, 0, log)
    assert g2.weight(0) == 3
    # several isolated twins: the lowest id is absorbed
    g3 = mwis.new_graph(4, [1, 1, 1, 1])
    log = TransformLog()
    assert twin_merge(g3, 3, log)
    assert log.events == [TwinMerge(kept=3, absorbed=0)]


def test_twin_merge_requires_identical_neighborhoods(c4a):
    assert twin_merge(c4a, 1, TransformLog())      # N(1) == N(3) == {0, 2}
    g = c4a
    assert g.weight(1) == 4 and not g.is_active(3)


def test_clique_neighborhood_removal_beats_plain_removal():
    # two neighbor cliques: total weight 8 > w(v)=5, but cover bound 3+2=5
    g = mwis.new_graph(5, [5, 3, 2, 2, 1])
    for u in (1, 2, 3, 4):
        g.add_edge(0, u)
    g.add_edge(1, 2)
    g.add_edge(3, 4)
    assert sum(g.weight(u) for u in g.neighbors(0)) > g.weight(0)
    log = TransformLog()
    assert clique_neighborhood_removal(g, 0, log)
    assert g.counts() == (0, 0)
    assert log.offset == 5


def test_clique_neighborhood_removal_covers_removal_and_clique_rules():
    """Wherever neighborhood removal (w(v) >= w(N(v))) or clique reduction
    (N(v) a clique, v heaviest in N[v]) applies, the cover rule includes v
    with exactly their event and leaves G - N[v]."""
    rnd = random.Random(0x5B)
    seen = {"removal": 0, "clique only": 0}
    for _ in range(500):
        n = rnd.randint(1, 12)
        g0 = random_graph(rnd, n, rnd.choice([0.2, 0.4, 0.7, 0.9]),
                          wmax=rnd.choice([3, 9]))
        for v in g0.active_vertices():
            wv, nbrs = g0.weight(v), g0.neighbors(v)
            removal = wv >= sum(g0.weight(u) for u in nbrs)
            clique = (all(g0.weight(u) <= wv for u in nbrs)
                      and all(g0.is_adjacent(a, b)
                              for a in nbrs for b in nbrs if a < b))
            if not (removal or clique):
                continue
            seen["removal" if removal else "clique only"] += 1
            g, log = g0.copy(), TransformLog()
            assert clique_neighborhood_removal(g, v, log), v
            assert log.events == [IncludedVertex(v, wv)], v
            rest = g0.copy()
            for u in [v, *nbrs]:
                rest.remove_vertex(u)
            assert g == rest, v
    assert min(seen.values()) >= 100, seen


def test_clique_neighborhood_removal_fires_where_the_cover_alone_fires(
        monkeypatch):
    """The independent-set certificate only refutes what the cover refutes:
    the rule includes v exactly where the greedy clique cover's bound is at
    most w(v), at every vertex of planted-clique graphs and of c5 graphs,
    and at every attempt while c5 graphs are kernelized under cyclic-fast,
    blow-up phases and their peels included."""
    seen = {"fired": 0, "failed, no heavier neighbor": 0}

    def check(g, v):
        want = clique_cover_removal_fires(g, v)
        if not want and all(g.weight(u) <= g.weight(v)
                            for u in g.neighbors(v)):
            seen["failed, no heavier neighbor"] += 1
        seen["fired"] += want
        return want

    rnd = random.Random(0xC5)
    c5 = [random_graph(rnd, 60, 4 / 59, wmin=1, wmax=200) for _ in range(40)]
    graphs = [g for _rnd, g in planted_clique_graphs(0x3C, 60)] + c5
    for g0 in graphs:
        for v in g0.active_vertices():
            g, log = g0.copy(), TransformLog()
            fired = clique_neighborhood_removal(g, v, log)
            assert fired == check(g0, v), v
            if fired:
                assert log.events == [IncludedVertex(v, g0.weight(v))]
            else:
                assert g == g0 and not log.events
    static = dict(seen)

    real = _SIMPLE_RULES["clique_neighborhood_removal"]

    def checked(g, v, log):
        want = check(g, v)
        assert real(g, v, log) == want, v
        return want

    monkeypatch.setitem(_SIMPLE_RULES, "clique_neighborhood_removal", checked)
    phases = 0
    for g in c5:
        phases += mwis.preprocess(g.copy(), "cyclic-fast").stats[
            "blowup_phases"]
    assert min(static.values()) >= 200, static
    assert min(seen[k] - static[k] for k in seen) >= 200 and phases >= 50, (
        static, seen, phases)


def test_clique_neighborhood_removal_respects_bound(c4a):
    # cover of N(2) = {1}, {3}: bound 4 > 3
    assert not clique_neighborhood_removal(c4a, 2, TransformLog())


# -- struction-backed rules ------------------------------------------------------

def test_decreasing_struction_pure_removal(s3):
    cfg = BlowupConfig(variant="original")
    log = TransformLog()
    # leaf 1 is minimal in N[1]; no non-adjacent pairs, so cap 0 suffices
    assert mwis.decreasing_struction(s3, 1, cfg, log)
    assert not s3.is_active(1)
    assert s3.weight(0) == 4
    assert log.offset == 1


def test_decreasing_struction_rejects_growth(c4a):
    # extended at center 1 would create as many vertices as it removes
    cfg = BlowupConfig(variant="extended")
    before = c4a.counts()[0]
    fired = mwis.decreasing_struction(c4a, 1, cfg, TransformLog())
    if fired:
        assert c4a.counts()[0] < before
    else:
        assert c4a.counts()[0] == before


def test_struction_cap_precheck_skips_only_certain_aborts():
    # wherever the count of exceeding sets of size <= 2 passes the cap,
    # both extended builders abort, as each such set gets a created vertex
    # of its own; the stopped count agrees with the full one up to the cap.
    # Caps 0 and 1 also stop the count right after its single neighbors
    skipped = kept = early = 0
    for seed in range(60):
        rnd = random.Random(seed)
        g = random_graph(rnd, rnd.randint(4, 16),
                         rnd.choice([0.15, 0.3, 0.5]), wmax=30)
        for v in g.active_vertices():
            full = count_small_exceeding_sets(g, v)
            heavier = sum(g.weight(u) > g.weight(v) for u in g.neighbors(v))
            out = mwis.extended_reduced_struction(g.copy(), v, 10**6,
                                                  TransformLog())
            if not isinstance(out, Aborted):
                assert len(out.created) >= full, (seed, v)
            for cap in (0, 1, g.degree(v), g.degree(v) + 1):
                stopped = count_small_exceeding_sets(g, v, cap)
                assert stopped == full if full <= cap else stopped > cap
                if heavier > cap:
                    assert stopped == heavier
                    early += 1
                if stopped <= cap:
                    kept += 1
                    continue
                skipped += 1
                for build in (mwis.extended_struction,
                              mwis.extended_reduced_struction):
                    out = build(g.copy(), v, cap, TransformLog())
                    assert isinstance(out, Aborted), (seed, v, cap, build)
    assert skipped >= 100 and kept >= 100 and early >= 100, (
        skipped, kept, early)


# -- pipeline -----------------------------------------------------------------

def test_star_reduces_to_empty(s3):
    res = mwis.preprocess(s3)
    assert res.kernel.counts() == (0, 0)
    assert res.offset == 5
    assert verify_lift(_star(), lift(res.log, set()), 5)


def test_path_reduces_to_empty(p3a):
    res = mwis.preprocess(p3a)
    assert res.kernel.counts() == (0, 0)
    assert res.offset == 4


def test_triangle_reduces_to_empty(k3u):
    res = mwis.preprocess(k3u)
    assert res.kernel.counts() == (0, 0)
    assert res.offset == 4


def test_cycle_reduces_to_empty(c4a):
    res = mwis.preprocess(c4a)
    assert res.kernel.counts() == (0, 0)
    assert res.offset == 4
    lifted = lift(res.log, set())
    assert verify_lift(_cycle(), lifted, 4)


def _star():
    g = mwis.new_graph(4, [5, 1, 1, 1])
    for leaf in (1, 2, 3):
        g.add_edge(0, leaf)
    return g


def _cycle():
    g = mwis.new_graph(4, [1, 2, 3, 2])
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        g.add_edge(u, v)
    return g


def test_zero_weight_vertices_swept():
    g = DynGraph()
    g.add_vertex(0)
    g.add_vertex(3)
    g.add_edge(0, 1)
    res = mwis.preprocess(g)
    assert ExcludedVertex(0) in res.log.events
    assert res.offset == 3
    assert res.kernel.counts() == (0, 0)


def test_restricted_rule_set_leaves_kernel(s3):
    res = cyclic_blow_up(s3, BlowupConfig(X=0, rules=("domination",)))
    assert res.kernel.counts() == (4, 3)
    assert res.offset == 0
    assert not any(rule in res.stats for rule in RULE_ORDER)
    assert res.stats["blowup_phases"] == 0


def test_plateau_disabled_never_fires():
    rnd = random.Random(17)
    for _ in range(20):
        g = random_graph(rnd, 12, 0.3, wmax=9)
        rules = tuple(r for r in RULE_ORDER if r != "plateau_struction")
        res = cyclic_blow_up(g, BlowupConfig(X=0, rules=rules))
        assert "plateau_struction" not in res.stats


def test_plateau_budget_ends_a_chain_of_firings(monkeypatch):
    # a stub that rewrites v's weight unchanged puts v on the change record,
    # so every firing queues v again; only the 4|V| budget stops it
    def requeue(g, v, cfg, log):
        g.set_weight(v, g._w[v])
        return True

    monkeypatch.setattr(reductions, "plateau_struction", requeue)
    g = random_graph(random.Random(5), 9, 0.3, wmax=9)
    n = len(g._w)
    stats = {}
    _reduce_into(g, BlowupConfig(rules=("plateau_struction",)),
                 TransformLog(), stats)
    assert stats["plateau_struction"] == 4 * n


def test_reduce_is_idempotent():
    rnd = random.Random(3)
    for _ in range(25):
        g = random_graph(rnd, 14, 0.25, wmax=50)
        first = mwis.preprocess(g)
        k = first.kernel.copy()
        second = mwis.preprocess(first.kernel)
        assert second.kernel == k
        assert len(second.log) == 0


@given(seed=st.integers(0, 10**9), n=st.integers(2, 13),
       p=st.sampled_from([0.15, 0.3, 0.5]))
@settings(max_examples=120, deadline=None)
def test_pipeline_preserves_weight_and_never_grows(seed, n, p):
    rnd = random.Random(seed)
    g0 = random_graph(rnd, n, p, wmax=30)
    res = mwis.preprocess(g0.copy())
    assert res.kernel.counts()[0] <= n
    kw, ks = (0, set()) if res.kernel.counts()[0] == 0 else \
        mwis.brute_force_mwis(res.kernel, size_limit=200)
    w0, _ = mwis_oracle(g0)
    assert w0 == kw + res.offset
    lifted = lift(res.log, ks)
    assert verify_lift(g0, lifted, w0)


@given(seed=st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_each_rule_is_safe_wherever_it_fires(seed):
    """Any single firing of any simple rule keeps oracle + offset invariant."""
    rnd = random.Random(seed)
    g0 = random_graph(rnd, rnd.randint(2, 10), rnd.choice([0.2, 0.4, 0.6]))
    w0, _ = mwis_oracle(g0)
    for rule in SIMPLE_RULES:
        for v in g0.active_vertices():
            g = g0.copy()
            log = TransformLog()
            if not rule(g, v, log):
                assert g == g0
                continue
            w1, s1 = mwis_oracle(g)
            assert w0 == w1 + log.offset, (rule.__name__, v)
            assert verify_lift(g0, lift(log, s1), w0), (rule.__name__, v)
