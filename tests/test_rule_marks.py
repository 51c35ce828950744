"""The per-rule dirty marks of the reduction queue are exact.

`_reduce_into` re-tests a queued vertex only with the rules that may have
started to apply there, and a re-reduction after a blow-up phase or a
search branch queues only the region around the graph's change record.
These tests run it against the queue that starts from every vertex and
re-tests every rule (kept below as `_reduce_all_rules`) and require the
same log bytes, kernel and stats; solve must give the same result when
every search node re-tests every vertex.  They also check that a branch's re-reduction
reaches a fixpoint, that no struction attempt is repeated on an unchanged
neighborhood, that the vertices `_reduce_into` returns cover every changed
neighborhood, and the single-removal and far-domination lemmas the marks
rest on, by brute force.
"""

import heapq
import random
from dataclasses import replace

import pytest

import mwis
from mwis import reductions
from mwis import RULE_ORDER, BlowupConfig, blow_up
from mwis import blowup as blowup_mod
from mwis.blowup import CHANGED
from mwis.reductions import (_SIMPLE_RULES, _reduce_into,
                             clique_neighborhood_removal, decreasing_struction,
                             degree_two_fold, plateau_struction)
from mwis.translog import ExcludedVertex, TransformLog, to_bytes

from reference import (clique_cover_removal_fires, disjoint_union,
                       local_state, random_graph)

VARIANTS = ("original", "modified", "extended", "extended_reduced")
RULE_SETS = (RULE_ORDER,
             tuple(r for r in RULE_ORDER if r != "plateau_struction"),
             tuple(r for r in RULE_ORDER
                   if r not in ("plateau_struction", "twin")))
RULE_SET_IDS = ("plateau", "no_plateau", "search")


def _with_neighbors(g, changed):
    S = set(changed)
    return S.union(*(g._nbs[x] for x in S))


def _fingerprint(g, v):
    return (g.weight(v), frozenset((u, g.weight(u)) for u in g.neighbors(v)))


def _reduce_all_rules(g, cfg, log, stats, seeds=None):
    """The queue before per-rule marks: every vertex starts queued, whatever
    the seeds, every popped vertex is tested with every cheap rule, and
    every firing re-queues the graph's change record and its neighbors for
    every rule, structions included.  A failed plateau attempt excludes its
    centre until the centre's weight or the weighted neighborhood changes.
    Returns the vertices whose weighted G[N[v]] may differ from before the
    record the call started from: the record's live vertices and their
    neighbors at entry, and every vertex whose state at exit differs from
    its state at entry, new vertices included."""
    rules = [r for r in RULE_ORDER if r in cfg.rules]
    cheap = [r for r in rules if r in _SIMPLE_RULES]
    expensive = [r for r in rules if r not in _SIMPLE_RULES]
    budget = 4 * g.counts()[0]
    exclusion = {}
    stale = _with_neighbors(g, [x for x in g.take_changed() if g.is_active(x)])
    entry = {v: local_state(g, v) for v in g.active_vertices()}

    start = g.active_vertices()
    cheap_heap = list(start)
    cheap_q = set(start)
    exp_heap = list(start) if expensive else []
    exp_q = set(exp_heap)

    def enqueue(vs):
        for x in vs:
            if x not in cheap_q:
                cheap_q.add(x)
                heapq.heappush(cheap_heap, x)
            if expensive and x not in exp_q:
                exp_q.add(x)
                heapq.heappush(exp_heap, x)

    def fire(rule):
        stats[rule] = stats.get(rule, 0) + 1
        live = [x for x in g.take_changed() if g.is_active(x)]
        enqueue(_with_neighbors(g, live))

    while cheap_heap or exp_heap:
        if cheap_heap:
            v = heapq.heappop(cheap_heap)
            cheap_q.discard(v)
            if not g.is_active(v):
                continue
            if g.weight(v) == 0:
                log.record(ExcludedVertex(v))
                g.remove_vertex(v)
                stats["zero_weight"] = stats.get("zero_weight", 0) + 1
                enqueue(_with_neighbors(g, g.take_changed()))
                continue
            for rule in cheap:
                if _SIMPLE_RULES[rule](g, v, log):
                    fire(rule)
                    break
            continue
        v = heapq.heappop(exp_heap)
        exp_q.discard(v)
        if not g.is_active(v):
            continue
        for rule in expensive:
            if rule == "decreasing_struction":
                applied = decreasing_struction(g, v, cfg, log)
            elif budget <= 0:
                applied = False
            elif exclusion.get(v) == _fingerprint(g, v):
                applied = False
            else:
                applied = plateau_struction(g, v, cfg, log)
                if applied:
                    budget -= 1
                else:
                    exclusion[v] = _fingerprint(g, v)
            if applied:
                fire(rule)
                break
    return stale | {v for v in g.active_vertices()
                    if local_state(g, v) != entry.get(v)}


def _outcome(reduce_into, g, cfg, seeds=None):
    record = set(g._changed), set(g._touched)
    g = g.copy()
    g._changed, g._touched = record
    log = TransformLog()
    stats = {}
    reduce_into(g, cfg, log, stats, seeds)
    return to_bytes(log), g, stats


def _assert_same(g, cfg, seeds=None):
    got = _outcome(_reduce_into, g, cfg, seeds)
    want = _outcome(_reduce_all_rules, g, cfg, seeds)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]
    return want[2]


def _tie_graphs(seed, count):
    """Small random graphs whose narrow weight ranges make twin and
    domination fire often.  Some vertices get a copy on the same
    neighborhood, or on all of it but one neighbor, so that twins appear
    both at the start and after a removal."""
    rnd = random.Random(seed)
    for _ in range(count):
        n = rnd.randint(4, 22)
        wmax = rnd.choice((1, 2, 3))
        g = random_graph(rnd, n, rnd.choice((0.1, 0.2, 0.35, 0.6)),
                         wmin=1, wmax=wmax)
        for v in rnd.sample(range(n), rnd.randint(0, n // 3)):
            nbrs = g.neighbors(v)
            if nbrs and rnd.random() < 0.5:
                nbrs.remove(rnd.choice(nbrs))
            u = g.add_vertex(rnd.randint(1, wmax))
            for x in nbrs:
                g.add_edge(u, x)
        yield g


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("rules", RULE_SETS, ids=RULE_SET_IDS)
def test_marks_match_all_rules_queue_on_tie_graphs(variant, rules):
    cfg = BlowupConfig(rules=rules, variant=variant, d_max=16)
    fired = {}
    for g in _tie_graphs(0x7A1, 60):
        for rule, k in _assert_same(g, cfg).items():
            fired[rule] = fired.get(rule, 0) + k
    # the comparison means something only if the marked rules fire
    assert fired.get("domination", 0) >= 20
    assert fired.get("twin", 0) >= 20 or "twin" not in rules


def test_marks_match_all_rules_queue_with_cheap_rule_subsets():
    rnd = random.Random(0x5B)
    for g in _tie_graphs(0x5C, 60):
        rules = tuple(r for r in RULE_ORDER if rnd.random() < 0.5)
        _assert_same(g, BlowupConfig(rules=rules))
        # domination and twin alone, the rules with the refined marks
        _assert_same(g, BlowupConfig(rules=("domination", "twin")))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("rules", RULE_SETS, ids=RULE_SET_IDS)
def test_marks_match_all_rules_queue_after_blow_up(variant, rules):
    """Re-reduction from the record a blow-up phase leaves: clique peels
    by domination."""
    cfg = BlowupConfig(n_max=64, d_max=16, variant=variant, rules=rules)
    rnd = random.Random(0xB10)
    phases = 0
    for _ in range(12):
        g = random_graph(rnd, rnd.randint(20, 40), rnd.choice((0.1, 0.2)),
                         wmin=1, wmax=rnd.choice((3, 20)))
        log = TransformLog()
        _reduce_into(g, cfg, log, {})
        bounds = {}
        for _phase in range(6):
            status, _center = blow_up(g, bounds, cfg, log)
            if status != CHANGED:
                break
            phases += 1
            _assert_same(g, cfg, ())
            _reduce_into(g, cfg, log, {}, ())
    assert phases >= 10


def test_cyclic_blow_up_matches_all_rules_queue(monkeypatch):
    rnd = random.Random(0xC5)
    graphs = [random_graph(rnd, 40, 4 / 39, wmin=1, wmax=200) for _ in range(8)]
    for mode in ("cyclic-fast", "cyclic-strong"):
        for g in graphs:
            cfg = replace(mwis.make_blowup_config(mode), X=6)
            monkeypatch.setattr(blowup_mod, "_reduce_into", _reduce_into)
            got = mwis.cyclic_blow_up(g.copy(), cfg)
            monkeypatch.setattr(blowup_mod, "_reduce_into", _reduce_all_rules)
            want = mwis.cyclic_blow_up(g.copy(), cfg)
            assert to_bytes(got.log) == to_bytes(want.log)
            assert got.kernel == want.kernel
            assert got.stats == want.stats


# -- no struction attempt is repeated on an unchanged neighborhood -----------------

@pytest.mark.parametrize("variant", VARIANTS)
def test_no_struction_attempt_repeats_on_an_unchanged_neighborhood(
        variant, monkeypatch):
    """Within one `_reduce_into` call, a struction rule is attempted again at
    a vertex only after its weighted G[N[v]] changed, on the tie graphs and
    on the re-reductions that follow blow-up phases.  After each firing,
    every attempt whose vertex no longer has the state it was attempted in
    is forgotten; an attempt in the state of a remembered one is a repeat."""
    last = {}  # (rule, v) -> state of its last attempt, while unchanged
    repeats, attempts = [], []

    def forget_changed(g):
        for (rule, v), state in list(last.items()):
            if v not in g._w or local_state(g, v) != state:
                del last[rule, v]

    def watched(name, fn, struction):
        def attempt(g, v, *rest):
            if struction:
                state = local_state(g, v)
                if last.get((name, v)) == state:
                    repeats.append((name, v))
                last[name, v] = state
                attempts.append(name)
            fired = fn(g, v, *rest)
            if fired:
                forget_changed(g)
            return fired
        return attempt

    for name, fn in list(_SIMPLE_RULES.items()):
        monkeypatch.setitem(_SIMPLE_RULES, name, watched(name, fn, False))
    for name in ("decreasing_struction", "plateau_struction"):
        monkeypatch.setattr(reductions, name,
                            watched(name, getattr(reductions, name), True))

    cfg = BlowupConfig(n_max=64, d_max=16, variant=variant)

    def reduce_once(g, log, seeds=None):
        last.clear()
        _reduce_into(g, cfg, log, {}, seeds)

    for g in _tie_graphs(0x7A1, 60):
        reduce_once(g, TransformLog())
    rnd = random.Random(0xB10)
    phases = 0
    for _ in range(12):
        g = random_graph(rnd, rnd.randint(20, 40), rnd.choice((0.1, 0.2)),
                         wmin=1, wmax=rnd.choice((3, 20)))
        log = TransformLog()
        reduce_once(g, log)
        bounds = {}
        for _phase in range(6):
            status, _center = blow_up(g, bounds, cfg, log)
            if status != CHANGED:
                break
            phases += 1
            reduce_once(g, log, ())
    assert repeats == []
    assert len(attempts) >= 1000 and phases >= 10, (len(attempts), phases)


def _states(g):
    return {v: local_state(g, v) for v in g._nbs}


def _assert_covers(g, before, struck):
    """struck holds every live vertex whose state is not that of before."""
    stale = {v for v in g._nbs if local_state(g, v) != before.get(v)}
    assert stale <= struck, sorted(stale - struck)
    return len(stale)


@pytest.mark.parametrize("variant", VARIANTS)
def test_returned_vertices_cover_every_changed_neighborhood(variant):
    """`_reduce_into` returns every live vertex whose weighted G[N[v]]
    differs from before the record it started from, new vertices included;
    the blow-up cycle keeps a candidate's bound everywhere else.  Checked
    on the tie graphs, on re-reductions after a search branch removes v or
    N[v] from a fixpoint, and on re-reductions after blow-up phases."""
    cfg = BlowupConfig(n_max=64, d_max=16, variant=variant)
    calls = changed = 0
    for g in _tie_graphs(0x7A1, 60):
        # every vertex is new, so every survivor must be returned
        changed += _assert_covers(g, {}, _reduce_into(g, cfg, TransformLog(),
                                                      {}))
        calls += 1
    rnd = random.Random(0xB4)
    for _ in range(10):
        n = rnd.randint(30, 60)
        g = random_graph(rnd, n, rnd.choice((4, 5, 6)) / n,
                         wmax=rnd.choice((3, 10, 200)))
        _reduce_into(g, cfg, TransformLog(), {})
        before = _states(g)
        for v in g.active_vertices():
            for removed in ([v], [v] + g.neighbors(v)):
                h = g.copy()
                for x in removed:
                    h.remove_vertex(x)
                struck = _reduce_into(h, cfg, TransformLog(), {}, ())
                changed += _assert_covers(h, before, struck)
                calls += 1
    rnd = random.Random(0xB10)
    phases = 0
    for _ in range(12):
        g = random_graph(rnd, rnd.randint(20, 40), rnd.choice((0.1, 0.2)),
                         wmin=1, wmax=rnd.choice((3, 20)))
        _reduce_into(g, cfg, TransformLog(), {})
        bounds = {}
        for _phase in range(6):
            before = _states(g)
            status, _center = blow_up(g, bounds, cfg, TransformLog())
            if status != CHANGED:
                break
            struck = _reduce_into(g, cfg, TransformLog(), {}, ())
            changed += _assert_covers(g, before, struck)
            phases += 1
    assert calls >= 250 and changed >= 2500 and phases >= 10, (
        calls, changed, phases)


# -- the single-removal lemmas, by brute force ------------------------------------

def _dominated(g, v):
    closed = set(g.neighbors(v)) | {v}
    return any(g.weight(u) >= g.weight(v)
               and set(g.neighbors(u)) | {u} <= closed
               for u in g.neighbors(v))


def _twin_pairs(g):
    vs = g.active_vertices()
    return {(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]
            if not g.is_adjacent(a, b)
            and set(g.neighbors(a)) == set(g.neighbors(b))}


def test_single_removal_lemmas_by_brute_force():
    """Removing one vertex x dominates no vertex of P = N(x), and every new
    twin pair has an end v in P whose degree some far vertex shares or
    whose neighborhood misses P.  Clique neighborhood removal fails at a v
    in P that neighbors a heaviest vertex h of P with w(h) > w(v), also
    after further removals that keep h, and the fold fails at a v in P
    whose degree is not 2."""
    checked = {"twin": 0, "clique": 0, "fold": 0}
    rnd = random.Random(0x1F)
    for g in _tie_graphs(0x1E, 150):
        for x in g.active_vertices():
            P = set(g.neighbors(x))
            before_dom = {v for v in P if _dominated(g, v)}
            before_twins = _twin_pairs(g)
            h = g.copy()
            h.remove_vertex(x)
            far = set().union(*(h.neighbors(p) for p in P)) - P if P else set()
            far_degrees = {h.degree(y) for y in far}
            top = max((h.weight(p) for p in P), default=None)
            for v in P:
                assert not _dominated(h, v) or v in before_dom
                heavy = [u for u in h.neighbors(v)
                         if u in P and h.weight(u) == top > h.weight(v)]
                if heavy:
                    assert not clique_cover_removal_fires(h, v)
                    assert not clique_neighborhood_removal(h.copy(), v,
                                                           TransformLog())
                    later = h.copy()
                    for y in later.active_vertices():
                        if y not in (v, heavy[0]) and rnd.random() < 0.5:
                            later.remove_vertex(y)
                    assert not clique_cover_removal_fires(later, v)
                    checked["clique"] += 1
                if h.degree(v) != 2:
                    assert not degree_two_fold(h.copy(), v, TransformLog())
                    checked["fold"] += 1
            for a, b in _twin_pairs(h) - before_twins:
                ends = [v for v in (a, b) if v in P]
                assert len(ends) == 1
                v = ends[0]
                assert (h.degree(v) in far_degrees
                        or not set(h.neighbors(v)) & P)
                checked["twin"] += 1
    assert checked["twin"] >= 50, checked
    assert checked["clique"] >= 500 and checked["fold"] >= 500, checked


def _firings(g, cfg):
    """(kind, graph after one change) for changes made on copies of g at
    each vertex x: the removal of x (a single record), and as general
    records the removal of N[x] and the first rule that fires at x,
    simple rules before the decreasing struction."""
    for x in g.active_vertices():
        h = g.copy()
        h.remove_vertex(x)
        yield "single", h
        h = g.copy()
        for u in [x] + g.neighbors(x):
            h.remove_vertex(u)
        yield "general", h
        h = g.copy()
        if (any(rule(h, x, TransformLog()) for rule in _SIMPLE_RULES.values())
                or decreasing_struction(h, x, cfg, TransformLog())):
            yield "general", h


def test_far_domination_lemma_by_brute_force():
    """A far vertex y (in N(P) - P, outside N[T]) that a change leaves
    dominated, and was not before, has a neighbor p in P with w(p) >= w(y)
    and deg(p) <= deg(y): the one far vertices that _mark queues for
    domination.  Checked after single removals and after general records
    (closed-neighborhood removals and rule firings that create, reweight
    or remove several vertices); many far vertices have no such p."""
    cfg = BlowupConfig(d_max=16)
    checked = {"single": 0, "general": 0}
    spared = 0
    for g in _tie_graphs(0xFE, 150):
        before = {v for v in g.active_vertices() if _dominated(g, v)}
        for kind, h in _firings(g, cfg):
            nbs, w = h._nbs, h._w
            T = {x for x in h._touched if x in nbs}
            P = {x for x in h.take_changed() if x in nbs}
            near = P.union(T, *(nbs[t] for t in T))
            far = set().union(*(nbs[p] for p in P)) - near
            for y in far:
                dominable = any(w[p] >= w[y] and len(nbs[p]) <= len(nbs[y])
                                for p in nbs[y] & P)
                if _dominated(h, y) and y not in before:
                    assert dominable, (kind, y)
                    checked[kind] += 1
                spared += not dominable
    assert min(checked.values()) >= 50, checked
    assert spared >= 5000, spared


# -- search nodes re-reduce from the record their branch left -----------------

def _split_graph():
    """Two sparse gnp graphs side by side: the kernel splits into components
    at the root under every preset, and each one is branched on."""
    return disjoint_union([mwis.random_gnp_graph(n, 5 / n, seed=s)
                            for s, n in ((3, 120), (8, 160))])


def test_a_branch_re_reduction_reaches_a_fixpoint():
    """After a branch removes v, or N[v], from a fixpoint of the search's
    rules, the re-reduction from the record leaves no rule that applies
    anywhere: a pass that re-tests every vertex records nothing."""
    cfg = BlowupConfig(rules=RULE_SETS[1])
    rnd = random.Random(0xB4)
    branches = fired = 0
    for _ in range(20):
        n = rnd.randint(30, 60)
        g = random_graph(rnd, n, rnd.choice((4, 5, 6)) / n,
                         wmax=rnd.choice((3, 10, 200)))
        _reduce_into(g, cfg, TransformLog(), {})
        for v in g.active_vertices():
            for removed in ([v], [v] + g.neighbors(v)):
                h = g.copy()
                for x in removed:
                    h.remove_vertex(x)
                stats = {}
                _reduce_into(h, cfg, TransformLog(), stats, ())
                log = TransformLog()
                _reduce_into(h, cfg, log, {}, None)
                assert len(log) == 0, (removed, log.events)
                branches += 1
                fired += sum(stats.values())
    assert branches >= 400 and fired >= 2500, (branches, fired)


@pytest.mark.parametrize("mode", ["nonincreasing", "cyclic-fast",
                                  "cyclic-strong"])
def test_search_from_the_record_matches_re_testing_every_vertex(monkeypatch,
                                                                mode):
    """A search node re-reduces only around what its branch removed
    (seeds=()); re-testing every vertex at every node must give the same
    weight, solution and stats."""
    searched = []
    real = mwis.solver._solve_subgraph
    monkeypatch.setattr(mwis.solver, "_solve_subgraph",
                        lambda c, sh, parts: searched.append(c)
                        or real(c, sh, parts))

    def every_vertex(g, cfg, log, stats, seeds=None):
        _reduce_into(g, cfg, log, stats, None)

    g = _split_graph()
    got = mwis.solve(g, mode)
    with monkeypatch.context() as m:
        m.setattr(mwis.solver, "_reduce_into", every_vertex)
        want = mwis.solve(g, mode)
    assert got.weight == want.weight
    assert got.solution == want.solution
    assert got.stats == want.stats
    assert got.stats["branches"] >= 25 and len(searched) >= 4, (
        got.stats["branches"], len(searched))
