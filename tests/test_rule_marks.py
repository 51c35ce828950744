"""The per-rule dirty marks of the reduction queue are exact.

`_reduce_into` re-tests a queued vertex only with the cheap rules that may
have started to apply there.  These tests run it against the queue that
re-tests every rule (kept below as `_reduce_all_rules`) and require the same
log bytes, kernel and stats, and they check the two single-removal lemmas
the marks rest on by brute force.
"""

import heapq
import random

import pytest

import mwis
from mwis import RULE_ORDER, BlowupConfig, BlowupState, ReduceConfig, blow_up
from mwis import blowup as blowup_mod
from mwis.blowup import CHANGED
from mwis.reductions import (_SIMPLE_RULES, _reduce_into, _with_neighbors,
                             decreasing_struction, plateau_struction)
from mwis.translog import ExcludedVertex, TransformLog, to_bytes

from reference import random_graph

VARIANTS = ("original", "modified", "extended", "extended_reduced")
RULE_SETS = (RULE_ORDER, tuple(r for r in RULE_ORDER if r != "plateau_struction"))


def _reduce_all_rules(g, cfg, log, stats, seeds=None):
    """The queue before per-rule marks: every popped vertex is tested with
    every cheap rule, and every firing re-queues changed + N(changed)."""
    rules = [r for r in RULE_ORDER if r in cfg.rules]
    cheap = [r for r in rules if r in _SIMPLE_RULES]
    expensive = [r for r in rules if r not in _SIMPLE_RULES]
    budget = 4 * g.counts()[0]
    exclusion = {}

    if seeds is None:
        seeds = g.active_vertices()
    start = sorted(set(seeds))
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

    def fire(rule, changed):
        stats[rule] = stats.get(rule, 0) + 1
        live = [x for x in changed if g.is_active(x)]
        enqueue(_with_neighbors(g, live))

    while cheap_heap or exp_heap:
        if cheap_heap:
            v = heapq.heappop(cheap_heap)
            cheap_q.discard(v)
            if not g.is_active(v):
                continue
            if g.weight(v) == 0:
                nbrs = g.neighbors(v)
                log.record(ExcludedVertex(v))
                g.remove_vertex(v)
                stats["zero_weight"] = stats.get("zero_weight", 0) + 1
                enqueue(_with_neighbors(g, nbrs))
                continue
            changed = set()
            for rule in cheap:
                if _SIMPLE_RULES[rule](g, v, log, changed):
                    fire(rule, changed)
                    break
            continue
        v = heapq.heappop(exp_heap)
        exp_q.discard(v)
        if not g.is_active(v):
            continue
        changed = set()
        for rule in expensive:
            if rule == "decreasing_struction":
                applied = decreasing_struction(g, v, cfg, log, changed)
            elif budget <= 0:
                applied = False
            else:
                applied = plateau_struction(g, v, cfg, log, exclusion, changed)
                if applied:
                    budget -= 1
            if applied:
                fire(rule, changed)
                break


def _outcome(reduce_into, g, cfg, seeds=None):
    g = g.copy()
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
@pytest.mark.parametrize("rules", RULE_SETS, ids=("plateau", "no_plateau"))
def test_marks_match_all_rules_queue_on_tie_graphs(variant, rules):
    cfg = ReduceConfig(rules=rules, variant=variant, d_max=16)
    fired = {}
    for g in _tie_graphs(0x7A1, 60):
        for rule, k in _assert_same(g, cfg).items():
            fired[rule] = fired.get(rule, 0) + k
    # the comparison means something only if the marked rules fire
    assert fired.get("domination", 0) >= 20
    assert fired.get("twin", 0) >= 20


def test_marks_match_all_rules_queue_with_cheap_rule_subsets():
    rnd = random.Random(0x5B)
    for g in _tie_graphs(0x5C, 60):
        rules = tuple(r for r in RULE_ORDER if rnd.random() < 0.5)
        _assert_same(g, ReduceConfig(rules=rules))
        # domination and twin alone, the rules with the refined marks
        _assert_same(g, ReduceConfig(rules=("domination", "twin")))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("rules", RULE_SETS, ids=("plateau", "no_plateau"))
def test_marks_match_all_rules_queue_after_blow_up(variant, rules):
    """Re-reduction of a blow-up's seeds: clique peels by domination."""
    cfg = ReduceConfig(rules=rules, variant=variant, d_max=16)
    bcfg = BlowupConfig(n_max=64, d_max=16, variant=variant)
    rnd = random.Random(0xB10)
    phases = 0
    for _ in range(12):
        g = random_graph(rnd, rnd.randint(20, 40), rnd.choice((0.1, 0.2)),
                         wmin=1, wmax=rnd.choice((3, 20)))
        log = TransformLog()
        _reduce_into(g, cfg, log, {})
        state = BlowupState()
        for _phase in range(6):
            status, _center, seeds = blow_up(g, state, bcfg, log)
            if status != CHANGED:
                break
            phases += 1
            _assert_same(g, cfg, seeds)
            _reduce_into(g, cfg, log, {}, seeds)
    assert phases >= 10


def test_cyclic_blow_up_matches_all_rules_queue(monkeypatch):
    rnd = random.Random(0xC5)
    graphs = [random_graph(rnd, 40, 4 / 39, wmin=1, wmax=200) for _ in range(8)]
    for mode in ("cyclic-fast", "cyclic-strong"):
        for g in graphs:
            monkeypatch.setattr(blowup_mod, "_reduce_into", _reduce_into)
            got = mwis.preprocess(g.copy(), mode, X=6)
            monkeypatch.setattr(blowup_mod, "_reduce_into", _reduce_all_rules)
            want = mwis.preprocess(g.copy(), mode, X=6)
            assert to_bytes(got.log) == to_bytes(want.log)
            assert got.kernel == want.kernel
            assert got.stats == want.stats


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
    whose neighborhood misses P."""
    checked_twins = 0
    for g in _tie_graphs(0x1E, 150):
        for x in g.active_vertices():
            P = set(g.neighbors(x))
            before_dom = {v for v in P if _dominated(g, v)}
            before_twins = _twin_pairs(g)
            h = g.copy()
            h.remove_vertex(x)
            far = set().union(*(h.neighbors(p) for p in P)) - P if P else set()
            far_degrees = {h.degree(y) for y in far}
            for v in P:
                assert not _dominated(h, v) or v in before_dom
            for a, b in _twin_pairs(h) - before_twins:
                ends = [v for v in (a, b) if v in P]
                assert len(ends) == 1
                v = ends[0]
                assert (h.degree(v) in far_degrees
                        or not set(h.neighbors(v)) & P)
                checked_twins += 1
    assert checked_twins >= 50
