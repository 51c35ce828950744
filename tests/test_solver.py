import random

import pytest
from hypothesis import given, settings, strategies as st

import mwis
from mwis import (OPTIMAL, BlowupConfig, SizeLimit, TIME_LIMIT,
                  brute_force_mwis, components, local_search, solve,
                  upper_bound, verify_lift)
from mwis import solver
from mwis.solver import _branch_vertex

from reference import (disjoint_union, is_independent, mwis_oracle,
                       random_graph)


# -- exhaustive oracle ---------------------------------------------------------

def test_brute_force_on_unit_five_cycle():
    g = mwis.new_graph(5, [1] * 5)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
    assert brute_force_mwis(g) == (2, {0, 2})


def test_brute_force_tie_breaking_is_lexicographic():
    # two disjoint optima of equal weight: the id-smallest witness wins
    g = mwis.new_graph(4, [3, 3, 3, 3])
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    assert brute_force_mwis(g) == (6, {0, 2})


def test_brute_force_size_limit():
    g = mwis.new_graph(31, [1] * 31)
    with pytest.raises(SizeLimit):
        brute_force_mwis(g)
    assert brute_force_mwis(g, size_limit=31)[0] == 31


@given(seed=st.integers(0, 10**9), n=st.integers(1, 11),
       p=st.sampled_from([0.2, 0.5, 0.8]))
@settings(max_examples=150, deadline=None)
def test_brute_force_matches_reference(seed, n, p):
    rnd = random.Random(seed)
    g = random_graph(rnd, n, p, wmax=20)
    w, sol = brute_force_mwis(g)
    assert w == mwis_oracle(g)[0]
    assert is_independent(g, sol)
    assert sum(g.weight(v) for v in sol) == w


# -- bounds ---------------------------------------------------------------------

def test_upper_bound_exact_on_cliques(k3u):
    assert upper_bound(k3u) == 4


def test_upper_bound_on_edgeless_graph():
    g = mwis.new_graph(3, [5, 2, 7])
    assert upper_bound(g) == 14


@given(seed=st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_upper_bound_never_below_optimum(seed):
    rnd = random.Random(seed)
    g = random_graph(rnd, rnd.randint(1, 12), rnd.choice([0.2, 0.5, 0.8]),
                     wmax=30)
    assert upper_bound(g) >= mwis_oracle(g)[0]


def test_upper_bound_never_below_brute_force_with_narrow_weights():
    # weights 0..3 make degree/weight ties, zero weights and splits common
    rnd = random.Random(0xC0FE)
    for _ in range(400):
        n = rnd.randint(1, 18)
        g = random_graph(rnd, n, rnd.choice([0.15, 0.3, 0.5, 0.8]))
        for v in range(n):
            g.set_weight(v, rnd.randint(0, 3))
        assert upper_bound(g) >= brute_force_mwis(g)[0]


def test_upper_bound_split_is_tighter_than_a_greedy_cover(p3a):
    # path 0-1-2, weights (2, 3, 2): the centre pays level 2 to join {0},
    # then splits {2} into {2, 1} and {2} at level 1 each.  A cover that can
    # only join or open cliques needs 2 + 2 + 1 = 5.
    assert upper_bound(p3a) == 4 == brute_force_mwis(p3a)[0]


def test_refined_bound_reaches_the_optimum_where_the_cover_does_not(
        monkeypatch):
    # the cover is {0, 5}, {1, 2}, {3} and {4}, each at level 1; a set that
    # hits {1, 2} at 1 misses {4} and at 2 misses {3}, so no independent set
    # hits all three
    g = mwis.new_graph(6, [1] * 6)
    for u, v in ((0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (2, 3)):
        g.add_edge(u, v)
    assert upper_bound(g) == 3 == brute_force_mwis(g)[0]
    monkeypatch.setattr(solver, "_refine", lambda *args: 0)
    assert upper_bound(g) == 4


def test_refined_bound_lies_between_the_optimum_and_the_cover(monkeypatch):
    rnd = random.Random(0xB0B)
    graphs = []
    for _ in range(300):
        n = rnd.randint(1, 18)
        g = random_graph(rnd, n, rnd.choice([0.15, 0.3, 0.5, 0.8]),
                         wmax=rnd.choice([3, 200]))
        graphs.append(g)
    refined = [upper_bound(g) for g in graphs]
    monkeypatch.setattr(solver, "_refine", lambda *args: 0)
    covers = [upper_bound(g) for g in graphs]
    for g, bound, cover in zip(graphs, refined, covers):
        assert brute_force_mwis(g)[0] <= bound <= cover
    assert sum(b < c for b, c in zip(refined, covers)) > 0


def test_a_bound_with_a_limit_answers_the_same_question(monkeypatch):
    """upper_bound(g, L) <= L exactly when upper_bound(g) <= L, and above L
    the two values are equal; at or below L the value is still a bound.
    Limits are taken around the refined bound, between it and the cover,
    and at the cover, so the early stop in the refinement and the skipped
    refinement both run."""
    rnd = random.Random(0x1A1)
    graphs = [random_graph(rnd, rnd.randint(1, 40),
                           rnd.choice([0.1, 0.2, 0.4, 0.7]),
                           wmax=rnd.choice([3, 200])) for _ in range(300)]
    exact = [upper_bound(g) for g in graphs]
    with monkeypatch.context() as m:
        m.setattr(solver, "_refine", lambda *args: 0)
        covers = [upper_bound(g) for g in graphs]
    cases = {"below": 0, "partial": 0, "skipped": 0}
    for g, bound, cover in zip(graphs, exact, covers):
        limits = {bound - 2, bound - 1, bound, cover - 1, cover, cover + 1,
                  rnd.randint(bound, cover)}
        for limit in sorted(limits):
            got = upper_bound(g, limit)
            assert (got <= limit) == (bound <= limit), (limit, got, bound)
            assert got >= bound
            if bound > limit:
                assert got == bound
                cases["below"] += 1
            elif limit < cover:
                cases["partial"] += 1
            else:
                cases["skipped"] += 1
    assert min(cases.values()) >= 200, cases
    assert sum(b < c for b, c in zip(exact, covers)) >= 50


def test_local_search_returns_valid_lower_bound(c4a):
    w, sol = local_search(c4a)
    assert is_independent(c4a, sol)
    assert sum(c4a.weight(v) for v in sol) == w
    assert w <= 4


def test_local_search_deterministic():
    g1 = mwis.random_gnp_graph(40, 0.15, seed=77)
    g2 = mwis.random_gnp_graph(40, 0.15, seed=77)
    assert local_search(g1) == local_search(g2)


@given(seed=st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_local_search_finds_good_solutions(seed):
    rnd = random.Random(seed)
    g = random_graph(rnd, rnd.randint(1, 12), 0.3, wmax=30)
    w, sol = local_search(g)
    assert is_independent(g, sol)
    assert w <= mwis_oracle(g)[0]


# -- components and branching ----------------------------------------------------

def test_components_split_and_preserve_ids():
    g = mwis.new_graph(5, [1, 2, 3, 4, 5])
    g.add_edge(0, 3)
    g.add_edge(1, 4)
    comps = components(g)
    assert [sorted(c.active_vertices()) for c in comps] == \
        [[0, 3], [1, 4], [2]]
    for comp in comps:
        for v in comp.active_vertices():
            assert comp.weight(v) == g.weight(v)


def test_a_connected_graph_is_its_own_component():
    g = mwis.random_gnp_graph(30, 0.3, seed=4)
    assert components(g) == [g] and components(g)[0] is g
    assert components(mwis.new_graph(0, [])) == []
    # one isolated vertex more: two components, both copies
    h = g.copy()
    v = h.add_vertex(1)
    comps = components(h)
    assert [c.counts()[0] for c in comps] == [30, 1]
    assert comps[1].active_vertices() == [v]
    assert all(c is not h for c in comps)


def test_branch_vertex_prefers_degree_weight_then_smallest_id(k3u):
    # all degree 2; vertex 0 is heaviest
    assert _branch_vertex(k3u) == 0
    # a higher degree beats a higher weight
    g = mwis.new_graph(4, [1, 9, 1, 1])
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(2, 3)
    assert _branch_vertex(g) == 0


def test_branch_tie_on_weight_takes_smallest_id():
    g = mwis.new_graph(2, [3, 3])
    g.add_edge(0, 1)
    assert _branch_vertex(g) == 0


# -- solve -------------------------------------------------------------------------

def test_solve_named_examples(p3a, s3, k3u, c4a):
    for g, w, sol in ((p3a, 4, {0, 2}), (s3, 5, {0}),
                      (k3u, 4, {0}), (c4a, 4, {0, 2})):
        res = solve(g)
        assert res.status == OPTIMAL
        assert res.weight == w
        assert res.solution == sol


def test_solve_does_not_mutate_input(c4a):
    snap = c4a.copy()
    solve(c4a)
    assert c4a == snap


def test_solve_edgeless_graph():
    g = mwis.new_graph(3, [5, 2, 7])
    res = solve(g)
    assert res.weight == 14 and res.solution == {0, 1, 2}


def test_solve_empty_graph():
    import mwis.graph as mg
    res = solve(mg.DynGraph())
    assert res.weight == 0 and res.solution == set()


def test_solve_sums_over_components():
    g = mwis.new_graph(8, [1, 2, 3, 2, 1, 2, 3, 2])
    for off in (0, 4):
        for i in range(4):
            g.add_edge(off + i, off + (i + 1) % 4)
    res = solve(g)
    assert res.weight == 8


def test_solve_over_components_with_zero_weight_parts(monkeypatch):
    # pieces that survive the reductions and whose kernel bound does not
    # meet its local search, so the root cannot prune the union before it
    # splits and every component is searched from a node without an
    # incumbent
    rnd = random.Random(0xD15C)
    pieces = []
    while len(pieces) < 8:
        g = random_graph(rnd, 12, 0.5, wmax=200)
        kernel = mwis.preprocess(g.copy(), "nonincreasing").kernel
        if (kernel.counts()[0]
                and upper_bound(kernel) > local_search(kernel)[0]):
            pieces.append(g)
    searched = []
    real = solver._solve_subgraph
    monkeypatch.setattr(solver, "_solve_subgraph",
                        lambda c, sh: searched.append(c) or real(c, sh))
    for i in range(0, 8, 2):
        zero = random_graph(rnd, 3, 0.7)
        for v in zero.active_vertices():
            zero.set_weight(v, 0)
        g = disjoint_union([zero, pieces[i], zero, pieces[i + 1]])
        res = solve(g)
        assert res.weight == brute_force_mwis(g)[0]
        assert is_independent(g, res.solution)
    assert len(searched) >= 8

    # a component that weighs nothing is still solved, not pruned unsolved
    sh = solver._Shared(None, BlowupConfig(), {"branches": 0, "max_depth": 0})
    assert real(zero, sh) == (0, set())


@pytest.mark.parametrize("mode", ("nonincreasing", "cyclic-fast"))
def test_the_search_runs_no_plateau_struction(monkeypatch, mode):
    """solve attempts exactly the plateau structions of its preprocessing:
    its search nodes reduce without that rule."""
    calls = []
    plateau = mwis.reductions.plateau_struction

    def counted(*args):
        calls.append(args[1])
        return plateau(*args)

    monkeypatch.setattr(mwis.reductions, "plateau_struction", counted)
    g = mwis.random_gnp_graph(45, 0.15, seed=1)
    mwis.preprocess(g.copy(), mode)
    alone = len(calls)
    res = solve(g, mode)
    assert res.stats["branches"] > 0 and alone > 0
    assert len(calls) - alone == alone


def test_the_search_runs_no_twin_test(monkeypatch):
    """solve tests twin only in its preprocessing: its search nodes
    reduce without that rule and queue no twin test, also on a graph with
    added near-twins."""
    calls = []
    twin = mwis.reductions._SIMPLE_RULES["twin"]
    monkeypatch.setitem(mwis.reductions._SIMPLE_RULES, "twin",
                        lambda g, v, log: calls.append(v) or twin(g, v, log))
    g = mwis.random_gnp_graph(45, 0.15, seed=1)
    for v in range(0, 45, 3):
        g.add_vertex(1 + v, sorted({*g.neighbors(v), (v + 1) % 45}))
    mwis.preprocess(g.copy())
    alone = len(calls)
    res = solve(g)
    assert res.stats["branches"] > 0 and alone > 0
    assert len(calls) == 2 * alone


def test_bound_at_node_entry_skips_reductions(monkeypatch):
    counts = {"search": 0, "reduce": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(solver, "_search", counted("search", solver._search))
    monkeypatch.setattr(solver, "_reduce_into",
                        counted("reduce", solver._reduce_into))
    res = solve(mwis.random_gnp_graph(45, 0.15, seed=1), "nonincreasing")
    assert res.weight == 1747
    assert 0 < counts["reduce"] < counts["search"]


def test_solve_reports_stats():
    g = mwis.random_gnp_graph(25, 0.3, seed=3)
    res = solve(g)
    for key in ("branches", "max_depth", "kernel_n", "kernel_m", "offset"):
        assert key in res.stats


def test_solve_all_presets_agree():
    rnd = random.Random(12)
    for _ in range(25):
        g = random_graph(rnd, rnd.randint(4, 16), rnd.choice([0.2, 0.4]),
                         wmax=100)
        results = [solve(g.copy(), m) for m in mwis.PRESETS]
        weights = {r.weight for r in results}
        assert len(weights) == 1
        for r in results:
            assert r.status == OPTIMAL
            assert verify_lift(g, r.solution, r.weight)


@given(seed=st.integers(0, 10**9), n=st.integers(1, 14))
@settings(max_examples=100, deadline=None)
def test_solve_matches_reference_oracle(seed, n):
    rnd = random.Random(seed)
    g = random_graph(rnd, n, rnd.choice([0.15, 0.35, 0.6]), wmax=200)
    res = solve(g.copy())
    assert res.weight == mwis_oracle(g, limit=14)[0]
    assert verify_lift(g, res.solution, res.weight)


def test_time_limit_returns_best_effort():
    g = mwis.random_gnp_graph(90, 0.3, seed=21)
    res = solve(g, time_limit=1e-6)
    assert res.status == TIME_LIMIT
    assert is_independent(g, res.solution)
    assert sum(g.weight(v) for v in res.solution) == res.weight


def test_time_limit_before_search_lifts_a_local_search_of_the_kernel():
    # the deadline passes during blow-up, before the search starts; the
    # result is still a good solution, not just what preprocessing implies
    g = mwis.random_gnp_graph(100, 0.1, seed=3)
    res = solve(g, "cyclic-strong", 1e-6)
    assert res.status == TIME_LIMIT
    assert is_independent(g, res.solution)
    assert sum(g.weight(v) for v in res.solution) == res.weight
    assert res.weight >= 3000  # the optimum is 3511


def test_time_limit_covers_cyclic_preprocessing():
    g = mwis.random_gnp_graph(80, 0.08, seed=31)
    import time
    t0 = time.monotonic()
    res = solve(g, "cyclic-strong", 2.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    assert is_independent(g, res.solution)
