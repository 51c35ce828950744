import random

import pytest
from hypothesis import given, settings, strategies as st

import mwis
from mwis import (OPTIMAL, SizeLimit, SolverConfig, TIME_LIMIT,
                  brute_force_mwis, components, local_search, solve,
                  upper_bound, verify_lift)
from mwis.solver import _branch_vertex

from reference import is_independent, mwis_oracle, random_graph


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
        results = [solve(g.copy(), SolverConfig(mode=m)) for m in mwis.PRESETS]
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
    res = solve(g, SolverConfig(time_limit=1e-6))
    assert res.status == TIME_LIMIT
    assert is_independent(g, res.solution)
    assert sum(g.weight(v) for v in res.solution) == res.weight


def test_time_limit_covers_cyclic_preprocessing():
    g = mwis.random_gnp_graph(80, 0.08, seed=31)
    import time
    t0 = time.monotonic()
    res = solve(g, SolverConfig(mode="cyclic-strong", time_limit=2.0))
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    assert is_independent(g, res.solution)
