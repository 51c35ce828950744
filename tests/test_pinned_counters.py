"""Deterministic counters that a pure speed-up must leave unchanged.

Branch counts and kernel sizes depend on every reduction decision, so a
change that only makes rules, bounds or enumerations cheaper must reproduce
them exactly.  A change to the search bound or to where it is tested
changes the tree on purpose; it re-pins the branch count and the root
bounds below and says so.
"""

import random

import mwis
from mwis import solve, upper_bound

from reference import random_graph


def test_branch_count_and_kernel_sizes_are_pinned():
    res = solve(mwis.random_gnp_graph(45, 0.15, seed=1), "nonincreasing")
    assert res.stats["branches"] == 13

    # the first ten graphs of the criterion-5 corpus
    rnd = random.Random(0xC5)
    sizes = {"nonincreasing": [], "cyclic-fast": []}
    for _ in range(10):
        g = random_graph(rnd, 60, 4 / 59, wmin=1, wmax=200)
        for mode, got in sizes.items():
            got.append(mwis.preprocess(g.copy(), mode).kernel.counts()[0])
    assert sizes == {
        "nonincreasing": [29, 0, 0, 0, 0, 37, 0, 0, 40, 0],
        "cyclic-fast": [0, 0, 0, 0, 0, 0, 0, 0, 40, 0],
    }


def test_search_rule_set_is_pinned():
    """gnp(100, 0.1, 3), a benchmark graph, searched with the preset's
    rules minus plateau_struction and twin.  Dropping twin left this tree
    as it was; dropping domination (144) or decreasing_struction (125) from
    the search, or a mark that skips a firing, moves it."""
    res = solve(mwis.random_gnp_graph(100, 0.1, seed=3), "nonincreasing")
    assert (res.weight, res.stats["branches"]) == (3511, 136)


def test_root_kernel_bounds_are_pinned():
    bounds = [upper_bound(mwis.preprocess(mwis.random_gnp_graph(*args),
                                          "nonincreasing").kernel)
              for args in ((150, 0.05, 2), (100, 0.1, 3))]
    # optima 5560 and 3511
    assert bounds == [5723, 4037]


def test_worst_peel_counters_are_pinned():
    """Graph 8 of the criterion-5 corpus under cyclic-strong: every phase
    is rejected, and rolling back phases that grow the kernel to over a
    thousand vertices is where the blow-up time goes.  A change that only
    makes failed rule tests cheaper must fire each rule as often."""
    rnd = random.Random(0xC5)
    graphs = [random_graph(rnd, 60, 4 / 59, wmin=1, wmax=200)
              for _ in range(9)]
    res = mwis.preprocess(graphs[8], "cyclic-strong")
    assert res.kernel.counts() == (40, 134)
    assert res.stats == {
        "clique_neighborhood_removal": 5,
        "degree_two_fold": 1,
        "domination": 1439,
        "decreasing_struction": 7,
        "plateau_struction": 3,
        "initial_kernel_n": 40,
        "blowup_phases": 40,
        "blowup_accepts": 0,
        "blowup_rejects": 40,
        "kernel_n": 40,
        "kernel_m": 134,
    }
