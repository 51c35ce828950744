"""Deterministic counters that a pure speed-up must leave unchanged.

Branch counts and kernel sizes depend on every reduction decision, so a
change that only makes rules, bounds or enumerations cheaper must reproduce
them exactly.
"""

import random

import mwis
from mwis import SolverConfig, solve

from reference import random_graph


def test_branch_count_and_kernel_sizes_are_pinned():
    res = solve(mwis.random_gnp_graph(45, 0.15, seed=1),
                SolverConfig(mode="nonincreasing"))
    assert res.stats["branches"] == 18

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
