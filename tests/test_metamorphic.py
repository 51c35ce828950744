"""Relations between solves that need no oracle, on graphs past the size
that `brute_force_mwis` can check.

Permuting the vertex ids must not change the optimum, and multiplying every
weight by k must multiply it by k.  Every rule condition is scale-free, so
scaling leaves the kernel size as it was too; so is every comparison in
the search's bound, so a kernel's bound scales by k.  Every preset and every
struction variant reaches the same optimum, and a time-limited solve
returns an independent set that weighs no more than it.  The optimum of a
disjoint union is the sum of its parts' optima.

The search runs without the twin rule, so graphs full of near-twins, whose
branches create twin pairs, are solved under every preset and checked
against brute force at n <= 30.
"""

import random

import pytest

import mwis
from mwis import (TIME_LIMIT, lift, preprocess, solve, upper_bound,
                  verify_lift)

# (seed, n) of sparse gnp graphs (average degree 5) whose kernels are
# not empty under nonincreasing, so the search runs
GRAPHS = ((1, 60), (2, 120), (5, 160))
SCALE = 7
# cyclic-strong spends 20-38 s and 4 s in blow-up phases on the two larger
# graphs (64 phases each, nearly all rolled back), so only the first one
# checks it here
STRONG_GRAPHS = GRAPHS[:1]


def _relabel(g, perm, k=1):
    """Copy of g with vertex v renamed perm[v] and every weight times k."""
    weights = [0] * len(perm)
    for v in g.active_vertices():
        weights[perm[v]] = k * g.weight(v)
    h = mwis.new_graph(len(perm), weights)
    for v in g.active_vertices():
        for u in g.neighbors(v):
            if v < u:
                h.add_edge(perm[v], perm[u])
    return h


def _disjoint_union(graphs):
    """One graph holding each of graphs (ids 0..n-1), with its ids shifted
    past those of the graphs before it."""
    weights, edges = [], []
    for g in graphs:
        shift = len(weights)
        for v in g.active_vertices():
            weights.append(g.weight(v))
            edges += [(shift + v, shift + u) for u in g.neighbors(v) if v < u]
    h = mwis.new_graph(len(weights), weights)
    for a, b in edges:
        h.add_edge(a, b)
    return h


@pytest.mark.parametrize("mode", ["nonincreasing", "cyclic-fast"])
@pytest.mark.parametrize("seed, n", GRAPHS)
def test_optimum_survives_relabelling_and_scales_with_the_weights(seed, n,
                                                                 mode):
    g = mwis.random_gnp_graph(n, 5 / n, seed=seed)
    base = solve(g, mode)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    assert solve(_relabel(g, perm), mode).weight == base.weight
    scaled = solve(_relabel(g, list(range(n)), SCALE), mode)
    assert scaled.weight == SCALE * base.weight
    assert scaled.stats["kernel_n"] == base.stats["kernel_n"]


@pytest.mark.parametrize("seed, n", GRAPHS)
def test_search_bound_scales_with_the_weights(seed, n):
    """Every comparison in the clique cover and its refinement scales with
    the weights, so the bound of the root kernel scales by k exactly."""
    kernel = preprocess(mwis.random_gnp_graph(n, 5 / n, seed=seed)).kernel
    assert kernel.active_vertices()
    scaled = kernel.copy()
    for v in scaled.active_vertices():
        scaled.set_weight(v, SCALE * kernel.weight(v))
    assert upper_bound(scaled) == SCALE * upper_bound(kernel)


@pytest.mark.parametrize("seed, n", GRAPHS)
def test_presets_agree_and_a_time_limit_stays_below_the_optimum(seed, n):
    g = mwis.random_gnp_graph(n, 5 / n, seed=seed)
    modes = ["nonincreasing", "cyclic-fast"]
    if (seed, n) in STRONG_GRAPHS:
        modes.append("cyclic-strong")
    best = solve(g).weight
    for mode in modes[1:]:
        assert solve(g, mode).weight == best, mode
    # a zero limit stops the search at its first node
    res = solve(g, time_limit=0)
    assert res.status == TIME_LIMIT
    assert res.weight <= best
    assert verify_lift(g, res.solution, res.weight)


@pytest.mark.parametrize("mode", ["nonincreasing", "cyclic-fast"])
@pytest.mark.parametrize("seed, n", GRAPHS)
def test_variants_agree_on_the_optimum(seed, n, mode):
    """Each struction variant's kernel, solved and lifted, weighs the
    optimum and is an independent set of the input."""
    g = mwis.random_gnp_graph(n, 5 / n, seed=seed)
    best = solve(g).weight
    for variant in ("original", "modified", "extended", "extended_reduced"):
        res = preprocess(g.copy(), mode, variant=variant)
        kernel = solve(res.kernel)
        assert res.offset + kernel.weight == best, variant
        assert verify_lift(g, lift(res.log, kernel.solution), best), variant


@pytest.mark.parametrize("mode", ["nonincreasing", "cyclic-fast"])
def test_disjoint_union_sums_the_optima(mode):
    """The search splits the union's kernel into components; their optima
    add up to the sum of the three graphs' optima."""
    parts = [mwis.random_gnp_graph(n, 5 / n, seed=seed) for seed, n in GRAPHS]
    best = sum(solve(g).weight for g in parts)
    union = _disjoint_union(parts)
    assert union.counts() == tuple(map(sum, zip(*(g.counts() for g in parts))))
    kernel = preprocess(union.copy(), mode).kernel
    assert len(mwis.components(kernel)) >= 2
    res = solve(union, mode)
    assert res.weight == best
    assert verify_lift(union, res.solution, res.weight)


def _near_twin_graph(rnd, n, p, extra, wmax):
    """A gnp graph plus `extra` vertices, each on the neighborhood of a
    random vertex v and one or two random vertices outside N[v]: removing
    those makes the new vertex a twin of v."""
    g = mwis.random_gnp_graph(n, p, seed=rnd.randrange(2**32), wmax=wmax)
    for _ in range(extra):
        vs = g.active_vertices()
        v = rnd.choice(vs)
        nbrs = set(g.neighbors(v))
        others = [u for u in vs if u != v and u not in nbrs]
        nbrs.update(rnd.sample(others, min(len(others), rnd.randint(1, 2))))
        g.add_vertex(rnd.randint(1, wmax), sorted(nbrs))
    return g


def test_near_twin_graphs_match_brute_force_under_every_preset():
    rnd = random.Random(0x7E1)
    branches = 0
    for _ in range(20):
        g = _near_twin_graph(rnd, rnd.randint(20, 22),
                             rnd.choice((0.3, 0.4, 0.5)), 8,
                             rnd.choice((50, 200)))
        assert g.counts()[0] <= 30
        best = mwis.brute_force_mwis(g)[0]
        for mode in ("nonincreasing", "cyclic-fast", "cyclic-strong"):
            res = solve(g, mode)
            assert res.weight == best, mode
            assert verify_lift(g, res.solution, best), mode
            branches += res.stats["branches"]
    # the search must run for the missing twin rule to matter
    assert branches >= 30, branches
