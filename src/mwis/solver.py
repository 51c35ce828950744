"""Branch-and-reduce exact MWIS solver.

The search follows the classic recursive scheme: reduce, bound, split into
connected components, otherwise branch on the vertex of maximum degree
(ties: maximum weight, then minimum id) with the include case first.

    Solve(G, c, W):
        (G, c) <- Reduce(G, c)
        if W = 0:               W <- c + local_search(G)
        if c + UpperBound(G) <= W:  return W
        if V(G) is empty:       return max(W, c)
        if G is disconnected:   c <- c + sum Solve(G_i, 0, 0); return max(W, c)
        branch; W <- Solve(include); W <- Solve(exclude); return W

The offset c is exactly the running TransformLog offset: branching decisions
are recorded as IncludedVertex/ExcludedVertex events, so any leaf's solution
can be reconstructed by lifting the log prefix.  Inside the recursion only
decreasing reductions run (no plateau structions); the configured preset
applies to the initial preprocessing alone.
"""

import sys
import time
from dataclasses import dataclass

from . import blowup
from .blowup import PRESET_NONINCREASING
from .reductions import RULE_ORDER, ReduceConfig, _reduce_into
from .rng import SplitMix64
from .translog import (ExcludedVertex, IncludedVertex, TransformLog, lift,
                       verify_lift)

OPTIMAL = "optimal"
TIME_LIMIT = "timelimit"


class SizeLimit(Exception):
    """Raised when brute_force_mwis is given a graph above its size cap."""


class _Timeout(Exception):
    pass


@dataclass
class SolverConfig:
    mode: str = PRESET_NONINCREASING   # preprocessing preset
    time_limit: float | None = None    # seconds; None means unlimited
    ls_budget: int = 64                # local-search perturbation rounds


@dataclass
class SolveResult:
    weight: int
    solution: set
    status: str
    stats: dict


# -- bounds -------------------------------------------------------------------

def upper_bound(g):
    """Weighted clique cover bound: scan vertices by descending weight
    (ties ascending id), put each into the first clique it is fully adjacent
    to, and sum the maximum weight per clique.  Never below alpha_w."""
    order = sorted(g.active_vertices(), key=lambda v: (-g.weight(v), v))
    cliques = []
    bound = 0
    for v in order:
        for cl in cliques:
            if all(g.is_adjacent(v, u) for u in cl):
                cl.append(v)
                break
        else:
            cliques.append([v])
            bound += g.weight(v)  # opener carries the clique maximum
    return bound


def _solution_weight(g, sol):
    return sum(g.weight(v) for v in sol)


def _improve(g, sol):
    """Alternate weighted swaps until neither improves the solution.

    (omega,1): insert v, evicting I's neighbors of v, when v outweighs them.
    (1,2): replace u in I by two non-adjacent neighbors that are free
    otherwise and together outweigh u.
    Each swap strictly increases the weight, so this terminates.
    """
    improved = True
    while improved:
        improved = False
        for v in g.active_vertices():
            if v in sol:
                continue
            conflicts = [u for u in g.neighbors(v) if u in sol]
            if g.weight(v) > sum(g.weight(u) for u in conflicts):
                sol.difference_update(conflicts)
                sol.add(v)
                improved = True
        for u in sorted(sol):
            if u not in sol:
                continue
            free = [x for x in g.neighbors(u)
                    if x not in sol
                    and all(t == u or t not in sol for t in g.neighbors(x))]
            done = False
            for i, x1 in enumerate(free):
                for x2 in free[i + 1:]:
                    if (not g.is_adjacent(x1, x2)
                            and g.weight(x1) + g.weight(x2) > g.weight(u)):
                        sol.discard(u)
                        sol.add(x1)
                        sol.add(x2)
                        improved = True
                        done = True
                        break
                if done:
                    break
    return sol


def local_search(g, budget=64, seed=0x5EED):
    """Greedy maximal solution plus swap-based improvement with seeded
    perturbation restarts.  Returns (weight, independent set): a lower bound."""
    ids = g.active_vertices()
    if not ids:
        return 0, set()
    order = sorted(ids, key=lambda v: (-(g.weight(v) / (g.degree(v) + 1)), v))
    sol = set()
    blocked = set()
    for v in order:
        if v not in blocked:
            sol.add(v)
            blocked.add(v)
            blocked.update(g.neighbors(v))
    _improve(g, sol)
    best = set(sol)
    best_w = _solution_weight(g, sol)
    rng = SplitMix64(seed)
    for _ in range(budget):
        v = ids[rng.randint(0, len(ids) - 1)]
        if v in sol:
            continue
        sol.difference_update(g.neighbors(v))
        sol.add(v)
        _improve(g, sol)
        w = _solution_weight(g, sol)
        if w > best_w:
            best_w, best = w, set(sol)
        else:
            sol = set(best)
    return best_w, best


# -- exact oracle ---------------------------------------------------------------

def brute_force_mwis(g, size_limit=30):
    """Exhaustive exact optimum with a deterministic witness.

    Recursion on the maximum-degree vertex (include/exclude); the only
    shortcut is taking every remaining vertex once no edges are left.  Ties
    between equal-weight optima resolve to the lexicographically smallest
    sorted id tuple.
    """
    ids = g.active_vertices()
    n = len(ids)
    if n > size_limit:
        raise SizeLimit(f"{n} vertices exceeds the oracle limit {size_limit}")
    index = {v: i for i, v in enumerate(ids)}
    wts = [g.weight(v) for v in ids]
    adj = [0] * n
    for v in ids:
        for u in g.neighbors(v):
            adj[index[v]] |= 1 << index[u]
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 2 * n + 200))

    def rec(mask):
        if mask == 0:
            return 0, ()
        # max-degree vertex inside the mask, smallest index on ties
        bestdeg = -1
        pick = -1
        m = mask
        while m:
            lsb = m & -m
            i = lsb.bit_length() - 1
            deg = (adj[i] & mask).bit_count()
            if deg > bestdeg:
                bestdeg = deg
                pick = i
            m -= lsb
        if bestdeg == 0:
            members = tuple(i for i in _bits(mask) if wts[i] > 0)
            return sum(wts[i] for i in members), members
        w_in, s_in = rec(mask & ~(adj[pick] | (1 << pick)))
        w_in += wts[pick]
        s_in = tuple(sorted(s_in + (pick,)))
        w_out, s_out = rec(mask & ~(1 << pick))
        if w_in > w_out:
            return w_in, s_in
        if w_out > w_in:
            return w_out, s_out
        return w_in, min(s_in, s_out)

    weight, picks = rec((1 << n) - 1)
    return weight, {ids[i] for i in picks}


def _bits(mask):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask -= lsb


# -- components and branching ----------------------------------------------------

def components(g):
    """Connected components as induced subgraphs with preserved ids, ordered
    by smallest contained id."""
    out = []
    seen = set()
    for v in g.active_vertices():
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        stack = [v]
        while stack:
            x = stack.pop()
            for u in g.neighbors(x):
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        out.append(g.subgraph(comp))
    return out


def _branch_vertex(g):
    return max(g.active_vertices(),
               key=lambda u: (g.degree(u), g.weight(u), -u))


# -- the search -------------------------------------------------------------------

class _Shared:
    def __init__(self, deadline, reduce_cfg, ls_budget, stats):
        self.deadline = deadline
        self.reduce_cfg = reduce_cfg
        self.ls_budget = ls_budget
        self.stats = stats

    def check_time(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Timeout


class _Incumbent:
    __slots__ = ("W", "solution")

    def __init__(self):
        self.W = 0
        self.solution = None

    def offer(self, cand, log, kernel_set):
        if cand > self.W or self.solution is None:
            self.W = max(self.W, cand)
            self.solution = lift(log, kernel_set)


def _search(G, log, sh, inc, seed_ls, depth):
    sh.check_time()
    if depth > sh.stats["max_depth"]:
        sh.stats["max_depth"] = depth
    _reduce_into(G, sh.reduce_cfg, log, sh.stats)
    c = log.offset
    if seed_ls:
        lw, lset = local_search(G, sh.ls_budget)
        inc.offer(c + lw, log, lset)
    n, _m = G.counts()
    if c + (upper_bound(G) if n else 0) <= inc.W:
        return
    if n == 0:
        inc.offer(c, log, set())
        return
    comps = components(G)
    if len(comps) > 1:
        total = c
        members = set()
        for comp in comps:
            w_i, sol_i = _solve_subgraph(comp, sh)
            total += w_i
            members |= sol_i
        inc.offer(total, log, members)
        return
    sh.stats["branches"] += 1
    v = _branch_vertex(G)
    mark = len(log)
    g1 = G.copy()
    nbrs = g1.neighbors(v)
    log.record(IncludedVertex(v, g1.weight(v)))
    for u in [v] + nbrs:
        g1.remove_vertex(u)
    _search(g1, log, sh, inc, False, depth + 1)
    log.truncate(mark)
    g2 = G.copy()
    log.record(ExcludedVertex(v))
    g2.remove_vertex(v)
    _search(g2, log, sh, inc, False, depth + 1)
    log.truncate(mark)


def _solve_subgraph(comp, sh):
    """Solve one connected component to optimality as its own search
    (fresh log, weight bound reset to zero)."""
    log = TransformLog()
    inc = _Incumbent()
    _search(comp, log, sh, inc, True, 0)
    return inc.W, inc.solution


def solve(g, cfg=None):
    """Exact MWIS of g.  The graph is copied, never mutated."""
    cfg = cfg or SolverConfig()
    deadline = (time.monotonic() + cfg.time_limit
                if cfg.time_limit is not None else None)
    bc = blowup.make_blowup_config(cfg.mode)
    kres = blowup.cyclic_blow_up(g.copy(), bc, deadline)
    K = kres.kernel
    log = kres.log

    stats = {"branches": 0, "max_depth": 0}
    stats.update(kres.stats)
    stats["kernel_n"], stats["kernel_m"] = K.counts()
    stats["offset"] = kres.offset
    in_recursion_cfg = ReduceConfig(
        rules=tuple(r for r in RULE_ORDER if r != "plateau_struction"),
        variant=bc.variant, d_max=bc.d_max)
    sh = _Shared(deadline, in_recursion_cfg, cfg.ls_budget, stats)
    inc = _Incumbent()
    status = OPTIMAL
    try:
        _search(K, log, sh, inc, True, 0)
    except _Timeout:
        status = TIME_LIMIT
        if inc.solution is None:
            # never got past the first deadline check: fall back to the
            # solution implied by preprocessing alone (empty kernel choice)
            sol = lift(log, set())
            inc.W = sum(g.weight(v) for v in sol)
            inc.solution = sol
    solution = inc.solution if inc.solution is not None else set()
    if not verify_lift(g, solution, inc.W):
        raise AssertionError(f"{status} solution failed lift verification")
    return SolveResult(inc.W, solution, status, stats)
