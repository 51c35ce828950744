"""Branch-and-reduce exact MWIS solver.

The search follows the classic recursive scheme: bound, reduce, bound
again, split into connected components, otherwise branch on the vertex of
maximum degree (ties: maximum weight, then minimum id) with the include case
first.  The first bound test skips the re-reduction of a node that cannot
beat the incumbent; it needs an incumbent, so a component's root is always
reduced.  The second test is skipped when it would repeat the first.

    Solve(G, c, W):
        if W is set:            stop at the deadline
                                if c + UpperBound(G, W - c) <= W:  return W
        (G, c) <- Reduce(G, c) around what the branch changed
        if W is unset:          W <- c + local_search(G)
                                if V(G) is non-empty:  stop at the deadline
        elif Reduce left G as it was:  skip the next test
        if c + UpperBound(G, W - c) <= W:  return W
        if V(G) is empty:       return max(W, c)
        if G is disconnected:   c <- c + sum Solve(G_i, 0, unset)
                                return max(W, c)
        branch; W <- Solve(include); W <- Solve(exclude); return W

    UpperBound(G, limit):
        C, L <- a weight-splitting clique cover of G and its levels
        B <- sum of L
        for a in C by (size, index), while L(a) > 0 and B > limit:
            S <- {a} + {first b in C inside N(u) with L(b) > 0 : u in a}
            if some u in a has no such b:  next a
            d <- min of L over S;  L(S) <- L(S) - d;  B <- B - d
        return B

A node without an incumbent meets the deadline only once its local search
has seeded one, so every timeout leaves one for solve to return (the root's
Reduce is a no-op on the kernel); a component's root reached after the
deadline still runs its Reduce and local search.  A split node cut short
still offers c plus the incumbents of its components, finished or not.

A node only asks whether its bound reaches the incumbent, so UpperBound
stops once the answer is yes; every prune decision is the one the full
bound gives.  A connected node is searched as it is, without a copy.

The offset c is exactly the running TransformLog offset: branching decisions
are recorded as IncludedVertex/ExcludedVertex events, so any leaf's solution
can be reconstructed by lifting the log prefix.  Inside the recursion only
decreasing reductions run: the preset's BlowupConfig without the plateau
struction and twin rules, so variant and d_max are the preprocessing's, and
blow-up phases run in the initial preprocessing alone.  Reduce starts from
the change record (seeds=()): a child's G was a fixpoint before its
branch's removals, and the root kernel and each component are fixpoints
with empty records.  A fixpoint of the preset's rules is one of any subset.

Twin left the search because there it is tested after almost every
firing and seldom fires: on the benchmark's two gnp graphs it ran 72,793
times for 16 merges.  Without it, branch counts stayed the same on the
two benchmark graphs, gnp(120, 5/120) x6, gnp(100, 0.1) x4, gnp(80,
0.15) x4, gnp(200, 4/200) x4 and 20 c5 graphs, and the gnp families took
14-27% less CPU.  The trade-off shows on graphs rich in near-twins, where
branches create twin pairs: on ten gnp(60, 0.08) graphs with 30 added
near-twins each, branches went 125 -> 137 at no higher CPU, with the same
optima.
"""

import sys
import time
from dataclasses import dataclass, replace

from . import blowup
from .blowup import PRESET_NONINCREASING
from .reductions import RULE_ORDER, _reduce_into
from .rng import SplitMix64
from .translog import (ExcludedVertex, IncludedVertex, TransformLog, lift,
                       verify_lift)

OPTIMAL = "optimal"
TIME_LIMIT = "timelimit"
LS_BUDGET = 64      # local-search perturbation rounds
LS_SEED = 0x5EED    # seed of the perturbation choices


class SizeLimit(Exception):
    """Raised when brute_force_mwis is given a graph above its size cap."""


class _Timeout(Exception):
    pass


@dataclass
class SolveResult:
    weight: int
    solution: set
    status: str
    stats: dict


# -- bounds -------------------------------------------------------------------

def upper_bound(g, limit=None):
    """Weight-splitting clique cover bound (Warren & Hicks 2006), lowered by
    conflict sets of its cliques (one step of WLMC's MaxSAT reasoning, Jiang,
    Li & Manya 2017).

    Every clique C carries a level, and every vertex v lies in cliques whose
    levels sum to at least w(v).  An independent set meets each clique at
    most once, so the sum of the levels is never below alpha_w.

    Vertices are taken by ascending degree (ties: descending weight, then
    ascending id); zero-weight vertices need no cover.  A vertex v with
    remaining weight r walks the cliques it is fully adjacent to in creation
    order: it joins C when level(C) <= r and pays level(C); otherwise C is
    split, C + {v} becoming a new clique of level r while C keeps the rest.
    Weight still uncovered after the walk opens the clique {v}.

    The walk reads `near[v]`, the ascending indices of the cliques whose
    first member (it never changes) neighbours v: every clique inside N(v)
    is there.  A split appends C + {v} there too, but ends the walk.

    The bound returned is the sum of the levels minus what `_refine` saves.
    A search node only asks whether the bound is at most the incumbent's
    margin, so with a limit the work stops once the answer is yes: the sum
    of the levels is returned as it is when it is at most the limit, and
    the refinement stops once the bound falls to the limit.  The value
    returned is then some bound at most the limit; above the limit it is
    the exact bound, so upper_bound(g, L) <= L exactly when
    upper_bound(g) <= L.
    """
    w, nbs = g._w, g._nbs
    members = []   # clique index -> its vertices
    levels = []    # clique index -> its level
    near = {v: [] for v in w}  # v -> cliques whose first member neighbours v
    for v in sorted(w, key=lambda u: (len(nbs[u]), -w[u], u)):
        r = w[v]
        if not r:
            continue
        nv = nbs[v]
        for i in near[v]:
            cl = members[i]
            if not nv.issuperset(cl):
                continue
            if levels[i] <= r:
                cl.append(v)
                r -= levels[i]
            else:
                levels[i] -= r
                for x in nbs[cl[0]]:
                    near[x].append(len(levels))
                members.append(cl + [v])
                levels.append(r)
                r = 0
            if not r:
                break
        if r:
            for x in nv:
                near[x].append(len(levels))
            members.append([v])
            levels.append(r)
    cover = sum(levels)
    if limit is None:
        limit = -1  # no bound is negative: refine all the way
    if cover <= limit:
        return cover
    return cover - _refine(members, levels, nbs, cover - limit, near)


def _refine(members, levels, nbs, enough, near):
    """Lower the levels of a clique cover along conflict sets; return the
    total saved, or a partial total once it reaches `enough`.

    Each vertex's weight is covered by the levels of its cliques, and an
    independent set I meets each clique at most once, so
    w(I) <= sum_i level_i * [I hits C_i].  Let S be a set of cliques that no
    independent set hits in full, and delta the least level in S.  Lowering
    every level in S by delta takes at most delta * (|S| - 1) from the right
    side for any I, while the sum of the levels falls by delta * |S|: the
    bound falls by delta and stays valid.  Repeat on the lowered levels,
    carrying the delta * (|S| - 1) terms along.

    One-step sets: for a clique a, each member u takes b(u), the first
    clique by index that lies inside N(u) and still has a level.  An I
    hitting a at u misses b(u), so S = {a} + {b(u)} cannot be hit in full
    (b(u) != a, as u is in a).  b(u) is the first entry of `near[u]` (see
    `upper_bound`) that has a level and lies inside N(u).

    Cliques a are visited by (size, index), each while it keeps a level and
    finds a set.  A clique that finds none keeps failing, as levels only
    fall, so one pass reaches a fixpoint.
    """
    def conflict_set(a):
        found = {a}
        for u in members[a]:
            nu = nbs[u]
            for b in near[u]:
                if levels[b] and nu.issuperset(members[b]):
                    found.add(b)
                    break
            else:
                return None
        return found

    saved = 0
    for a in sorted(range(len(levels)), key=lambda i: (len(members[i]), i)):
        while levels[a]:
            conflict = conflict_set(a)
            if conflict is None:
                break
            delta = min(levels[i] for i in conflict)
            for i in conflict:
                levels[i] -= delta
            saved += delta
            if saved >= enough:
                return saved
    return saved


def _improve(g, sol):
    """Alternate weighted swaps until neither improves the solution.

    (omega,1): insert v, evicting I's neighbors of v, when v outweighs them.
    (1,2): replace u in I by two non-adjacent neighbors that are free
    otherwise and together outweigh u.
    Each swap strictly increases the weight, so this terminates.
    """
    w, nbs = g._w, g._nbs
    ids = g.active_vertices()  # swaps never change the graph
    improved = True
    while improved:
        improved = False
        for v in ids:
            if v in sol:
                continue
            conflicts = nbs[v] & sol
            if w[v] > sum(map(w.__getitem__, conflicts)):
                sol.difference_update(conflicts)
                sol.add(v)
                improved = True
        for u in sorted(sol):  # a swap removes only the current u
            # x is free when u is its only neighbor in the solution
            free = [x for x in sorted(nbs[u])
                    if x not in sol and len(nbs[x] & sol) == 1]
            done = False
            for i, x1 in enumerate(free):
                for x2 in free[i + 1:]:
                    if x2 not in nbs[x1] and w[x1] + w[x2] > w[u]:
                        sol.discard(u)
                        sol.add(x1)
                        sol.add(x2)
                        improved = True
                        done = True
                        break
                if done:
                    break
    return sol


def local_search(g, budget=LS_BUDGET):
    """Greedy maximal solution plus swap-based improvement with seeded
    perturbation restarts.  Returns (weight, independent set): a lower bound."""
    w, nbs = g._w, g._nbs
    ids = g.active_vertices()
    if not ids:
        return 0, set()
    order = sorted(ids, key=lambda v: (-(w[v] / (len(nbs[v]) + 1)), v))
    sol = set()
    blocked = set()
    for v in order:
        if v not in blocked:
            sol.add(v)
            blocked.add(v)
            blocked.update(nbs[v])
    _improve(g, sol)
    best = set(sol)
    best_w = sum(w[v] for v in sol)
    rng = SplitMix64(LS_SEED)
    for _ in range(budget):
        v = ids[rng.randint(0, len(ids) - 1)]
        if v in sol:
            continue
        sol.difference_update(nbs[v])
        sol.add(v)
        _improve(g, sol)
        sol_w = sum(w[v] for v in sol)
        if sol_w > best_w:
            best_w, best = sol_w, set(sol)
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
    by smallest contained id.  A connected graph comes back as [g] itself,
    not a copy, after one traversal."""
    out = []
    seen = set()
    ids = g.active_vertices()
    for v in ids:
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        stack = [v]
        while stack:
            x = stack.pop()
            for u in g._nbs[x]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        if len(comp) == len(ids):
            return [g]
        out.append(g.subgraph(comp))
    return out


def _branch_vertex(g):
    w, nbs = g._w, g._nbs
    return max(w, key=lambda u: (len(nbs[u]), w[u], -u))


# -- the search -------------------------------------------------------------------

class _Shared:
    def __init__(self, deadline, cfg, stats):
        self.deadline = deadline
        self.cfg = cfg
        self.stats = stats

    def check_time(self):
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise _Timeout


class _Incumbent:
    __slots__ = ("W", "solution")

    def __init__(self):
        self.W = 0
        self.solution = None

    def offer(self, cand, log, kernel_set):
        if cand > self.W or self.solution is None:
            self.W = cand
            self.solution = lift(log, kernel_set)


def _search(G, log, sh, inc, seed_ls, depth):
    if not seed_ls:
        sh.check_time()
    if depth > sh.stats["max_depth"]:
        sh.stats["max_depth"] = depth
    # the bound is far cheaper than a re-reduction; a component's first
    # node (seed_ls) has no incumbent yet and must produce one
    if not seed_ls and log.offset + upper_bound(G, inc.W - log.offset) <= inc.W:
        return
    before = len(log)
    _reduce_into(G, sh.cfg, log, sh.stats, ())
    c = log.offset
    n = len(G._w)
    if seed_ls:
        lw, lset = local_search(G)
        inc.offer(c + lw, log, lset)
        if n:
            sh.check_time()
    # a reduction that recorded nothing left the graph, the offset and the
    # incumbent as the entry check saw them, so the check cannot prune now
    if ((seed_ls or len(log) != before)
            and c + (upper_bound(G, inc.W - c) if n else 0) <= inc.W):
        return
    if n == 0:
        inc.offer(c, log, set())
        return
    comps = components(G)
    if len(comps) > 1:
        parts, cut = [], None
        try:
            for comp in comps:
                _solve_subgraph(comp, sh, parts)
        except _Timeout as exc:
            cut = exc
        inc.offer(c + sum(p.W for p in parts), log,
                  set().union(*(p.solution for p in parts)))
        if cut is not None:
            raise cut
        return
    sh.stats["branches"] += 1
    v = _branch_vertex(G)
    mark = len(log)
    g1 = G.copy()
    log.record(IncludedVertex(v, G._w[v]))
    g1.remove_vertex(v)
    for u in G._nbs[v]:
        g1.remove_vertex(u)
    _search(g1, log, sh, inc, False, depth + 1)
    log.truncate(mark)
    # nothing reads G after the branch, so the exclude child takes it over
    log.record(ExcludedVertex(v))
    G.remove_vertex(v)
    _search(G, log, sh, inc, False, depth + 1)
    log.truncate(mark)


def _solve_subgraph(comp, sh, parts):
    """Solve one connected component to optimality as its own search
    (fresh log, weight bound reset to zero), appending its incumbent to
    parts first: the search seeds it before any deadline check, so a
    timeout still leaves the component's best solution there."""
    inc = _Incumbent()
    parts.append(inc)
    _search(comp, TransformLog(), sh, inc, True, 0)


def solve(g, mode=PRESET_NONINCREASING, time_limit=None):
    """Exact MWIS of g, preprocessed under the named preset.  The graph is
    copied, never mutated.  time_limit is a number of seconds >= 0 (NaN
    is refused: it would never expire); None means unlimited."""
    if time_limit is not None and not (
            isinstance(time_limit, (int, float)) and time_limit >= 0):
        raise ValueError(f"time_limit must be a number >= 0, got {time_limit!r}")
    deadline = (time.monotonic() + time_limit
                if time_limit is not None else None)
    bc = blowup.make_blowup_config(mode)
    kres = blowup.cyclic_blow_up(g.copy(), bc, deadline)
    stats = {"branches": 0, "max_depth": 0, **kres.stats,
             "offset": kres.offset}
    in_recursion_cfg = replace(bc, rules=tuple(
        r for r in RULE_ORDER if r not in ("plateau_struction", "twin")))
    sh = _Shared(deadline, in_recursion_cfg, stats)
    inc = _Incumbent()
    status = OPTIMAL
    try:
        _search(kres.kernel, kres.log, sh, inc, True, 0)
    except _Timeout:
        status = TIME_LIMIT
    if not verify_lift(g, inc.solution, inc.W):
        raise AssertionError(f"{status} solution failed lift verification")
    return SolveResult(inc.W, inc.solution, status, stats)
