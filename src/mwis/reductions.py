"""Non-increasing reduction pipeline.

Rules are attempted in a fixed order, the four simple rules before the two
structions:

    clique_neighborhood_removal, degree_two_fold, domination, twin,
    decreasing_struction, plateau_struction

The first also covers the neighborhood removal and clique reduction rules
of Lamm et al. (ALENEX 2019), which take the same action; see its docstring.
The pipeline runs inside blowup.cyclic_blow_up (with X = 0 it is the whole
preprocessing) and in every search node, configured by the cycle's one
BlowupConfig: _reduce_into reads its rules, variant and d_max.

A dirty-vertex queue drives the fixpoint: every vertex starts dirty with
every rule marked, and a popped vertex is tested against its marked rules in
order.  After each firing, _mark reads the graph's change record and
re-enqueues the region around it, each vertex marked with only the rules
that cfg runs and that could have started to apply there, so the rules
fire exactly as if every rule were re-tested; a re-reduction starts from
the record's marks alone.  Zero-weight vertices are swept out first, as
ExcludedVertex.

A struction attempt, here or at a blow-up candidate, is repeated at a vertex
only after its weighted closed neighborhood changed; no exclusion map is kept.
Plateau structions (which keep the vertex count unchanged) can still open
one another in a chain, so they are bounded by 4|V| applications per call.
"""

import heapq

from .struction import VARIANT_OPS, Aborted, count_small_exceeding_sets
from .translog import DegreeTwoFold, ExcludedVertex, IncludedVertex, TwinMerge

RULE_ORDER = (
    "clique_neighborhood_removal",
    "degree_two_fold",
    "domination",
    "twin",
    "decreasing_struction",
    "plateau_struction",
)


# -- the four simple rules ---------------------------------------------------
# Each returns True when it fired and False, leaving the graph untouched,
# when it does not apply at v.
#
# These run hundreds of thousands of times per blow-up cycle, so they read
# the graph's maps _w and _nbs directly instead of going through the checked
# public accessors.  Every write goes through the DynGraph mutators, whose
# change record tells the pipeline which vertices a firing touched.  A
# borrowed neighbor set stays valid through the removals below:
# remove_vertex only edits the sets of the removed vertex's neighbors, and
# a removed vertex's set is never mutated afterwards, since no remaining
# vertex neighbors it.

def clique_neighborhood_removal(g, v, log):
    """Include v when it outweighs a greedy clique cover of its neighborhood.

    The bound is the sum of the cover's clique maxima.  It is at most
    w(N(v)), and when N(v) is a clique the greedy cover is that one clique,
    so the bound is the heaviest neighbor's weight.  Hence this rule fires,
    with the same IncludedVertex(v, w(v)), wherever neighborhood removal
    (w(v) >= w(N(v))) or clique reduction (N(v) a clique, v heaviest in
    N[v]) does, and neither needs a rule of its own.  It never competes
    with degree_two_fold: a fold needs non-adjacent u, x with
    w(v) < w(u) + w(x), and that sum is then the bound.

    A clique holds at most one member of an independent set, so no cover's
    bound is below the weight of any independent set of N(v).  Before it
    builds the cover, which costs O(d^2) subset tests, the rule walks the
    same descending-weight order for a greedy independent set, in time
    linear in the degrees of its members, and fails as soon as that set
    outweighs v.
    """
    w, nbs = g._w, g._nbs
    wv = w[v]
    nbrs = nbs[v]
    for u in nbrs:
        # the heaviest neighbor opens the first clique, so any neighbor
        # heavier than v already sinks the bound; skip the sort
        if w[u] > wv:
            return False
    order = sorted((-w[u], u) for u in nbrs)
    blocked = set()
    certificate = 0
    for negw, u in order:
        if u not in blocked:
            certificate -= negw
            if certificate > wv:
                return False
            blocked |= nbs[u]
    cliques = []
    bound = 0
    for negw, u in order:
        nu = nbs[u]
        for cl in cliques:
            if cl <= nu:
                cl.add(u)
                break
        else:
            cliques.append({u})
            bound -= negw  # first member carries the clique maximum
            if bound > wv:
                return False
    log.record(IncludedVertex(v, wv))
    g.remove_vertex(v)
    for u in nbrs:
        g.remove_vertex(u)
    return True


def degree_two_fold(g, v, log):
    """Fold a degree-2 vertex whose neighbors are non-adjacent.

    Applies when max(w(u), w(x)) <= w(v) < w(u) + w(x); the triple is
    replaced by one vertex of weight w(u)+w(x)-w(v) on the union
    neighborhood, and w(v) is committed to the offset.
    """
    nbs = g._nbs
    if len(nbs[v]) != 2:
        return False
    u, x = sorted(nbs[v])
    if x in nbs[u]:
        return False
    w = g._w
    wv, wu, wx = w[v], w[u], w[x]
    if not (max(wu, wx) <= wv < wu + wx):
        return False
    targets = (nbs[u] | nbs[x]) - {v, u, x}
    folded = g.add_vertex(wu + wx - wv, sorted(targets))
    g.remove_vertex(v)
    g.remove_vertex(u)
    g.remove_vertex(x)
    log.record(DegreeTwoFold(v, u, x, folded, wv))
    return True


def domination(g, v, log):
    """Exclude v when some neighbor u with w(u) >= w(v) has N[u] within N[v]."""
    w, nbs = g._w, g._nbs
    wv = w[v]
    nbrs = nbs[v]
    closed = None
    dv = len(nbrs)
    for u in nbrs:
        if w[u] < wv or len(nbs[u]) > dv:
            continue
        if closed is None:
            closed = nbrs | {v}
        if nbs[u] <= closed:
            log.record(ExcludedVertex(v))
            g.remove_vertex(v)
            return True
    return False


def twin_merge(g, v, log):
    """Merge the lowest-id vertex with exactly v's neighborhood into v."""
    w, nbs = g._w, g._nbs
    nv = nbs[v]
    dv = len(nv)
    candidates = w  # an isolated v: every vertex
    if nv:
        # any neighbor sees every twin of v, so anchor on the cheapest one
        da = None
        for t in nv:
            dt = len(nbs[t])
            if da is None or dt < da:
                candidates, da = nbs[t], dt
                if da == 1:
                    break
    u = min((u for u in candidates
             if u != v and len(nbs[u]) == dv and nbs[u] == nv), default=None)
    if u is None:
        return False
    log.record(TwinMerge(kept=v, absorbed=u))
    g.set_weight(v, w[v] + w[u])
    g.remove_vertex(u)
    return True


# -- struction rules -----------------------------------------------------------

def _must_exceed_cap(g, v, cfg, cap):
    """True when an extended struction at v is bound to abort.

    The extended variant creates one vertex per exceeding independent set
    of N(v), so more than `cap` such sets of size <= 2 mean its enumeration
    ends in Aborted (on the cap, or on the node budget first).  This does
    not hold for extended_reduced, which keeps only the minimal sets.
    """
    return (cfg.variant == "extended"
            and count_small_exceeding_sets(g, v, cap) > cap)


def _struction(g, v, cfg, log, extra):
    """Apply the configured variant at v if it creates at most `extra`
    more vertices than it removes."""
    w, nbs = g._w, g._nbs
    d = len(nbs[v])
    if d > cfg.d_max:
        return False
    if cfg.variant in ("original", "modified"):
        # these remove only v, so the cap counts created vertices alone
        wv = w[v]
        if any(w[u] < wv for u in nbs[v]):
            return False
        cap = extra
    else:
        cap = d + extra
    if _must_exceed_cap(g, v, cfg, cap):
        return False
    return not isinstance(VARIANT_OPS[cfg.variant](g, v, cap, log), Aborted)


def decreasing_struction(g, v, cfg, log):
    """Apply the configured variant only if it strictly shrinks the graph."""
    return _struction(g, v, cfg, log, 0)


def plateau_struction(g, v, cfg, log):
    """Apply the variant allowing one extra created vertex (net change zero)."""
    return _struction(g, v, cfg, log, 1)


# -- pipeline -------------------------------------------------------------------

def _reduce_into(g, cfg, log, stats, seeds=None):
    """Run the pipeline on g, appending events to an existing log.

    The cheap rules are drained to a fixpoint before each struction
    attempt, so structions never run inside removal cascades, and a
    struction at v is tried only where every cheaper rule failed at v.

    Seeds None queue every vertex with every rule, otherwise only the
    seeds; then _mark(g, 0, ...) queues the region around g's change
    record.  With seeds, g must have been a fixpoint of cfg's rules before
    the changes its record holds: by _mark's lemma every rule still fails
    outside the marked region, and failed tests write nothing, so the same
    rules fire as when every vertex is re-tested.  Only a twin merge can
    turn round: y outside the region may gain a twin u inside it, which
    absorbs y where testing every vertex keeps y if y < u.  Blow-up phases
    and search nodes pass seeds=(); the search runs no twin rule.

    Returns the vertices queued for a struction attempt: if cfg has a
    struction rule, by _mark's lemma every live vertex whose weighted
    G[N[v]] changed in the call or in the record it started from.
    """
    rules = [r for r in RULE_ORDER if r in cfg.rules]
    cheap = [(r, _BIT[r]) for r in rules if r in _SIMPLE_RULES]
    expensive = [r for r in rules if r not in _SIMPLE_RULES]
    runs = sum(_BIT[r] for r in rules)
    budget = 4 * g.counts()[0]
    w = g._w

    cheap_heap, exp_heap, exp_q, struck = [], [], set(), set()
    pending = {}  # queued vertex -> rules to re-test

    def enqueue(vs, mask):
        # only a mask with a simple rule puts x on the cheap heap: a pop
        # tests nothing else but the zero-weight sweep, and no firing
        # leaves a zero weight behind (an input one is swept, since every
        # vertex starts with every rule)
        if mask & _SIMPLE:
            for x in vs:
                m = pending.get(x)
                if m is None:
                    pending[x] = mask
                    heapq.heappush(cheap_heap, x)
                else:
                    pending[x] = m | mask
        if expensive and mask & _STRUCTIONS:
            for x in vs:
                if x not in exp_q:
                    exp_q.add(x)
                    struck.add(x)
                    heapq.heappush(exp_heap, x)

    def marked(vs, mask):
        # a rule that cfg does not run needs no mark
        enqueue(vs, mask & runs)

    def fire(rule, n):
        stats[rule] = stats.get(rule, 0) + 1
        _mark(g, n - len(w), marked)

    enqueue(g.active_vertices() if seeds is None else seeds, _ALL)
    _mark(g, 0, marked)  # the changes made before this call

    while cheap_heap or exp_heap:
        if cheap_heap:
            v = heapq.heappop(cheap_heap)
            mask = pending.pop(v)
            if v not in w:
                continue
            n = len(w)
            if w[v] == 0:
                log.record(ExcludedVertex(v))
                g.remove_vertex(v)
                fire("zero_weight", n)
                continue
            for rule, bit in cheap:
                if mask & bit and _SIMPLE_RULES[rule](g, v, log):
                    fire(rule, n)
                    break
            continue
        v = heapq.heappop(exp_heap)
        exp_q.discard(v)
        if v not in w:
            continue
        n = len(w)
        for rule in expensive:
            if rule == "decreasing_struction":
                applied = decreasing_struction(g, v, cfg, log)
            elif budget <= 0:
                applied = False
            else:
                applied = plateau_struction(g, v, cfg, log)
                if applied:
                    budget -= 1
            if applied:
                fire(rule, n)
                break
    return struck


def _mark(g, removed, enqueue):
    """Queue the region around what the last firing changed.

    P holds the live vertices of the change record, T those of them that
    were created, reweighted or given an edge by add_edge, and far =
    N(P) - P; removed is the net number of vertices the firing took away.
    P and N(T) re-test every rule.  Any other far vertex y kept N(y), the
    weights in N[y] and the edges inside N(y): y is not in P, N(y) misses
    T, an edge between live vertices goes away only with one of its ends,
    and add_edge puts both ends in T.  The other cheap rules and a
    struction attempt read only G[N[y]] and cfg, so y re-tests at most
    domination and twin, which look one step further, and gets no
    struction attempt.

    Such a y re-tests domination only when some p in P and N(y) has
    w(p) >= w(y) and deg(p) <= deg(y).  Let y be dominated after the
    firing but not before, by a neighbor u: w(u) >= w(y) and N[u] lies
    within N[y], so deg(u) <= deg(y).  If u were not in P, N(u) would be
    unchanged, and so would N[y] and both weights, and u would have
    dominated y before.  So u is such a p.  These y are found from the P
    side: only a p of degree at most the largest far degree can qualify,
    and its candidates are N(p) and far.  Every far vertex keeps its twin
    mark: the spare mark on one end of a twin pair decides which end pops
    first and is kept.

    G[N[v]] can change back (a pair struction gives v a neighbor that a
    twin merge absorbs), and the retry then fails as before: 32 of 20957
    attempts on the first 30 benchmark c5 graphs under the original
    variant, none under extended.

    When T is empty and removed is 1, a single vertex x went (a domination
    firing or the zero-weight sweep) and P = N(x).  For v in P:

    - v is not newly dominated: N[v] loses x, and the closed neighborhood
      of a remaining neighbor u either loses x too or never held it, so
      N[u] lies within N[v] after the removal exactly when it did before;
    - a new twin u of v has N(u) = N(v) - {x} and is not in P (otherwise
      the two were twins before).  If N(v) meets P, u neighbors a vertex
      of P and is a far vertex of v's degree; otherwise N(v) misses P;
    - clique_neighborhood_removal fails at v while v has a heavier
      neighbor, so v skips it when it neighbors a heaviest vertex h of P
      with w(h) > w(v).  The edge vh goes only with h or v, and weights
      change only through set_weight, so a firing that removes h or
      reweights h or v marks v again first;
    - degree_two_fold fails at v unless deg(v) = 2, and deg(v) changes
      only in a firing whose record holds v, which marks v again; so v
      is marked for the fold only at degree 2.

    One case differs from re-testing every rule at P and far: a plateau
    attempt skipped because an earlier call on the graph used up its
    budget is retried in the next call of a blow-up cycle only where
    G[N[v]] changed.  No call on the benchmark's c5 graphs, under any
    preset and variant, uses more than 7.5% of its budget.
    """
    nbs = g._nbs
    touched = [x for x in g._touched if x in nbs]
    P = {x for x in g.take_changed() if x in nbs}
    far = _outer_neighbors(g, P)
    w = g._w
    far_degrees = {len(nbs[y]) for y in far}
    reach = max(far_degrees, default=-1)
    dominable = set()
    for p in P:
        d = len(nbs[p])
        if d <= reach:
            wp = w[p]
            dominable.update(y for y in nbs[p] & far
                             if w[y] <= wp and len(nbs[y]) >= d)
    enqueue(far, _TWIN)
    enqueue(dominable, _DOM)
    if touched or removed != 1:
        for t in touched:
            P |= nbs[t]
        enqueue(P, _ALL)
        return
    twin, fold = [], []
    for p in P:
        d = len(nbs[p])
        if d in far_degrees or nbs[p].isdisjoint(P):
            twin.append(p)
        if d == 2:
            fold.append(p)
    top = max(map(w.__getitem__, P), default=0)
    outweighed = {p for h in P if w[h] == top
                  for p in nbs[h] & P if w[p] < top}
    enqueue(P, _STRUCTIONS)
    enqueue(P - outweighed, _CNR)
    enqueue(twin, _TWIN)
    enqueue(fold, _FOLD)


def _outer_neighbors(g, S):
    """N(S) - S for a set S of active vertices.

    The union of the neighbor sets of S costs the sum of their degrees.
    Once that sum passes _REVERSE_SCAN * |V|, keep instead each vertex
    outside S whose neighbor set meets S: one isdisjoint test per vertex,
    which stops at the first neighbor in S.
    """
    nbs = g._nbs
    budget = _REVERSE_SCAN * len(nbs)
    for p in S:
        budget -= len(nbs[p])
        if budget < 0:
            return {y for y in nbs.keys() - S if not nbs[y].isdisjoint(S)}
    out = set()
    for p in S:
        out.update(nbs[p])
    out -= S
    return out


# _outer_neighbors unites neighbor sets while the degrees of S sum to at
# most this many times |V|; past that, one scan of the vertices is cheaper
_REVERSE_SCAN = 2

# the bit of each rule in a queued vertex's mask
_BIT = {r: 1 << i for i, r in enumerate(RULE_ORDER)}
_ALL = (1 << len(RULE_ORDER)) - 1
_DOM, _TWIN = _BIT["domination"], _BIT["twin"]
_CNR, _FOLD = _BIT["clique_neighborhood_removal"], _BIT["degree_two_fold"]
_STRUCTIONS = _BIT["decreasing_struction"] | _BIT["plateau_struction"]
_SIMPLE = _ALL & ~_STRUCTIONS

_SIMPLE_RULES = {
    "clique_neighborhood_removal": clique_neighborhood_removal,
    "degree_two_fold": degree_two_fold,
    "domination": domination,
    "twin": twin_merge,
}
