"""Non-increasing reduction pipeline.

Rules are attempted in a fixed order from cheapest to most expensive:

    neighborhood_removal, degree_two_fold, clique_reduction, domination,
    twin, clique_neighborhood_removal, decreasing_struction, plateau_struction

A dirty-vertex queue drives the fixpoint: every vertex starts dirty with
every rule marked, and a popped vertex is tested against its marked rules in
order.  Whenever a rule fires, the vertices whose weight or neighborhood may
have changed, plus their neighbors, are re-enqueued.  Each one is marked
with the cheap rules that could have started to apply there, and no others:
after a removal that changes no weight, the neighbors of the survivors that
lost a neighbor re-test only domination and twin, and after a single-vertex
removal those survivors skip domination, and skip twin unless a new twin is
possible.  A rule is left unmarked only where it provably still fails, so
the rules fire exactly as if every rule were re-tested; a blow-up clique is
peeled without re-testing the whole clique for domination per peel.
Vertices whose weight reaches zero are swept out first, recorded as
ExcludedVertex.

Plateau structions (which keep the vertex count unchanged) are bounded by a
budget of 4|V| applications per call and an exclusion set so they cannot
spin: a failed attempt excludes the center until its weight or neighborhood
changes.
"""

import heapq
from dataclasses import dataclass

from .struction import VARIANT_OPS, Aborted, count_small_exceeding_sets
from .translog import (DegreeTwoFold, ExcludedVertex, IncludedVertex,
                       TransformLog, TwinMerge)

RULE_ORDER = (
    "neighborhood_removal",
    "degree_two_fold",
    "clique_reduction",
    "domination",
    "twin",
    "clique_neighborhood_removal",
    "decreasing_struction",
    "plateau_struction",
)


@dataclass
class ReduceConfig:
    rules: tuple = RULE_ORDER
    variant: str = "extended"
    d_max: int = 64


@dataclass
class KernelResult:
    kernel: object
    offset: int
    log: TransformLog
    stats: dict


def neighborhood_fingerprint(g, v):
    """Weight-and-neighborhood snapshot used by exclusion sets."""
    w = g._w
    return (w[v], tuple((u, w[u]) for u in g._adj[v]))


# -- the six simple rules ----------------------------------------------------
# Each returns True when it fired and False when it does not apply at v.
# When the caller hands in a `changed` set, a firing rule records every
# vertex whose weight or adjacency it altered (created ids included), so the
# pipeline re-examines exactly the affected part of the graph.
#
# These run hundreds of thousands of times per blow-up cycle, so they read
# the graph internals directly instead of going through the copying public
# accessors.  Borrowed neighbor lists are never mutated by the removals
# below: remove_vertex only edits the lists of the removed vertex's
# neighbors, and a vertex never neighbors itself.

def _remove_closed(g, v, nbrs, changed):
    if changed is not None:
        adj = g._adj
        for u in nbrs:
            changed.update(adj[u])
    g.remove_vertex(v)
    for u in nbrs:
        g.remove_vertex(u)


def neighborhood_removal(g, v, log, changed=None):
    """Include v when it outweighs its whole neighborhood."""
    wv = g.weight(v)
    w = g._w
    nbrs = g._adj[v]
    total = 0
    for u in nbrs:
        total += w[u]
        if total > wv:
            return False
    log.record(IncludedVertex(v, wv))
    _remove_closed(g, v, nbrs, changed)
    return True


def degree_two_fold(g, v, log, changed=None):
    """Fold a degree-2 vertex whose neighbors are non-adjacent.

    Applies when max(w(u), w(x)) <= w(v) < w(u) + w(x); the triple is
    replaced by one vertex of weight w(u)+w(x)-w(v) on the union
    neighborhood, and w(v) is committed to the offset.
    """
    if g.degree(v) != 2:
        return False
    u, x = g._adj[v]
    if x in g._nbs[u]:
        return False
    w = g._w
    wv, wu, wx = w[v], w[u], w[x]
    if not (max(wu, wx) <= wv < wu + wx):
        return False
    targets = (g._nbs[u] | g._nbs[x]) - {v, u, x}
    g.remove_vertex(v)
    g.remove_vertex(u)
    g.remove_vertex(x)
    folded = g.add_vertex(wu + wx - wv)
    for t in sorted(targets):
        g.add_edge(folded, t)
    log.record(DegreeTwoFold(v, u, x, folded, wv))
    if changed is not None:
        changed.update(targets)
        changed.add(folded)
    return True


def clique_reduction(g, v, log, changed=None):
    """Include v when N(v) is a clique and v carries its maximum weight."""
    wv = g.weight(v)
    w, nbs = g._w, g._nbs
    nbrs = g._adj[v]
    for u in nbrs:
        if w[u] > wv:
            return False
    for i, a in enumerate(nbrs):
        na = nbs[a]
        for b in nbrs[i + 1:]:
            if b not in na:
                return False
    log.record(IncludedVertex(v, wv))
    _remove_closed(g, v, nbrs, changed)
    return True


def domination(g, v, log, changed=None):
    """Exclude v when some neighbor u with w(u) >= w(v) has N[u] within N[v]."""
    wv = g.weight(v)
    adj, w, nbs = g._adj, g._w, g._nbs
    nbrs = adj[v]
    closed = None
    dv = len(nbrs)
    for u in nbrs:
        if w[u] < wv or len(adj[u]) > dv:
            continue
        if closed is None:
            closed = nbs[v] | {v}
        if nbs[u] <= closed:
            log.record(ExcludedVertex(v))
            g.remove_vertex(v)
            if changed is not None:
                changed.update(nbrs)
            return True
    return False


def twin_merge(g, v, log, changed=None):
    """Merge a non-adjacent vertex with the exact same neighborhood into v."""
    wv = g.weight(v)
    adj, w, nbs = g._adj, g._w, g._nbs
    nbrs = adj[v]
    nv = nbs[v]
    dv = len(nbrs)
    if nbrs:
        # any neighbor sees every twin of v, so anchor on the cheapest one;
        # its sorted list still yields the lowest-id twin first
        anchor = nbrs[0]
        da = len(adj[anchor])
        if da > 1:
            for t in nbrs:
                dt = len(adj[t])
                if dt < da:
                    anchor, da = t, dt
                    if da == 1:
                        break
        candidates = adj[anchor]
    else:
        candidates = [u for u in g.active_vertices() if not adj[u]]
    for u in candidates:
        if u != v and len(adj[u]) == dv and nbs[u] == nv:
            log.record(TwinMerge(kept=v, absorbed=u))
            g.set_weight(v, wv + w[u])
            g.remove_vertex(u)
            if changed is not None:
                changed.add(v)
                changed.update(nbrs)
            return True
    return False


def clique_neighborhood_removal(g, v, log, changed=None):
    """Include v when it outweighs a greedy clique cover of its neighborhood."""
    wv = g.weight(v)
    w, nbs = g._w, g._nbs
    nbrs = g._adj[v]
    for u in nbrs:
        # the heaviest neighbor opens the first clique, so any neighbor
        # heavier than v already sinks the bound; skip the sort
        if w[u] > wv:
            return False
    order = sorted((-w[u], u) for u in nbrs)
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
    _remove_closed(g, v, nbrs, changed)
    return True


# -- struction rules -----------------------------------------------------------

def _struction_cap(g, v, cfg, plateau):
    if cfg.variant in ("original", "modified"):
        return 1 if plateau else 0
    return g.degree(v) + 1 if plateau else g.degree(v)


def _must_exceed_cap(g, v, cfg, cap):
    """True when an extended struction at v is bound to abort.

    The extended variant creates one vertex per exceeding independent set
    of N(v), so more than `cap` such sets of size <= 2 mean its enumeration
    ends in Aborted (on the cap, or on the node budget first).  This does
    not hold for extended_reduced, which keeps only the minimal sets.
    """
    return (cfg.variant == "extended"
            and count_small_exceeding_sets(g, v, cap) > cap)


def _center_is_minimal(g, v):
    wv = g.weight(v)
    return all(g.weight(u) >= wv for u in g.neighbors(v))


def decreasing_struction(g, v, cfg, log, changed=None):
    """Apply the configured variant only if it strictly shrinks the graph."""
    if g.degree(v) > cfg.d_max:
        return False
    if cfg.variant in ("original", "modified") and not _center_is_minimal(g, v):
        return False
    cap = _struction_cap(g, v, cfg, False)
    if _must_exceed_cap(g, v, cfg, cap):
        return False
    out = VARIANT_OPS[cfg.variant](g, v, cap, log, changed=changed)
    return not isinstance(out, Aborted)


def plateau_struction(g, v, cfg, log, exclusion=None, changed=None):
    """Apply the variant allowing one extra created vertex (net change zero).

    A failed attempt records v's fingerprint in the exclusion map; the rule
    stays off for v until its weight or neighborhood changes.
    """
    if g.degree(v) > cfg.d_max:
        return False
    if cfg.variant in ("original", "modified") and not _center_is_minimal(g, v):
        return False
    fp = neighborhood_fingerprint(g, v)
    if exclusion is not None and exclusion.get(v) == fp:
        return False
    cap = _struction_cap(g, v, cfg, True)
    applied = (not _must_exceed_cap(g, v, cfg, cap)
               and not isinstance(VARIANT_OPS[cfg.variant](
                   g, v, cap, log, changed=changed), Aborted))
    if not applied and exclusion is not None:
        exclusion[v] = fp
    return applied


# -- pipeline -------------------------------------------------------------------

def reduce(g, cfg=None):
    """Reduce g in place to a kernel; returns the kernel with offset and log."""
    cfg = cfg or ReduceConfig()
    log = TransformLog()
    stats = {}
    _reduce_into(g, cfg, log, stats)
    return KernelResult(g, log.offset, log, stats)


def _reduce_into(g, cfg, log, stats, seeds=None):
    """Run the pipeline on g, appending events to an existing log.

    Two dirty queues keep the expensive struction rules from re-running
    inside removal cascades: the cheap rules are drained to a fixpoint
    first, and only then is one struction attempt popped.  Per vertex the
    configured rule order still holds, because a struction at v is only
    tried in states where every cheaper rule was already tried at v and
    did not fire.

    A queued vertex carries a bitmask of the cheap rules that could have
    started to apply there since it was last tested; a popped vertex runs
    only those, in rule order.  The masks leave a rule out only where it
    provably still returns False (see _mark_removal), so the same rules
    fire in the same order as when every rule is re-tested.
    """
    rules = [r for r in RULE_ORDER if r in cfg.rules]
    cheap = [(r, _BIT[r]) for r in rules if r in _SIMPLE_RULES]
    expensive = [r for r in rules if r not in _SIMPLE_RULES]
    budget = 4 * g.counts()[0]
    exclusion = {}
    w = g._w

    if seeds is None:
        seeds = g.active_vertices()
    start = sorted(set(seeds))
    cheap_heap = list(start)
    pending = dict.fromkeys(start, _ALL)  # queued vertex -> rules to re-test
    exp_heap = list(start) if expensive else []
    exp_q = set(exp_heap)

    def enqueue(vs, mask):
        for x in vs:
            m = pending.get(x)
            if m is None:
                pending[x] = mask
                heapq.heappush(cheap_heap, x)
            else:
                pending[x] = m | mask
            if expensive and x not in exp_q:
                exp_q.add(x)
                heapq.heappush(exp_heap, x)

    def fire(rule, changed):
        stats[rule] = stats.get(rule, 0) + 1
        if rule == "domination":
            _mark_removal(g, changed, True, enqueue)
        elif rule in _CLOSED_REMOVALS:
            _mark_removal(g, {x for x in changed if x in w}, False, enqueue)
        else:
            enqueue(_with_neighbors(g, [x for x in changed if x in w]), _ALL)

    while cheap_heap or exp_heap:
        if cheap_heap:
            v = heapq.heappop(cheap_heap)
            mask = pending.pop(v)
            if v not in w:
                continue
            if w[v] == 0:
                nbrs = set(g._adj[v])
                log.record(ExcludedVertex(v))
                g.remove_vertex(v)
                stats["zero_weight"] = stats.get("zero_weight", 0) + 1
                _mark_removal(g, nbrs, True, enqueue)
                continue
            changed = set()
            for rule, bit in cheap:
                if mask & bit and _SIMPLE_RULES[rule](g, v, log, changed):
                    fire(rule, changed)
                    break
            continue
        v = heapq.heappop(exp_heap)
        exp_q.discard(v)
        if v not in w:
            continue
        changed = set()
        for rule in expensive:
            if rule == "decreasing_struction":
                applied = decreasing_struction(g, v, cfg, log, changed)
            else:
                if budget <= 0:
                    applied = False
                else:
                    applied = plateau_struction(g, v, cfg, log, exclusion,
                                                changed)
                    if applied:
                        budget -= 1
            if applied:
                fire(rule, changed)
                break


def _mark_removal(g, P, single, enqueue):
    """Queue the region around vertices just removed with no weight change.

    P holds the surviving vertices that lost a neighbor, far = N(P) - P.
    A far vertex kept its neighborhood, the weights in it and the edges
    inside it, so of the cheap rules only domination and twin, which look
    one step further, can have started to apply there.  When a single
    vertex x went (a domination firing or the zero-weight sweep), for v in P:

    - v is not newly dominated: N[v] loses x, and the closed neighborhood
      of a remaining neighbor u either loses x too or never held it, so
      N[u] lies within N[v] after the removal exactly when it did before;
    - a new twin u of v has N(u) = N(v) - {x} and is not in P (otherwise
      the two were twins before).  If N(v) meets P, u neighbors a vertex
      of P and is a far vertex of v's degree; otherwise N(v) misses P.
    """
    adj = g._adj
    far = set()
    for p in P:
        far.update(adj[p])
    far -= P
    enqueue(far, _DOM | _TWIN)
    if not single:
        enqueue(P, _ALL)
        return
    nbs = g._nbs
    far_degrees = {len(adj[y]) for y in far}
    no_twin, twin = [], []
    for p in P:
        if len(adj[p]) in far_degrees or nbs[p].isdisjoint(P):
            twin.append(p)
        else:
            no_twin.append(p)
    enqueue(no_twin, _ALL & ~(_DOM | _TWIN))
    enqueue(twin, _ALL & ~_DOM)


def _with_neighbors(g, changed):
    adj = g._adj
    out = set(changed)
    for x in changed:
        out.update(adj[x])
    return out


# the bit of each rule in a queued vertex's mask
_BIT = {r: 1 << i for i, r in enumerate(RULE_ORDER)}
_ALL = (1 << len(RULE_ORDER)) - 1
_DOM, _TWIN = _BIT["domination"], _BIT["twin"]

# rules that remove a closed neighborhood and change no weight
_CLOSED_REMOVALS = frozenset(("neighborhood_removal", "clique_reduction",
                              "clique_neighborhood_removal"))

_SIMPLE_RULES = {
    "neighborhood_removal": neighborhood_removal,
    "degree_two_fold": degree_two_fold,
    "clique_reduction": clique_reduction,
    "domination": domination,
    "twin": twin_merge,
    "clique_neighborhood_removal": clique_neighborhood_removal,
}
