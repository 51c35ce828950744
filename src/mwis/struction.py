"""Weighted struction transformations.

Each operation rewrites the graph around a center vertex v so that the
optimal independent-set weight drops by exactly w(v):

    alpha_w(G) = alpha_w(G') + w(v)

Four variants are provided.  The original and modified forms require v to
have minimum weight in its closed neighborhood, keep N(v) in the graph at
lowered weights, and encode non-adjacent neighbor pairs as new vertices.
The extended forms accept any center, remove all of N[v], and encode
independent neighbor sets that outweigh v (extended: all of them;
extended-reduced: only the minimal ones plus single-vertex extensions).

All operations are transactional: they either complete, append one
Struction event to the log and return it, or return Aborted leaving the
graph and its change record untouched.
Aborts happen when the construction would create more than `cap` vertices,
or when the set enumeration exceeds its internal node budget, both before
the first write.  Each new vertex is then built, edges and all, in one
add_vertex call that reads the live graph before any old vertex is removed
or reweighted, so nothing is copied first.
"""

from dataclasses import dataclass

from .translog import (ExcludedVertex, Pair, Struction, VertexSet,
                       VertexSetPlus)


class NotMinimal(Exception):
    """Center does not have minimum weight in N[v] (original/modified only)."""


@dataclass(frozen=True)
class Aborted:
    reason: str = "cap"  # "cap": too many creations; "budget": enumeration guard


@dataclass(frozen=True)
class NeighborhoodSet:
    """An independent subset of a neighborhood, members sorted ascending."""
    members: tuple
    weight: int


_MIN_NODE_BUDGET = 8192


def enumerate_exceeding_sets(g, S, threshold, cap, minimal_only=False):
    """Independent subsets c of S with w(c) > threshold, DFS in ascending id order.

    With minimal_only, only sets all of whose proper subsets stay at or below
    the threshold are emitted (closed form: w(c) - min member weight must not
    exceed the threshold), and the search never descends below an emitted set.
    Aborts as soon as more than `cap` sets have been emitted, or when the
    number of visited search nodes passes the node budget: 16 per set the
    cap allows, and at least _MIN_NODE_BUDGET.

    The DFS runs on an explicit stack, so deep neighborhoods cannot hit the
    recursion limit.  A frame keeps the candidates still open to it as a
    bitmask over the sorted items: bits above the last scanned index that
    conflict with no member.  Every scanned candidate is charged one node,
    conflicting ones included, or dense neighborhoods would let the DFS do
    unbounded work without emitting anything; a run of conflicting
    candidates is charged at once, which aborts exactly where a one-by-one
    scan would, since nothing is emitted in between.

    Item i's conflict mask is built the first time the DFS descends into
    i, not up front: an attempt that aborts after a few descents builds
    only the masks it used, and the search itself is unchanged.
    """
    items = sorted(S)
    n = len(items)
    w, nbs = g._w, g._nbs
    wts = [w[u] for u in items]
    bit = {u: 1 << i for i, u in enumerate(items)}
    item_set = set(items)
    conflicts = [None] * n
    node_budget = max(_MIN_NODE_BUDGET, 16 * (cap + 1))
    out = []
    nodes = 0
    path = []       # members of the current frame, ascending
    stack = []      # suspended parent frames
    free, pos, weight, min_w = (1 << n) - 1, 0, 0, float("inf")
    while True:
        if not free:
            nodes += n - pos
            if nodes > node_budget:
                return Aborted("budget")
            if not stack:
                return out
            free, pos, weight, min_w = stack.pop()
            path.pop()
            continue
        low = free & -free
        i = low.bit_length() - 1
        nodes += i - pos + 1
        if nodes > node_budget:
            return Aborted("budget")
        free ^= low
        pos = i + 1
        wi = wts[i]
        cw = weight + wi
        cm = wi if wi < min_w else min_w
        if cw > threshold:
            if not minimal_only or cw - cm <= threshold:
                if len(out) >= cap:
                    return Aborted("cap")
                out.append(NeighborhoodSet(tuple(path) + (items[i],), cw))
            if minimal_only:
                # never descend past an exceeding set: any superset has
                # this set as an exceeding proper subset
                continue
        stack.append((free, pos, weight, min_w))
        path.append(items[i])
        m = conflicts[i]
        if m is None:
            m = 0
            for x in nbs[items[i]] & item_set:
                m |= bit[x]
            conflicts[i] = m
        free &= ~m
        weight, min_w = cw, cm


def count_small_exceeding_sets(g, v, stop_above=float("inf")):
    """Independent sets of size <= 2 inside N(v) that outweigh v.

    Either extended variant at v creates at least this many vertices (the
    lemma is at reductions._struction).  Counting stops as soon as the
    count passes stop_above.
    """
    w, nbs = g._w, g._nbs
    wv = w[v]
    nbrs = list(nbs[v])
    count = 0
    for u in nbrs:
        if w[u] > wv:
            count += 1
    if count > stop_above:
        return count
    for i, u in enumerate(nbrs):
        rest = wv - w[u]
        nu = nbs[u]
        for x in nbrs[i + 1:]:
            if w[x] > rest and x not in nu:
                count += 1
                if count > stop_above:
                    return count
    return count


def _pair_struction(g, v, cap, log, modified):
    w, nbs = g._w, g._nbs
    wv = w[v]
    nbrs = sorted(nbs[v])
    for u in nbrs:
        if w[u] < wv:
            raise NotMinimal(
                f"center {v} (weight {wv}) is heavier than neighbor {u}")
    # the non-adjacent neighbor pairs, each ascending, in ascending order
    pairs = [(x, y) for i, x in enumerate(nbrs) for y in nbrs[i + 1:]
             if y not in nbs[x]]
    if len(pairs) > cap:
        return Aborted("cap")

    # pair vertices join the sets of N(v), so every target list is taken
    # before the first of them is created
    plans = []
    for x, y in pairs:
        targets = (nbs[x] | nbs[y]) - {v}
        if modified:
            targets.update(k for k in nbrs if k != x)
        plans.append(sorted(targets))

    # a pair vertex conflicts with the earlier ones from another first
    # member, or whose second member is adjacent to its own
    created = []
    for i, ((x, y), targets) in enumerate(zip(pairs, plans)):
        targets += [created[j][0] for j in range(i)
                    if pairs[j][0] != x or pairs[j][1] in nbs[y]]
        created.append((g.add_vertex(w[y] if modified else wv, targets),
                        Pair(x, y)))

    g.remove_vertex(v)
    for u in nbrs:
        g.set_weight(u, w[u] - wv)
    if modified:
        # the writes above touch no edge inside N(v), so pairs still lists
        # exactly its missing edges
        for x, y in pairs:
            g.add_edge(x, y)

    event = Struction("modified" if modified else "original", v, wv,
                      tuple(nbrs), tuple(created))
    log.record(event)
    for u in nbrs:
        if w.get(u) == 0:
            log.record(ExcludedVertex(u))
            g.remove_vertex(u)
    return event


def original_struction(g, v, cap, log):
    """Remove v, lower N(v) by w(v), encode non-adjacent neighbor pairs."""
    return _pair_struction(g, v, cap, log, modified=False)


def modified_struction(g, v, cap, log):
    """As original, but pair vertices weigh w(y) and N(v) becomes a clique."""
    return _pair_struction(g, v, cap, log, modified=True)


def _extended_struction(g, v, cap, log, reduced):
    w, nbs = g._w, g._nbs
    wv = w[v]
    nbrs = sorted(nbs[v])
    core_sets = enumerate_exceeding_sets(g, nbrs, wv, cap, minimal_only=reduced)
    if isinstance(core_sets, Aborted):
        return core_sets
    # extension vertices (reduced only): a minimal set ci plus a neighbor y
    # that is neither in it nor adjacent to it
    extensions = []
    if reduced:
        for ci, ns in enumerate(core_sets):
            for y in nbrs:
                if y not in ns.members and nbs[y].isdisjoint(ns.members):
                    extensions.append((ci, y))
        if len(core_sets) + len(extensions) > cap:
            return Aborted("cap")

    # no new vertex touches N[v], so its sets read the same until it is
    # removed below.  Encoding vertices form a clique; an extension vertex
    # conflicts with everything built from a different set, and with
    # same-set extensions whose added members are adjacent
    closed = {v, *nbrs}
    created = []
    core_ids = []
    for ns in core_sets:
        outside = set().union(*(nbs[u] for u in ns.members))
        nid = g.add_vertex(ns.weight - wv, sorted(outside - closed) + core_ids)
        core_ids.append(nid)
        created.append((nid, VertexSet(ns.members)))
    for ci, y in extensions:
        c = core_sets[ci].members
        outside = set(nbs[y]).union(*(nbs[u] for u in c))
        targets = (sorted(outside - closed)
                   + [cid for j, cid in enumerate(core_ids) if j != ci]
                   + [cid for cid, p in created[len(core_ids):]
                      if p.c != c or p.y in nbs[y]])
        created.append((g.add_vertex(w[y], targets), VertexSetPlus(c, y)))

    g.remove_vertex(v)
    for u in nbrs:
        g.remove_vertex(u)
    event = Struction("extended_reduced" if reduced else "extended", v, wv,
                      tuple(nbrs), tuple(created))
    log.record(event)
    return event


def extended_struction(g, v, cap, log):
    """Remove N[v]; encode every independent neighbor set outweighing v."""
    return _extended_struction(g, v, cap, log, reduced=False)


def extended_reduced_struction(g, v, cap, log):
    """As extended, but only minimal exceeding sets plus extension vertices."""
    return _extended_struction(g, v, cap, log, reduced=True)


VARIANT_OPS = {
    "original": original_struction,
    "modified": modified_struction,
    "extended": extended_struction,
    "extended_reduced": extended_reduced_struction,
}
