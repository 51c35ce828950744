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
or when the set enumeration exceeds its internal node budget.
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


def enumerate_exceeding_sets(g, S, threshold, cap, minimal_only=False,
                             node_budget=None):
    """Independent subsets c of S with w(c) > threshold, DFS in ascending id order.

    With minimal_only, only sets all of whose proper subsets stay at or below
    the threshold are emitted (closed form: w(c) - min member weight must not
    exceed the threshold), and the search never descends below an emitted set.
    Aborts as soon as more than `cap` sets have been emitted, or when the
    number of visited search nodes passes the node budget.

    The DFS runs on an explicit stack, so deep neighborhoods cannot hit the
    recursion limit.  A frame keeps the candidates still open to it as a
    bitmask over the sorted items: bits above the last scanned index that
    conflict with no member.  Every scanned candidate is charged one node,
    conflicting ones included, or dense neighborhoods would let the DFS do
    unbounded work without emitting anything; a run of conflicting
    candidates is charged at once, which aborts exactly where a one-by-one
    scan would, since nothing is emitted in between.
    """
    items = sorted(S)
    n = len(items)
    w, nbs = g._w, g._nbs
    wts = [w[u] for u in items]
    bit = {u: 1 << i for i, u in enumerate(items)}
    item_set = set(items)
    conflicts = []
    for u in items:
        m = 0
        for x in nbs[u] & item_set:
            m |= bit[x]
        conflicts.append(m)
    if node_budget is None:
        node_budget = max(8192, 16 * (cap + 1))
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
        free &= ~conflicts[i]
        weight, min_w = cw, cm


def count_small_exceeding_sets(g, v, stop_above=None):
    """Independent sets of size <= 2 inside N(v) that outweigh v.

    An extended struction at v creates one vertex for each of them, so the
    count is a lower bound on its size.  With stop_above, counting stops as
    soon as the count passes that value.
    """
    w, nbs = g._w, g._nbs
    wv = w[v]
    nbrs = list(nbs[v])
    if stop_above is None:
        stop_above = len(nbrs) * (len(nbrs) + 1) // 2
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


def _require_minimal(w, v, wv, nbrs):
    for u in nbrs:
        if w[u] < wv:
            raise NotMinimal(
                f"center {v} (weight {wv}) is heavier than neighbor {u}")


def _nonadjacent_pairs(nbrs, pre_nbs):
    pairs = []
    for i, x in enumerate(nbrs):
        for y in nbrs[i + 1:]:
            if y not in pre_nbs[x]:
                pairs.append((x, y))
    return pairs


def _cleanup_zero_neighbors(g, nbrs, log):
    for u in nbrs:
        if g._w.get(u) == 0:
            log.record(ExcludedVertex(u))
            g.remove_vertex(u)


def _pair_struction(g, v, cap, log, modified):
    w, nbs = g._w, g._nbs
    wv = w[v]
    nbrs = sorted(nbs[v])
    _require_minimal(w, v, wv, nbrs)
    pre_nbs = {u: set(nbs[u]) for u in nbrs}
    pairs = _nonadjacent_pairs(nbrs, pre_nbs)
    if len(pairs) > cap:
        return Aborted("cap")
    orig_w = {u: w[u] for u in nbrs}

    # plan every edge target against the pre-transformation graph
    plans = []
    for x, y in pairs:
        targets = (pre_nbs[x] | pre_nbs[y]) - {v}
        if modified:
            targets.update(k for k in nbrs if k != x)
        plans.append(sorted(targets))

    g.remove_vertex(v)
    for u in nbrs:
        g.set_weight(u, orig_w[u] - wv)
    if modified:
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                if b not in pre_nbs[a]:
                    g.add_edge(a, b)

    created = []
    ids = []
    for (x, y), targets in zip(pairs, plans):
        w_new = orig_w[y] if modified else wv
        nid = g.add_vertex(w_new)
        ids.append(nid)
        created.append((nid, w_new, Pair(x, y)))
        for t in targets:
            g.add_edge(nid, t)
    # among created: adjacent when layers differ or the second members were
    # adjacent in the pre-transformation graph
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if pairs[i][0] != pairs[j][0] or pairs[j][1] in pre_nbs[pairs[i][1]]:
                g.add_edge(ids[i], ids[j])

    event = Struction("modified" if modified else "original", v, wv,
                      tuple(nbrs), ((v, wv),), tuple(created))
    log.record(event)
    _cleanup_zero_neighbors(g, nbrs, log)
    return event


def original_struction(g, v, cap, log):
    """Remove v, lower N(v) by w(v), encode non-adjacent neighbor pairs."""
    return _pair_struction(g, v, cap, log, modified=False)


def modified_struction(g, v, cap, log):
    """As original, but pair vertices weigh w(y) and N(v) becomes a clique."""
    return _pair_struction(g, v, cap, log, modified=True)


def extended_struction(g, v, cap, log):
    """Remove N[v]; encode every independent neighbor set outweighing v."""
    wv = g._w[v]
    nbrs = sorted(g._nbs[v])
    sets = enumerate_exceeding_sets(g, nbrs, wv, cap, minimal_only=False)
    if isinstance(sets, Aborted):
        return sets
    return _replace_closed_neighborhood(
        g, v, wv, nbrs, log, "extended",
        core_sets=sets, extensions=())


def extended_reduced_struction(g, v, cap, log):
    """As extended, but only minimal exceeding sets plus extension vertices."""
    nbs = g._nbs
    wv = g._w[v]
    nbrs = sorted(nbs[v])
    minimal = enumerate_exceeding_sets(g, nbrs, wv, cap, minimal_only=True)
    if isinstance(minimal, Aborted):
        return minimal
    extensions = []
    for ci, ns in enumerate(minimal):
        cset = set(ns.members)
        for y in nbrs:
            if y not in cset and not any(y in nbs[u] for u in ns.members):
                extensions.append((ci, y))
    if len(minimal) + len(extensions) > cap:
        return Aborted("cap")
    return _replace_closed_neighborhood(
        g, v, wv, nbrs, log, "extended_reduced",
        core_sets=minimal, extensions=extensions)


def _replace_closed_neighborhood(g, v, wv, nbrs, log, variant, core_sets,
                                 extensions):
    closed = set(nbrs) | {v}
    orig_w = {u: g._w[u] for u in nbrs}
    # snapshots: removing N[v] below edits the sets of its members
    adj = {u: set(g._nbs[u]) for u in nbrs}

    core_plans = []
    for ns in core_sets:
        outside = set()
        for u in ns.members:
            outside.update(adj[u])
        core_plans.append(sorted(outside - closed))
    ext_plans = []
    for ci, y in extensions:
        outside = set(adj[y])
        for u in core_sets[ci].members:
            outside.update(adj[u])
        ext_plans.append(sorted(outside - closed))

    removed = tuple((u, orig_w[u] if u != v else wv)
                    for u in [v] + nbrs)
    g.remove_vertex(v)
    for u in nbrs:
        g.remove_vertex(u)

    created = []
    core_ids = []
    for ns, targets in zip(core_sets, core_plans):
        nid = g.add_vertex(ns.weight - wv)
        core_ids.append(nid)
        created.append((nid, ns.weight - wv, VertexSet(ns.members)))
        for t in targets:
            g.add_edge(nid, t)
    ext_ids = []
    for (ci, y), targets in zip(extensions, ext_plans):
        nid = g.add_vertex(orig_w[y])
        ext_ids.append(nid)
        created.append((nid, orig_w[y],
                        VertexSetPlus(core_sets[ci].members, y)))
        for t in targets:
            g.add_edge(nid, t)

    # encoding vertices form a clique; an extension vertex conflicts with
    # everything built from a different set, and with same-set extensions
    # whose added members were adjacent
    for i in range(len(core_ids)):
        for j in range(i + 1, len(core_ids)):
            g.add_edge(core_ids[i], core_ids[j])
    for i, (ci, y) in enumerate(extensions):
        for j, cid in enumerate(core_ids):
            if j != ci:
                g.add_edge(cid, ext_ids[i])
        for k in range(i + 1, len(extensions)):
            cj, y2 = extensions[k]
            if ci != cj or y2 in adj[y]:
                g.add_edge(ext_ids[i], ext_ids[k])

    event = Struction(variant, v, wv, tuple(nbrs), removed, tuple(created))
    log.record(event)
    return event


VARIANT_OPS = {
    "original": original_struction,
    "modified": modified_struction,
    "extended": extended_struction,
    "extended_reduced": extended_reduced_struction,
}
