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
graph untouched.
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


class _OverBudget(Exception):
    pass


class _OverCap(Exception):
    pass


def enumerate_exceeding_sets(g, S, threshold, cap, minimal_only=False,
                             node_budget=None):
    """Independent subsets c of S with w(c) > threshold, DFS in ascending id order.

    With minimal_only, only sets all of whose proper subsets stay at or below
    the threshold are emitted (closed form: w(c) - min member weight must not
    exceed the threshold), and the search never descends below an emitted set.
    Aborts as soon as more than `cap` sets have been emitted, or when the
    number of visited search nodes passes the node budget.
    """
    items = sorted(S)
    wts = [g.weight(u) for u in items]
    adj = [set(g.neighbors(u)) for u in items]
    if node_budget is None:
        node_budget = max(8192, 16 * (cap + 1))
    out = []
    nodes = 0

    def descend(start, members, weight, min_w):
        nonlocal nodes
        for i in range(start, len(items)):
            # every scanned candidate is charged, or dense neighborhoods
            # would let the DFS do unbounded work without emitting anything
            nodes += 1
            if nodes > node_budget:
                raise _OverBudget
            if any(items[i] in adj[j] for j in members):
                continue
            visit(i, members + [i], weight + wts[i], min(min_w, wts[i]))

    def visit(idx, members, weight, min_w):
        if weight > threshold:
            if not minimal_only:
                emit(members, weight)
                descend(idx + 1, members, weight, min_w)
            elif weight - min_w <= threshold:
                emit(members, weight)
            # minimal_only never descends past an exceeding set: any superset
            # has this set as an exceeding proper subset
        else:
            descend(idx + 1, members, weight, min_w)

    def emit(members, weight):
        if len(out) + 1 > cap:
            raise _OverCap
        out.append(NeighborhoodSet(tuple(items[i] for i in members), weight))

    try:
        descend(0, [], 0, float("inf"))
    except _OverCap:
        return Aborted("cap")
    except _OverBudget:
        return Aborted("budget")
    return out


def _require_minimal(g, v, wv, nbrs):
    for u in nbrs:
        if g.weight(u) < wv:
            raise NotMinimal(
                f"center {v} (weight {wv}) is heavier than neighbor {u}")


def _nonadjacent_pairs(nbrs, pre_adj):
    pairs = []
    for i, x in enumerate(nbrs):
        for y in nbrs[i + 1:]:
            if y not in pre_adj[x]:
                pairs.append((x, y))
    return pairs


def _cleanup_zero_neighbors(g, nbrs, log, changed=None):
    for u in nbrs:
        if g.is_active(u) and g.weight(u) == 0:
            if changed is not None:
                changed.update(g.neighbors(u))
            log.record(ExcludedVertex(u))
            g.remove_vertex(u)


def _pair_struction(g, v, cap, log, modified, changed=None):
    wv = g.weight(v)
    nbrs = g.neighbors(v)
    _require_minimal(g, v, wv, nbrs)
    pre_adj = {u: set(g.neighbors(u)) for u in nbrs}
    pairs = _nonadjacent_pairs(nbrs, pre_adj)
    if len(pairs) > cap:
        return Aborted("cap")
    orig_w = {u: g.weight(u) for u in nbrs}

    # plan every edge target against the pre-transformation graph
    plans = []
    for x, y in pairs:
        targets = (pre_adj[x] | pre_adj[y]) - {v}
        if modified:
            targets.update(k for k in nbrs if k != x)
        plans.append(sorted(targets))

    g.remove_vertex(v)
    for u in nbrs:
        g.set_weight(u, orig_w[u] - wv)
    if modified:
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                if b not in pre_adj[a]:
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
            if pairs[i][0] != pairs[j][0] or pairs[j][1] in pre_adj[pairs[i][1]]:
                g.add_edge(ids[i], ids[j])

    event = Struction("modified" if modified else "original", v, wv,
                      tuple(nbrs), ((v, wv),), tuple(created))
    log.record(event)
    if changed is not None:
        changed.update(nbrs)
        changed.update(ids)
        for targets in plans:
            changed.update(targets)
    _cleanup_zero_neighbors(g, nbrs, log, changed)
    return event


def original_struction(g, v, cap, log, changed=None):
    """Remove v, lower N(v) by w(v), encode non-adjacent neighbor pairs."""
    return _pair_struction(g, v, cap, log, modified=False, changed=changed)


def modified_struction(g, v, cap, log, changed=None):
    """As original, but pair vertices weigh w(y) and N(v) becomes a clique."""
    return _pair_struction(g, v, cap, log, modified=True, changed=changed)


def extended_struction(g, v, cap, log, node_budget=None, changed=None):
    """Remove N[v]; encode every independent neighbor set outweighing v."""
    wv = g.weight(v)
    nbrs = g.neighbors(v)
    sets = enumerate_exceeding_sets(g, nbrs, wv, cap, minimal_only=False,
                                    node_budget=node_budget)
    if isinstance(sets, Aborted):
        return sets
    return _replace_closed_neighborhood(
        g, v, wv, nbrs, log, "extended",
        core_sets=sets, extensions=(), changed=changed)


def extended_reduced_struction(g, v, cap, log, node_budget=None, changed=None):
    """As extended, but only minimal exceeding sets plus extension vertices."""
    wv = g.weight(v)
    nbrs = g.neighbors(v)
    minimal = enumerate_exceeding_sets(g, nbrs, wv, cap, minimal_only=True,
                                       node_budget=node_budget)
    if isinstance(minimal, Aborted):
        return minimal
    adj = {u: set(g.neighbors(u)) for u in nbrs}
    extensions = []
    for ci, ns in enumerate(minimal):
        cset = set(ns.members)
        for y in nbrs:
            if y not in cset and not any(y in adj[u] for u in ns.members):
                extensions.append((ci, y))
    if len(minimal) + len(extensions) > cap:
        return Aborted("cap")
    return _replace_closed_neighborhood(
        g, v, wv, nbrs, log, "extended_reduced",
        core_sets=minimal, extensions=extensions, changed=changed)


def _replace_closed_neighborhood(g, v, wv, nbrs, log, variant, core_sets,
                                 extensions, changed=None):
    closed = set(nbrs) | {v}
    orig_w = {u: g.weight(u) for u in nbrs}
    adj = {u: set(g.neighbors(u)) for u in nbrs}

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
    if changed is not None:
        for u in nbrs:
            changed.update(adj[u] - closed)
        changed.update(core_ids)
        changed.update(ext_ids)
    return event


VARIANT_OPS = {
    "original": original_struction,
    "modified": modified_struction,
    "extended": extended_struction,
    "extended_reduced": extended_reduced_struction,
}
