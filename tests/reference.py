"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately written from scratch against the problem
definition, without using any code from the mwis package, so that an
agreement between the two is meaningful evidence of correctness.
"""

import importlib.util
import itertools
import random
from pathlib import Path


def mwis_oracle(g, limit=20):
    """Exhaustive maximum weight independent set by subset enumeration.

    Works on any object exposing active_vertices(), weight(v) and
    is_adjacent(u, v).  Returns (weight, frozenset of vertices).
    """
    verts = sorted(g.active_vertices())
    if len(verts) > limit:
        raise ValueError(f"oracle limited to {limit} vertices, got {len(verts)}")
    best_w = 0
    best_s = frozenset()
    for r in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            ok = True
            for i, u in enumerate(combo):
                for v in combo[i + 1:]:
                    if g.is_adjacent(u, v):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                w = sum(g.weight(v) for v in combo)
                if w > best_w:
                    best_w = w
                    best_s = frozenset(combo)
    return best_w, best_s


def path_mwis(weights):
    """Weighted independent set DP on a path, O(n)."""
    take = skip = 0
    for w in weights:
        take, skip = skip + w, max(take, skip)
    return max(take, skip)


def cycle_mwis(weights):
    """Weighted independent set on a cycle: condition on vertex 0."""
    n = len(weights)
    if n == 0:
        return 0
    if n == 1:
        return weights[0]
    if n == 2:
        return max(weights)
    without_first = path_mwis(weights[1:])
    with_first = weights[0] + path_mwis(weights[2:-1])
    return max(without_first, with_first)


def is_independent(g, vertices):
    vs = list(vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            if g.is_adjacent(u, v):
                return False
    return True


def random_graph(rnd, n, p, wmin=1, wmax=9):
    """Random G(n, p) with uniform integer weights, driven by a
    random.Random instance (independent of the package's own generator)."""
    import mwis

    g = mwis.new_graph(n, [rnd.randint(wmin, wmax) for _ in range(n)])
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < p:
                g.add_edge(i, j)
    return g


def bench_inputs():
    """The benchmark's instance generators, bench/inputs.py, as a module."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def local_state(g, v):
    """v's weight, its neighbors with their weights, and the edges among
    its neighbors: all a struction attempt at v reads."""
    nbrs = g._nbs[v]
    return (g._w[v], frozenset((u, g._w[u]) for u in nbrs),
            frozenset((a, b) for a in nbrs for b in g._nbs[a] & nbrs if a < b))


def disjoint_union(parts):
    """The graphs side by side, each part's ids shifted past the last."""
    import mwis

    g = mwis.DynGraph()
    for part in parts:
        base = g.next_id
        for v in part.active_vertices():
            g.add_vertex(part.weight(v))
        for v in part.active_vertices():
            for u in part.neighbors(v):
                if v < u:
                    g.add_edge(base + v, base + u)
    return g


class _Abort(Exception):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def exceeding_sets_recursive(g, S, threshold, cap, minimal_only=False,
                             node_budget=None):
    """The recursive exceeding-set DFS the package's enumeration replaced,
    kept as an oracle for its order and abort behaviour.

    Returns a list of (members, weight) in emission order, or the abort
    reason "cap" (more than cap sets) or "budget" (more than node_budget
    scanned candidates, default max(8192, 16 * (cap + 1))).
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
            nodes += 1
            if nodes > node_budget:
                raise _Abort("budget")
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
        else:
            descend(idx + 1, members, weight, min_w)

    def emit(members, weight):
        if len(out) + 1 > cap:
            raise _Abort("cap")
        out.append((tuple(items[i] for i in members), weight))

    try:
        descend(0, [], 0, float("inf"))
    except _Abort as stop:
        return stop.reason
    return out


def exceeding_sets_eager(g, S, threshold, cap, minimal_only=False,
                         node_budget=None):
    """The bitmask DFS of the exceeding-set enumeration with every conflict
    mask built before the search starts, as the package built them before
    it built each one on first descent; kept as an oracle for its order and
    abort behaviour.  Same arguments and results as
    exceeding_sets_recursive.
    """
    items = sorted(S)
    n = len(items)
    wts = [g.weight(u) for u in items]
    index = {u: i for i, u in enumerate(items)}
    conflicts = [sum(1 << index[x] for x in g.neighbors(u) if x in index)
                 for u in items]
    if node_budget is None:
        node_budget = max(8192, 16 * (cap + 1))
    out = []
    nodes = 0
    path, stack = [], []
    free, pos, weight, min_w = (1 << n) - 1, 0, 0, float("inf")
    while True:
        if not free:
            nodes += n - pos
            if nodes > node_budget:
                return "budget"
            if not stack:
                return out
            free, pos, weight, min_w = stack.pop()
            path.pop()
            continue
        i = (free & -free).bit_length() - 1
        nodes += i - pos + 1
        if nodes > node_budget:
            return "budget"
        free &= free - 1
        pos = i + 1
        cw, cm = weight + wts[i], min(min_w, wts[i])
        if cw > threshold:
            if not minimal_only or cw - cm <= threshold:
                if len(out) >= cap:
                    return "cap"
                out.append((tuple(path) + (items[i],), cw))
            if minimal_only:
                continue
        stack.append((free, pos, weight, min_w))
        path.append(items[i])
        free &= ~conflicts[i]
        weight, min_w = cw, cm


def clique_cover_removal_fires(g, v):
    """Whether clique neighborhood removal includes v, decided by the
    greedy clique cover alone: visit N(v) by descending weight, then
    ascending id, put each vertex into the first clique whose members all
    neighbor it or else open a new one, and fire when the sum of the
    cliques' first (heaviest) members is at most w(v).  This is the rule
    as the package tested it before it looked for an independent set of
    N(v) that outweighs v first.
    """
    order = sorted(g.neighbors(v), key=lambda u: (-g.weight(u), u))
    cliques = []
    for u in order:
        for cl in cliques:
            if all(g.is_adjacent(u, x) for x in cl):
                cl.append(u)
                break
        else:
            cliques.append([u])
    return sum(g.weight(cl[0]) for cl in cliques) <= g.weight(v)


def clique_cover_bound(g, limit=None):
    """The search's upper bound, written from its definition: a
    weight-splitting clique cover lowered along one-step conflict sets.

    Cover: take the vertices by ascending degree, then descending weight,
    then ascending id, skipping zero weights.  A vertex v with remaining
    weight r finds, among all cliques so far, those whose members all
    neighbour v, and walks them in creation order: it joins a clique whose
    level is at most r and pays that level; otherwise the clique keeps its
    level minus r and a new clique, its members plus v, takes level r.  The
    walk ends once r is 0; weight still left opens the clique {v}.

    Refinement: visit the cliques by (size, index).  While clique a keeps a
    level, each member u takes the first clique by index whose level is
    positive and whose members all neighbour u; if every member finds one,
    the least level among a and those cliques comes off each of them and
    off the bound, otherwise go on to the next a.

    With a limit the cover sum is returned when it is at most the limit,
    and the refinement stops once the bound is at most the limit.
    """
    adj = {v: set(g.neighbors(v)) for v in g.active_vertices()}
    order = sorted(adj, key=lambda v: (len(adj[v]), -g.weight(v), v))
    cliques = []  # [members, level] in creation order
    for v in order:
        r = g.weight(v)
        if r == 0:
            continue
        for clique in [c for c in cliques if adj[v].issuperset(c[0])]:
            if clique[1] <= r:
                clique[0].append(v)
                r -= clique[1]
            else:
                clique[1] -= r
                cliques.append([clique[0] + [v], r])
                r = 0
            if r == 0:
                break
        if r:
            cliques.append([[v], r])
    bound = sum(level for _, level in cliques)
    if limit is not None and bound <= limit:
        return bound

    def first_inside(u):
        return next((i for i, (cl, level) in enumerate(cliques)
                     if level > 0 and adj[u].issuperset(cl)), None)

    for a in sorted(range(len(cliques)), key=lambda i: (len(cliques[i][0]), i)):
        while cliques[a][1] > 0:
            firsts = [first_inside(u) for u in cliques[a][0]]
            if None in firsts:
                break
            chosen = {a, *firsts}
            delta = min(cliques[i][1] for i in chosen)
            for i in chosen:
                cliques[i][1] -= delta
            bound -= delta
            if limit is not None and bound <= limit:
                return bound
    return bound


def planted_clique_graphs(seed, count):
    """(rnd, graph) pairs: sparse random graphs, most with a planted clique
    of up to 60 vertices whose members also keep some neighbors outside
    it.  Removing one member leaves the kind of survivor set a blow-up
    peel leaves.  The graphs' change records are empty."""
    rnd = random.Random(seed)
    for _ in range(count):
        n = rnd.randint(20, 120)
        g = random_graph(rnd, n, rnd.choice((0.02, 0.05, 0.1)))
        if rnd.random() < 0.8:
            k = rnd.randint(3, min(60, n))
            clique = rnd.sample(range(n), k)
            for i, a in enumerate(clique):
                for b in clique[i + 1:]:
                    if not g.is_adjacent(a, b):
                        g.add_edge(a, b)
        g.take_changed()
        yield rnd, g
