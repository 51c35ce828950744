"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately written from scratch against the problem
definition, without using any code from the mwis package, so that an
agreement between the two is meaningful evidence of correctness.
"""

import importlib.util
import itertools
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
