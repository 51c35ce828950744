"""Dynamic vertex-weighted undirected graph with stable vertex identifiers.

Vertices carry non-negative integer weights and are addressed by ids that are
never reused: removing vertex 3 and adding a new vertex yields an id strictly
greater than every id the graph has ever issued.  This lets transformation
logs refer to long-removed vertices without ambiguity.

Neighbor lists are kept sorted ascending and all iteration orders are
deterministic.  A set mirror of every neighbor list backs O(1) adjacency
tests and the subset checks the reduction rules lean on.
"""

from bisect import bisect_left, insort


class GraphError(Exception):
    pass


class InvalidWeight(GraphError):
    pass


class InactiveVertex(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class MissingEdge(GraphError):
    pass


class DynGraph:
    """Mutable weighted graph supporting removal and fresh-vertex creation."""

    __slots__ = ("_w", "_adj", "_nbs", "_m", "_next_id")

    def __init__(self):
        self._w = {}      # active vertex id -> weight
        self._adj = {}    # active vertex id -> sorted list of neighbor ids
        self._nbs = {}    # active vertex id -> the same neighbors as a set
        self._m = 0       # number of edges
        self._next_id = 0

    # -- construction ------------------------------------------------------

    def add_vertex(self, w):
        """Create an isolated vertex with weight w >= 0 and return its id."""
        if w < 0:
            raise InvalidWeight(f"weight must be non-negative, got {w}")
        v = self._next_id
        self._next_id += 1
        self._w[v] = w
        self._adj[v] = []
        self._nbs[v] = set()
        return v

    def add_edge(self, u, v):
        if u == v:
            raise SelfLoop(f"self-loop at {u}")
        self._check_active(u)
        self._check_active(v)
        if v in self._nbs[u]:
            raise DuplicateEdge(f"edge ({u},{v}) already present")
        insort(self._adj[u], v)
        insort(self._adj[v], u)
        self._nbs[u].add(v)
        self._nbs[v].add(u)
        self._m += 1

    def remove_edge(self, u, v):
        self._check_active(u)
        self._check_active(v)
        if u == v:
            raise SelfLoop(f"self-loop at {u}")
        if v not in self._nbs[u]:
            raise MissingEdge(f"edge ({u},{v}) not present")
        self._adj[u].remove(v)
        self._adj[v].remove(u)
        self._nbs[u].discard(v)
        self._nbs[v].discard(u)
        self._m -= 1

    def remove_vertex(self, v):
        """Deactivate v and strip it from all neighbor lists."""
        self._check_active(v)
        for u in self._adj[v]:
            lst = self._adj[u]
            del lst[bisect_left(lst, v)]
            self._nbs[u].discard(v)
        self._m -= len(self._adj[v])
        del self._adj[v]
        del self._nbs[v]
        del self._w[v]

    # -- queries -----------------------------------------------------------

    def is_active(self, v):
        return v in self._w

    def is_adjacent(self, u, v):
        self._check_active(u)
        self._check_active(v)
        return v in self._nbs[u]

    def neighbors(self, v):
        """Neighbors of v as a fresh sorted list (safe to mutate)."""
        self._check_active(v)
        return list(self._adj[v])

    def degree(self, v):
        self._check_active(v)
        return len(self._adj[v])

    def weight(self, v):
        self._check_active(v)
        return self._w[v]

    def set_weight(self, v, w):
        self._check_active(v)
        if w < 0:
            raise InvalidWeight(f"weight must be non-negative, got {w}")
        self._w[v] = w

    def active_vertices(self):
        return sorted(self._w)

    def counts(self):
        return len(self._w), self._m

    @property
    def next_id(self):
        """The id the next add_vertex call will return."""
        return self._next_id

    def total_weight(self):
        return sum(self._w.values())

    def neighborhood_weight(self, v):
        """Sum of weights over N(v)."""
        self._check_active(v)
        return sum(self._w[u] for u in self._adj[v])

    def subgraph(self, vertices):
        """Induced subgraph on the given vertices, ids and next_id preserved."""
        keep = set(vertices)
        g = DynGraph.__new__(DynGraph)
        g._w = {v: self._w[v] for v in keep}
        g._adj = {v: [u for u in self._adj[v] if u in keep] for v in keep}
        g._nbs = {v: set(nbrs) for v, nbrs in g._adj.items()}
        g._m = sum(len(nbrs) for nbrs in g._adj.values()) // 2
        g._next_id = self._next_id
        return g

    # -- bookkeeping -------------------------------------------------------

    def copy(self):
        g = DynGraph.__new__(DynGraph)
        g._w = dict(self._w)
        g._adj = {v: list(nbrs) for v, nbrs in self._adj.items()}
        g._nbs = {v: set(nbrs) for v, nbrs in self._nbs.items()}
        g._m = self._m
        g._next_id = self._next_id
        return g

    def __eq__(self, other):
        if not isinstance(other, DynGraph):
            return NotImplemented
        return (self._w == other._w and self._adj == other._adj
                and self._m == other._m and self._next_id == other._next_id)

    def __repr__(self):
        return f"DynGraph(n={len(self._w)}, m={self._m}, next_id={self._next_id})"

    def _check_active(self, v):
        if v not in self._w:
            raise InactiveVertex(f"vertex {v} is not active")


def new_graph(n, weights):
    """Build an edgeless graph with n vertices, ids 0..n-1, weights >= 1."""
    if len(weights) != n:
        raise InvalidWeight(f"expected {n} weights, got {len(weights)}")
    g = DynGraph()
    for w in weights:
        if w < 1:
            raise InvalidWeight(f"input weights must be >= 1, got {w}")
        g.add_vertex(w)
    return g
