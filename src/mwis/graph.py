"""Dynamic vertex-weighted undirected graph with stable vertex identifiers.

Vertices carry non-negative integer weights and are addressed by ids that are
never reused: removing vertex 3 and adding a new vertex yields an id strictly
greater than every id the graph has ever issued.  This lets transformation
logs refer to long-removed vertices without ambiguity.

Each vertex keeps its neighbors in one set, which backs O(1) adjacency
tests and the subset checks the reduction rules lean on; counts() derives
m from the sets in O(n), so code that needs only n reads len(_w).  Set
iteration order depends on insertion history, so code whose output
depends on an order sorts explicitly; neighbors() is the sorted view for
callers outside the package.

The rules, blow-up and search read the maps _w and _nbs directly, but
every write goes through the four mutators, which add each vertex they
create, reweight or give a new neighbor set to a change record, and those
they create, reweight or give an edge by add_edge to its second part
_touched; the reduction queue re-tests the region around it after each
transformation.  add_vertex takes the new vertex's neighbors, so a
transformation builds each vertex it creates, edges included, in one call.
new_graph, the parser and the generators return graphs whose record is
empty, and so do copy() and subgraph().
"""


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


class DynGraph:
    """Mutable weighted graph supporting removal and fresh-vertex creation."""

    __slots__ = ("_w", "_nbs", "_next_id", "_changed", "_touched")

    def __init__(self):
        self._w = {}      # active vertex id -> weight
        self._nbs = {}    # active vertex id -> set of neighbor ids
        self._next_id = 0
        self._changed = set()  # vertices changed since the last take_changed
        self._touched = set()  # those created, reweighted or given an edge

    # -- construction ------------------------------------------------------

    def add_vertex(self, w, nbrs=()):
        """Create a vertex of weight w >= 0 joined to each of the distinct
        active vertices in nbrs and return its id; a refused call writes
        nothing."""
        if w < 0:
            raise InvalidWeight(f"weight must be non-negative, got {w}")
        nbs = self._nbs
        own = set(nbrs)
        self._check_all_active(own)
        if len(own) != len(nbrs):
            raise DuplicateEdge(f"repeated neighbor in {list(nbrs)}")
        v = self._next_id
        self._next_id += 1
        self._w[v] = w
        nbs[v] = own
        for u in own:
            nbs[u].add(v)
        self._changed.add(v)
        self._changed.update(own)
        self._touched.add(v)
        return v

    def add_edge(self, u, v):
        if u == v:
            raise SelfLoop(f"self-loop at {u}")
        self._check_active(u)
        self._check_active(v)
        if v in self._nbs[u]:
            raise DuplicateEdge(f"edge ({u},{v}) already present")
        self._nbs[u].add(v)
        self._nbs[v].add(u)
        self._changed.add(u)
        self._changed.add(v)
        self._touched.update((u, v))

    def remove_vertex(self, v):
        """Deactivate v and strip it from all neighbor sets."""
        self._check_active(v)
        nbs = self._nbs
        nv = nbs.pop(v)
        for u in nv:
            nbs[u].discard(v)
        del self._w[v]
        self._changed.update(nv)

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
        return sorted(self._nbs[v])

    def degree(self, v):
        self._check_active(v)
        return len(self._nbs[v])

    def weight(self, v):
        self._check_active(v)
        return self._w[v]

    def set_weight(self, v, w):
        self._check_active(v)
        if w < 0:
            raise InvalidWeight(f"weight must be non-negative, got {w}")
        self._w[v] = w
        self._changed.add(v)
        self._touched.add(v)

    def take_changed(self):
        """Return the record's first part, which may name vertices removed
        since, and start a new record; read _touched before this call."""
        out, self._changed = self._changed, set()
        self._touched = set()
        return out

    def active_vertices(self):
        return sorted(self._w)

    def counts(self):
        return len(self._w), sum(map(len, self._nbs.values())) // 2

    @property
    def next_id(self):
        """The id the next add_vertex call will return."""
        return self._next_id

    def subgraph(self, vertices):
        """Induced subgraph on the given vertices, ids and next_id preserved."""
        keep = set(vertices)
        self._check_all_active(keep)
        g = DynGraph()
        g._w = {v: self._w[v] for v in keep}
        g._nbs = {v: self._nbs[v] & keep for v in keep}
        g._next_id = self._next_id
        return g

    # -- bookkeeping -------------------------------------------------------

    def copy(self):
        """An equal graph whose change record starts empty."""
        g = DynGraph()
        g._w = dict(self._w)
        g._nbs = {v: set(nbrs) for v, nbrs in self._nbs.items()}
        g._next_id = self._next_id
        return g

    def __eq__(self, other):
        if not isinstance(other, DynGraph):
            return NotImplemented
        return (self._w == other._w and self._nbs == other._nbs
                and self._next_id == other._next_id)

    def __repr__(self):
        return (f"DynGraph(n={len(self._w)}, m={self.counts()[1]}, "
                f"next_id={self._next_id})")

    def _check_active(self, v):
        if v not in self._w:
            raise InactiveVertex(f"vertex {v} is not active")

    def _check_all_active(self, vs):
        if not vs <= self._w.keys():
            raise InactiveVertex(f"vertex {min(vs - self._w.keys())} is not active")


def new_graph(n, weights):
    """Build an edgeless graph with n vertices, ids 0..n-1, weights >= 1."""
    if len(weights) != n:
        raise InvalidWeight(f"expected {n} weights, got {len(weights)}")
    g = DynGraph()
    for w in weights:
        if w < 1:
            raise InvalidWeight(f"input weights must be >= 1, got {w}")
        g.add_vertex(w)
    g.take_changed()
    return g
