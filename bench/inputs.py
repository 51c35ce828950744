"""Seeded benchmark instances, generated without the mwis package.

An instance is a vertex weight list plus a sorted list of edges (i, j),
i < j, over ids 0..n-1.  The program under test only ever sees the METIS
files written here, so a change to its generators cannot change the inputs.

Three streams:

* ``c5_graphs``: the criterion-5 corpus of the acceptance suite,
  ``random.Random(0xC5)`` driving G(60, 4/59) graphs with weights 1..200
  (weights first, then one ``random()`` per pair in ascending order).
* ``sparse_graph``: an O(m) SplitMix64 sampler: n weight draws, then
  uniform (u, v) draws, rejecting self-loops and duplicate edges, until m
  distinct edges exist.
* ``gnp_graph``: the stream of ``mwis gen --type gnp``: n weight draws, then
  one raw draw per pair compared against floor(p * 2^64).
"""

import random
from dataclasses import dataclass, field

MASK64 = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator with rejection-sampled integer ranges."""

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randint(self, lo, hi):
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span


@dataclass
class Instance:
    name: str
    weights: list
    edges: list
    _adj: list = field(default=None, repr=False)

    @property
    def n(self):
        return len(self.weights)

    def adjacency(self):
        """Neighbor sets per vertex, built on first use."""
        if self._adj is None:
            self._adj = [set() for _ in self.weights]
            for i, j in self.edges:
                self._adj[i].add(j)
                self._adj[j].add(i)
        return self._adj

    def metis_text(self):
        """Weighted METIS text (fmt 10, 1-indexed neighbors)."""
        nbrs = [[] for _ in self.weights]
        for i, j in self.edges:
            nbrs[i].append(j + 1)
            nbrs[j].append(i + 1)
        lines = [f"{self.n} {len(self.edges)} 10"]
        for w, ns in zip(self.weights, nbrs):
            lines.append(" ".join(map(str, [w] + sorted(ns))))
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.metis_text())


def c5_graphs(count=100, n=60, p=4 / 59, seed=0xC5, wmin=1, wmax=200):
    rnd = random.Random(seed)
    out = []
    for k in range(count):
        weights = [rnd.randint(wmin, wmax) for _ in range(n)]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rnd.random() < p]
        out.append(Instance(f"c5-{k:03d}", weights, edges))
    return out


def sparse_graph(n, m, seed, wmin=1, wmax=200):
    if m > n * (n - 1) // 2:
        raise ValueError(f"{m} edges do not fit on {n} vertices")
    rng = SplitMix64(seed)
    weights = [rng.randint(wmin, wmax) for _ in range(n)]
    seen = set()
    while len(seen) < m:
        u = rng.randint(0, n - 1)
        v = rng.randint(0, n - 1)
        if u != v:
            seen.add((u, v) if u < v else (v, u))
    return Instance(f"sparse-n{n}-m{m}-s{seed}", weights, sorted(seen))


def gnp_graph(n, p, seed, wmin=1, wmax=200):
    rng = SplitMix64(seed)
    weights = [rng.randint(wmin, wmax) for _ in range(n)]
    threshold = int(p * (1 << 64))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.next_u64() < threshold]
    return Instance(f"gnp-n{n}-p{p}-s{seed}", weights, edges)
