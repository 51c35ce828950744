"""Portable deterministic random numbers (SplitMix64).

Generated corpora must be reproducible bit-for-bit across platforms and
languages, so instead of relying on any runtime's default generator we pin
SplitMix64 (Steele, Lea & Flood; the java.util.SplittableRandom finalizer):

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

all arithmetic modulo 2^64.  Integers in [lo, hi] are drawn by rejection
sampling on the raw 64-bit stream, and G(n, p) edges are decided by comparing
one draw per vertex pair (ascending pair order) against floor(p * 2^64).
"""

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed):
        self._state = seed & MASK64

    def next_u64(self):
        self._state = (self._state + _GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def randint(self, lo, hi):
        """Uniform integer in [lo, hi], rejection-sampled to avoid modulo bias."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span > 1 << 64:
            # no 64-bit draw covers it: the rejection limit would be 0
            raise ValueError(f"range [{lo}, {hi}] is wider than 2^64")
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span


def assign_random_weights(g, lo=1, hi=200, seed=0):
    """Reweight every active vertex uniformly from [lo, hi], ascending id order."""
    if lo < 1:
        raise ValueError("weights must stay >= 1")
    rng = SplitMix64(seed)
    for v in g.active_vertices():
        g.set_weight(v, rng.randint(lo, hi))


def random_gnp_graph(n, p, seed, wmin=1, wmax=200):
    """G(n, p) with uniform integer weights, fully determined by the seed.

    One generator stream: n weight draws first (vertex 0..n-1), then one raw
    draw per pair (i, j), i < j ascending, adding the edge when the draw is
    below floor(p * 2^64).
    """
    from .graph import new_graph

    rng = SplitMix64(seed)
    weights = [rng.randint(wmin, wmax) for _ in range(n)]
    g = new_graph(n, weights)
    threshold = int(p * (1 << 64))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next_u64() < threshold:
                g.add_edge(i, j)
    g.take_changed()
    return g


def random_path_graph(n, seed, wmin=1, wmax=200, cycle=False):
    """Path (or cycle) 0-1-..-(n-1) with uniform integer weights from the seed."""
    from .graph import new_graph

    rng = SplitMix64(seed)
    weights = [rng.randint(wmin, wmax) for _ in range(n)]
    g = new_graph(n, weights)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    if cycle and n > 2:
        g.add_edge(0, n - 1)
    g.take_changed()
    return g
