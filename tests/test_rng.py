from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import mwis
from mwis import SplitMix64, assign_random_weights, random_gnp_graph
from mwis.rng import random_path_graph


def test_splitmix64_reference_vector_seed_1234567():
    # published reference outputs for the SplitMix64 finalizer
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_splitmix64_reference_vector_seed_0():
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_randint_bounds_and_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    xs = [a.randint(1, 200) for _ in range(1000)]
    assert xs == [b.randint(1, 200) for _ in range(1000)]
    assert min(xs) >= 1 and max(xs) <= 200


def test_randint_degenerate_range():
    r = SplitMix64(5)
    assert all(r.randint(7, 7) == 7 for _ in range(10))
    with pytest.raises(ValueError):
        r.randint(3, 2)


def test_randint_refuses_a_range_wider_than_the_draw():
    # 2^64 values are the widest range one 64-bit draw covers
    r, raw = SplitMix64(5), SplitMix64(5)
    assert r.randint(1, 2**64) == raw.next_u64() + 1
    for lo, hi in ((0, 2**64), (1, 2**65), (-2**70, 2**70)):
        with pytest.raises(ValueError, match="wider than 2"):
            r.randint(lo, hi)


def test_randint_roughly_uniform():
    r = SplitMix64(99)
    counts = Counter(r.randint(0, 9) for _ in range(20000))
    for d in range(10):
        assert 1700 < counts[d] < 2300


def test_assign_random_weights_deterministic(c4a):
    g1, g2 = c4a.copy(), c4a.copy()
    assign_random_weights(g1, 1, 200, seed=7)
    assign_random_weights(g2, 1, 200, seed=7)
    assert [g1.weight(v) for v in g1.active_vertices()] == \
           [g2.weight(v) for v in g2.active_vertices()]
    assign_random_weights(g2, 1, 200, seed=8)
    assert g1 != g2


def test_assign_random_weights_rejects_zero_floor(c4a):
    with pytest.raises(ValueError):
        assign_random_weights(c4a, 0, 5, seed=1)


def test_gnp_graph_deterministic_and_weighted():
    g1 = random_gnp_graph(30, 0.2, seed=11)
    g2 = random_gnp_graph(30, 0.2, seed=11)
    assert g1 == g2
    assert random_gnp_graph(30, 0.2, seed=12) != g1
    assert all(1 <= g1.weight(v) <= 200 for v in g1.active_vertices())


def test_gnp_edge_probability_extremes():
    assert random_gnp_graph(10, 0.0, seed=3).counts() == (10, 0)
    assert random_gnp_graph(10, 1.0, seed=3).counts() == (10, 45)


def test_path_and_cycle_shapes():
    p = random_path_graph(6, seed=1)
    assert p.counts() == (6, 5)
    c = random_path_graph(6, seed=1, cycle=True)
    assert c.counts() == (6, 6)
    assert c.is_adjacent(0, 5)
    # same seed, same weights regardless of the closing edge
    assert [p.weight(v) for v in range(6)] == [c.weight(v) for v in range(6)]


@given(seed=st.integers(0, 2**64 - 1), lo=st.integers(1, 50),
       span=st.integers(0, 50))
@settings(max_examples=100, deadline=None)
def test_randint_always_in_range(seed, lo, span):
    r = SplitMix64(seed)
    hi = lo + span
    for _ in range(20):
        assert lo <= r.randint(lo, hi) <= hi
