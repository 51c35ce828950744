import random
import re
from dataclasses import FrozenInstanceError, fields, replace
import time

import pytest

import mwis
from mwis import (BlowupConfig, TransformLog, blow_up, cyclic_blow_up, lift,
                  make_blowup_config, preprocess, verify_lift)
from mwis import blowup as blowup_mod
from mwis.blowup import CHANGED, EXCLUDED, NO_CANDIDATE, estimate_L
from mwis.translog import to_bytes

from reference import bench_inputs, local_state, mwis_oracle, random_graph


def test_estimate_L_counts_small_exceeding_sets(c4a):
    # center 0 (w1): two heavier singletons plus the non-adjacent pair
    assert estimate_L(c4a, 0) == 3
    assert estimate_L(c4a, 1) == 2
    assert estimate_L(c4a, 2) == 1
    assert estimate_L(c4a, 3) == 2


def test_presets():
    plain = make_blowup_config("nonincreasing")
    assert (plain.X, plain.n_max, plain.d_max) == (0, 512, 64)
    fast = make_blowup_config("cyclic-fast")
    assert (fast.X, fast.n_max, fast.d_max) == (25, 512, 64)
    strong = make_blowup_config("cyclic-strong")
    assert (strong.X, strong.n_max, strong.d_max) == (64, 2048, 512)
    for cfg in (plain, fast, strong):
        assert cfg.variant == "extended"
        assert cfg.rules == mwis.RULE_ORDER
    for mode, cfg in mwis.PRESETS.items():
        assert isinstance(cfg, BlowupConfig)
        assert make_blowup_config(mode) is cfg
        # callers share the preset object, so it must not change under them
        with pytest.raises(FrozenInstanceError):
            cfg.X = 6
    assert fast.X == 25
    with pytest.raises(ValueError):
        make_blowup_config("turbo")


def test_blow_up_picks_cheapest_candidate(c4a):
    # keys b - (deg+1): v0 0, v1 -1, v2 -2, v3 -1; vertex 2 wins
    log = TransformLog()
    status, center = blow_up(c4a, {}, BlowupConfig(), log)
    assert status == CHANGED
    assert center == 2
    assert log.offset == 3
    # {1,2,3} replaced by one set-vertex adjacent to 0
    assert c4a.counts() == (2, 1)
    # the struction's change is left on the record for the re-reduction
    assert {x for x in c4a.take_changed() if c4a.is_active(x)} == {0, 4}


def test_blow_up_no_candidate_when_all_excluded(c4a):
    bounds = dict.fromkeys(c4a.active_vertices(), EXCLUDED)
    snap = c4a.copy()
    status, center = blow_up(c4a, bounds, BlowupConfig(), TransformLog())
    assert status == NO_CANDIDATE and center is None
    assert c4a == snap


def test_blow_up_degree_cap_applies(c4a):
    cfg = BlowupConfig(d_max=1)
    status, _ = blow_up(c4a, {}, cfg, TransformLog())
    assert status == NO_CANDIDATE


def _pair_bomb(k):
    """Center 0 (w1) with k independent neighbors of weight 1: L = C(k,2)
    but every subset of size >= 2 exceeds, so the first cap is too tight."""
    g = mwis.new_graph(k + 1, [1] * (k + 1))
    for u in range(1, k + 1):
        g.add_edge(0, u)
    return g


def test_blow_up_tightness_retry_doubles_bound():
    g = _pair_bomb(5)   # L=10, true count 2^5-5-1 = 26 > 2*10-1
    bounds = dict.fromkeys(range(1, 6), EXCLUDED)
    cfg = BlowupConfig(n_max=512)
    log = TransformLog()
    status, center = blow_up(g, bounds, cfg, log)
    # one tightness abort, then success with the doubled bound
    assert status == CHANGED and center == 0
    assert g.counts()[0] == 26
    assert log.offset == 1


def _count_attempts(monkeypatch, limit):
    """Record (center, cap) of every struction that blow_up attempts.  Past
    `limit` attempts the test fails, so a retry loop cannot hang it."""
    calls = []
    op = blowup_mod.VARIANT_OPS["extended"]

    def counted(K, v, cap, log):
        calls.append((v, cap))
        assert len(calls) <= limit, f"more than {limit} attempts: {calls[:8]}"
        return op(K, v, cap, log)

    monkeypatch.setitem(blowup_mod.VARIANT_OPS, "extended", counted)
    return calls


@pytest.mark.parametrize("n_max, caps, status", [
    (512, [(0, 19), (0, 39)], CHANGED),
    (25, [(0, 19), (0, 25)], NO_CANDIDATE),
    (19, [(0, 19)], NO_CANDIDATE),
])
def test_blow_up_retry_caps(monkeypatch, n_max, caps, status):
    """L = 10 on _pair_bomb(5), which needs 26 vertices: the caps are
    min(2*bound - 1, n_max) with the bound doubled per retry, and a failure
    at the n_max cap excludes the centre."""
    calls = _count_attempts(monkeypatch, 4)
    g = _pair_bomb(5)
    bounds = dict.fromkeys(range(1, 6), EXCLUDED)
    assert blow_up(g, bounds, BlowupConfig(n_max=n_max),
                   TransformLog())[0] == status
    assert calls == caps
    assert (bounds[0] is EXCLUDED) == (status == NO_CANDIDATE)


def test_blowup_config_fields():
    assert {f.name for f in fields(BlowupConfig)} == {
        "X", "n_max", "d_max", "variant", "rules"}


@pytest.mark.parametrize("key, value, named", [
    ("variant", "bogus", "'bogus'"),
    ("rules", ("domination", "twins"), "'twins'"),
    ("X", -1, "X must be >= 0, got -1"),
    ("n_max", -2, "n_max must be >= 0, got -2"),
    ("d_max", -3, "d_max must be >= 0, got -3"),
])
def test_blowup_config_rejects_a_bad_value(key, value, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        BlowupConfig(**{key: value})
    # replace builds a new config, so it checks again
    with pytest.raises(ValueError, match=re.escape(named)):
        replace(make_blowup_config("cyclic-fast"), **{key: value})


def test_preprocess_rejects_an_unknown_variant_before_any_work():
    # a path reduces without a struction, so only the config check sees
    # the variant there
    for g in (mwis.random_path_graph(30, 1), mwis.random_gnp_graph(40, 0.1, 1)):
        with pytest.raises(ValueError, match="'bogus'"):
            preprocess(g, variant="bogus")


def test_blow_up_retries_a_zero_bound(monkeypatch):
    """Center 0 (w10) with three independent neighbors of weight 4: no
    exceeding set of size <= 2 (L = 0) but the triple exceeds.  The first
    attempt runs at cap -1 and aborts; the retry runs at bound 1."""
    calls = _count_attempts(monkeypatch, 8)
    g = mwis.new_graph(4, [10, 4, 4, 4])
    for u in (1, 2, 3):
        g.add_edge(0, u)
    assert estimate_L(g, 0) == 0
    log = TransformLog()
    status, center = blow_up(g, {}, BlowupConfig(), log)
    assert status == CHANGED and center == 0
    assert calls == [(0, -1), (0, 1)]
    assert g.counts() == (1, 0)
    assert log.offset == 10


def test_blow_up_nmax_abort_excludes_center():
    g = _pair_bomb(5)
    bounds = dict.fromkeys(range(1, 6), EXCLUDED)
    snap = g.copy()
    cfg = BlowupConfig(n_max=5)   # 26 needed, global cap 5: hopeless
    status, center = blow_up(g, bounds, cfg, TransformLog())
    assert status == NO_CANDIDATE and center is None
    assert bounds[0] is EXCLUDED
    assert g == snap


def _watch_blow_up_attempts(monkeypatch):
    """(centre, cap, weighted G[N[centre]]) of every struction attempt that
    blow_up makes; the attempt reads nothing else."""
    keys = []
    inside = []

    def watched(op):
        def attempt(K, v, cap, log):
            if inside:
                keys.append((v, cap, local_state(K, v)))
            return op(K, v, cap, log)
        return attempt

    for name, op in list(blowup_mod.VARIANT_OPS.items()):
        monkeypatch.setitem(blowup_mod.VARIANT_OPS, name, watched(op))
    real = blowup_mod.blow_up

    def blow_up_watched(*args):
        inside.append(True)
        try:
            return real(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(blowup_mod, "blow_up", blow_up_watched)
    return keys


def test_rejected_phases_repeat_no_blow_up_attempt(monkeypatch):
    """A bound or an exclusion outlives every phase until the re-reduction
    of an accepted phase reports that G[N[v]] may have changed, and a
    rejected phase restores the graph it describes: under the extended
    variant no struction attempt of blow_up recurs within one cycle at the
    same centre, cap and G[N[centre]]."""
    keys = _watch_blow_up_attempts(monkeypatch)
    rnd = random.Random(0xC5)
    graphs = [random_graph(rnd, 40, 4 / 39, wmin=1, wmax=200) for _ in range(8)]
    rejects = accepts = attempts = repeats = 0
    for mode in ("cyclic-fast", "cyclic-strong"):
        for g in graphs:
            keys.clear()
            cfg = replace(make_blowup_config(mode), X=6)
            stats = cyclic_blow_up(g.copy(), cfg).stats
            rejects += stats["blowup_rejects"]
            accepts += stats["blowup_accepts"]
            attempts += len(keys)
            repeats += len(keys) - len(set(keys))
    assert repeats == 0, (repeats, attempts)
    assert rejects >= 5 and accepts >= 1 and attempts >= 15, (
        rejects, accepts, attempts)


def test_accepted_phases_repeat_no_blow_up_attempt(monkeypatch, tmp_path):
    """On a sparse benchmark graph with many accepted phases, clearing every
    bound on an accept re-ran 36 of 93 attempts; dropping only those the
    re-reduction returns repeats none."""
    keys = _watch_blow_up_attempts(monkeypatch)
    path = tmp_path / "sparse.graph"
    bench_inputs().sparse_graph(1000, 1750, seed=1).write(path)
    stats = preprocess(mwis.parse_graph(path), "cyclic-fast").stats
    assert len(keys) == len(set(keys)), (len(keys), len(set(keys)))
    assert stats["blowup_accepts"] >= 5 and len(keys) >= 40, (
        stats["blowup_accepts"], len(keys))


def test_cyclic_blow_up_preserves_weight():
    rnd = random.Random(41)
    for mode in ("cyclic-fast", "cyclic-strong"):
        for _ in range(30):
            g0 = random_graph(rnd, rnd.randint(4, 14), rnd.choice([0.2, 0.4]),
                              wmax=50)
            res = cyclic_blow_up(g0.copy(), make_blowup_config(mode))
            kn = res.kernel.counts()[0]
            kw, ks = (0, set()) if kn == 0 else \
                mwis.brute_force_mwis(res.kernel, size_limit=200)
            w0, _ = mwis_oracle(g0)
            assert w0 == kw + res.offset
            assert verify_lift(g0, lift(res.log, ks), w0)


def test_cyclic_never_beats_its_own_initial_kernel():
    rnd = random.Random(87)
    for _ in range(20):
        g = random_graph(rnd, 30, 4 / 29, wmax=200)
        res = cyclic_blow_up(g, make_blowup_config("cyclic-fast"))
        assert res.kernel.counts()[0] <= res.stats["initial_kernel_n"]


def test_cyclic_blow_up_is_deterministic():
    g1 = mwis.random_gnp_graph(40, 0.1, seed=5)
    g2 = mwis.random_gnp_graph(40, 0.1, seed=5)
    r1 = cyclic_blow_up(g1, make_blowup_config("cyclic-fast"))
    r2 = cyclic_blow_up(g2, make_blowup_config("cyclic-fast"))
    assert r1.kernel == r2.kernel
    assert r1.offset == r2.offset
    assert r1.log.events == r2.log.events
    assert r1.stats == r2.stats


def test_cyclic_stats_keys_always_present():
    g = mwis.random_gnp_graph(12, 0.3, seed=9)
    res = cyclic_blow_up(g, make_blowup_config("cyclic-fast"))
    for key in ("initial_kernel_n", "blowup_phases", "blowup_accepts",
                "blowup_rejects", "kernel_n", "kernel_m"):
        assert key in res.stats
    assert res.stats["blowup_phases"] == \
        res.stats["blowup_accepts"] + res.stats["blowup_rejects"]


def test_deadline_skips_phases():
    g = mwis.random_gnp_graph(60, 0.1, seed=13)
    res = cyclic_blow_up(g, make_blowup_config("cyclic-strong"),
                         deadline=time.monotonic() - 1)
    # no phase may start after an expired deadline
    assert res.stats["blowup_phases"] == 0
    assert res.stats["kernel_n"] == res.stats["initial_kernel_n"]


def test_cyclic_without_phases_is_nonincreasing():
    g = mwis.random_gnp_graph(40, 0.15, seed=1)
    plain = preprocess(g.copy(), "nonincreasing")
    x0 = cyclic_blow_up(g.copy(), replace(mwis.PRESETS["cyclic-fast"], X=0))
    fast = preprocess(g.copy(), "cyclic-fast")
    assert to_bytes(x0.log) == to_bytes(plain.log) != to_bytes(fast.log)
    assert x0.kernel == plain.kernel
    assert plain.kernel.counts()[0] == 31 and fast.kernel.counts()[0] == 0


def test_preprocess_dispatch(s3, c4a):
    res = preprocess(s3, "nonincreasing")
    assert res.kernel.counts() == (0, 0) and res.offset == 5
    res2 = preprocess(c4a, "cyclic-fast")
    assert res2.offset == 4
    with pytest.raises(ValueError):
        preprocess(mwis.new_graph(1, [1]), "bogus")
