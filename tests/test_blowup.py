import random
import time

import pytest

import mwis
from mwis import (BlowupConfig, BlowupState, TransformLog, blow_up,
                  cyclic_blow_up, lift, make_blowup_config,
                  neighborhood_fingerprint, preprocess, verify_lift)
from mwis.blowup import CHANGED, NO_CANDIDATE, estimate_L

from reference import mwis_oracle, random_graph


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
        assert cfg.beta == 2.0
        assert cfg.variant == "extended"
        assert cfg.reduce_cfg.variant == cfg.variant
        assert cfg.reduce_cfg.d_max == cfg.d_max
    with pytest.raises(ValueError):
        make_blowup_config("turbo")


def test_preset_overrides_flow_into_reduce_cfg():
    cfg = make_blowup_config("cyclic-fast", d_max=7, variant="modified", X=3)
    assert cfg.X == 3 and cfg.d_max == 7
    assert cfg.reduce_cfg.d_max == 7
    assert cfg.reduce_cfg.variant == "modified"
    assert make_blowup_config("nonincreasing", X=5, n_max=None).X == 5


def test_direct_config_drives_reduce_cfg():
    cfg = BlowupConfig(variant="modified", d_max=7)
    assert cfg.reduce_cfg.variant == "modified"
    assert cfg.reduce_cfg.d_max == 7


def test_blow_up_picks_cheapest_candidate(c4a):
    # keys b - (deg+1): v0 0, v1 -1, v2 -2, v3 -1; vertex 2 wins
    state = BlowupState()
    log = TransformLog()
    status, center, seeds = blow_up(c4a, state, BlowupConfig(), log)
    assert status == CHANGED
    assert center == 2
    assert log.offset == 3
    # {1,2,3} replaced by one set-vertex adjacent to 0
    assert c4a.counts() == (2, 1)
    assert seeds


def test_blow_up_no_candidate_when_all_excluded(c4a):
    state = BlowupState()
    for v in c4a.active_vertices():
        state.excluded[v] = neighborhood_fingerprint(c4a, v)
    snap = c4a.copy()
    status, center, _ = blow_up(c4a, state, BlowupConfig(), TransformLog())
    assert status == NO_CANDIDATE and center is None
    assert c4a == snap


def test_blow_up_degree_cap_applies(c4a):
    state = BlowupState()
    cfg = BlowupConfig(d_max=1)
    status, _, _ = blow_up(c4a, state, cfg, TransformLog())
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
    state = BlowupState()
    for v in range(1, 6):
        state.excluded[v] = neighborhood_fingerprint(g, v)
    cfg = BlowupConfig(n_max=512)
    log = TransformLog()
    status, center, _ = blow_up(g, state, cfg, log)
    # one tightness abort, then success with the doubled bound
    assert status == CHANGED and center == 0
    assert g.counts()[0] == 26
    assert log.offset == 1


def test_blow_up_nmax_abort_excludes_center():
    g = _pair_bomb(5)
    state = BlowupState()
    for v in range(1, 6):
        state.excluded[v] = neighborhood_fingerprint(g, v)
    snap = g.copy()
    cfg = BlowupConfig(n_max=5)   # 26 needed, global cap 5: hopeless
    status, center, _ = blow_up(g, state, cfg, TransformLog())
    assert status == NO_CANDIDATE and center is None
    assert 0 in state.excluded
    assert g == snap


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


def test_preprocess_dispatch(s3, c4a):
    res = preprocess(s3, "nonincreasing")
    assert res.kernel.counts() == (0, 0) and res.offset == 5
    res2 = preprocess(c4a, "cyclic-fast")
    assert res2.offset == 4
    with pytest.raises(ValueError):
        preprocess(mwis.new_graph(1, [1]), "bogus")
