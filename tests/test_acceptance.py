"""Acceptance suite: one test per gating criterion, each printing a summary
line (run with -s to see them).  Time limits are asserted, not just observed.

The oracles are layered: small original graphs use the independent
subset-enumeration oracle from reference.py, transformed graphs (which can
outgrow subset enumeration) use the package's exhaustive search, which is
itself validated against the reference oracle on its own corpus here and in
test_solver.py.
"""

import contextlib
import gzip
import io
import os
import random
import time

import pytest

import mwis
from mwis import NotMinimal, TransformLog, lift, verify_lift

from reference import cycle_mwis, mwis_oracle, path_mwis, random_graph


def _report(name, elapsed, limit, detail):
    print(f"\n[acceptance] {name}: PASS in {elapsed:.1f}s "
          f"(limit {limit:.0f}s) - {detail}")


def test_criterion_1_struction_lemma_suite():
    """All four variants satisfy the shifted-optimum identity and lift
    correctly on 500 random graphs, every valid center of degree <= 8."""
    t0 = time.time()
    rnd = random.Random(0xC1)
    checks = 0
    for trial in range(500):
        n = rnd.randint(3, 12)
        p = rnd.choice([0.2, 0.4, 0.6])
        g0 = random_graph(rnd, n, p, wmin=1, wmax=9)
        w0, _ = mwis_oracle(g0, limit=12)
        for variant, op in mwis.VARIANT_OPS.items():
            for v in g0.active_vertices():
                if g0.degree(v) > 8:
                    continue
                g = g0.copy()
                log = TransformLog()
                try:
                    out = op(g, v, cap=10**9, log=log)
                except NotMinimal:
                    continue
                assert not isinstance(out, mwis.Aborted), (trial, variant, v)
                w1, s1 = mwis.brute_force_mwis(g, size_limit=500)
                assert w0 == w1 + log.offset, (trial, variant, v)
                lifted = lift(log, s1)
                assert verify_lift(g0, lifted, w0), (trial, variant, v)
                checks += 1
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 1 took {elapsed:.1f}s, limit 120s"
    _report("criterion 1 (struction lemma, 4 variants)", elapsed, 120,
            f"{checks} center applications over 500 graphs")


def test_criterion_2_reduction_rule_safety():
    """Each of the four simple rules preserves optimum + offset at every
    position where it fires, on 500 random graphs."""
    t0 = time.time()
    rules = (mwis.clique_neighborhood_removal, mwis.degree_two_fold,
             mwis.domination, mwis.twin_merge)
    rnd = random.Random(0xC2)
    firings = 0
    for trial in range(500):
        n = rnd.randint(2, 12)
        g0 = random_graph(rnd, n, rnd.choice([0.2, 0.4, 0.6]), wmin=1, wmax=9)
        w0, _ = mwis_oracle(g0, limit=12)
        for rule in rules:
            for v in g0.active_vertices():
                g = g0.copy()
                log = TransformLog()
                if not rule(g, v, log):
                    assert g == g0, (trial, rule.__name__, v)
                    continue
                w1, s1 = mwis.brute_force_mwis(g, size_limit=500)
                assert w0 == w1 + log.offset, (trial, rule.__name__, v)
                assert verify_lift(g0, lift(log, s1), w0), \
                    (trial, rule.__name__, v)
                firings += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s, limit 60s"
    _report("criterion 2 (simple-rule safety)", elapsed, 60,
            f"{firings} rule firings over 500 graphs")


def test_criterion_3_pipeline_exactness():
    """solve() under every preset equals the oracle on 1000 random graphs,
    and every solution lifts to a verified original-graph solution."""
    t0 = time.time()
    rnd = random.Random(0xC3)
    cross_checked = 0
    for trial in range(1000):
        n = rnd.randint(4, 20)
        p = rnd.choice([0.1, 0.2, 0.3, 0.5])
        g = random_graph(rnd, n, p, wmin=1, wmax=200)
        ow, _ = mwis.brute_force_mwis(g)
        if n <= 12:
            assert ow == mwis_oracle(g, limit=12)[0], trial
            cross_checked += 1
        for mode in mwis.PRESETS:
            res = mwis.solve(g.copy(), mode)
            assert res.status == mwis.OPTIMAL, (trial, mode)
            assert res.weight == ow, (trial, mode, res.weight, ow)
            assert verify_lift(g, res.solution, res.weight), (trial, mode)
    elapsed = time.time() - t0
    assert elapsed < 600, f"criterion 3 took {elapsed:.1f}s, limit 600s"
    _report("criterion 3 (pipeline exactness, 3 presets)", elapsed, 600,
            f"3000 solves, {cross_checked} independently cross-checked oracles")


def test_criterion_4_degree_two_emptiness():
    """Non-increasing reduction alone empties every weighted path and cycle,
    with offset equal to the independent dynamic-programming optimum."""
    t0 = time.time()
    rnd = random.Random(0xC4)
    for trial in range(200):
        n = rnd.randint(2, 50)
        cycle = trial % 2 == 1 and n >= 3
        ws = [rnd.randint(1, 200) for _ in range(n)]
        g = mwis.new_graph(n, ws)
        for i in range(n - 1):
            g.add_edge(i, i + 1)
        if cycle:
            g.add_edge(n - 1, 0)
        expect = cycle_mwis(ws) if cycle else path_mwis(ws)
        res = mwis.preprocess(g)
        assert res.kernel.counts() == (0, 0), (trial, n, cycle)
        assert res.offset == expect, (trial, n, cycle)
        lifted = lift(res.log, set())
        g2 = mwis.new_graph(n, ws)
        for i in range(n - 1):
            g2.add_edge(i, i + 1)
        if cycle:
            g2.add_edge(n - 1, 0)
        assert verify_lift(g2, lifted, expect), (trial, n, cycle)
    elapsed = time.time() - t0
    assert elapsed < 10, f"criterion 4 took {elapsed:.1f}s, limit 10s"
    _report("criterion 4 (path/cycle emptiness)", elapsed, 10,
            "200 paths and cycles, offsets match the DP oracle")


def test_criterion_5_cyclic_dominance():
    """On sparse graphs every mode's final kernel is never larger than the
    plain reduction kernel produced at the start of that same run."""
    t0 = time.time()
    rnd = random.Random(0xC5)
    improved = 0
    for trial in range(100):
        g = random_graph(rnd, 60, 4 / 59, wmin=1, wmax=200)
        base = mwis.preprocess(g.copy(), "nonincreasing")
        base_n = base.kernel.counts()[0]
        for mode in ("cyclic-fast", "cyclic-strong"):
            res = mwis.preprocess(g.copy(), mode)
            final_n = res.kernel.counts()[0]
            initial_n = res.stats["initial_kernel_n"]
            assert initial_n == base_n, (trial, mode)
            assert final_n <= initial_n, (trial, mode, final_n, initial_n)
            if final_n < initial_n:
                improved += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 5 took {elapsed:.1f}s, limit 60s"
    _report("criterion 5 (cyclic dominance)", elapsed, 60,
            f"100 graphs x 2 cyclic modes, {improved} strict improvements")


def test_criterion_6_determinism(tmp_path):
    """Identical (instance, seed, preset) runs produce byte-identical
    kernel, solution, and stats files."""
    from mwis.cli import main as cli_main

    def main(args):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli_main(args)

    t0 = time.time()
    instances = [
        ("gnp", ["gen", "--n", "40", "--p", "0.15", "--seed", "11"]),
        ("path", ["gen", "--type", "path", "--n", "50", "--seed", "12"]),
        ("dense", ["gen", "--n", "18", "--p", "0.5", "--seed", "13"]),
    ]
    compared = 0
    for name, gen_args in instances:
        graph = str(tmp_path / f"{name}.graph")
        assert main(gen_args + ["--out", graph]) == 0
        for mode in mwis.PRESETS:
            out = {}
            for run in ("a", "b"):
                d = tmp_path / f"{name}-{mode}-{run}"
                d.mkdir()
                kernel = str(d / "kernel.graph")
                rstats = str(d / "reduce.stats")
                assert main(["reduce", "--in", graph, "--out", kernel,
                             "--mode", mode, "--stats", rstats]) == 0
                sol = str(d / "out.sol")
                sstats = str(d / "solve.stats")
                assert main(["solve", "--in", graph, "--mode", mode,
                             "--sol", sol, "--stats", sstats]) == 0
                out[run] = [(p, (d / p).read_bytes()) for p in
                            ("kernel.graph", "kernel.graph.meta.json",
                             "reduce.stats", "out.sol", "solve.stats")]
            assert out["a"] == out["b"], (name, mode)
            compared += len(out["a"])
    elapsed = time.time() - t0
    _report("criterion 6 (byte determinism)", elapsed, 60,
            f"{compared} file pairs byte-identical across 3 instances x 3 modes")


ROADNET_ENV = "MWIS_ROADNET_PA"
ROADNET_SEED = 1


def _load_snap_edges(path):
    opener = gzip.open if path.endswith(".gz") else open
    ids = {}
    edges = set()
    with opener(path, "rt") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            a, b = line.split()
            if a == b:
                continue
            for t in (a, b):
                if t not in ids:
                    ids[t] = len(ids)
            u, v = ids[a], ids[b]
            edges.add((min(u, v), max(u, v)))
    g = mwis.new_graph(len(ids), [1] * len(ids))
    for u, v in sorted(edges):
        g.add_edge(u, v)
    return g


@pytest.mark.skipif(ROADNET_ENV not in os.environ,
                    reason=f"optional network check; set {ROADNET_ENV} to the "
                           "downloaded roadNet-PA edge list (see README)")
def test_criterion_7_roadnet_pa_empties():
    """Road-network spot check: cyclic-fast reduces the seeded roadNet-PA
    instance to an empty kernel (seed documented in the README)."""
    t0 = time.time()
    g = _load_snap_edges(os.environ[ROADNET_ENV])
    mwis.assign_random_weights(g, 1, 200, seed=ROADNET_SEED)
    n0 = g.counts()[0]
    res = mwis.preprocess(g, "cyclic-fast")
    elapsed = time.time() - t0
    assert res.kernel.counts()[0] == 0, res.kernel.counts()
    _report("criterion 7 (roadNet-PA, optional)", elapsed, float("inf"),
            f"{n0} vertices reduced to an empty kernel with seed {ROADNET_SEED}")
