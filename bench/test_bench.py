"""Tests of the benchmark itself: inputs, output checks and the layer trace.

    python3 -m pytest -q bench
"""

import random
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import mwis  # noqa: E402
import mwis.cli  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
from layertrace import RULES, Tracer, per_layer_names  # noqa: E402

SMALL_GNP = (45, 0.15, 1)  # 18 branches under nonincreasing


def _small_workload():
    """A few seconds of ops touching every layer: three presets on small
    c5 graphs, two on a sparse graph, and one branching solve."""
    g = inputs.gnp_graph(*SMALL_GNP)
    graphs = inputs.c5_graphs(count=4) + [inputs.sparse_graph(600, 1000, 7), g]
    opt, _ = mwis.brute_force_mwis(_dyn(g), size_limit=g.n)
    ops = [run.Op("reduce", i, p) for i in range(4) for p in run.PRESETS]
    ops += [run.Op("reduce", 4, p) for p in run.PRESETS[:2]]
    ops.append(run.Op("solve", 5, "nonincreasing", opt))
    return graphs, ops


def _dyn(inst):
    g = mwis.new_graph(inst.n, inst.weights)
    for u, v in inst.edges:
        g.add_edge(u, v)
    return g


def _run(graphs, ops, workdir, trace):
    tracer = Tracer().install() if trace else None
    try:
        main = tracer.wrap("cli.op", mwis.cli.main) if tracer else None
        runner = run.Runner(graphs, workdir, main)
        res = run.run_pass(runner, ops, list(range(len(ops))))
    finally:
        if tracer:
            tracer.uninstall()
    return res, tracer


def test_c5_stream_matches_acceptance_corpus():
    from reference import random_graph

    rnd = random.Random(0xC5)
    for inst in inputs.c5_graphs(count=3):
        ref = random_graph(rnd, 60, 4 / 59, wmin=1, wmax=200)
        assert _dyn(inst) == ref


def test_gnp_stream_matches_program_generator():
    inst = inputs.gnp_graph(50, 0.1, 9)
    assert _dyn(inst) == mwis.random_gnp_graph(50, 0.1, 9)


def test_sparse_sampler_is_seeded_and_simple():
    a = inputs.sparse_graph(300, 500, 4)
    assert a == inputs.sparse_graph(300, 500, 4)
    assert a.edges != inputs.sparse_graph(300, 500, 5).edges
    assert len(set(a.edges)) == 500
    assert all(u < v for u, v in a.edges)


@pytest.fixture(scope="module")
def both_runs(tmp_path_factory):
    graphs, ops = _small_workload()
    plain_dir = tmp_path_factory.mktemp("plain")
    traced_dir = tmp_path_factory.mktemp("traced")
    plain, _ = _run(graphs, ops, plain_dir, trace=False)
    traced, tracer = _run(graphs, ops, traced_dir, trace=True)
    return plain_dir, plain, traced_dir, traced, tracer


def test_small_workload_passes_every_check(both_runs):
    _, plain, _, traced, _ = both_runs
    assert plain.errors == [] and traced.errors == []
    assert plain.attempted == traced.attempted == len(_small_workload()[1])
    assert plain.kernel_n == traced.kernel_n


def test_traced_run_writes_identical_files(both_runs):
    plain_dir, _, traced_dir, _, _ = both_runs
    names = sorted(p.name for p in plain_dir.iterdir())
    assert names == sorted(p.name for p in traced_dir.iterdir())
    assert any(n.endswith(".meta.json") for n in names)
    assert any(n.endswith(".sol") for n in names)
    for name in names:
        assert (plain_dir / name).read_bytes() == (traced_dir / name).read_bytes()


def test_traced_counters_equal_program_stats(both_runs):
    _, _, _, traced, tracer = both_runs
    m = tracer.metrics(traced.seconds, traced.attempted, traced.failed)
    stats = tracer.program_stats
    for rule in RULES:
        assert m[f"reductions.{rule}.fired"] == stats[rule], rule
    assert m["blowup.phases"] == stats["blowup_phases"] > 0
    assert m["blowup.accepts"] == stats["blowup_accepts"] > 0
    assert m["blowup.rejects"] == stats["blowup_rejects"] > 0
    assert m["solver.branches"] == stats["branches"] > 0
    assert m["solver.max_depth"] == stats["max_depth"]
    assert set(m) == {name for name, _unit in per_layer_names()}


def test_trace_uninstall_restores_the_program():
    originals = (mwis.cli.parse_graph, mwis.solver._search,
                 dict(mwis.struction.VARIANT_OPS),
                 dict(mwis.reductions._SIMPLE_RULES), mwis.DynGraph.copy)
    Tracer().install().uninstall()
    assert originals == (mwis.cli.parse_graph, mwis.solver._search,
                         dict(mwis.struction.VARIANT_OPS),
                         dict(mwis.reductions._SIMPLE_RULES),
                         mwis.DynGraph.copy)


def test_corrupted_solution_is_a_failed_op(tmp_path, monkeypatch):
    """The declared weight is the optimum, but one member is missing."""
    graphs, ops = _small_workload()
    real = mwis.cli.write_solution
    monkeypatch.setattr(mwis.cli, "write_solution",
                        lambda path, weight, ids: real(path, weight,
                                                       sorted(ids)[1:]))
    res, _ = _run(graphs, ops[-1:], tmp_path, trace=False)
    assert (res.attempted, res.failed) == (1, 1)
    assert "check" in res.errors[0]


def test_corrupted_kernel_log_is_a_failed_op(tmp_path, monkeypatch):
    graphs, ops = _small_workload()
    real = mwis.metisio.to_bytes
    monkeypatch.setattr(mwis.metisio, "to_bytes",
                        lambda log: real(mwis.TransformLog()))
    res, _ = _run(graphs, ops[:3], tmp_path, trace=False)
    assert (res.attempted, res.failed) == (3, 3)


def test_watchdog_fails_the_rest_of_the_pass(tmp_path):
    graphs, ops = _small_workload()
    calls = []

    def main(argv):
        calls.append(argv)
        if len(calls) == 2:
            raise run.OpTimeout
        return mwis.cli.main(argv)

    res = run.run_pass(run.Runner(graphs, tmp_path, main), ops[:5], range(5))
    assert (res.attempted, res.failed) == (5, 4)


def test_speed_probe_scales_op_times(tmp_path):
    graphs, ops = _small_workload()
    runner = run.Runner(graphs, tmp_path)
    runner.probe.start()
    try:
        res = run.run_pass(runner, ops, range(3))
    finally:
        runner.probe.stop()
    probe = runner.probe
    assert len(probe.samples) >= 10
    assert probe.scale() == run.PROBE_REF_S / statistics.median(probe.samples)
    metrics = run.end_to_end([res], 0.1, probe)
    assert metrics["ops_s"] == pytest.approx(
        probe.scale() * sum(res.seconds.values()))
    assert metrics["kernel_n"] == 29


def test_missing_program_exits_nonzero_without_result(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "gnp-solve"]) != 0
    assert capsys.readouterr().out == ""
