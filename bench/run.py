"""Benchmark of the mwis `reduce` and `solve` commands on seeded workloads.

    python3 bench/run.py --workload c5-cyclic --seed 1 --seconds 40 --trace 0

Each workload is a fixed list of instances and commands ("ops").  The ops
run in this process, one after another, through ``mwis.cli.main`` exactly as
a user would invoke them; every op's output files are checked, untimed.
Passes over the op list repeat while another pass still fits in
``--seconds`` (there is always at least one); timings are medians over
passes.  Ops run preset by preset, and ``--seed`` shuffles the order of
the instances within each preset.  The instances themselves are
fixed, each from its own seeded stream (see inputs.py): on these graphs a
different instance changes kernel sizes and run times far more than the
bounds this benchmark enforces.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one pass runs under the layer
trace (layertrace.py) and the object holds the per-layer metrics.  The
lines before it list every metric with its unit.  Run artifacts go to
bench/out/.
"""

import argparse
import base64
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
from layertrace import PRESETS, Tracer, per_layer_names

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

RUN_LIMIT_S = 150         # a hung op fails the run before 180 s have passed
SOLVE_TIME_LIMIT_S = 100  # --time-limit of every solve op
SETUP_REPEATS = 5
PROBE_EVERY_S = 0.02      # CPU seconds between two speed probes
PROBE_REF_S = 0.0003      # probe time that defines a reference second


@dataclass(frozen=True)
class Op:
    kind: str          # "reduce" or "solve"
    graph: int         # index into the workload's instances
    mode: str          # preset
    expect: int = 0    # known optimum of a solve op

    @property
    def key(self):
        return f"reduce.{self.mode}" if self.kind == "reduce" else "solve"


def _c5_cyclic():
    graphs = inputs.c5_graphs()
    return graphs, [Op("reduce", i, p) for i in range(len(graphs))
                    for p in PRESETS]


def _sparse_reduce():
    graphs = [inputs.sparse_graph(10000, 17500, seed=1)]
    return graphs, [Op("reduce", 0, p) for p in PRESETS[:2]]


def _gnp_solve():
    graphs = [inputs.gnp_graph(150, 0.05, seed=2),
              inputs.gnp_graph(100, 0.1, seed=3)]
    return graphs, [Op("solve", 0, "nonincreasing", 5560),
                    Op("solve", 1, "nonincreasing", 3511)]


# sparse-reduce is for runs by hand: with it, the ~22 repeated runs per
# workload that checking a change takes no longer fit in 57 minutes
WORKLOADS = {"c5-cyclic": _c5_cyclic, "sparse-reduce": _sparse_reduce,
             "gnp-solve": _gnp_solve}

END_TO_END = (("setup_s", "s"), ("ops_s", "s"), ("kernel_n", "count"),
              ("peak_rss_mb", "MB"))
# printed, but too unsteady on a shared host to carry a bound: over 10 runs
# of c5-cyclic their quartile distance was 13-21% of the median, because
# they sum or rank ops of 10-50 ms, which see the host's short-term noise
UNBOUNDED = (("nonincreasing_s", "s"), ("op_p50_ms", "ms"),
             ("op_p96_ms", "ms"))


class SpeedProbe:
    """Samples the host's speed while ops run.

    The host shares its cores with other machines, and its speed drifts by
    10-20% within minutes; raw run times of c5-cyclic spread from 48 to
    64 s.  Every PROBE_EVERY_S of CPU time a SIGPROF handler times a fixed
    arithmetic loop that keeps no objects alive and so hardly depends on the
    program's heap.  Op times are reported in reference seconds: wall time
    (minus the probes) times PROBE_REF_S over the run's median probe time.
    """

    def __init__(self):
        self.samples = []   # probe seconds, taken while an op runs
        self.active = False
        self.spent = 0.0    # seconds spent in the handler

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        x = 0
        for i in range(3000):
            x = (x * 31 + i) % 65521
        t1 = time.perf_counter()
        if self.active:
            self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self):
        """Reference seconds per wall second."""
        if not self.samples:
            return 1.0
        return PROBE_REF_S / statistics.median(self.samples)


class OpTimeout(Exception):
    """Raised by the run watchdog."""


class CheckFailed(Exception):
    pass


def _read_stats(path):
    with open(path, encoding="ascii") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if line.strip())


def _check_independent(inst, ids, weight):
    """Independent check against the generated instance, not the program."""
    adj = inst.adjacency()
    for v in ids:
        if not 0 <= v < inst.n:
            raise CheckFailed(f"vertex {v + 1} is not in the graph")
        if adj[v] & ids:
            raise CheckFailed(f"edge inside the set at vertex {v + 1}")
    actual = sum(inst.weights[v] for v in ids)
    if actual != weight:
        raise CheckFailed(f"set weighs {actual}, expected {weight}")


class Runner:
    """Runs ops on one workload's files and checks every output."""

    def __init__(self, graphs, workdir, main=None, probe=None):
        import mwis
        import mwis.cli

        self.mwis = mwis
        self.graphs = graphs
        self.workdir = Path(workdir)
        self.main = main or mwis.cli.main
        self.probe = probe or SpeedProbe()
        self.originals = [None] * len(graphs)
        self.paths = []
        for inst in graphs:
            path = self.workdir / f"{inst.name}.graph"
            inst.write(path)
            self.paths.append(path)

    def original(self, i):
        """The instance as a DynGraph, built through the public API."""
        if self.originals[i] is None:
            inst = self.graphs[i]
            g = self.mwis.new_graph(inst.n, inst.weights)
            for u, v in inst.edges:
                g.add_edge(u, v)
            self.originals[i] = g
        return self.originals[i]

    def files(self, op):
        stem = self.workdir / f"{self.graphs[op.graph].name}.{op.kind}.{op.mode}"
        return {"out": f"{stem}.kernel", "sol": f"{stem}.sol",
                "stats": f"{stem}.stats"}

    def argv(self, op):
        f = self.files(op)
        src = str(self.paths[op.graph])
        if op.kind == "reduce":
            return ["reduce", "--in", src, "--out", f["out"], "--mode", op.mode,
                    "--stats", f["stats"]]
        return ["solve", "--in", src, "--mode", op.mode, "--sol", f["sol"],
                "--time-limit", str(SOLVE_TIME_LIMIT_S), "--stats", f["stats"]]

    def run(self, op):
        """(seconds, kernel_n, error): error is None when the op passed."""
        argv = self.argv(op)
        sink = io.StringIO()
        probe = self.probe
        gc.collect()  # start each op from a clean heap, like a fresh process
        spent = probe.spent
        probe.active = True
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = self.main(argv)
        except OpTimeout:
            raise
        except Exception as exc:  # a crashing op is a failed op
            return time.perf_counter() - t0, 0, f"{type(exc).__name__}: {exc}"
        finally:
            probe.active = False
        seconds = time.perf_counter() - t0 - (probe.spent - spent)
        if code != 0:
            return seconds, 0, f"exit code {code}: {sink.getvalue()[-300:]}"
        try:
            check = self.check_reduce if op.kind == "reduce" else self.check_solve
            return seconds, check(op), None
        except (CheckFailed, OSError, ValueError, KeyError,
                self.mwis.translog.LiftError) as exc:
            return seconds, 0, f"check: {type(exc).__name__}: {exc}"

    def check_reduce(self, op):
        """Re-read kernel and sidecar, lift a local-search solution of the
        kernel and verify it on the original graph."""
        mwis, f = self.mwis, self.files(op)
        stats = _read_stats(f["stats"])
        kernel = mwis.parse_graph(f["out"])
        with open(mwis.metisio.sidecar_path(f["out"]), encoding="ascii") as fh:
            meta = json.load(fh)
        log = mwis.translog.from_bytes(base64.b64decode(meta["log"]))
        n, m = kernel.counts()
        offset = meta["offset"]
        if (int(stats["kernel_n"]), int(stats["kernel_m"]),
                int(stats["offset"]), log.offset) != (n, m, offset, offset):
            raise CheckFailed(f"stats {stats} disagree with kernel ({n}, {m}) "
                              f"offset {offset}, log offset {log.offset}")
        to_internal = {ext - 1: v for v, ext in meta["id_map"]}
        if sorted(to_internal) != list(range(n)):
            raise CheckFailed("sidecar id map does not cover the kernel")
        kw, ksol = mwis.local_search(kernel, budget=0)
        lifted = mwis.lift(log, {to_internal[x] for x in ksol})
        if not mwis.verify_lift(self.original(op.graph), lifted, offset + kw):
            raise CheckFailed("lifted kernel solution fails verify_lift")
        _check_independent(self.graphs[op.graph], lifted, offset + kw)
        return n

    def check_solve(self, op):
        """Status optimal, and the solution file is an independent set of
        the input with the declared weight, which is the known optimum."""
        f = self.files(op)
        stats = _read_stats(f["stats"])
        if stats.get("status") != "optimal":
            raise CheckFailed(f"status {stats.get('status')}")
        with open(f["sol"], encoding="ascii") as fh:
            lines = fh.read().split()
        if lines[:1] != ["%weight"]:
            raise CheckFailed("solution lacks its %weight line")
        weight = int(lines[1])
        ids = {int(x) - 1 for x in lines[2:]}
        if weight != op.expect or int(stats["weight"]) != weight:
            raise CheckFailed(f"weight {weight} (stats {stats['weight']}), "
                              f"optimum {op.expect}")
        _check_independent(self.graphs[op.graph], ids, weight)
        return int(stats["kernel_n"])


@dataclass
class PassResult:
    seconds: dict      # op key -> summed op seconds
    latencies: list    # per-op seconds
    kernel_n: dict     # preset -> summed kernel vertices
    attempted: int = 0
    failed: int = 0
    errors: list = None


def run_pass(runner, ops, order, on_op=None):
    """One pass over the ops in the given order.  When the run watchdog
    fires, the op in progress and every op after it count as failed."""
    res = PassResult({}, [], {}, errors=[])
    for done, k in enumerate(order):
        op = ops[k]
        if on_op:
            on_op(k)
        try:
            seconds, kernel_n, error = runner.run(op)
        except OpTimeout:
            res.attempted, res.failed = len(order), res.failed + len(order) - done
            res.errors.append(f"run limit of {RUN_LIMIT_S} s reached at op {k}; "
                              f"{len(order) - done} ops failed")
            break
        res.attempted += 1
        res.seconds[op.key] = res.seconds.get(op.key, 0.0) + seconds
        res.latencies.append(seconds)
        res.kernel_n[op.mode] = res.kernel_n.get(op.mode, 0) + kernel_n
        if error:
            res.failed += 1
            res.errors.append(f"op {k} {' '.join(runner.argv(op))}: {error}")
    return res


def op_order(ops, seed):
    """A seeded shuffle, except that cyclic-strong ops run last.  Peak RSS
    depends on which ops precede the largest one: a full shuffle spreads it
    from 158 to 195 MB on c5-cyclic."""
    order = list(range(len(ops)))
    random.Random(seed).shuffle(order)
    return sorted(order, key=lambda k: ops[k].mode == "cyclic-strong")


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _setup_child(workload, workdir):
    """One set-up: import the program, generate and write the inputs."""
    sys.path.insert(0, str(SRC))
    import mwis.cli  # noqa: F401  (timed: the import is part of set-up)

    graphs, _ops = WORKLOADS[workload]()
    for inst in graphs:
        inst.write(Path(workdir) / f"{inst.name}.graph")


def measure_setup(workload, repeats=SETUP_REPEATS):
    """Median wall time of fresh processes that import mwis and write the
    workload's input files."""
    times = []
    for i in range(repeats):
        d = OUT / f"setup-{os.getpid()}-{i}"
        d.mkdir(parents=True, exist_ok=True)
        try:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--setup-only", str(d), "--workload", workload],
                           check=True, capture_output=True, timeout=60)
            times.append(time.perf_counter() - t0)
        finally:
            shutil.rmtree(d, ignore_errors=True)
    return statistics.median(times)


def _on_alarm(signum, frame):
    raise OpTimeout


def measure(workload, seed, seconds, trace, workdir, started):
    graphs, ops = WORKLOADS[workload]()
    order = op_order(ops, seed)
    tracer = main = on_op = None
    if trace:
        import mwis.cli

        tracer = Tracer().install()
        main = tracer.wrap("cli.op", mwis.cli.main)

        def on_op(k):
            tracer.op = k
    runner = Runner(graphs, workdir, main)

    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL,
                     max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)))
    passes = []
    if not trace:  # per-layer times stay raw wall time
        runner.probe.start()
    try:
        budget_end = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            passes.append(run_pass(runner, ops, order, on_op))
            took = time.perf_counter() - t0
            if (trace or passes[-1].failed
                    or time.perf_counter() + took > budget_end):
                break
    finally:
        runner.probe.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        if tracer:
            tracer.uninstall()
    return passes, tracer, runner.probe


def end_to_end(passes, setup_s, probe):
    """End-to-end metrics, bounded and printed-only; op times in
    reference seconds."""
    med = statistics.median
    scale = probe.scale()
    latencies = [s * scale for p in passes for s in p.latencies]
    return {
        "setup_s": setup_s,
        "ops_s": scale * med(sum(p.seconds.values()) for p in passes),
        "nonincreasing_s": scale * med(
            sum(s for k, s in p.seconds.items()
                if k in ("reduce.nonincreasing", "solve")) for p in passes),
        "op_p50_ms": 1000 * nearest_rank(latencies, 0.50),
        "op_p96_ms": 1000 * nearest_rank(latencies, 0.96),
        "kernel_n": sum(passes[0].kernel_n.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report_untraced(workload, passes, metrics, probe):
    """Print every end-to-end figure, per preset too, raw and in reference
    seconds; save them for the overhead line of a later traced run."""
    med = statistics.median
    keys = sorted({k for p in passes for k in p.seconds})
    per_key = {k: med(p.seconds.get(k, 0.0) for p in passes) for k in keys}
    samples = sum(len(p.latencies) for p in passes)
    print(f"probe {PROBE_REF_S / probe.scale() * 1e6:.1f} us median of "
          f"{len(probe.samples)}; reference s per wall s {probe.scale():.4f}")
    for k in keys:
        print(f"{k}_s {per_key[k] * probe.scale():.4f} s "
              f"(wall {per_key[k]:.4f} s)")
    for mode, n in sorted(passes[0].kernel_n.items()):
        print(f"kernel_n.{mode} {n} count")
    for name, unit in END_TO_END + UNBOUNDED:
        value = metrics[name]
        print(f"{name} {value:.4f} {unit}" if isinstance(value, float)
              else f"{name} {value} {unit}")
    print(f"op latency samples {samples}, beyond p96 "
          f"{samples - math.ceil(0.96 * samples)}")
    with open(OUT / f"result-{workload}.json", "w", encoding="ascii") as fh:
        json.dump({"per_key_s": per_key, "metrics": metrics}, fh)


def report_traced(workload, tracer, passes, seed):
    p = passes[0]
    metrics = tracer.metrics(p.seconds, p.attempted, p.failed)
    for name, unit in per_layer_names():
        print(f"{name} {metrics[name]} {unit}")
    traced_s = sum(p.seconds.values())
    saved = OUT / f"result-{workload}.json"
    if saved.exists():
        with open(saved, encoding="ascii") as fh:
            untraced_s = sum(json.load(fh)["per_key_s"].values())
        print(f"trace overhead {traced_s / untraced_s - 1:+.1%} "
              f"({traced_s:.2f} s traced, {untraced_s:.2f} s untraced)")
    else:
        print("trace overhead unknown: no untraced result in bench/out")
    spans = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write_spans(spans)
    print(f"{len(tracer.spans)} spans written to {spans}")
    return metrics


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "mwis" / "__init__.py").is_file():
        print(f"error: the mwis sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        _setup_child(args.workload, args.setup_only)
        return 0
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    setup_s = None if args.trace else measure_setup(args.workload)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        passes, tracer, probe = measure(args.workload, args.seed,
                                        args.seconds, args.trace, workdir,
                                        started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for e in [e for p in passes for e in p.errors][:20]:
        print(f"FAILED {e}")
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"trace {args.trace}; fail_ratio {failed}/{attempted}")
    if args.trace:
        metrics = report_traced(args.workload, tracer, passes, args.seed)
        units = dict(per_layer_names())
    else:
        metrics = end_to_end(passes, setup_s, probe)
        report_untraced(args.workload, passes, metrics, probe)
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
