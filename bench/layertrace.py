"""Layer trace: spans and counters recorded around the calls between layers.

``Tracer.install`` replaces, from outside the program, the module-level
functions (and dict entries) through which one mwis layer calls the next.
Every replaced target is looked up at call time by its caller, so the
wrappers see every call without any change to the program.  Each wrapper
times the call, charges its duration to the enclosing call (so self time is
duration minus the time covered by wrapped children) and derives counters
from arguments and return values: ``bool`` for rules, ``Aborted.reason`` for
structions, ``KernelResult.stats`` and ``SolveResult.stats`` for the rest.

Calls at layer boundaries are also kept as spans (id, parent, op, name,
start, end) in memory and written out as JSON lines by ``write_spans``.
The hot inner calls (the simple rules, struction attempts, set enumeration
and blow-up estimates; millions per run) are aggregated per name instead.

A layer's ``self_s`` is the self time of its entry functions: time spent in
the layer outside every wrapped call it makes.
"""

import json
import os
from collections import defaultdict
from time import perf_counter

SIMPLE_RULES = ("neighborhood_removal", "degree_two_fold", "clique_reduction",
                "domination", "twin", "clique_neighborhood_removal")
RULES = SIMPLE_RULES + ("decreasing_struction", "plateau_struction")
PRESETS = ("nonincreasing", "cyclic-fast", "cyclic-strong")

# names whose self time makes up each layer's self_s
_SELF_NAMES = {
    "cli": ("cli.op",),
    "metisio": ("metisio.parse_graph", "metisio.write_kernel",
                "metisio.write_solution"),
    "reductions": ("reductions._reduce_into",),
    "struction": ("struction.original", "struction.modified",
                  "struction.extended", "struction.extended_reduced"),
    "blowup": ("blowup.preprocess", "blowup.cyclic_blow_up", "blowup.blow_up"),
    "solver": ("solver.solve", "solver._search"),
}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = [("cli.ops", "count"), ("cli.failed", "count"), ("cli.self_s", "s")]
    out += [(f"cli.reduce.{p}_s", "s") for p in PRESETS]
    out += [("cli.solve_s", "s"),
            ("metisio.parse_s", "s"), ("metisio.write_s", "s"),
            ("metisio.bytes_out", "bytes"), ("metisio.self_s", "s"),
            ("translog.events", "count"), ("translog.to_bytes_s", "s"),
            ("translog.lift_calls", "count"), ("translog.lift_s", "s"),
            ("translog.verify_s", "s"),
            ("graph.copy_calls", "count"), ("graph.copy_vertices", "count"),
            ("graph.copy_s", "s")]
    for r in RULES:
        out += [(f"reductions.{r}.attempts", "count"),
                (f"reductions.{r}.fired", "count"), (f"reductions.{r}.s", "s")]
    out += [("reductions.calls", "count"), ("reductions.s", "s"),
            ("reductions.self_s", "s"), ("reductions.fire_ratio", "ratio"),
            ("reductions.kernel_m", "count")]
    out += [("struction.attempts", "count"), ("struction.applied", "count"),
            ("struction.abort_cap", "count"),
            ("struction.abort_budget", "count"),
            ("struction.not_minimal", "count"), ("struction.created", "count"),
            ("struction.s", "s"), ("struction.enumerate_s", "s"),
            ("struction.wasted_s", "s"), ("struction.success_ratio", "ratio"),
            ("struction.self_s", "s")]
    out += [("blowup.phases", "count"), ("blowup.accepts", "count"),
            ("blowup.rejects", "count"), ("blowup.select_s", "s"),
            ("blowup.estimate_L_calls", "count"),
            ("blowup.estimate_L_s", "s"), ("blowup.rereduce_s", "s"),
            ("blowup.rejected_phase_s", "s"), ("blowup.copy_s", "s"),
            ("blowup.self_s", "s")]
    out += [("solver.nodes", "count"), ("solver.branches", "count"),
            ("solver.bound_prunes", "count"), ("solver.max_depth", "count"),
            ("solver.reduce_s", "s"), ("solver.ub_s", "s"),
            ("solver.ls_s", "s"), ("solver.components_s", "s"),
            ("solver.copy_s", "s"), ("solver.self_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        # open calls: [time covered by wrapped children, span id, name]
        self.frames = [[0.0, 0, "root"]]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)      # named counters
        self.seconds = defaultdict(float)  # named time sums
        self.rule = {r: [0, 0, 0.0] for r in RULES}  # attempts, fired, s
        self.program_stats = defaultdict(int)  # summed stats of results
        self.spans = []
        self.op = 0
        self._next_span = 0
        self._phase = None  # open blow-up phase: (graph, n before, seconds)
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, span=True, before=None, after=None):
        """Time fn as `name`; `before(args, kwargs)` runs at entry and its
        value reaches `after(result, exc, args, kwargs, seconds, ctx)`."""
        frames, spans = self.frames, self.spans
        calls, total, self_time = self.calls, self.total, self.self_time

        def traced(*args, **kwargs):
            ctx = before(args, kwargs) if before else None
            parent = frames[-1]
            if span:
                self._next_span += 1
                sid = self._next_span
            else:
                sid = parent[1]
            frame = [0.0, sid, name]
            frames.append(frame)
            exc = result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                frames.pop()
                dur = t1 - t0
                parent[0] += dur
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[0]
                if span:
                    spans.append((sid, parent[1], self.op, name,
                                  t0 - self.origin, t1 - self.origin))
                if after:
                    after(result, exc, args, kwargs, dur, ctx)

        return traced

    def _rule(self, name, fn):
        """Leaf wrapper for a reduction rule: attempts, firings, time."""
        frames, st = self.frames, self.rule[name]

        def traced(*args):
            t0 = perf_counter()
            fired = fn(*args)
            dur = perf_counter() - t0
            frames[-1][0] += dur
            st[0] += 1
            st[2] += dur
            if fired:
                st[1] += 1
            return fired

        return traced

    def _leaf(self, key, fn):
        """Leaf wrapper that only counts calls and time under `key`."""
        frames, count, seconds = self.frames, self.count, self.seconds

        def traced(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dur = perf_counter() - t0
            frames[-1][0] += dur
            count[key] += 1
            seconds[key] += dur
            return result

        return traced

    def _copy(self, fn):
        """DynGraph.copy, charged to the layer of the calling function."""
        frames, count, seconds = self.frames, self.count, self.seconds

        def copy(g):
            t0 = perf_counter()
            out = fn(g)
            dur = perf_counter() - t0
            caller = frames[-1]
            caller[0] += dur
            count["graph.copy"] += 1
            count["graph.copy_vertices"] += len(g._w)
            seconds["graph.copy"] += dur
            seconds["copy:" + caller[2].split(".")[0]] += dur
            return out

        return copy

    # -- installation ---------------------------------------------------------

    def _patch(self, obj, attr, new):
        if isinstance(obj, dict):
            self._undo.append((obj, attr, obj[attr]))
            obj[attr] = new
        else:
            self._undo.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, new)

    def uninstall(self):
        while self._undo:
            obj, attr, old = self._undo.pop()
            if isinstance(obj, dict):
                obj[attr] = old
            else:
                setattr(obj, attr, old)

    def install(self):
        from mwis import (blowup, cli, graph, metisio, reductions, solver,
                          struction, translog)

        count, seconds = self.count, self.seconds
        Aborted, NotMinimal = struction.Aborted, struction.NotMinimal
        IncludedVertex = translog.IncludedVertex

        for key, fn in list(reductions._SIMPLE_RULES.items()):
            self._patch(reductions._SIMPLE_RULES, key, self._rule(key, fn))
        for key in ("decreasing_struction", "plateau_struction"):
            self._patch(reductions, key,
                        self.wrap("reductions." + key, getattr(reductions, key),
                                  span=False, after=self._rule_after(key)))

        def struction_after(result, exc, args, kwargs, dur, ctx):
            count["struction.attempts"] += 1
            if isinstance(exc, NotMinimal):
                count["struction.not_minimal"] += 1
            elif isinstance(result, Aborted):
                count["struction.abort_" + result.reason] += 1
            elif exc is None:
                count["struction.applied"] += 1
                count["struction.created"] += len(result.created)
                return
            seconds["struction.wasted"] += dur

        for key, fn in list(struction.VARIANT_OPS.items()):
            self._patch(struction.VARIANT_OPS, key,
                        self.wrap("struction." + key, fn, span=False,
                                  after=struction_after))
        self._patch(struction, "enumerate_exceeding_sets",
                    self._leaf("struction.enumerate",
                               struction.enumerate_exceeding_sets))

        reduce_into = reductions._reduce_into
        self._patch(reductions, "_reduce_into",
                    self.wrap("reductions._reduce_into", reduce_into))
        self._patch(blowup, "_reduce_into",
                    self.wrap("reductions._reduce_into", reduce_into,
                              after=self._rereduce_after))
        self._patch(solver, "_reduce_into",
                    self.wrap("reductions._reduce_into", reduce_into,
                              after=self._timed("solver.reduce")))

        self._patch(blowup, "cyclic_blow_up",
                    self.wrap("blowup.cyclic_blow_up", blowup.cyclic_blow_up))
        self._patch(blowup, "blow_up",
                    self.wrap("blowup.blow_up", blowup.blow_up,
                              before=lambda a, k: a[0].counts()[0],
                              after=self._blow_up_after))
        self._patch(blowup, "estimate_L",
                    self._leaf("blowup.estimate_L", blowup.estimate_L))

        def search_before(args, kwargs):
            G, log, _sh, _inc, _seed_ls, depth = args
            count["solver.nodes"] += 1
            if depth > count["solver.max_depth"]:
                count["solver.max_depth"] = depth
            # the include child of a branch runs right after IncludedVertex
            if depth > 0 and log.events and isinstance(log.events[-1],
                                                       IncludedVertex):
                count["solver.branches"] += 1

        self._patch(solver, "_search",
                    self.wrap("solver._search", solver._search,
                              before=search_before))
        for key, name in (("upper_bound", "solver.upper_bound"),
                          ("local_search", "solver.local_search"),
                          ("components", "solver.components"),
                          ("lift", "translog.lift"),
                          ("verify_lift", "translog.verify_lift")):
            self._patch(solver, key,
                        self.wrap(name, getattr(solver, key),
                                  after=self._timed(name)))

        self._patch(graph.DynGraph, "copy", self._copy(graph.DynGraph.copy))

        def preprocess_after(result, exc, args, kwargs, dur, ctx):
            if exc is None:
                self._add_stats(result.stats)
                count["reductions.kernel_m"] += result.kernel.counts()[1]

        def solve_after(result, exc, args, kwargs, dur, ctx):
            if exc is None:
                self._add_stats(result.stats)
                count["reductions.kernel_m"] += result.stats["kernel_m"]

        self._patch(cli, "preprocess",
                    self.wrap("blowup.preprocess", cli.preprocess,
                              after=preprocess_after))
        self._patch(cli, "solve",
                    self.wrap("solver.solve", cli.solve, after=solve_after))
        self._patch(cli, "parse_graph",
                    self.wrap("metisio.parse_graph", cli.parse_graph))

        def written(*paths):
            def after(result, exc, args, kwargs, dur, ctx):
                if exc is None:
                    for p in paths:
                        count["metisio.bytes_out"] += os.path.getsize(p(args))
            return after

        self._patch(cli, "write_kernel",
                    self.wrap("metisio.write_kernel", cli.write_kernel,
                              after=written(lambda a: a[1],
                                            lambda a: metisio.sidecar_path(a[1]))))
        self._patch(cli, "write_solution",
                    self.wrap("metisio.write_solution", cli.write_solution,
                              after=written(lambda a: a[0])))

        def to_bytes_before(args, kwargs):
            count["translog.events"] += len(args[0])

        self._patch(metisio, "to_bytes",
                    self.wrap("translog.to_bytes", metisio.to_bytes,
                              before=to_bytes_before))
        return self

    # -- counter callbacks -------------------------------------------------------

    def _rule_after(self, key):
        st = self.rule[key]

        def after(result, exc, args, kwargs, dur, ctx):
            st[0] += 1
            st[2] += dur
            if result:
                st[1] += 1

        return after

    def _timed(self, key):
        count, seconds = self.count, self.seconds

        def after(result, exc, args, kwargs, dur, ctx):
            count[key] += 1
            seconds[key] += dur

        return after

    def _blow_up_after(self, result, exc, args, kwargs, dur, ctx):
        self.seconds["blowup.select"] += dur
        if exc is None and result[0] == "changed":
            self.count["blowup.phases"] += 1
            self._phase = (args[0], ctx, dur)

    def _rereduce_after(self, result, exc, args, kwargs, dur, ctx):
        seeds = kwargs.get("seeds", args[4] if len(args) > 4 else None)
        if seeds is None or self._phase is None:
            return  # the initial reduction of a blow-up cycle
        K, pre_n, select_dur = self._phase
        self._phase = None
        self.seconds["blowup.rereduce"] += dur
        if exc is None and K.counts()[0] < pre_n:
            self.count["blowup.accepts"] += 1
        else:
            self.count["blowup.rejects"] += 1
            self.seconds["blowup.rejected_phase"] += select_dur + dur

    def _add_stats(self, stats):
        for key, val in stats.items():
            if key == "max_depth":
                self.program_stats[key] = max(self.program_stats[key], val)
            elif isinstance(val, int):
                self.program_stats[key] += val

    # -- reporting ------------------------------------------------------------------

    def layer_self(self, layer):
        return sum(self.self_time[n] for n in _SELF_NAMES[layer])

    def metrics(self, op_seconds, ops, failed):
        """Every per-layer metric; op_seconds maps cli.* op-time keys to sums."""
        c, s, t = self.count, self.seconds, self.total
        m = {"cli.ops": ops, "cli.failed": failed,
             "cli.self_s": self.layer_self("cli")}
        for p in PRESETS:
            m[f"cli.reduce.{p}_s"] = op_seconds.get(f"reduce.{p}", 0.0)
        m["cli.solve_s"] = op_seconds.get("solve", 0.0)
        m.update({
            "metisio.parse_s": t["metisio.parse_graph"],
            "metisio.write_s": (t["metisio.write_kernel"]
                                + t["metisio.write_solution"]),
            "metisio.bytes_out": c["metisio.bytes_out"],
            "metisio.self_s": self.layer_self("metisio"),
            "translog.events": c["translog.events"],
            "translog.to_bytes_s": t["translog.to_bytes"],
            "translog.lift_calls": c["translog.lift"],
            "translog.lift_s": s["translog.lift"],
            "translog.verify_s": s["translog.verify_lift"],
            "graph.copy_calls": c["graph.copy"],
            "graph.copy_vertices": c["graph.copy_vertices"],
            "graph.copy_s": s["graph.copy"],
        })
        attempts = fired = 0
        for r in RULES:
            a, f, sec = self.rule[r]
            m[f"reductions.{r}.attempts"] = a
            m[f"reductions.{r}.fired"] = f
            m[f"reductions.{r}.s"] = sec
            attempts += a
            fired += f
        m.update({
            "reductions.calls": self.calls["reductions._reduce_into"],
            "reductions.s": t["reductions._reduce_into"],
            "reductions.self_s": self.layer_self("reductions"),
            "reductions.fire_ratio": fired / attempts if attempts else 0.0,
            "reductions.kernel_m": c["reductions.kernel_m"],
        })
        s_attempts = c["struction.attempts"]
        m.update({
            "struction.attempts": s_attempts,
            "struction.applied": c["struction.applied"],
            "struction.abort_cap": c["struction.abort_cap"],
            "struction.abort_budget": c["struction.abort_budget"],
            "struction.not_minimal": c["struction.not_minimal"],
            "struction.created": c["struction.created"],
            "struction.s": sum(t[n] for n in _SELF_NAMES["struction"]),
            "struction.enumerate_s": s["struction.enumerate"],
            "struction.wasted_s": s["struction.wasted"],
            "struction.success_ratio": (c["struction.applied"] / s_attempts
                                        if s_attempts else 0.0),
            "struction.self_s": self.layer_self("struction"),
        })
        m.update({
            "blowup.phases": c["blowup.phases"],
            "blowup.accepts": c["blowup.accepts"],
            "blowup.rejects": c["blowup.rejects"],
            "blowup.select_s": s["blowup.select"],
            "blowup.estimate_L_calls": c["blowup.estimate_L"],
            "blowup.estimate_L_s": s["blowup.estimate_L"],
            "blowup.rereduce_s": s["blowup.rereduce"],
            "blowup.rejected_phase_s": s["blowup.rejected_phase"],
            "blowup.copy_s": s["copy:blowup"],
            "blowup.self_s": self.layer_self("blowup"),
        })
        m.update({
            "solver.nodes": c["solver.nodes"],
            "solver.branches": c["solver.branches"],
            "solver.bound_prunes": (c["solver.upper_bound"]
                                    - c["solver.components"]),
            "solver.max_depth": c["solver.max_depth"],
            "solver.reduce_s": s["solver.reduce"],
            "solver.ub_s": s["solver.upper_bound"],
            "solver.ls_s": s["solver.local_search"],
            "solver.components_s": s["solver.components"],
            "solver.copy_s": s["copy:solver"],
            "solver.self_s": self.layer_self("solver"),
        })
        return m

    def write_spans(self, path):
        """Spans as JSON lines, then one line of per-name aggregates."""
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": round(start, 7),
                                     "end": round(end, 7)}) + "\n")
            agg = {n: {"calls": self.calls[n], "s": self.total[n],
                       "self_s": self.self_time[n]} for n in self.calls}
            agg.update({f"reductions.{r}": {"attempts": a, "fired": f, "s": sec}
                        for r, (a, f, sec) in self.rule.items() if a})
            fh.write(json.dumps({"aggregate": agg}) + "\n")
