"""Command line interface.

Subcommands: reduce (kernelize a graph file), solve (exact MWIS), gen
(reproducible random instances), oracle (brute force, small graphs only),
verify (check a solution file against its graph).

Exit codes: 0 success, 1 usage or verification failure, 2 malformed input
file, 3 time limit hit (a best-effort solution was still written).
"""

import argparse
import os
import re
import sys
import time

from .blowup import PRESETS, PRESET_NONINCREASING, preprocess
from .metisio import (MAX_TOTAL_WEIGHT, ParseError, parse_graph,
                      read_solution, write_graph, write_kernel,
                      write_solution, write_stats)
from .rng import random_gnp_graph, random_path_graph
from .solver import OPTIMAL, SizeLimit, brute_force_mwis, solve
from .struction import VARIANT_OPS
from .translog import first_violation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_TIME_LIMIT = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read -inf and -nan as values, like -1, for the range checks
        self._negative_number_matcher = re.compile(
            r"^-(\d+|\d*\.\d+|inf|infinity|nan)$", re.I)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser():
    p = _Parser(prog="mwis",
                description="Exact maximum weight independent set toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    red = sub.add_parser("reduce", help="kernelize a graph file")
    red.add_argument("--in", dest="infile", required=True)
    red.add_argument("--out", dest="outfile", required=True)
    red.add_argument("--mode", choices=PRESETS, default=PRESET_NONINCREASING)
    red.add_argument("--variant", choices=sorted(VARIANT_OPS),
                     default="extended")
    red.add_argument("--stats", dest="stats", default=None)

    sol = sub.add_parser("solve", help="solve a graph file exactly")
    sol.add_argument("--in", dest="infile", required=True)
    sol.add_argument("--mode", choices=PRESETS, default=PRESET_NONINCREASING)
    sol.add_argument("--sol", dest="solfile", required=True)
    sol.add_argument("--time-limit", type=float, default=None)
    sol.add_argument("--stats", dest="stats", default=None)

    gen = sub.add_parser("gen", help="generate a reproducible random instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float, default=None,
                     help="edge probability (gnp type)")
    gen.add_argument("--wmin", type=int, default=1)
    gen.add_argument("--wmax", type=int, default=200)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", dest="outfile", required=True)
    gen.add_argument("--type", dest="kind", choices=("gnp", "path", "cycle"),
                     default="gnp")

    orc = sub.add_parser("oracle", help="brute-force optimum (small graphs)")
    orc.add_argument("--in", dest="infile", required=True)
    orc.add_argument("--limit", type=int, default=30)

    ver = sub.add_parser("verify", help="check a solution file")
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--sol", dest="solfile", required=True)
    return p


def _reduce_cmd(args):
    g = parse_graph(args.infile)
    t0 = time.monotonic()
    kres = preprocess(g, args.mode, args.variant)
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    write_kernel(kres, args.outfile)
    n, m = kres.kernel.counts()
    print(f"reduce_ms={elapsed_ms}", file=sys.stderr)
    if args.stats:
        stats = {"instance": os.path.basename(args.infile), "mode": args.mode,
                 "kernel_n": n, "kernel_m": m, "offset": kres.offset}
        if n == 0:
            stats["weight"] = kres.offset
            stats["status"] = OPTIMAL
        write_stats(args.stats, stats)
    print(f"kernel_n={n} kernel_m={m} offset={kres.offset}")
    return EXIT_OK


def _solve_cmd(args):
    # a NaN limit fails every comparison, so the deadline would never fire
    if args.time_limit is not None and not args.time_limit >= 0:
        raise _UsageError(
            f"--time-limit must be a number >= 0, got {args.time_limit}")
    g = parse_graph(args.infile)
    t0 = time.monotonic()
    res = solve(g, args.mode, args.time_limit)
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    write_solution(args.solfile, res.weight, res.solution)
    print(f"solve_ms={elapsed_ms}", file=sys.stderr)
    if args.stats:
        stats = {"instance": os.path.basename(args.infile), "mode": args.mode,
                 "kernel_n": res.stats["kernel_n"],
                 "kernel_m": res.stats["kernel_m"],
                 "offset": res.stats["offset"], "weight": res.weight,
                 "status": res.status, "branches": res.stats["branches"]}
        write_stats(args.stats, stats)
    print(f"weight={res.weight} status={res.status}")
    return EXIT_OK if res.status == OPTIMAL else EXIT_TIME_LIMIT


def _gen_cmd(args):
    if args.n < 0:
        raise _UsageError(f"--n must be >= 0, got {args.n}")
    if args.wmin < 1:
        raise _UsageError(f"--wmin must be >= 1, got {args.wmin}")
    if args.wmin > args.wmax:
        raise _UsageError(f"--wmin {args.wmin} exceeds --wmax {args.wmax}")
    if args.n * args.wmax > MAX_TOTAL_WEIGHT:
        raise _UsageError(f"--n {args.n} times --wmax {args.wmax} exceeds "
                          f"2^64 - 1, the largest total weight a graph "
                          f"file may carry")
    if args.kind == "gnp":
        if args.p is None:
            raise _UsageError("--p is required for --type gnp")
        if not 0 <= args.p <= 1:
            raise _UsageError(f"--p must lie in [0, 1], got {args.p}")
        g = random_gnp_graph(args.n, args.p, args.seed, args.wmin, args.wmax)
    elif args.p is not None:
        raise _UsageError("--p applies only to --type gnp")
    else:
        g = random_path_graph(args.n, args.seed, args.wmin, args.wmax,
                              cycle=(args.kind == "cycle"))
    write_graph(g, args.outfile)
    return EXIT_OK


def _oracle_cmd(args):
    if args.limit < 0:
        raise _UsageError(f"--limit must be >= 0, got {args.limit}")
    g = parse_graph(args.infile)
    try:
        weight, sol = brute_force_mwis(g, args.limit)
    except SizeLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"%weight {weight}")
    for v in sorted(sol):
        print(v + 1)
    return EXIT_OK


def _verify_cmd(args):
    g = parse_graph(args.infile)
    weight, ids = read_solution(args.solfile)
    why = first_violation(g, ids, weight)
    if why is not None:
        print(f"verify failed: {why}", file=sys.stderr)
        return EXIT_USAGE
    print(f"ok weight={weight} size={len(ids)}")
    return EXIT_OK


_COMMANDS = {"reduce": _reduce_cmd, "solve": _solve_cmd, "gen": _gen_cmd,
             "oracle": _oracle_cmd, "verify": _verify_cmd}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.cmd](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
