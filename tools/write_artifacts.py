"""Write every output file of a fixed set of `mwis` commands to OUTDIR.

    python3 tools/write_artifacts.py OUTDIR

A change that must not alter what the program writes is checked by running
this script in a checkout of the parent commit (e.g. a `git worktree`) and
in the change, each into its own directory, and then comparing the two:

    git worktree add ../parent HEAD~1
    python3 ../parent/tools/write_artifacts.py /tmp/before
    python3 tools/write_artifacts.py /tmp/after
    diff -r /tmp/before /tmp/after          # empty: byte-identical

Each checkout imports its own `src/` and the instance streams of its own
`bench/inputs.py`, and every command runs through `mwis.cli.main` as a user
would invoke it.  The corpus:

* reduce, under all three presets, of the 100 criterion-5 graphs;
* solve of the two `gnp-solve` benchmark graphs, under `nonincreasing`
  and, with `--time-limit 0`, under all three presets (deterministic: the
  first deadline check comes after the initial reduction and the root's
  local search);
* solve of gnp(40, 0.12) with seeds 0-7 under all three presets;
* reduce of a sparse graph (n=3000, m=5250) under `nonincreasing` and
  `cyclic-fast`;
* reduce of the first 20 criterion-5 graphs under all three presets with
  `--variant original`, `modified` and `extended_reduced`;
* reduce of a sparse graph (n=1000, m=1750) under `cyclic-fast` and
  `cyclic-strong` with the same three variants.

A reduce writes the kernel, its `.meta.json` sidecar and a stats file; a
solve writes the solution and a stats file.  Timings go to stderr, which
is discarded, so the files depend only on the program.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402
from mwis.cli import EXIT_TIME_LIMIT, main as mwis_main  # noqa: E402

PRESETS = ("nonincreasing", "cyclic-fast", "cyclic-strong")
VARIANTS = ("original", "modified", "extended_reduced")


def _ops():
    """(instance, argument lists) in a fixed order; each argument list is
    (command, output stem, extra flags)."""
    for inst in inputs.c5_graphs():
        yield inst, [("reduce", f"{inst.name}.{p}", ["--mode", p])
                     for p in PRESETS]
    for inst in (inputs.gnp_graph(150, 0.05, seed=2),
                 inputs.gnp_graph(100, 0.1, seed=3)):
        yield inst, [("solve", f"{inst.name}.nonincreasing",
                      ["--mode", "nonincreasing"])] + [
            ("solve", f"{inst.name}.{p}.t0", ["--mode", p, "--time-limit", "0"])
            for p in PRESETS]
    for seed in range(8):
        inst = inputs.gnp_graph(40, 0.12, seed=seed)
        yield inst, [("solve", f"{inst.name}.{p}", ["--mode", p])
                     for p in PRESETS]
    inst = inputs.sparse_graph(3000, 5250, seed=1)
    yield inst, [("reduce", f"{inst.name}.{p}", ["--mode", p])
                 for p in PRESETS[:2]]
    for inst in inputs.c5_graphs()[:20]:
        yield inst, [("reduce", f"{inst.name}.{p}.{v}",
                      ["--mode", p, "--variant", v])
                     for v in VARIANTS for p in PRESETS]
    inst = inputs.sparse_graph(1000, 1750, seed=1)
    yield inst, [("reduce", f"{inst.name}.{p}.{v}",
                  ["--mode", p, "--variant", v])
                 for v in VARIANTS for p in PRESETS[1:]]


def _run(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = mwis_main(argv)
    # a solve under --time-limit 0 always hits the limit
    if code != (EXIT_TIME_LIMIT if "--time-limit" in argv else 0):
        raise SystemExit(f"mwis {' '.join(argv)} exited {code}: "
                         f"{sink.getvalue()[-300:]}")


def write_all(outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for inst, runs in _ops():
            src = Path(tmp) / f"{inst.name}.graph"
            inst.write(src)
            for cmd, stem, flags in runs:
                stem = outdir / f"{stem}.{cmd}"
                out = (["--out", f"{stem}.kernel"] if cmd == "reduce"
                       else ["--sol", f"{stem}.sol"])
                _run([cmd, "--in", str(src), *out, "--stats",
                      f"{stem}.stats", *flags])
                count += 1
    return count


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/write_artifacts.py OUTDIR", file=sys.stderr)
        return 1
    count = write_all(argv[0])
    print(f"{count} commands, files in {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
