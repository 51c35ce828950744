"""tools/write_artifacts.py, the byte-identity check for changes that must
not alter any output file, still imports, lists its corpus and runs."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "write_artifacts.py"


def _load(monkeypatch):
    # the script puts src/ and bench/ in front of sys.path; undo that after
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("write_artifacts", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_corpus_is_the_documented_commands(monkeypatch):
    ops = list(_load(monkeypatch)._ops())
    # 100 c5 graphs x 3 presets, 2 gnp-solve graphs x (1 + 3 presets under
    # --time-limit 0), 8 gnp(40) seeds x 3 presets, the sparse graph x 2
    # presets, 20 c5 graphs x 3 variants x 3, the small sparse graph x 3
    # variants x 2 cyclic presets
    assert [len(runs) for _inst, runs in ops] == (
        [3] * 100 + [4] * 2 + [3] * 8 + [2] + [9] * 20 + [6])
    cmds = [cmd for _inst, runs in ops for cmd, _stem, _flags in runs]
    assert len(cmds) == 300 + 8 + 24 + 2 + 180 + 6 == 520
    assert cmds.count("solve") == 8 + 24
    limited = [stem for _inst, runs in ops for _cmd, stem, flags in runs
               if "--time-limit" in flags]
    assert len(limited) == 6 and all(s.endswith(".t0") for s in limited)


def test_first_reduce_and_first_solve_write_their_files(monkeypatch, tmp_path):
    mod = _load(monkeypatch)
    want = []
    for cmd in ("reduce", "solve"):
        inst, (_cmd, stem, flags) = next(
            (inst, runs[0]) for inst, runs in mod._ops() if runs[0][0] == cmd)
        src = tmp_path / f"{inst.name}.graph"
        inst.write(src)
        stem = tmp_path / f"{stem}.{cmd}"
        out = (["--out", f"{stem}.kernel"] if cmd == "reduce"
               else ["--sol", f"{stem}.sol"])
        mod._run([cmd, "--in", str(src), *out, "--stats", f"{stem}.stats",
                  *flags])
        want += [src.name, f"{stem.name}.stats"] + (
            [f"{stem.name}.kernel", f"{stem.name}.kernel.meta.json"]
            if cmd == "reduce" else [f"{stem.name}.sol"])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want)
    assert (tmp_path / "c5-000.nonincreasing.reduce.stats").read_text(
        ).startswith("instance=c5-000.graph\nmode=nonincreasing\n")
