import base64
import json
import shutil
import subprocess

import pytest

import mwis
from mwis import cli
from mwis.cli import (EXIT_OK, EXIT_PARSE, EXIT_TIME_LIMIT, EXIT_USAGE, main)
from mwis.metisio import parse_graph, read_solution, sidecar_path
from mwis.translog import from_bytes

P3A_TEXT = "3 2 10\n2 2\n3 1 3\n2 2\n"


@pytest.fixture
def p3a_file(tmp_path):
    p = tmp_path / "p3a.graph"
    p.write_text(P3A_TEXT)
    return str(p)


def test_gen_is_reproducible(tmp_path):
    a, b = str(tmp_path / "a.graph"), str(tmp_path / "b.graph")
    args = ["gen", "--n", "30", "--p", "0.2", "--seed", "9"]
    assert main(args + ["--out", a]) == EXIT_OK
    assert main(args + ["--out", b]) == EXIT_OK
    assert (tmp_path / "a.graph").read_bytes() == (tmp_path / "b.graph").read_bytes()
    g = parse_graph(a)
    assert g.counts()[0] == 30


def test_gen_path_and_cycle(tmp_path):
    out = str(tmp_path / "p.graph")
    assert main(["gen", "--type", "path", "--n", "10", "--seed", "1",
                 "--out", out]) == EXIT_OK
    assert parse_graph(out).counts() == (10, 9)
    assert main(["gen", "--type", "cycle", "--n", "10", "--seed", "1",
                 "--out", out]) == EXIT_OK
    assert parse_graph(out).counts() == (10, 10)


def test_gen_gnp_requires_p(tmp_path, capsys):
    rc = main(["gen", "--n", "5", "--seed", "1",
               "--out", str(tmp_path / "x.graph")])
    assert rc == EXIT_USAGE
    assert "--p is required" in capsys.readouterr().err


@pytest.mark.parametrize("bad, message", [
    (["--n", "-3"], "--n must be >= 0"),
    (["--wmin", "0", "--wmax", "0"], "--wmin must be >= 1"),
    (["--wmin", "5", "--wmax", "1"], "--wmin 5 exceeds --wmax 1"),
    (["--p", "1.5"], "--p must lie in [0, 1]"),
    (["--wmax", str(2**64)], "--n 5 times --wmax 18446744073709551616 exceeds"),
    (["--type", "path", "--n", "1", "--wmax", str(2**65)], "exceeds 2^64 - 1"),
    (["--type", "path", "--p", "2"], "--p applies only to --type gnp"),
    (["--type", "cycle"], "--p applies only to --type gnp"),
])
def test_gen_rejects_out_of_range_arguments(tmp_path, capsys, bad, message):
    out = tmp_path / "x.graph"
    argv = ["gen", "--n", "5", "--p", "0.5", "--seed", "1", "--out", str(out)]
    rc = main(argv + bad)
    assert rc == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]
    assert not out.exists()


def test_solve_writes_solution_and_stats(tmp_path, p3a_file, capsys):
    sol = str(tmp_path / "p3a.sol")
    stats = str(tmp_path / "p3a.stats")
    rc = main(["solve", "--in", p3a_file, "--sol", sol, "--stats", stats])
    assert rc == EXIT_OK
    assert (tmp_path / "p3a.sol").read_text() == "%weight 4\n1\n3\n"
    out = capsys.readouterr().out
    assert "weight=4" in out and "status=optimal" in out
    lines = (tmp_path / "p3a.stats").read_text().splitlines()
    record = dict(line.split("=", 1) for line in lines)
    assert record["weight"] == "4"
    assert record["status"] == "optimal"
    assert record["kernel_n"] == "0"
    assert record["mode"] == "nonincreasing"
    assert list(record) == ["instance", "mode", "kernel_n", "kernel_m",
                            "offset", "weight", "status", "branches"]


def test_verify_accepts_what_solve_writes(tmp_path, p3a_file, capsys):
    sol = str(tmp_path / "p3a.sol")
    main(["solve", "--in", p3a_file, "--sol", sol])
    capsys.readouterr()
    assert main(["verify", "--in", p3a_file, "--sol", sol]) == EXIT_OK
    assert "ok weight=4 size=2" in capsys.readouterr().out


def test_verify_rejects_tampered_solution(tmp_path, p3a_file, capsys):
    sol = tmp_path / "bad.sol"
    sol.write_text("%weight 5\n1\n2\n")   # adjacent pair
    assert main(["verify", "--in", p3a_file, "--sol", str(sol)]) == EXIT_USAGE
    assert "NotIndependent" in capsys.readouterr().err


def test_verify_rejects_wrong_weight(tmp_path, p3a_file, capsys):
    sol = tmp_path / "bad.sol"
    sol.write_text("%weight 9\n1\n3\n")
    assert main(["verify", "--in", p3a_file, "--sol", str(sol)]) == EXIT_USAGE
    assert "declared weight 9, actual 4" in capsys.readouterr().err


def test_verify_rejects_malformed_solution_files(tmp_path, capsys):
    graph = tmp_path / "g.graph"
    graph.write_text("2 1 10\n5 2\n5 1\n")
    sol = tmp_path / "bad.sol"
    for text, err in (("%weight 5\n1\n1\n", "line 3: vertex id 1 repeats"),
                      ("%weight 9\n%weight 5\n1\n",
                       "line 2: second %weight line"),
                      ("%weight 5_0\n1\n",
                       "line 1: weight '5_0' is not an integer")):
        sol.write_text(text)
        assert main(["verify", "--in", str(graph), "--sol", str(sol)]) \
            == EXIT_PARSE
        assert capsys.readouterr().err == f"parse error: {err}\n"


def test_reduce_path_to_empty_kernel(tmp_path, capsys):
    graph = str(tmp_path / "path.graph")
    main(["gen", "--type", "path", "--n", "50", "--seed", "3", "--out", graph])
    kernel = str(tmp_path / "path.kernel")
    stats = str(tmp_path / "path.stats")
    rc = main(["reduce", "--in", graph, "--out", kernel, "--mode",
               "cyclic-fast", "--stats", stats])
    assert rc == EXIT_OK
    assert "kernel_n=0" in capsys.readouterr().out
    record = dict(line.split("=", 1)
                  for line in (tmp_path / "path.stats").read_text().splitlines())
    assert record["kernel_n"] == "0"
    assert record["status"] == "optimal"
    assert record["weight"] == record["offset"]
    # kernel file itself is an empty graph
    assert (tmp_path / "path.kernel").read_text() == "0 0 10\n"


def test_reduce_mode_and_overrides(tmp_path, capsys):
    graph = str(tmp_path / "g.graph")
    main(["gen", "--n", "40", "--p", "0.15", "--seed", "4", "--out", graph])
    kernel = str(tmp_path / "g.kernel")
    rc = main(["reduce", "--in", graph, "--out", kernel, "--mode",
               "cyclic-strong", "--variant", "extended_reduced"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("kernel_n=")


def test_gen_accepts_the_largest_total_weight(tmp_path):
    out = str(tmp_path / "x.graph")
    top = str(2**64 - 1)
    assert main(["gen", "--type", "path", "--n", "1", "--wmin", top,
                 "--wmax", top, "--seed", "1", "--out", out]) == EXIT_OK
    assert parse_graph(out).weight(0) == 2**64 - 1


def _lift_kernel_file(kernel):
    """Solve a kernel file written by reduce and lift the solution through
    its sidecar; returns (lifted solution, its claimed weight)."""
    with open(sidecar_path(kernel), encoding="ascii") as fh:
        meta = json.load(fh)
    to_internal = {ext - 1: v for v, ext in meta["id_map"]}
    res = mwis.solve(parse_graph(kernel))
    log = from_bytes(base64.b64decode(meta["log"]))
    lifted = mwis.lift(log, {to_internal[x] for x in res.solution})
    return lifted, meta["offset"] + res.weight


@pytest.mark.parametrize("flag, value", [("--beta", "2"), ("--unsucc", "0"),
                                         ("--nmax", "64"), ("--dmax", "16")])
def test_reduce_has_no_per_field_flags(tmp_path, p3a_file, capsys, flag,
                                       value):
    # presets are the configuration: reduce takes only --mode and --variant
    out = tmp_path / "k.graph"
    assert main(["reduce", "--in", p3a_file, "--out", str(out),
                 flag, value]) == EXIT_USAGE
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1 and flag in errors[0]
    assert not out.exists()


def test_oracle_prints_solution(p3a_file, capsys):
    assert main(["oracle", "--in", p3a_file]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["%weight 4", "1", "3"]


def test_oracle_rejects_a_negative_limit(p3a_file, capsys):
    assert main(["oracle", "--in", p3a_file, "--limit", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --limit must be >= 0, got -1"]


def test_oracle_refuses_large_graphs(tmp_path, capsys):
    graph = str(tmp_path / "big.graph")
    main(["gen", "--n", "40", "--p", "0.1", "--seed", "2", "--out", graph])
    capsys.readouterr()
    assert main(["oracle", "--in", graph]) == EXIT_USAGE
    assert "exceeds the oracle limit" in capsys.readouterr().err
    assert main(["oracle", "--in", graph, "--limit", "40"]) == EXIT_OK


def test_time_limit_exit_code(tmp_path, capsys):
    graph = str(tmp_path / "hard.graph")
    main(["gen", "--n", "90", "--p", "0.3", "--seed", "21", "--out", graph])
    sol = str(tmp_path / "hard.sol")
    rc = main(["solve", "--in", graph, "--sol", sol,
               "--time-limit", "0.000001"])
    assert rc == EXIT_TIME_LIMIT
    # a best-effort solution file is still written and self-consistent
    weight, ids = read_solution(sol)
    g = parse_graph(graph)
    assert all(g.is_active(v) for v in ids)
    assert "status=timelimit" in capsys.readouterr().out


@pytest.mark.parametrize("limit", ["nan", "-1", "-0.5", "-inf"])
def test_solve_rejects_a_time_limit_that_is_not_a_number_or_negative(
        tmp_path, capsys, limit):
    # the input would not parse: the flag is rejected before it is read
    bad = tmp_path / "bad.graph"
    bad.write_text("3 2 10\n")
    sol = tmp_path / "x.sol"
    rc = main(["solve", "--in", str(bad), "--sol", str(sol),
               "--time-limit", limit])
    assert rc == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "--time-limit must be a number >= 0" in lines[0]
    assert not sol.exists()


@pytest.mark.parametrize("limit", ["0", "inf"])
def test_solve_accepts_a_zero_or_infinite_time_limit(tmp_path, p3a_file,
                                                     capsys, limit):
    sol = tmp_path / "p3a.sol"
    # p3a reduces to an empty kernel, which is optimal under any limit
    assert main(["solve", "--in", p3a_file, "--sol", str(sol),
                 "--time-limit", limit]) == EXIT_OK
    assert read_solution(str(sol))[0] == 4


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    sol = tmp_path / "x.sol"
    for text, err in (("3 2 10\n2 2\n3 1 3\n",   # missing a vertex line
                       "parse error: line 1"),
                      ("2 1 10\n1_0 2\n5 1\n",
                       "parse error: line 2: weight '1_0' is not an integer")):
        bad.write_text(text)
        assert main(["solve", "--in", str(bad), "--sol", str(sol)]) \
            == EXIT_PARSE
        assert capsys.readouterr().err.startswith(err)
        assert not sol.exists()


def test_non_ascii_input_is_a_parse_error(tmp_path, p3a_file, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_bytes(b"3 2 10\n2 2\n3 1 3\n2 2 \xc3\xa9\n")
    sol = tmp_path / "p3a.sol"
    assert main(["solve", "--in", p3a_file, "--sol", str(sol)]) == EXIT_OK
    runs = [["reduce", "--in", str(bad), "--out", str(tmp_path / "k")],
            ["solve", "--in", str(bad), "--sol", str(tmp_path / "x.sol")],
            ["oracle", "--in", str(bad)],
            ["verify", "--in", str(bad), "--sol", str(sol)]]
    capsys.readouterr()
    for argv in runs:
        assert main(argv) == EXIT_PARSE, argv
        assert capsys.readouterr().err == "parse error: line 4: non-ASCII byte\n"
    bad_sol = tmp_path / "bad.sol"
    bad_sol.write_bytes(sol.read_bytes() + b"\xff\n")
    assert main(["verify", "--in", p3a_file, "--sol", str(bad_sol)]) == EXIT_PARSE
    assert capsys.readouterr().err == "parse error: line 4: non-ASCII byte\n"


def test_a_total_weight_past_the_log_word_is_a_parse_error(tmp_path, capsys):
    top = 2**64 - 1
    bad = tmp_path / "bad.graph"
    bad.write_text(f"2 1 10\n{top + 1} 2\n1 1\n")
    kernel, sol = tmp_path / "k", tmp_path / "x.sol"
    for argv in (["reduce", "--in", str(bad), "--out", str(kernel)],
                 ["solve", "--in", str(bad), "--sol", str(sol)]):
        assert main(argv) == EXIT_PARSE, argv
        assert capsys.readouterr().err == (
            "parse error: line 2: total weight passes 2^64 - 1\n")
    assert list(tmp_path.iterdir()) == [bad]
    # at the bound itself the log holds every weight and offset
    good = tmp_path / "good.graph"
    good.write_text(f"2 1 10\n{top - 1} 2\n1 1\n")
    assert main(["reduce", "--in", str(good), "--out", str(kernel)]) == EXIT_OK
    assert f"offset={top - 1}" in capsys.readouterr().out
    assert _lift_kernel_file(str(kernel)) == ({0}, top - 1)


def test_missing_file_exit_code(tmp_path, capsys):
    rc = main(["solve", "--in", str(tmp_path / "none.graph"),
               "--sol", str(tmp_path / "x.sol")])
    assert rc == EXIT_USAGE


def test_usage_errors(tmp_path, capsys):
    assert main(["reduce", "--in", "x"]) == EXIT_USAGE        # missing --out
    assert main(["frobnicate"]) == EXIT_USAGE                 # unknown command
    assert main(["reduce", "--in", "x", "--out", "y",
                 "--mode", "warp"]) == EXIT_USAGE             # unknown preset
    capsys.readouterr()


def test_one_parser_serves_every_call_without_shared_state(
        tmp_path, p3a_file, capsys, monkeypatch):
    """main builds its parser once per process; a usage error leaves it
    usable, and no parsed value of one call reaches the next."""
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real())
    cli._parser.cache_clear()
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "solve",
                        lambda args: seen.append(args) or EXIT_OK)
    sol = str(tmp_path / "x.sol")
    assert main(["solve", "--in", p3a_file]) == EXIT_USAGE   # missing --sol
    assert main(["solve", "--in", p3a_file, "--sol", sol, "--mode",
                 "cyclic-fast", "--time-limit", "5"]) == EXIT_OK
    assert main(["solve", "--in", p3a_file, "--sol", sol]) == EXIT_OK
    first, second = seen
    assert first is not second
    assert (first.mode, first.time_limit) == ("cyclic-fast", 5.0)
    assert (second.mode, second.time_limit) == ("nonincreasing", None)
    # the real solve still runs on the shared parser after a usage error
    monkeypatch.undo()
    assert main(["solve", "--in", p3a_file]) == EXIT_USAGE
    assert main(["solve", "--in", p3a_file, "--sol", sol]) == EXIT_OK
    assert read_solution(sol)[0] == 4
    assert built == [1]
    capsys.readouterr()


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("mwis")
    if exe is None:
        pytest.skip("console script not installed")
    out = str(tmp_path / "cli.graph")
    proc = subprocess.run([exe, "gen", "--n", "6", "--p", "0.5", "--seed",
                           "7", "--out", out], capture_output=True, text=True)
    assert proc.returncode == 0
    assert parse_graph(out).counts()[0] == 6
