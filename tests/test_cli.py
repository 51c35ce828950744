import shutil
import subprocess

import pytest

import mwis
from mwis.cli import (EXIT_OK, EXIT_PARSE, EXIT_TIME_LIMIT, EXIT_USAGE, main)
from mwis.metisio import parse_graph, read_solution

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
               "cyclic-strong", "--unsucc", "5", "--nmax", "64",
               "--dmax", "16", "--variant", "extended_reduced"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("kernel_n=")


def test_reduce_cyclic_without_phases_is_nonincreasing(tmp_path, capsys):
    graph = str(tmp_path / "g.graph")
    main(["gen", "--n", "40", "--p", "0.15", "--seed", "1", "--out", graph])
    files = {}
    for name, flags in (("plain", ["--mode", "nonincreasing"]),
                        ("x0", ["--mode", "cyclic-fast", "--unsucc", "0"]),
                        ("fast", ["--mode", "cyclic-fast"])):
        kernel = tmp_path / f"{name}.kernel"
        assert main(["reduce", "--in", graph, "--out", str(kernel)]
                    + flags) == EXIT_OK
        files[name] = (kernel.read_bytes(),
                       (tmp_path / f"{name}.kernel.meta.json").read_bytes())
    assert files["plain"] == files["x0"] != files["fast"]
    # the METIS header's first field is the kernel's vertex count
    assert files["plain"][0].split()[0] == b"31"
    assert files["fast"][0].split()[0] == b"0"
    capsys.readouterr()


def test_oracle_prints_solution(p3a_file, capsys):
    assert main(["oracle", "--in", p3a_file]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["%weight 4", "1", "3"]


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


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("3 2 10\n2 2\n3 1 3\n")   # missing a vertex line
    rc = main(["solve", "--in", str(bad), "--sol", str(tmp_path / "x.sol")])
    assert rc == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


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


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("mwis")
    if exe is None:
        pytest.skip("console script not installed")
    out = str(tmp_path / "cli.graph")
    proc = subprocess.run([exe, "gen", "--n", "6", "--p", "0.5", "--seed",
                           "7", "--out", out], capture_output=True, text=True)
    assert proc.returncode == 0
    assert parse_graph(out).counts()[0] == 6
