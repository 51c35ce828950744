import base64
import json
import random
import re

import pytest

import mwis
from mwis import ParseError, parse_graph, read_solution, write_graph, write_kernel
from mwis.metisio import sidecar_path, write_solution, write_stats
from mwis.translog import from_bytes

from reference import random_graph


def _write(tmp_path, text, name="g.graph"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


P3A_TEXT = "3 2 10\n2 2\n3 1 3\n2 2\n"


def test_parse_path_example(tmp_path, p3a):
    g = parse_graph(_write(tmp_path, P3A_TEXT))
    assert g == p3a


def test_parse_skips_comment_lines(tmp_path):
    text = "% generated for a test\n3 2 10\n% body follows\n2 2\n3 1 3\n2 2\n"
    g = parse_graph(_write(tmp_path, text))
    assert g.counts() == (3, 2)


def test_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("3 2\n2 2\n3 1 3\n2 2\n", "line 1"),            # bad header
        ("3 2 10\n2 2\n3 1 3\n", "line 1"),              # missing vertex line
        ("3 9 10\n2 2\n3 1 3\n2 2\n", "announces 9 edges"),
        ("3 2 10\n2 2\n3 1 3\n0 2\n", "line 4: weight 0"),
        ("3 2 10\n2 2\n3 1 3\n2 9\n", "line 4: neighbor 9 out of range"),
        ("3 2 10\n2 2\n3 2 3\n2 2\n", "self-loop"),
        ("3 2 10\n2 2\n3 1 1 3\n2 2\n", "duplicate neighbor"),
        ("3 2 10\n2 x\n3 1 3\n2 2\n", "line 2"),
        ("", "line 1: missing header"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=re.escape(fragment)):
            parse_graph(_write(tmp_path, text))


def test_non_ascii_bytes_are_parse_errors_with_line_numbers(tmp_path):
    graphs = [
        (b"% caf\xc3\xa9\n3 2 10\n2 2\n3 1 3\n2 2\n", "line 1"),  # comment
        (b"3 2 10\n2 2\n3 1 3\xff\n2 2\n", "line 3"),
        (b"3 2 10\r\n2 2\r\n3 1 3\r\n\x802 2\r\n", "line 4"),
    ]
    for data, fragment in graphs:
        p = tmp_path / "g.graph"
        p.write_bytes(data)
        with pytest.raises(ParseError, match=re.escape(f"{fragment}: non-ASCII")):
            parse_graph(str(p))
    p = tmp_path / "s.sol"
    p.write_bytes(b"%weight 4\n1\n3\xc2\xa0\n")
    with pytest.raises(ParseError, match=re.escape("line 3: non-ASCII")):
        read_solution(str(p))


def test_integers_are_a_sign_and_digits_only(tmp_path):
    # int() alone also reads '1_0' as 10
    graphs = [
        ("2 1 10\n1_0 2\n5 1\n", "line 2: weight '1_0'"),
        ("2 1 10\n10 2\n5 1_\n", "line 3: neighbor '1_'"),
        ("% c\n2 0_1 10\n10 2\n5 1\n", "line 2: edge count '0_1'"),
    ]
    for text, fragment in graphs:
        with pytest.raises(ParseError, match=re.escape(fragment)):
            parse_graph(_write(tmp_path, text))
    for text, fragment in (("%weight 1_0\n1\n", "line 1: weight '1_0'"),
                           ("%weight 10\n1_0\n", "line 2: vertex id '1_0'")):
        with pytest.raises(ParseError, match=re.escape(fragment)):
            read_solution(_write(tmp_path, text, "s.sol"))
    assert parse_graph(_write(tmp_path, "2 1 10\n+10 2\n5 1\n")).weight(0) == 10


def test_total_weight_is_bounded_by_the_log_word(tmp_path):
    # the transformation log packs weights as u64; no weight or offset it
    # records exceeds the total weight, so the parser caps that total
    top = 2**64 - 1
    g = parse_graph(_write(tmp_path, f"2 1 10\n{top - 1} 2\n1 1\n"))
    assert g.weight(0) == top - 1
    cases = [
        (f"2 1 10\n{top + 1} 2\n1 1\n", "line 2"),
        (f"% c\n3 0 10\n{2**63}\n{2**63 - 1}\n1\n", "line 5"),
        (f"2 0 10\n{2**63}\n{2**63}\n", "line 3"),
    ]
    for text, line in cases:
        with pytest.raises(ParseError,
                           match=re.escape(f"{line}: total weight passes")):
            parse_graph(_write(tmp_path, text))


def test_blank_lines_after_the_last_vertex_line_are_ignored(tmp_path):
    g = parse_graph(_write(tmp_path, P3A_TEXT + "\n  \n\t\n"))
    assert g.counts() == (3, 2)
    # among the vertex lines a blank line is still a vertex without weight
    with pytest.raises(ParseError,
                       match=re.escape("line 3: vertex line needs a weight")):
        parse_graph(_write(tmp_path, "3 1 10\n5 3\n\n5 1\n"))


def test_one_sided_edge_rejected(tmp_path):
    text = "2 1 10\n4 2\n5\n"
    with pytest.raises(ParseError, match="not listed on vertex 2"):
        parse_graph(_write(tmp_path, text))


def test_write_then_parse_round_trip(tmp_path, c4a):
    path = str(tmp_path / "c4a.graph")
    write_graph(c4a, path)
    assert parse_graph(path) == c4a


def test_round_trip_compacts_ids(tmp_path):
    g = mwis.new_graph(4, [1, 2, 3, 4])
    g.add_edge(0, 2)
    g.remove_vertex(1)          # leaves a hole in the id space
    path = str(tmp_path / "holes.graph")
    write_graph(g, path)
    h = parse_graph(path)
    assert h.counts() == (3, 1)
    assert [h.weight(v) for v in h.active_vertices()] == [1, 3, 4]
    assert h.is_adjacent(0, 1)


def test_round_trip_random_graphs(tmp_path):
    rnd = random.Random(8)
    for i in range(15):
        g = random_graph(rnd, rnd.randint(1, 25), 0.25, wmax=200)
        path = str(tmp_path / f"r{i}.graph")
        write_graph(g, path)
        assert parse_graph(path) == g


def test_write_kernel_sidecar(tmp_path, s3):
    res = mwis.preprocess(s3.copy())
    path = str(tmp_path / "kernel.graph")
    write_kernel(res, path)
    assert (tmp_path / "kernel.graph").read_text() == "0 0 10\n"
    meta = json.loads((tmp_path / "kernel.graph.meta.json").read_text())
    assert meta["offset"] == 5
    assert meta["id_map"] == []
    log = from_bytes(base64.b64decode(meta["log"]))
    assert log.offset == 5
    assert log.events == res.log.events


def test_write_kernel_id_map_covers_created_vertices(tmp_path):
    g = mwis.random_gnp_graph(20, 0.2, seed=14)
    res = mwis.preprocess(g, "cyclic-fast")
    path = str(tmp_path / "k.graph")
    write_kernel(res, path)
    meta = json.loads((tmp_path / "k.graph.meta.json").read_text())
    kernel_ids = res.kernel.active_vertices()
    assert [pair[0] for pair in meta["id_map"]] == kernel_ids
    assert sorted(pair[1] for pair in meta["id_map"]) == \
        list(range(1, len(kernel_ids) + 1))
    assert parse_graph(path).counts() == res.kernel.counts()


def test_sidecar_path_suffix():
    assert sidecar_path("foo.graph") == "foo.graph.meta.json"


def test_solution_round_trip(tmp_path):
    path = str(tmp_path / "out.sol")
    write_solution(path, 4, {2, 0})
    assert (tmp_path / "out.sol").read_text() == "%weight 4\n1\n3\n"
    assert read_solution(path) == (4, {0, 2})


def test_read_solution_skips_a_blank_line(tmp_path):
    path = _write(tmp_path, "%weight 4\n1\n\n3\n", "blank.sol")
    assert read_solution(path) == (4, {0, 2})


def test_read_solution_requires_weight_header(tmp_path):
    p = tmp_path / "bad.sol"
    p.write_text("1\n3\n")
    with pytest.raises(ParseError, match="weight"):
        read_solution(str(p))
    p2 = tmp_path / "bad2.sol"
    p2.write_text("%weight 4\n0\n")
    with pytest.raises(ParseError):
        read_solution(str(p2))


def test_read_solution_rejects_repeats(tmp_path):
    p = tmp_path / "bad.sol"
    for text, fragment in (("%weight 5\n1\n1\n", "line 3: vertex id 1 repeats"),
                           ("%weight 4\n1\n%weight 5\n3\n",
                            "line 3: second %weight line")):
        p.write_text(text)
        with pytest.raises(ParseError, match=re.escape(fragment)):
            read_solution(str(p))


def test_write_stats_canonical_order(tmp_path):
    path = str(tmp_path / "run.stats")
    write_stats(path, {"weight": 9, "mode": "nonincreasing", "branches": 2,
                       "kernel_n": 0, "instance": "x.graph"})
    text = (tmp_path / "run.stats").read_text()
    assert text == ("instance=x.graph\nmode=nonincreasing\nkernel_n=0\n"
                    "weight=9\nbranches=2\n")
