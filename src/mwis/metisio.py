"""Weighted METIS graph files plus the artifact side formats.

Graph file grammar (fmt code 10: vertex weights, no edge weights):

    % comment lines start with a percent sign
    n m 10
    w_1  neighbors of vertex 1 (1-indexed, space separated)
    ...
    w_n  neighbors of vertex n

Every undirected edge must appear in both endpoint lines, and the weights
may sum to at most MAX_TOTAL_WEIGHT = 2^64 - 1.  Blank lines may follow the
last vertex line.  Internally vertices are 0-indexed: file id k maps to
internal id k-1.

Kernels are written as a graph file plus a JSON sidecar (offset, kernel-id
to file-id map, and the serialized transformation log), solutions as one
"%weight W" comment followed by distinct ascending 1-indexed vertex ids,
and run statistics as flat key=value lines.
"""

import base64
import json

from .graph import DynGraph
from .translog import to_bytes


# The transformation log stores weights as u64, and every weight or offset
# it records is at most the optimum, hence at most the total weight.
MAX_TOTAL_WEIGHT = (1 << 64) - 1


class ParseError(Exception):
    pass


def _to_int(token, lineno, what):
    # lines are ASCII, so but for '1_0' int() takes only a sign and digits
    if "_" not in token:
        try:
            return int(token)
        except ValueError:
            pass
    raise ParseError(f"line {lineno}: {what} {token!r} is not an integer")


def _read_lines(path):
    """The lines of an ASCII text file; any other byte is a ParseError."""
    with open(path, "rb") as fh:
        lines = fh.read().decode("ascii", "surrogateescape").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii():
            raise ParseError(f"line {lineno}: non-ASCII byte")
    return lines


def parse_graph(path):
    """Parse a weighted METIS file into a DynGraph with ids 0..n-1."""
    raw = _read_lines(path)
    entries = [(i + 1, line) for i, line in enumerate(raw)
               if not line.lstrip().startswith("%")]
    if not entries:
        raise ParseError("line 1: missing header")
    lineno, header = entries[0]
    tokens = header.split()
    if len(tokens) != 3 or tokens[2] != "10":
        raise ParseError(f"line {lineno}: header must be 'n m 10'")
    n = _to_int(tokens[0], lineno, "vertex count")
    m = _to_int(tokens[1], lineno, "edge count")
    body = entries[1:]
    # a vertex line has a weight, so blank lines at the end are no vertices
    while body and not body[-1][1].strip():
        body.pop()
    if len(body) != n:
        raise ParseError(f"line {lineno}: header announces {n} vertices, "
                         f"file has {len(body)} vertex lines")

    weights = []
    total = 0
    adj = [set() for _ in range(n)]
    lines_of = [0] * n
    for i, (ln, line) in enumerate(body):
        tokens = line.split()
        if not tokens:
            raise ParseError(f"line {ln}: vertex line needs a weight")
        w = _to_int(tokens[0], ln, "weight")
        if w < 1:
            raise ParseError(f"line {ln}: weight {w} is below 1")
        total += w
        if total > MAX_TOTAL_WEIGHT:
            raise ParseError(f"line {ln}: total weight passes 2^64 - 1")
        weights.append(w)
        lines_of[i] = ln
        for tok in tokens[1:]:
            u = _to_int(tok, ln, "neighbor")
            if u < 1 or u > n:
                raise ParseError(f"line {ln}: neighbor {u} out of range 1..{n}")
            if u == i + 1:
                raise ParseError(f"line {ln}: self-loop at vertex {u}")
            if u - 1 in adj[i]:
                raise ParseError(f"line {ln}: duplicate neighbor {u}")
            adj[i].add(u - 1)

    for i in range(n):
        for j in adj[i]:
            if i not in adj[j]:
                raise ParseError(
                    f"line {lines_of[i]}: edge {i + 1}-{j + 1} is not "
                    f"listed on vertex {j + 1}")
    edges = sum(len(s) for s in adj) // 2
    if edges != m:
        raise ParseError(f"line {lines_of[0] if body else lineno}: header "
                         f"announces {m} edges, file lists {edges}")

    g = DynGraph()
    for i in range(n):
        g.add_vertex(weights[i], sorted(j for j in adj[i] if j < i))
    g.take_changed()
    return g


def _format_graph(g):
    ids = g.active_vertices()
    ext = {v: i + 1 for i, v in enumerate(ids)}
    n, m = g.counts()
    lines = [f"{n} {m} 10"]
    for v in ids:
        tokens = [str(g.weight(v))]
        tokens.extend(str(ext[u]) for u in g.neighbors(v))
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n", ext


def write_graph(g, path):
    text, _ = _format_graph(g)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def sidecar_path(path):
    return str(path) + ".meta.json"


def write_kernel(kres, path):
    """Kernel graph file plus sidecar with offset, id map and the log."""
    text, ext = _format_graph(kres.kernel)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    meta = {
        "version": 1,
        "offset": kres.offset,
        "id_map": [[v, ext[v]] for v in sorted(ext)],
        "log": base64.b64encode(to_bytes(kres.log)).decode("ascii"),
    }
    with open(sidecar_path(path), "w", encoding="ascii", newline="\n") as fh:
        fh.write(json.dumps(meta, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def write_solution(path, weight, internal_ids):
    lines = [f"%weight {weight}"]
    lines.extend(str(v + 1) for v in sorted(internal_ids))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_solution(path):
    """Returns (claimed weight, set of internal 0-indexed ids)."""
    weight = None
    ids = set()
    for lineno, line in enumerate(_read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("%"):
            tokens = line[1:].split()
            if len(tokens) == 2 and tokens[0] == "weight":
                if weight is not None:
                    raise ParseError(f"line {lineno}: second %weight line")
                weight = _to_int(tokens[1], lineno, "weight")
            continue
        v = _to_int(line, lineno, "vertex id")
        if v < 1:
            raise ParseError(f"line {lineno}: vertex id {v} is below 1")
        if v - 1 in ids:
            raise ParseError(f"line {lineno}: vertex id {v} repeats")
        ids.add(v - 1)
    if weight is None:
        raise ParseError("missing %weight header line")
    return weight, ids


_STATS_ORDER = ("instance", "mode", "kernel_n", "kernel_m", "offset",
                "weight", "status")


def write_stats(path, stats):
    """Flat key=value lines, canonical keys first, the rest sorted."""
    keys = [k for k in _STATS_ORDER if k in stats]
    keys.extend(sorted(k for k in stats if k not in _STATS_ORDER))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for k in keys:
            fh.write(f"{k}={stats[k]}\n")
