"""The rules, the blow-up and the search read the graph's maps directly.

Inside these modules a DynGraph is read through g._w and g._nbs only; the
checked accessors are for callers outside the package.  The solver's
entry point and its brute-force oracle take graphs from those callers and
keep them.
"""

import ast
from pathlib import Path

import mwis

MODULES = ("reductions.py", "struction.py", "blowup.py", "solver.py")
ACCESSORS = frozenset(("weight", "degree", "neighbors", "is_adjacent",
                       "is_active"))
BOUNDARY = frozenset(("solve", "brute_force_mwis"))


def accessor_calls(tree):
    """(line, enclosing function, accessor) of every checked-accessor call
    outside the boundary functions."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if func is None and node.name in BOUNDARY:
                return
            func = func or node.name
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ACCESSORS):
            out.append((node.lineno, func, node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_internal_modules_use_no_checked_accessors():
    src = Path(mwis.__file__).parent
    found = {}
    for name in MODULES:
        calls = accessor_calls(ast.parse((src / name).read_text()))
        if calls:
            found[name] = calls
    assert found == {}


def test_scan_sees_calls_and_spares_the_boundary():
    tree = ast.parse(
        "def rule(g, v):\n"
        "    return g.weight(v) + len(g._nbs[v])\n"
        "def solve(g):\n"
        "    return g.neighbors(0)\n"
        "def brute_force_mwis(g):\n"
        "    def inner():\n"
        "        return g.degree(0)\n"
        "    return inner()\n")
    assert accessor_calls(tree) == [(2, "rule", "weight")]
