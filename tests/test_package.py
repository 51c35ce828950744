"""The package's public surface: `__all__` names exactly what `__init__`
imports, so a name deleted from a module cannot linger in it."""

import ast
from pathlib import Path

import mwis


def _imported_public_names():
    tree = ast.parse(Path(mwis.__file__).read_text(encoding="utf-8"))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if not (alias.asname or alias.name).startswith("_")]


def test_star_import_works():
    namespace = {}
    exec("from mwis import *", namespace)
    assert set(mwis.__all__) <= namespace.keys()


def test_all_lists_each_imported_public_name_once():
    imported = _imported_public_names()
    assert len(mwis.__all__) == len(set(mwis.__all__))
    assert sorted(mwis.__all__) == sorted(imported)
