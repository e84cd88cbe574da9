"""The package's export list: every listed name exists, once; and no
module keeps an import it does not use."""

import ast
from pathlib import Path

import weylift


def test_all_names_resolve_once():
    names = weylift.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(weylift, name)] == []
    namespace = {}
    exec("from weylift import *", namespace)
    assert set(names) <= set(namespace)


def test_modules_use_every_name_they_import():
    # A deletion that leaves its import behind shows here.  __init__.py
    # imports to re-export, so it is left out.
    unused = []
    for path in sorted(Path(weylift.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []
