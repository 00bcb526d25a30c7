"""Every module of the package reads each name it imports.

A deletion can leave an import behind with no reader; this check, on the
syntax tree alone, finds it on every Python the suite runs on. A name that a
module lists in ``__all__`` is read by the modules that import it.
"""

import ast
from pathlib import Path

import pytest

import dualtree

MODULES = sorted(Path(dualtree.__file__).parent.glob("*.py"))


def unread_imports(source):
    """The names ``source`` binds by an import and never reads, in order."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_found():
    source = "import os\nimport os.path as osp\nfrom math import pi, tau\n__all__ = ['pi']\nprint(os.sep)\n"
    assert unread_imports(source) == ["osp", "tau"]
