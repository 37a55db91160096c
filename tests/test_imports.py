"""Every module-level import in the package is read.

A refactor that moves the last use of a name out of a module tends to leave
its import behind; this guard finds those with the standard library's
``ast`` alone, so it needs no linter.
"""

from __future__ import annotations

import ast

import pytest

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "decisionflow"

# (module, name) pairs imported on purpose and read nowhere in the module
READ_ELSEWHERE = {
    # perfbench/spans.py times request digests by wrapping this name, and a
    # traced benchmark pass fails without it (tests/test_bench_patch_points.py)
    ("pipeline", "request_digest"),
}


def _unread_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.partition(".")[0]
                      for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound
            if name not in read and (path.stem, name) not in READ_ELSEWHERE]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_module_level_import_is_read(path):
    assert _unread_imports(path) == []

