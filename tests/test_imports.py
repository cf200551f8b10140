"""The package imports nothing beyond the standard library and numpy.

``pyproject.toml`` declares numpy as the one dependency, so an import of any
other installed package would pass here and fail on a clean install.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dimwitness"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_stdlib_numpy_or_relative():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{source.name}: {root}" for root in roots if root not in ALLOWED]
    assert not foreign
