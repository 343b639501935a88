import ast
from pathlib import Path

import glsuper

SOURCE = Path(glsuper.__file__).parent


def test_no_assert_statements_in_source():
    # python -O strips assert statements, so a gate written as one would
    # vanish; gates raise InternalCheckError instead
    found = [
        f"{path.relative_to(SOURCE.parent)}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in source: {found}"
