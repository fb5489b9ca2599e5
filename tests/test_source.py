"""Source-level checks on the library that no behavioural test can make."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "finlat"


def test_no_assert_statements():
    # python -O strips assert, so no invariant may live in one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/finlat: {found}"
