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


def test_oracles_import_only_plain_data_types():
    # the oracles stay independent of the library's algorithms: from finlat
    # they may take only the types that carry their inputs
    allowed = {"FiniteLattice", "build_lattice", "FiniteAlgebra", "Representation"}
    path = SRC.parent.parent / "tests" / "oracles.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "finlat":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "finlat" for a in node.names), "plain finlat import"
    assert imported <= allowed, f"oracles.py imports {sorted(imported - allowed)} from finlat"
