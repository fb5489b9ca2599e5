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


def test_lattices_are_made_only_by_the_order_check_and_dual():
    # every order becomes a lattice through _order_lattice; dual swaps the
    # tables of a lattice that has passed it.  Nothing else may skip the check
    allowed = {("lattice.py", "_order_lattice"), ("lattice.py", "dual")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside_allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) in allowed:
                inside_allowed |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in inside_allowed:
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "FiniteLattice":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"FiniteLattice built outside _order_lattice and dual: {found}"
