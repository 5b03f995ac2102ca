"""src/ holds no test-only code: every public top-level function and class
of the package is used by code outside its own definition and tests/, that
is by the package itself, by bench/ or by scripts/.  A use is a name or an
attribute read in the parsed source; an import alone is none."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vortexmem"


def _reads(tree: ast.AST) -> set[str]:
    """The names read in a syntax tree, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_src_holds_no_test_only_code():
    outside = set().union(*(_reads(ast.parse(path.read_text()))
                            for folder in ("bench", "scripts")
                            for path in (ROOT / folder).rglob("*.py")))
    modules = {path.stem: ast.parse(path.read_text()).body for path in PACKAGE.glob("*.py")}
    statements = [(stmt, _reads(stmt)) for body in modules.values() for stmt in body]
    test_only = [
        f"{module}.{stmt.name}" for module, body in sorted(modules.items()) for stmt in body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
        and stmt.name not in outside
        and not any(stmt.name in reads for other, reads in statements if other is not stmt)]
    assert not test_only, f"used only by tests/: {', '.join(test_only)}"
