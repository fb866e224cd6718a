"""Every import and every module-level private name in the package is used,
and importing the CLI leaves scipy unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "streampcq"


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    assert [u for p in modules for u in unused_imports(p)] == []


def unread_private_names(path: Path) -> list:
    """Module-level `_name` definitions that the module itself never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{path.name}:{line}: {name}" for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_no_unread_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [u for p in modules for u in unread_private_names(p)] == []


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported inside f_quantile, which only `significance` reaches
    probe = "import sys, streampcq.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert out.stdout.strip() == "False"


def test_only_the_table_module_imports_csv():
    importers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if any(isinstance(n, ast.Import) and any(a.name == "csv" for a in n.names)
                        or isinstance(n, ast.ImportFrom) and n.module == "csv"
                        for n in ast.walk(ast.parse(p.read_text())))]
    assert importers == ["table.py"]
