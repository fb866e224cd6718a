"""Every import and every module-level private name in the package is used,
no module builds numpy record arrays, and none reads the environment.
Importing the CLI leaves scipy unloaded and numpy unexecuted: only `_lazy`
imports numpy, and it runs at its first use, which `extract` and `synth`
never reach.  No module imports `dataclasses`, and importing the CLI loads
neither it nor `inspect`, `fractions` or `decimal`; nor does `extract`.
The CLI calls no `repr`: `table` formats every result cell.  No module
loads numpy.random: `_pcg64` draws the seeded splits, and the tests keep
numpy.random as its oracle."""

import ast
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from conftest import make_synthetic_records

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


# numpy's __init__ always imports numpy.linalg, so its presence in sys.modules
# tells whether numpy has executed; "numpy" itself is there from the start, as
# the lazy module.
EXECUTED = "'numpy.linalg' in sys.modules"


def fresh(code: str, *args) -> list:
    """The stdout lines of `code`, run with `args` in a new interpreter that
    imports the package from the source tree."""
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                         check=True)
    return out.stdout.splitlines()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported inside f_quantile, which only `significance` reaches
    assert fresh("import sys, streampcq.cli; print('scipy' in sys.modules)") == ["False"]


def test_cli_import_leaves_dataclasses_inspect_and_fractions_unloaded():
    # records are plain slotted classes (`_record`), and only synthesis
    # imports fractions
    assert fresh("import sys, streampcq.cli; print(sorted(m for m in ('dataclasses', 'inspect', "
                 "'fractions', 'decimal') if m in sys.modules))") == ["[]"]


def importers(*modules) -> list:
    """The package files that import any of `modules`, anywhere in the file."""
    return [p.name for p in sorted(PACKAGE.glob("*.py"))
            if any(isinstance(n, ast.Import) and any(a.name in modules for a in n.names)
                   or isinstance(n, ast.ImportFrom) and n.module in modules
                   for n in ast.walk(ast.parse(p.read_text())))]


def test_only_the_table_module_imports_csv():
    assert importers("csv") == ["table.py"]


def test_the_cli_calls_no_repr():
    # `table.write_table` formats every result cell (a float by its shortest
    # repr, in CSV and JSON alike); the CLI hands it numbers, not strings
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert [f"cli.py:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id == "repr"] == []


def test_no_module_imports_dataclasses():
    assert importers("dataclasses") == []


def test_only_the_table_module_reads_or_writes_documents():
    # schema, params and sidecar files are parsed and written by table alone
    assert importers("json", "tomllib") == ["table.py"]


def record_array_uses(path: Path) -> list:
    """Where `path` names numpy's record arrays: `np.rec` or `recarray`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in ("rec", "recarray")
            or isinstance(n, ast.Name) and n.id == "recarray"
            or isinstance(n, ast.alias) and n.name.split(".")[-1] in ("rec", "recarray")]


def test_no_module_uses_record_arrays():
    # every field access on a recarray runs Python-level numpy code; the
    # calibration columns are plain arrays
    assert [u for p in sorted(PACKAGE.glob("*.py")) for u in record_array_uses(p)] == []


def environment_reads(path: Path) -> list:
    """Where `path` reads the process environment: `os.environ`, `os.getenv`
    or either imported from `os`."""
    names = ("environ", "environb", "getenv", "getenvb")
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in names
            and isinstance(n.value, ast.Name) and n.value.id == "os"
            or isinstance(n, ast.ImportFrom) and n.module == "os"
            and any(a.name in names for a in n.names)]


def test_no_module_reads_the_environment():
    # the command line alone chooses what a command does: the same command on
    # the same files gives the same output in any environment
    assert [u for p in sorted(PACKAGE.glob("*.py")) for u in environment_reads(p)] == []


def names_numpy(node) -> bool:
    """Whether `node` imports numpy, by a statement or by naming it as a string."""
    return (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
            or isinstance(node, ast.Constant) and node.value == "numpy")


def test_only_the_lazy_module_imports_numpy():
    importers = [p.name for p in sorted(PACKAGE.glob("*.py"))
                 if any(names_numpy(n) for n in ast.walk(ast.parse(p.read_text())))]
    assert importers == ["_lazy.py"]


def test_extract_and_synth_leave_numpy_unexecuted(tmp_path):
    from streampcq import cli

    stream, out = tmp_path / "s.bin", tmp_path / "features.csv"
    probe = f"""
import contextlib, io, sys
from streampcq import cli
print("import", {EXECUTED})
stream, out = sys.argv[1:]
cli.main(["synth", "--pqs", "0.5", "--qp", "34", "--texture-bits", "2400",
          "--points", "50", "--out", stream])
print("synth", {EXECUTED})
cli.main(["extract", stream, "--out", out])
print("extract", {EXECUTED})
for argv in (["--help"], ["extract"]):  # help, and an argument error
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with contextlib.suppress(SystemExit):
            cli.main(argv)
    print(argv[0], {EXECUTED})
"""
    assert fresh(probe, stream, out) == [
        "import False", "synth False", "extract False", "--help False", "extract False"]
    again = tmp_path / "again.csv"
    assert cli.main(["extract", str(stream), "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_extract_leaves_fractions_unloaded(tmp_path):
    from streampcq import cli

    stream, out = tmp_path / "s.bin", tmp_path / "features.csv"
    assert cli.main(["synth", "--pqs", "0.375", "--qp", "28", "--texture-bits", "800",
                     "--points", "100", "--out", str(stream)]) == 0
    probe = """
import sys
from streampcq import cli
print(cli.main(["extract", sys.argv[1], "--out", sys.argv[2]]), 'fractions' in sys.modules)
"""
    assert fresh(probe, stream, out) == ["0 False"]
    assert out.read_text().splitlines()[1].endswith(",0.375,28,800,100,8.0,slice-header")


def test_a_fresh_score_loads_numpy_on_first_use(tmp_path):
    from streampcq import cli

    stream, features = tmp_path / "s.bin", tmp_path / "features.csv"
    assert cli.main(["synth", "--pqs", "0.25", "--qp", "40", "--texture-bits", "9000",
                     "--points", "1200", "--out", str(stream)]) == 0
    assert cli.main(["extract", str(stream), "--out", str(features)]) == 0
    fresh_out, here = tmp_path / "fresh.csv", tmp_path / "here.csv"
    probe = f"""
import sys
from streampcq import cli
print(cli.main(["score", sys.argv[1], "--out", sys.argv[2]]), {EXECUTED})
"""
    assert fresh(probe, features, fresh_out) == ["0 True"]
    assert cli.main(["score", str(features), "--out", str(here)]) == 0
    assert fresh_out.read_bytes() == here.read_bytes()


def test_the_package_shares_numpy_whichever_is_imported_first():
    before = """
import numpy
import streampcq.cli
from streampcq import _lazy, model
print(type(numpy).__name__, _lazy.np is numpy, model.np is numpy)
"""
    assert fresh(before) == ["module True True"]
    after = f"""
import sys
import streampcq.cli
import numpy
from streampcq import model
print(numpy.arange(4).sum(), {EXECUTED}, model.np is numpy)
"""
    assert fresh(after) == ["6 True True"]


def numpy_random_uses(path: Path) -> list:
    """Where `path` names numpy.random: `np.random`/`numpy.random`, an import
    of it or of a name from it, or the string "numpy.random"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "random"
            and isinstance(n.value, ast.Name) and n.value.id in ("np", "numpy")
            or isinstance(n, ast.Import) and any(a.name.startswith("numpy.random")
                                                 for a in n.names)
            or isinstance(n, ast.ImportFrom) and (
                (n.module or "").startswith("numpy.random")
                or n.module == "numpy" and any(a.name == "random" for a in n.names))
            or isinstance(n, ast.Constant) and n.value == "numpy.random"]


def test_no_module_uses_numpy_random():
    # its import costs 6 MB of RSS (OpenSSL through secrets and hashlib);
    # `_pcg64` draws numpy's subsets without it
    assert [u for p in sorted(PACKAGE.glob("*.py")) for u in numpy_random_uses(p)] == []


@pytest.mark.skipif(int(numpy.__version__.split(".")[0]) < 2,
                    reason="numpy 1.x imports numpy.random in its own __init__")
def test_splits_leave_numpy_random_unloaded(tmp_path):
    training, out = tmp_path / "training.csv", tmp_path / "splits.csv"
    with open(training, "w", newline="") as fh:
        rows = csv.writer(fh)
        rows.writerow(["content", "pqs", "qp", "tbpp", "tc", "mos"])
        for r in make_synthetic_records(tc_values=[20.0, 50.0, 80.0, 110.0]):
            rows.writerow([r.content, r.pqs, r.qp, r.tbpp, r.tc, r.mos])
    probe = """
import sys
from streampcq import cli
code = cli.main(["splits", sys.argv[1], "--n", "2", "--seed", "1", "--train-contents", "2",
                 "--out", sys.argv[2]])
print(code, 'numpy.random' in sys.modules)
"""
    assert fresh(probe, training, out) == ["0 False"]
    assert len(out.read_text().splitlines()) == 3
