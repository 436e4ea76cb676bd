"""What `import simrank` and each CLI subcommand load, whether each source and test module
uses what it imports, that only the CLI module prints, warns or writes, and that only the
dataset module reads a Dataset's table; all checked by module name, not by time."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Each of these pulls in a large import tree that no subcommand needs.
HEAVY = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "dataclasses", "inspect")


CORR = ("simrank.correlation", "simrank.special")
RANK = ("simrank.normalization", "simrank.metrics", "simrank.ranking")

# one run of each subcommand, and the simrank modules it must not load
RUNS = (
    (["rank", "--target", "Messi", "--metric", "p2"], CORR),
    (["nearest", "--target", "Messi", "-k", "3"], CORR),
    (["dump-normalized"], CORR),
    (["corr", "--top", "3", "--format", "json"], (*RANK, "mmap")),  # mmap only where corr forks
    (["scatter", "-x", "KeyP", "-y", "AvPasses", "--trend"], RANK),
    (["validate"], ("simrank.reports", "simrank.ranking", *CORR)),
)


def _modules_after(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", f"{code}; import sys; print(*sys.modules, file=sys.stderr)"],
                          env=env, capture_output=True, text=True, check=True, timeout=60)
    return set(done.stderr.split())


def _heavy(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if any(m == h or m.startswith(h + ".") for h in HEAVY))


def test_cli_import_loads_no_heavy_stdlib_module():
    added = _modules_after("import simrank.cli") - _modules_after("pass")
    assert sorted(m for m in added if m.startswith("simrank")) == ["simrank", "simrank.cli", "simrank.errors"]
    assert _heavy(added) == []


def test_package_import_loads_no_submodule():
    loaded = _modules_after("import simrank; assert simrank.__version__")
    assert sorted(m for m in loaded if m.startswith("simrank.")) == []
    # a submodule still loads on first use, as the benchmark's set-up probe reaches it
    loaded = _modules_after("import simrank; simrank.dataset.load_dataset; simrank.schema.reference_schema")
    assert {"simrank.dataset", "simrank.schema"} <= loaded


@pytest.mark.parametrize("argv, unused", RUNS, ids=[run[0][0] for run in RUNS])
def test_subcommand_loads_only_what_it_uses(argv, unused):
    loaded = _modules_after(f"from simrank.cli import cli_main; assert cli_main({argv!r}) == 0")
    assert sorted(loaded.intersection(unused)) == []
    assert _heavy(loaded - _modules_after("pass")) == []


def test_every_import_is_used():
    """A trim that deletes the last use of a name must delete its import too."""
    stale = []
    for path in sorted([*(SRC / "simrank").glob("*.py"), *TESTS.glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name).partition(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
        # annotations are ordinary expression nodes, so their names count as uses
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        stale += [f"{path.relative_to(SRC.parent)}:{line}: {name}"
                  for name, line in imported.items() if name not in used]
    assert stale == []


OUTPUT = {"stdout", "stderr", "write_text", "write_bytes"}  # attributes that reach a stream or a file


def _presents(node: ast.AST) -> str:
    """What ``node`` prints, warns or writes through, or "" if nothing."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
        return "print"
    if isinstance(node, ast.Attribute) and node.attr in OUTPUT:
        return node.attr
    if isinstance(node, ast.Import):
        return " ".join(a.name for a in node.names if a.name == "warnings")
    if isinstance(node, ast.ImportFrom):
        return " ".join(a.name for a in node.names if node.module == "warnings" or a.name in OUTPUT)
    return ""


def test_only_the_cli_prints_warns_or_writes():
    """The library returns what it finds, a constant column included; only cli.py presents it on
    stdout, stderr or disk."""
    found = []
    for path in sorted((SRC / "simrank").glob("*.py")):
        if path.name != "cli.py":
            found += [f"{path.relative_to(SRC.parent)}:{node.lineno}: {what}"
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if (what := _presents(node))]
    assert found == []


def test_only_the_dataset_module_reads_a_table():
    """``Dataset.column()`` is the one reader of a column outside dataset.py, so no computation
    can skip its length check."""
    found = [f"{path.relative_to(SRC.parent)}:{node.lineno}"
             for path in sorted((SRC / "simrank").glob("*.py")) if path.name != "dataset.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "table"]
    assert found == []
