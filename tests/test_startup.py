"""What `import simrank` and each CLI subcommand load, whether each source and test module
uses what it imports, that only the CLI module prints, warns or writes, and only its cli_main
to stdout, that the CLI reads simrank names only through the package, and that only the
dataset module reads a Dataset's table; all checked by module name, not by time. Then how a
`python -m simrank.cli` process ends: as `cli_main` does in process, with its heap frozen, and
with one error line when its output cannot be written."""

import ast
import gc
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


def _imports_simrank(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").partition(".")[0] == "simrank"
    return isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "simrank" for a in node.names)


def test_the_cli_imports_no_simrank_module_in_a_function():
    """cli.py reads each simrank name as ``simrank.name``, so the package's one name-to-module
    table decides what a subcommand loads; no function restates it with an import of its own."""
    tree = ast.parse((SRC / "simrank" / "cli.py").read_text(encoding="utf-8"))
    found = sorted({f"src/simrank/cli.py:{node.lineno}"
                    for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                    for node in ast.walk(function) if _imports_simrank(node)})
    assert found == []


def _cli(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """``python -X dev -m simrank.cli ARGV`` with stdout buffered, as by default; -X dev prints a
    leaked ResourceWarning or an ``Exception ignored`` at shutdown on stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-X", "dev", "-m", "simrank.cli", *argv],
                          env=env, stderr=subprocess.PIPE, text=True, timeout=60, **kwargs)


PARITY = {**{run[0][0]: run[0] for run in RUNS}, "help": ["--help"],
          "usage-error": ["nearest", "--target", "Messi"], "data-error": ["rank", "--target", "Nobody"]}


@pytest.mark.parametrize("argv", PARITY.values(), ids=PARITY)
def test_run_as_module_matches_cli_main(capsys, monkeypatch, argv):
    """runpy warns on stderr if importing the package has already imported simrank.cli."""
    from simrank.cli import cli_main

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    code = cli_main(argv)
    captured = capsys.readouterr()
    done = _cli(*argv, stdout=subprocess.PIPE)
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)


def test_only_main_freezes_the_heap():
    from simrank.cli import cli_main

    before = gc.get_freeze_count()
    assert cli_main(["validate"]) == 0
    assert gc.get_freeze_count() == before
    code = ("import gc, sys, simrank.cli\n"
            "sys.argv[1:] = ['validate']\n"
            "try:\n    simrank.cli.main()\n"
            "except SystemExit as exc:\n    print(exc.code, gc.get_freeze_count() > 0, file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.stdout, done.stderr) == ("ok\n", "0 True\n")
    tree = ast.parse((SRC / "simrank" / "cli.py").read_text(encoding="utf-8"))
    freezers = [function.name for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                for node in ast.walk(function) if isinstance(node, ast.Attribute) and node.attr == "freeze"]
    assert freezers == ["main"]


def _writes_stdout(node: ast.AST) -> bool:
    """``sys.stdout.write(...)``, or a ``print`` with no ``file=``."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name):
        return node.func.id == "print" and all(keyword.arg != "file" for keyword in node.keywords)
    return (isinstance(node.func, ast.Attribute) and node.func.attr == "write"
            and ast.unparse(node.func.value) == "sys.stdout")


def test_only_cli_main_writes_stdout():
    """Each subcommand returns its text and exit code; cli_main writes the text where a failed
    write becomes the one error line."""
    tree = ast.parse((SRC / "simrank" / "cli.py").read_text(encoding="utf-8"))
    writers = [function.name for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
               for node in ast.walk(function) if _writes_stdout(node)]
    assert writers == ["cli_main"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_disk_is_one_error_line():
    with open("/dev/full", "w", encoding="utf-8") as full:
        done = _cli("rank", "--target", "Messi", stdout=full)
    assert (done.returncode, done.stderr) == (2, "simrank: error: [Errno 28] No space left on device\n")


CLOSED = "simrank: error: [Errno 9] stdout is closed\n"


@pytest.mark.parametrize("argv, code, stderr", [
    (["rank", "--target", "Messi"], 2, CLOSED),
    (["validate"], 2, CLOSED),
    (["scatter", "-x", "KeyP", "-y", "SpG", "--svg", "plot.svg"], 0, ""),
], ids=["rank", "validate", "scatter-svg"])
def test_a_closed_stdout_is_one_error_line(tmp_path, argv, code, stderr):
    """A command with text to print fails on a closed stdout; scatter --svg prints nothing, so it
    writes its file and exits 0."""
    done = _cli(*argv, preexec_fn=lambda: os.close(1), cwd=tmp_path)
    assert (done.returncode, done.stderr) == (code, stderr)
    written = {path.name: path.read_text(encoding="utf-8")[:5] for path in tmp_path.iterdir()}
    assert written == ({"plot.svg": "<svg "} if code == 0 else {})
