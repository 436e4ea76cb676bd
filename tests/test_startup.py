"""What `import simrank.cli` costs a cold CLI call, and whether each source module uses what it
imports; both checked by name, not by time."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Each of these pulls in a large import tree that no subcommand needs.
HEAVY = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "dataclasses", "inspect")


def _modules_after(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", f"{code}; import sys; print(*sys.modules)"],
                          env=env, capture_output=True, text=True, check=True, timeout=60)
    return set(done.stdout.split())


def test_cli_import_loads_no_heavy_stdlib_module():
    added = _modules_after("import simrank.cli") - _modules_after("pass")
    assert "simrank.cli" in added
    heavy = sorted(m for m in added if any(m == h or m.startswith(h + ".") for h in HEAVY))
    assert heavy == []


def test_every_import_is_used():
    """A trim that deletes the last use of a name must delete its import too."""
    stale = []
    for path in sorted((SRC / "simrank").glob("*.py")):
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
        stale += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert stale == []
