"""What `import simrank.cli` costs a cold CLI call, checked by module name, not by time."""

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
