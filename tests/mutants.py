"""Mutation check: does tier-1 fail when one operator or constant in a source file changes?

    python tests/mutants.py [--root DIR] FILE...

FILE is a path under the repository root (``src/simrank/cli.py``); ``--root`` names another
checkout to test, by default the one holding this script. The checkout is copied to a scratch
directory. Each mutant changes one site:

- ``<`` <-> ``<=`` and ``>`` <-> ``>=``, ``==`` <-> ``!=``;
- ``+`` <-> ``-`` and ``*`` <-> ``/``, in expressions and augmented assignments;
- a numeric constant plus 1;
- ``and`` <-> ``or``.

Each mutant is written with ``ast.unparse`` over FILE in the copy, and tier-1 runs there with
``-x`` and the known-red A3 test deselected; a failing or timed-out run kills the mutant. An
unmutated ``ast.unparse`` control runs first and must pass, so every kill is the mutation's.
One line per mutant, then ``killed K/T``, goes to stdout. The file is not a test module, so
pytest does not collect it; it needs only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
           ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.And: "and", ast.Or: "or"}
A3 = "tests/test_acceptance.py::test_a3_correlation_findings"


def _sites(tree: ast.AST) -> list[tuple[ast.AST, int]]:
    """Every mutable site in source order: a node and, for a comparison, the index of its operator."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sites += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            sites.append((node, 0))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
              and not isinstance(node.value, bool)):
            sites.append((node, 0))
    return sorted(sites, key=lambda site: (site[0].lineno, site[0].col_offset, site[1]))


def mutate(source: str, k: int) -> tuple[str, str]:
    """The source with site ``k`` mutated, and a one-line description of the change."""
    node, i = _sites(tree := ast.parse(source))[k]
    if isinstance(node, ast.Constant):
        what = f"{node.value!r} -> {node.value + 1!r}"
        node.value += 1
    elif isinstance(node, ast.Compare):
        what = f"{SYMBOLS[type(node.ops[i])]} -> {SYMBOLS[SWAPS[type(node.ops[i])]]}"
        node.ops[i] = SWAPS[type(node.ops[i])]()
    else:
        what = f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[SWAPS[type(node.op)]]}"
        node.op = SWAPS[type(node.op)]()
    return ast.unparse(tree), f"{node.lineno}: {what}"


def _tier1(copy: Path, timeout: float) -> bool:
    """Whether tier-1 passes in ``copy``; a run past ``timeout`` seconds counts as a failure."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--deselect", A3], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("files", nargs="+", metavar="FILE")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(args.root, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        killed = total = 0
        for name in args.files:
            target = copy / name
            source = target.read_text(encoding="utf-8")
            target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
            start = time.perf_counter()
            if not _tier1(copy, timeout=600):
                print(f"{name}: the unmutated control fails tier-1", file=sys.stderr)
                return 2
            timeout = 10 * (time.perf_counter() - start)
            for k in range(len(_sites(ast.parse(source)))):
                mutant, what = mutate(source, k)
                target.write_text(mutant, encoding="utf-8")
                dead = not _tier1(copy, timeout)
                killed, total = killed + dead, total + 1
                print(f"{name}:{what}  {'killed' if dead else 'SURVIVED'}", flush=True)
            target.write_text(source, encoding="utf-8")
    print(f"killed {killed}/{total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
