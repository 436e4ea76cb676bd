"""Seeded synthetic player tables for the benchmark.

Rows are resampled from the 29 bundled players with Gaussian noise whose
standard deviation is a fixed share of each column's own spread, then
clipped at 0 and rounded to the column's own precision in the bundled
file. Resampling keeps the correlation structure of the real data, and
with it realistic p-value magnitudes and near-ties in distance; noise drawn
uniformly over each column's range would lose all three.

The same (n, seed) always gives the same CSV text, byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import statistics
from pathlib import Path

REFERENCE_CSV = Path(__file__).resolve().parent.parent / "src" / "simrank" / "data" / "whoscored_2018.csv"

# Noise sd as a share of each column's population sd over the 29 players.
NOISE = 0.25


def _decimals(cell: str) -> int:
    return len(cell.split(".", 1)[1]) if "." in cell else 0


def reference_rows(path: Path = REFERENCE_CSV) -> tuple[list[str], list[list[str]]]:
    """Header and raw text rows of the bundled CSV."""
    with open(path, encoding="utf-8-sig", newline="") as stream:
        rows = [row for row in csv.reader(stream) if row]
    return rows[0], rows[1:]


def synth_csv(n: int, seed: int, path: Path = REFERENCE_CSV) -> str:
    """CSV text of ``n`` synthetic players drawn with ``random.Random(seed)``."""
    header, rows = reference_rows(path)
    width = len(header) - 1
    values = [[float(cell) for cell in row[1:]] for row in rows]
    places = [max(_decimals(row[k + 1]) for row in rows) for k in range(width)]
    spread = [NOISE * statistics.pstdev(v[k] for v in values) for k in range(width)]
    rng = random.Random(seed)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for i in range(n):
        base = rng.randrange(len(rows))
        cells = [f"{rows[base][0]} {i:05d}"]
        for k in range(width):
            x = max(0.0, values[base][k] + rng.gauss(0.0, spread[k]))
            cells.append(f"{x:.{places[k]}f}")
        writer.writerow(cells)
    return out.getvalue()


def describe(text: str, n: int, seed: int) -> dict:
    """Provenance recorded with the results: size, seed and content digest."""
    return {"n": n, "seed": seed, "sha256": hashlib.sha256(text.encode()).hexdigest()}
