"""Fixed pieces of work that measure how fast the machine runs right now.

The machine the benchmark was built on is a share of a busy host: the same
operation takes 20% to 40% longer in some minutes than in others, and a
whole 60 s run can fall in a slow period. The benchmark times a yardstick
before and after every timed sample and divides the sample by the mean of
the two factors, so that a slow period slows both and cancels.

A factor is the yardstick's time over its nominal time, its median on the
machine of README.md's baseline; a normalised sample is in seconds at that
machine's usual speed. Neither yardstick imports simrank and their inputs
never change, so a change to simrank cannot move them. Each workload uses
the one whose work is most like its own:

- compute: centred cross products and sums of squares over four seeded
  lists of 10 000 floats, the kind of work of simrank's hot paths (boxed
  floats in lists, generator sums);
- spawn: a bare interpreter, `python -S -c pass`, started and waited for,
  the kind of work of a cold CLI run (exec, loading, process exit).
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

COMPUTE_NOMINAL_S = 0.025
SPAWN_NOMINAL_S = 0.0165
_COLUMNS = [[rng.gauss(0.0, 1.0) for _ in range(10_000)] for rng in map(random.Random, range(4))]


def compute_factor() -> float:
    """Wall time of one pass of the fixed computation, over its nominal time."""
    start = time.perf_counter()
    for i, a in enumerate(_COLUMNS):
        for b in _COLUMNS[i + 1:]:
            mean_a, mean_b = sum(a) / len(a), sum(b) / len(b)
            sum((x - mean_a) * (y - mean_b) for x, y in zip(a, b))
            sum((x - mean_a) ** 2 for x in a)
            sum((y - mean_b) ** 2 for y in b)
    return (time.perf_counter() - start) / COMPUTE_NOMINAL_S


def spawn_factor() -> float:
    """Wall time of a bare interpreter run, over its nominal time."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], capture_output=True, check=True, timeout=60)
    return (time.perf_counter() - start) / SPAWN_NOMINAL_S
