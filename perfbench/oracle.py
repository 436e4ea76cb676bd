"""Plain-Python reference results that the benchmark checks simrank against.

Nothing here imports simrank: the CSV, the schema file, scaling, distances,
rankings, Pearson's rho and the Student-t tail are all computed again from
their definitions. The t tail uses the power series of the regularized
incomplete beta function (Abramowitz & Stegun 26.5.4), not the continued
fraction that simrank.special evaluates, so the two p-value paths share no
algorithm.

Each ``check_*`` function returns a list of mismatch descriptions; an
empty list means the output is correct.

Run as a script, it prints the expected results of a table read from
stdin as JSON lines, so that the benchmark process never holds the
oracle's parse of a large table:

    python3 oracle.py [--corr] TARGET_INDEX... < table.csv

The first line is {"players": [...]}. Then, for each target index and for
p = 1 and 2, {"target", "p", "order", "distance"}: the other players as
row indices, nearest first, and their distances. With --corr a last line
{"correlations": [[a, b, rho, log_p], ...]} follows.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

REFERENCE_SCHEMA = Path(__file__).resolve().parent.parent / "src" / "simrank" / "data" / "reference_schema.json"

REL_TOL = 1e-9
RHO_ABS_TOL = 1e-15
# Below this the double-precision tail is subnormal or 0 and carries no
# relative accuracy; the program's p must then be at most UNDERFLOW_MAX.
UNDERFLOW_LOG_P = math.log(1e-290)
UNDERFLOW_MAX = 1e-280


class Reference:
    """The included criteria of a table, read straight from its CSV text."""

    def __init__(self, text: str, schema_path: Path = REFERENCE_SCHEMA):
        with open(schema_path, encoding="utf-8") as stream:
            specs = [s for s in json.load(stream) if s.get("included", True)]
        rows = list(csv.reader(io.StringIO(text)))
        index = {name.strip(): i for i, name in enumerate(rows[0])}
        body = [row for row in rows[1:] if row]
        self.players = [row[0].strip() for row in body]
        self.criteria = [s["name"] for s in specs]
        self.columns = [[float(row[index[c]]) for row in body] for c in self.criteria]
        self.lower_is_better = [s["direction"] == "min" for s in specs]
        self._scaled: list[list[float]] | None = None

    def scaled_rows(self) -> list[list[float]]:
        """Direction-aware min-max scaling; a constant column scales to 0."""
        if self._scaled is None:
            scaled = []
            for column, flip in zip(self.columns, self.lower_is_better):
                lo, hi = min(column), max(column)
                if hi == lo:
                    scaled.append([0.0] * len(column))
                elif flip:
                    scaled.append([(hi - x) / (hi - lo) for x in column])
                else:
                    scaled.append([(x - lo) / (hi - lo) for x in column])
            self._scaled = [list(row) for row in zip(*scaled)]
        return self._scaled

    def ranking(self, target: str, p: float) -> list[tuple[str, float]]:
        """(player, distance) of every other player, nearest first, ties by name."""
        rows = self.scaled_rows()
        origin = rows[self.players.index(target)]
        out = []
        for name, row in zip(self.players, rows):
            if name != target:
                total = math.fsum(abs(a - b) ** p for a, b in zip(origin, row))
                out.append((name, total ** (1.0 / p)))
        out.sort(key=lambda item: (item[1], item[0]))
        return out

    def correlations(self) -> dict[tuple[str, str], tuple[float, float]]:
        """(rho, log p) for every unordered pair of non-constant criteria, keyed a < b by position."""
        n = len(self.players)
        centred = []
        for column in self.columns:
            mean = math.fsum(column) / n
            centred.append([x - mean for x in column])
        sums = [math.fsum(d * d for d in dev) for dev in centred]
        out = {}
        for i, a in enumerate(self.criteria):
            for j in range(i + 1, len(self.criteria)):
                if sums[i] == 0.0 or sums[j] == 0.0:
                    continue
                cross = math.fsum(x * y for x, y in zip(centred[i], centred[j]))
                rho = max(-1.0, min(1.0, cross / math.sqrt(sums[i] * sums[j])))
                out[(a, self.criteria[j])] = (rho, log_p_value(rho, n))
        return out


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b).

    For B(a, 1/2) with large a, the difference of lgamma values near 4e4
    loses about 1e-12 absolutely, which the complement in
    log_t_two_tailed would magnify; the asymptotic series of
    Gamma(a + 1/2) / Gamma(a) is exact to about 1e-15 there.
    """
    big = max(a, b)
    if min(a, b) == 0.5 and big >= 200.0:
        series = -1 / (8 * big) + 1 / (128 * big**2) + 5 / (1024 * big**3) - 21 / (32768 * big**4)
        return math.lgamma(0.5) - 0.5 * math.log(big) - math.log1p(series)
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _log_ibeta_series(a: float, b: float, x: float) -> float:
    """ln I_x(a, b) by the power series x^a (1-x)^b / (a B(a, b)) * sum_k c_k x^k."""
    log_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b) - math.log(a)
    total = term = 1.0
    k = 0
    while term > 1e-17 * total:
        k += 1
        term *= (a + b + k - 1.0) / (a + k) * x
        total += term
        if k > 2_000_000:
            raise ArithmeticError(f"series did not converge for a={a}, b={b}, x={x}")
    return log_front + math.log(total)


def log_t_two_tailed(t: float, df: float) -> float:
    """ln P(|T| >= |t|) for Student's t with ``df`` degrees of freedom."""
    if t == 0.0:
        return 0.0
    x = df / (df + t * t)
    if x <= 0.999:
        return _log_ibeta_series(df / 2.0, 0.5, x)
    # near x = 1 the direct series is slow; the tail is large there, so the
    # complement loses no relative accuracy
    return math.log1p(-math.exp(_log_ibeta_series(0.5, df / 2.0, 1.0 - x)))


def log_p_value(rho: float, n: int) -> float:
    """ln of the two-tailed p-value of a sample correlation under rho = 0."""
    if abs(rho) == 1.0:
        return -math.inf
    df = n - 2
    return log_t_two_tailed(rho * math.sqrt(df / (1.0 - rho * rho)), df)


def stars(p: float) -> str:
    return "***" if p <= 0.01 else "**" if p <= 0.05 else "*" if p <= 0.10 else ""


def _close(a: float, b: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


def p_matches(p: float, log_p: float) -> bool:
    if log_p < UNDERFLOW_LOG_P:
        return 0.0 <= p <= UNDERFLOW_MAX
    return _close(p, math.exp(log_p))


def check_ranking(entries, expected: list[tuple[str, float]]) -> list[str]:
    """``entries`` are (rank, player, distance); order must match exactly."""
    if len(entries) != len(expected):
        return [f"ranking has {len(entries)} entries, expected {len(expected)}"]
    errors = []
    for i, ((rank, player, distance), (want_player, want_distance)) in enumerate(zip(entries, expected)):
        if rank != i + 1 or player != want_player:
            errors.append(f"position {i + 1}: got rank {rank} {player!r}, expected {want_player!r}")
        elif not _close(distance, want_distance):
            errors.append(f"{player!r}: distance {distance!r}, expected {want_distance!r}")
        if len(errors) >= 5:
            break
    return errors


def check_ranking_csv(text: str, entries) -> list[str]:
    """The emitted CSV must carry exactly the ranking it was given."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["rank", "player", "distance"]:
        return ["ranking CSV header is wrong"]
    parsed = [(int(r), p, float(d)) for r, p, d in rows[1:]]
    return [] if parsed == list(entries) else ["ranking CSV differs from the ranking"]


def check_correlations(cells, expected: dict[tuple[str, str], tuple[float, float]]) -> list[str]:
    """``cells`` are (a, b, rho, p, stars) for every pair above the diagonal."""
    errors = []
    seen = 0
    for a, b, rho, p, label in cells:
        if (a, b) not in expected:
            if not math.isnan(rho):
                errors.append(f"{a}/{b}: expected an undefined cell, got rho {rho!r}")
            continue
        seen += 1
        want_rho, want_log_p = expected[(a, b)]
        if not _close(rho, want_rho, RHO_ABS_TOL):
            errors.append(f"{a}/{b}: rho {rho!r}, expected {want_rho!r}")
        if not p_matches(p, want_log_p):
            errors.append(f"{a}/{b}: p {p!r}, expected exp({want_log_p!r})")
        if label != stars(p):
            errors.append(f"{a}/{b}: stars {label!r} do not match p {p!r}")
    if seen != len(expected):
        errors.append(f"{seen} defined pairs, expected {len(expected)}")
    return errors[:5]


def top_pairs(expected: dict[tuple[str, str], tuple[float, float]], k: int) -> list[tuple[str, str]]:
    """The k pairs with the largest |rho|, ties by pair name."""
    order = sorted(expected, key=lambda pair: (-abs(expected[pair][0]), pair[0], pair[1]))
    return order[:k]


def check_top_pairs(cells, expected: dict[tuple[str, str], tuple[float, float]], k: int) -> list[str]:
    """``cells`` are (a, b, rho, p, stars); order must match exactly."""
    got = [(c[0], c[1]) for c in cells]
    want = top_pairs(expected, k)
    if got != want:
        return [f"top pairs {got[:3]}..., expected {want[:3]}..."]
    return check_correlations(cells, {pair: expected[pair] for pair in want})


def check_top_pairs_json(text: str, cells) -> list[str]:
    """The emitted JSON must carry exactly the cells it was given."""
    parsed = [(c["criterion_a"], c["criterion_b"], c["rho"], c["p_value"], c["stars"])
              for c in json.loads(text)]
    return [] if parsed == list(cells) else ["top-pairs JSON differs from the cells"]


def main(argv: list[str]) -> None:
    ref = Reference(sys.stdin.read())
    index = {name: i for i, name in enumerate(ref.players)}
    print(json.dumps({"players": ref.players}))
    for target in (int(arg) for arg in argv if arg != "--corr"):
        for p in (1.0, 2.0):
            ranking = ref.ranking(ref.players[target], p)
            print(json.dumps({"target": target, "p": p, "order": [index[name] for name, _ in ranking],
                              "distance": [distance for _, distance in ranking]}))
    if "--corr" in argv:
        print(json.dumps({"correlations": [[a, b, rho, log_p] for (a, b), (rho, log_p)
                                           in ref.correlations().items()]}))


if __name__ == "__main__":
    main(sys.argv[1:])
