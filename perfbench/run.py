"""Benchmark of simrank: cold CLI runs, the library on the bundled data, and
ranking and correlation on 10 000-player synthetic tables.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]
    python3 perfbench/run.py --capture-digests

The first form runs one workload in this process and prints, as its last
line, {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The second runs every
workload both ways, each in a fresh process, and prints a table. The third
rewrites digests.json, the expected CLI outputs, from the current tree.

One client drives a closed loop: an operation starts when the previous one
has returned and its output has been checked. Every output is checked, and
the exit code is 1 if any check failed. See README.md for the workloads,
the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import oracle
import synth
import yardstick
from probe import SPANS_MARK
from spans import COUNTER_NAMES, SPAN_NAMES, Tracer, totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
ORACLE = HERE / "oracle.py"
DIGESTS = HERE / "digests.json"

N_SYNTH = 10_000
SETUP_REPEATS = 25
IMPORT_REPEATS = 5
TOP_K = 10
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
LIMITS = ("measured without dropping the page cache, without CPU pinning and without "
          "system-wide tracing; other processes on the machine add to the spread")


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def _run(argv: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(argv, input=stdin, capture_output=True, text=True, env=ENV, cwd=ROOT, check=False,
                          timeout=60)


# -- workloads -----------------------------------------------------------------


class Workload:
    """Base class: operations call simrank in this process (CliCold overrides timed and setup_sample)."""

    rusage = resource.RUSAGE_SELF
    load_in_setup = False
    speed_factor = staticmethod(yardstick.compute_factor)
    import_layers = False

    def __init__(self, seed: int):
        self.seed = seed

    def start(self) -> None:
        """Program-side set-up kept for the operations, after the benchmark's own state is frozen."""

    def setup_sample(self) -> float:
        """Seconds of `import simrank` (plus the initial load, if any) in a fresh interpreter."""
        argv = [sys.executable, str(PROBE), "setup"] + (["--load"] if self.load_in_setup else [])
        done = _run(argv, self.text if self.load_in_setup else None)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        return float(done.stdout)

    def timed(self, k: int, traced: bool):
        """(seconds, output, per-layer totals or None) of operation k."""
        # every operation starts with no pending garbage, so the collections
        # inside it are the ones its own allocations trigger
        gc.collect()
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            out = self.op(k)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        return elapsed, out, totals(tracer.spans) if tracer else None


class ExpectedRanking:
    """An oracle ranking held compactly: player row indices and distances.

    Iterating yields (player, distance), as oracle.check_ranking reads it.
    """

    def __init__(self, players: list[str], order: list[int], distances: list[float]):
        self.players, self.order, self.distances = players, array("i", order), array("d", distances)

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return zip(map(self.players.__getitem__, self.order), self.distances)


def expected_results(text: str, targets: list[int], correlations: bool):
    """Players, {(target, p): ExpectedRanking} and {(a, b): (rho, log p)} of the table `text`.

    oracle.py computes them in a child process, so that the oracle's parse
    of the table never adds to this process's peak memory.
    """
    done = _run([sys.executable, str(ORACLE), *(["--corr"] if correlations else []), *map(str, targets)], text)
    if done.returncode != 0:
        raise RuntimeError(f"oracle failed: {done.stderr.strip()[-300:]}")
    lines = iter(done.stdout.splitlines())
    players = json.loads(next(lines))["players"]
    rankings, cells = {}, {}
    for line in lines:
        record = json.loads(line)
        if "correlations" in record:
            cells = {(a, b): (rho, log_p) for a, b, rho, log_p in record["correlations"]}
        else:
            rankings[(players[record["target"]], record["p"])] = ExpectedRanking(
                players, record["order"], record["distance"])
    return players, rankings, cells


def _ranking_tuples(ranking) -> list[tuple[int, str, float]]:
    return [(e.rank, e.player, e.distance) for e in ranking.entries]


def _cell_tuples(cells) -> list[tuple[str, str, float, float, str]]:
    return [(c.criterion_a, c.criterion_b, c.rho, c.p_value, c.stars) for c in cells]


def _check_ranking(expected, ranking, emitted: str) -> list[str]:
    entries = _ranking_tuples(ranking)
    return oracle.check_ranking(entries, expected) + oracle.check_ranking_csv(emitted, entries)


def _check_correlation(expected, matrix, top, top_json: str) -> list[str]:
    top_cells = _cell_tuples(top)
    above = [cell for i, row in enumerate(matrix.cells) for cell in row[i + 1:]]
    return (oracle.check_correlations(_cell_tuples(above), expected)
            + oracle.check_top_pairs(top_cells, expected, TOP_K)
            + oracle.check_top_pairs_json(top_json, top_cells))


class LibReference(Workload):
    """Load, scale, rank, emit, correlate and list top pairs on the bundled 29 x 20 table."""

    def prepare(self) -> None:
        import simrank

        self.sr = simrank
        self.metrics = (simrank.metrics.MANHATTAN, simrank.metrics.EUCLIDEAN)
        text = synth.REFERENCE_CSV.read_text(encoding="utf-8")
        _, rows = synth.reference_rows()
        order = list(range(len(rows)))
        random.Random(self.seed).shuffle(order)
        players, self.rankings, self.correlations = expected_results(text, order, correlations=True)
        self.targets = [players[i] for i in order]
        self.data = {"n": len(players), "source": "bundled",
                     "sha256": hashlib.sha256(text.encode()).hexdigest()}

    def op(self, k: int):
        sr = self.sr
        target, metric = self.targets[k % len(self.targets)], self.metrics[k % 2]
        dataset = sr.dataset.load_reference_dataset()
        ranking = sr.ranking.rank_by_similarity(sr.normalization.normalize(dataset), target, metric)
        emitted = sr.reports.emit_ranking(ranking, "csv")
        matrix = sr.correlation.correlation_matrix(dataset)
        top = sr.correlation.top_correlated_pairs(matrix, TOP_K)
        return target, metric.p, ranking, emitted, matrix, top, sr.reports.top_pairs_json(top)

    def check(self, k: int, out) -> list[str]:
        target, p, ranking, emitted, matrix, top, top_json = out
        return (_check_ranking(self.rankings[(target, p)], ranking, emitted)
                + _check_correlation(self.correlations, matrix, top, top_json))


class Rank10k(Workload):
    """`rank --data big.csv` in process: parse, scale, rank and emit CSV for 10 000 players."""

    TARGETS = 4

    def prepare(self) -> None:
        import simrank

        self.sr = simrank
        self.metrics = (simrank.metrics.MANHATTAN, simrank.metrics.EUCLIDEAN)
        self.text = synth.synth_csv(N_SYNTH, self.seed)
        self.data = synth.describe(self.text, N_SYNTH, self.seed)
        picked = random.Random(self.seed).sample(range(N_SYNTH), self.TARGETS)
        players, self.rankings, _ = expected_results(self.text, picked, correlations=False)
        self.targets = [players[i] for i in picked]

    def op(self, k: int):
        sr = self.sr
        target, metric = self.targets[(k // 2) % self.TARGETS], self.metrics[k % 2]
        dataset = sr.dataset.load_dataset(io.StringIO(self.text), sr.schema.reference_schema())
        ranking = sr.ranking.rank_by_similarity(sr.normalization.normalize(dataset), target, metric)
        return target, metric.p, ranking, sr.reports.emit_ranking(ranking, "csv")

    def check(self, k: int, out) -> list[str]:
        target, p, ranking, emitted = out
        return _check_ranking(self.rankings[(target, p)], ranking, emitted)


class Corr10k(Workload):
    """Load a 10 000-player table once, then correlate, list top pairs and emit JSON per operation."""

    load_in_setup = True

    def prepare(self) -> None:
        import simrank

        self.sr = simrank
        self.text = synth.synth_csv(N_SYNTH, self.seed)
        self.data = synth.describe(self.text, N_SYNTH, self.seed)
        _, _, self.correlations = expected_results(self.text, [], correlations=True)

    def start(self) -> None:
        self.dataset = self.sr.dataset.load_dataset(io.StringIO(self.text), self.sr.schema.reference_schema())

    def op(self, k: int):
        sr = self.sr
        matrix = sr.correlation.correlation_matrix(self.dataset)
        top = sr.correlation.top_correlated_pairs(matrix, TOP_K)
        return matrix, top, sr.reports.top_pairs_json(top)

    def check(self, k: int, out) -> list[str]:
        return _check_correlation(self.correlations, *out)


def cli_args(k: int, targets: list[str]) -> list[str]:
    """Operation k of the CLI mix; over 174 cycles `rank` meets every target, metric and format."""
    cycle, slot = divmod(k, 7)
    target = targets[cycle % len(targets)]
    return [
        ["rank", "--target", target, "--metric", ("p1", "p2")[cycle % 2],
         "--format", ("table", "csv", "json")[cycle % 3]],
        ["nearest", "--target", targets[(cycle + 11) % len(targets)], "-k", "5"],
        ["corr", "--top", str(TOP_K)],
        ["corr"],
        ["dump-normalized"],
        ["scatter", "-x", "KeyP", "-y", "AvPasses", "--trend"],
        ["validate"],
    ][slot]


def all_cli_args(players: list[str]) -> dict[str, list[str]]:
    """Every argument list cli_args can produce, in any target order, keyed as in digests.json."""
    every = (cli_args(k, players) for k in range(7 * 2 * 3 * len(players)))
    return {" ".join(args): args for args in every}


class CliCold(Workload):
    """`python -m simrank.cli ...` per operation: interpreter start, import, compute, output."""

    rusage = resource.RUSAGE_CHILDREN
    import_layers = True
    speed_factor = staticmethod(yardstick.spawn_factor)

    def prepare(self) -> None:
        self.digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
        _, rows = synth.reference_rows()
        self.targets = [row[0] for row in rows]
        random.Random(self.seed).shuffle(self.targets)
        self.data = {"n": len(rows), "source": "bundled"}

    def setup_sample(self) -> float:
        """Seconds of a discarded CLI run, outside the operation count."""
        seconds, out, _ = self.timed(0, traced=False)
        errors = self.check(0, out)
        if errors:
            raise RuntimeError(f"set-up run failed: {errors[0]}")
        return seconds

    def timed(self, k: int, traced: bool):
        args = cli_args(k, self.targets)
        head = [sys.executable, str(PROBE), "cli"] if traced else [sys.executable, "-m", "simrank.cli"]
        start = time.perf_counter()
        done = _run(head + args)
        elapsed = time.perf_counter() - start
        stderr, layers = done.stderr, None
        if traced and SPANS_MARK in stderr:
            stderr, _, spans = stderr.rpartition(SPANS_MARK)
            layers = totals(json.loads(spans))
        return elapsed, (args, done.returncode, done.stdout, stderr), layers

    def check(self, k: int, out) -> list[str]:
        args, code, stdout, stderr = out
        if code != 0 or stderr:
            return [f"{' '.join(args)}: exit {code}: {stderr.strip()[:200]}"]
        want = self.digests.get(" ".join(args))
        if hashlib.sha256(stdout.encode("utf-8")).hexdigest() != want:
            return [f"{' '.join(args)}: output differs from the recorded digest"]
        return []


WORKLOADS = {"cli_cold": CliCold, "lib_reference": LibReference, "rank_10k": Rank10k, "corr_10k": Corr10k}


# -- measurement ------------------------------------------------------------------


def import_costs() -> dict[str, float]:
    """Interpreter floor, -X importtime cumulative costs, and cli_main apart from its import."""
    startup, main, cumulative = [], [], {}
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        _run([sys.executable, "-c", "pass"])
        startup.append(time.perf_counter() - start)
        main.append(float(_run([sys.executable, str(PROBE), "main", "rank", "--target", "Messi"]).stdout))
        for line in _run([sys.executable, "-X", "importtime", "-c", "import simrank.cli"]).stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), []).append(int(fields[1]) / 1e6)
    cum = {name: _median_ms(values) for name, values in cumulative.items()}
    return {
        "interp.startup_ms": _median_ms(startup),
        "cli.import_ms": cum.get("simrank.cli", 0.0),
        "reports.import_ms": cum.get("simrank.reports", 0.0),
        "dataset.import_ms": cum.get("simrank.dataset", 0.0),
        "correlation.import_ms": cum.get("simrank.correlation", 0.0),
        "cli.main_ms": _median_ms(main),
    }


IMPORT_METRICS = ("interp.startup_ms", "cli.import_ms", "reports.import_ms", "dataset.import_ms",
                  "correlation.import_ms", "cli.main_ms")


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Operations in a closed loop for `seconds`; untraced runs also take set-up samples spread over it.

    Untraced runs time the workload's yardstick between samples, and keep
    each sample both as measured and divided by the mean of the yardstick
    factors on either side of it (see yardstick.py).
    """
    latencies, traced_latencies, layers, setup, factors = [], [], [], [], []
    normalised = {"latencies": [], "setup": []}
    attempted = failed = 0
    if not trace:
        factors.append(workload.speed_factor())

    def attempt(k: int, traced: bool) -> float | None:
        nonlocal attempted, failed
        attempted += 1
        try:
            elapsed, out, per_op = workload.timed(k, traced)
            errors = workload.check(k, out)
            if traced and per_op is None:
                errors.append(f"operation {k}: no spans recorded")
        except Exception as exc:  # an operation that raises is a failed operation
            errors = [f"operation {k}: {exc!r}"]
        if errors:
            failed += 1
            if failed <= 5:
                print(f"check failed: {errors[0]}", file=sys.stderr)
            return None
        (traced_latencies if traced else latencies).append(elapsed)
        if traced:
            layers.append(per_op)
        return elapsed

    def normalise(kind: str, elapsed: float | None) -> None:
        factors.append(workload.speed_factor())
        if elapsed is not None:
            normalised[kind].append(elapsed * 2 / (factors[-2] + factors[-1]))

    def setup_sample() -> None:
        setup.append(workload.setup_sample())
        normalise("setup", setup[-1])

    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while time.perf_counter() < deadline:
        # set-up samples are spread over the run, at most one per operation,
        # so that they meet the same machine conditions as the operations
        if not trace and len(setup) * seconds <= (time.perf_counter() - start) * SETUP_REPEATS:
            setup_sample()
        if trace:
            # each operation runs once plain and once traced, in alternating order
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                attempt(k, traced)
        else:
            normalise("latencies", attempt(k, False))
        k += 1
    while not trace and len(setup) < SETUP_REPEATS:
        setup_sample()
    return {"attempted": attempted, "failed": failed, "latencies": latencies,
            "traced_latencies": traced_latencies, "layers": layers, "setup": setup, "normalised": normalised,
            "factors": factors}


def percentile_ms(latencies: list[float], pct: int) -> float:
    if len(latencies) < 2:
        return (latencies or [0.0])[0] * 1e3
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1] * 1e3


def end_to_end(result: dict, rusage: int) -> dict[str, tuple[float, str]]:
    """The gated metrics: timings normalised by the yardstick, and peak memory."""
    lat = result["normalised"]["latencies"] or [0.0]
    return {
        "norm_latency_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        # p75, not p90: see "Noise and bounds" in README.md; p90 is in the meta line
        "norm_latency_ms_p75": (percentile_ms(lat, 75), "ms"),
        "norm_throughput_ops_s": (len(lat) / sum(lat) if sum(lat) else 0.0, "1/s"),
        "setup_s": (statistics.median(result["normalised"]["setup"]), "s"),
        "peak_rss_mb": (resource.getrusage(rusage).ru_maxrss / 1024, "MB"),
    }


def as_measured(result: dict) -> dict[str, float]:
    """The same timings before normalisation, for the meta line."""
    lat = result["latencies"]
    return {
        "latency_ms_p50": _median_ms(lat) if lat else 0.0,
        "latency_ms_p75": percentile_ms(lat, 75),
        "latency_ms_p90": percentile_ms(lat, 90),
        "throughput_ops_s": len(lat) / sum(lat) if sum(lat) else 0.0,
        "setup_s": statistics.median(result["setup"]) if result["setup"] else 0.0,
    }


def per_layer(result: dict, import_layers: bool) -> dict[str, tuple[float, str]]:
    ops = len(result["layers"]) or 1
    summed: dict[str, float] = {}
    for per_op in result["layers"]:
        for key, value in per_op.items():
            summed[key] = summed.get(key, 0) + value
    # import costs belong to the cold CLI run; elsewhere they read 0, like any layer not exercised
    imports = import_costs() if import_layers else dict.fromkeys(IMPORT_METRICS, 0.0)
    out = {name: (value, "ms") for name, value in imports.items()}
    out.update({name: (summed.get(name, 0) / ops / 1e6, "ms") for name in SPAN_NAMES})
    out.update({name: (summed.get(name, 0) / ops, "bytes" if name == "reports.bytes" else "count")
                for name in COUNTER_NAMES})
    cells = summed.get("dataset.cells", 0)
    out["dataset.ns_per_cell"] = (summed.get("dataset.load_ms", 0) / cells if cells else 0.0, "ns")
    plain, traced = result["latencies"], result["traced_latencies"]
    overhead = (statistics.median(traced) / statistics.median(plain) - 1) * 100 if plain and traced else 0.0
    out["trace.overhead_pct"] = (overhead, "%")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_start = os.getloadavg()
    workload = WORKLOADS[name](seed)
    workload.prepare()
    # the generated data and the oracle's results are the benchmark's, not the
    # program's: keep them out of the collections the operations trigger
    gc.collect()
    gc.freeze()
    workload.start()
    result = measure(workload, seconds, trace)
    metrics = per_layer(result, workload.import_layers) if trace else end_to_end(result, workload.rusage)
    correct = result["failed"] == 0 and result["attempted"] > 0
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "loop": "closed, 1 client", "data": workload.data, "setup_samples_s": result["setup"],
        "latency_samples": len(result["latencies"]),
        "norm_latency_ms_p90": percentile_ms(result["normalised"]["latencies"], 90),
        "as_measured": as_measured(result), "yardstick": workload.speed_factor.__name__,
        "yardstick_factor_p50": statistics.median(result["factors"]) if result["factors"] else 0.0,
        "error_rate": result["failed"] / max(result["attempted"], 1), "limits": LIMITS,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    print(f"{'workload':<14} {'metric':<28} {'value':>14}  unit")
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                status = 1
                print(f"{name:<14} failed (exit {done.returncode}): {done.stderr.strip()[-300:]}")
                if len(lines) < 2:
                    continue
            meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
            if trace == 0:
                print(f"{name:<14} {'error_rate':<28} {meta['error_rate']:>14.4g}  "
                      f"({result['failed']}/{result['attempted']})")
                print(f"{name:<14} {'norm_latency_ms_p90':<28} {meta['norm_latency_ms_p90']:>14.6g}  ms "
                      f"(of {meta['latency_samples']} samples)")
                for key, value in meta["as_measured"].items():
                    print(f"{name:<14} {key + ' (measured)':<28} {value:>14.6g}")
            for key, metric in result["metrics"].items():
                print(f"{name:<14} {key:<28} {metric['value']:>14.6g}  {metric['unit']}")
    return status


def capture_digests() -> int:
    _, rows = synth.reference_rows()
    digests = {}
    for key, args in all_cli_args([row[0] for row in rows]).items():
        done = _run([sys.executable, "-m", "simrank.cli", *args])
        if done.returncode != 0:
            print(f"{key}: exit {done.returncode}", file=sys.stderr)
            return 1
        digests[key] = hashlib.sha256(done.stdout.encode("utf-8")).hexdigest()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {DIGESTS.name}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-digests", action="store_true")
    args = parser.parse_args()
    if not (SRC / "simrank" / "__init__.py").is_file():
        print(f"perfbench: simrank sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.capture_digests:
        return capture_digests()
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
