"""Tests of the benchmark itself: generator, oracle, and a short run of every workload.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(synth.synth_csv(300, 5), synth.synth_csv(300, 5))
        self.assertNotEqual(synth.synth_csv(300, 5), synth.synth_csv(300, 6))
        a, b = synth.describe(synth.synth_csv(300, 5), 300, 5), synth.describe(synth.synth_csv(300, 5), 300, 5)
        self.assertEqual(a, b)

    def test_shape_and_range(self):
        header, _ = synth.reference_rows()
        ref = oracle.Reference(synth.synth_csv(500, 2))
        self.assertEqual(len(ref.players), 500)
        self.assertEqual(len(set(ref.players)), 500)
        self.assertTrue(synth.synth_csv(3, 2).startswith(",".join(header) + "\n"))
        self.assertTrue(all(x >= 0.0 for column in ref.columns for x in column))

    def test_correlation_structure_survives(self):
        real = oracle.Reference(synth.REFERENCE_CSV.read_text(encoding="utf-8")).correlations()
        fake = oracle.Reference(synth.synth_csv(5000, 3)).correlations()
        strongest = max(real, key=lambda pair: abs(real[pair][0]))
        self.assertGreater(abs(fake[strongest][0]), 0.8 * abs(real[strongest][0]))


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import simrank

        cls.sr = simrank
        cls.ref = oracle.Reference(synth.REFERENCE_CSV.read_text(encoding="utf-8"))
        cls.dataset = simrank.dataset.load_reference_dataset()
        cls.expected = cls.ref.correlations()

    def _entries(self, target, metric):
        matrix = self.sr.normalization.normalize(self.dataset)
        ranking = self.sr.ranking.rank_by_similarity(matrix, target, metric)
        return [(e.rank, e.player, e.distance) for e in ranking.entries]

    def _cells(self):
        matrix = self.sr.correlation.correlation_matrix(self.dataset)
        return [(c.criterion_a, c.criterion_b, c.rho, c.p_value, c.stars)
                for i, row in enumerate(matrix.cells) for c in row[i + 1:]]

    def test_accepts_the_program(self):
        for metric in (self.sr.metrics.MANHATTAN, self.sr.metrics.EUCLIDEAN):
            entries = self._entries("Messi", metric)
            self.assertEqual(oracle.check_ranking(entries, self.ref.ranking("Messi", metric.p)), [])
        self.assertEqual(oracle.check_correlations(self._cells(), self.expected), [])

    def test_rejects_a_corrupted_ranking(self):
        expected = self.ref.ranking("Messi", 1.0)
        swapped = self._entries("Messi", self.sr.metrics.MANHATTAN)
        (r1, p1, d1), (r2, p2, d2) = swapped[3], swapped[4]
        swapped[3], swapped[4] = (r1, p2, d2), (r2, p1, d1)
        self.assertNotEqual(oracle.check_ranking(swapped, expected), [])
        nudged = self._entries("Messi", self.sr.metrics.MANHATTAN)
        rank, player, distance = nudged[7]
        nudged[7] = (rank, player, distance * (1 + 1e-7))
        self.assertNotEqual(oracle.check_ranking(nudged, expected), [])
        self.assertNotEqual(oracle.check_ranking_csv("rank,player,distance\n1,Hazard,1.0\n", nudged), [])

    def test_rejects_a_corrupted_correlation_cell(self):
        for field, factor in ((2, 1 + 1e-7), (3, 1.001)):
            cells = self._cells()
            cell = list(cells[5])
            cell[field] *= factor
            cells[5] = tuple(cell)
            self.assertNotEqual(oracle.check_correlations(cells, self.expected), [], field)

    def test_t_tail_against_closed_forms(self):
        for t in (0.01, 0.5, 1.0, 3.0, 40.0):
            cauchy = 1.0 - 2.0 / math.pi * math.atan(t)
            self.assertTrue(math.isclose(math.exp(oracle.log_t_two_tailed(t, 1.0)), cauchy, rel_tol=1e-12))
            df2 = 1.0 - t / math.sqrt(2.0 + t * t)
            self.assertTrue(math.isclose(math.exp(oracle.log_t_two_tailed(t, 2.0)), df2, rel_tol=1e-9))


class TracerTest(unittest.TestCase):
    def test_wraps_every_copy_and_skips_missing_names(self):
        import simrank.cli
        import simrank.reports

        missing = simrank.reports.top_pairs_csv
        del simrank.reports.top_pairs_csv
        tracer = spans.Tracer()
        try:
            tracer.install()
            self.assertIs(simrank.cli.normalize, simrank.normalization.normalize)
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(simrank.cli.cli_main(["rank", "--target", "Messi"]), 0)
        finally:
            tracer.uninstall()
            simrank.reports.top_pairs_csv = missing
        self.assertEqual(simrank.cli.normalize.__name__, "normalize")
        self.assertEqual(simrank.ranking.distance_to_target.__name__, "distance_to_target")
        layers = spans.totals(tracer.spans)
        for name in ("dataset.load_ms", "normalization.normalize_ms", "metrics.distance_ms", "ranking.rank_ms",
                     "reports.emit_ms"):
            self.assertGreater(layers.get(name, 0), 0, name)
        self.assertEqual(layers["ranking.entries"], 28)


class SmokeTest(unittest.TestCase):
    def _run(self, *args, cwd=None):
        return subprocess.run([sys.executable, str(HERE / "run.py"), *args], capture_output=True, text=True,
                              cwd=cwd, timeout=170, check=False)

    def test_every_workload_runs_clean(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = {trace: sorted(m["name"] for m in declared[key]) for trace, key in (("0", "end_to_end"),
                                                                                   ("1", "per_layer"))}
        for workload in ("cli_cold", "lib_reference", "rank_10k", "corr_10k"):
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    done = self._run("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(sorted(result["metrics"]), names[trace])

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copytree(HERE, Path(scratch) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run([sys.executable, str(Path(scratch) / HERE.name / "run.py"), "--workload",
                                   "lib_reference", "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  capture_output=True, text=True, cwd=scratch, timeout=170, check=False)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
