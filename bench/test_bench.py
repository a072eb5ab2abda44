"""Self-tests of the benchmark: its gate must pass on right answers and fail
on wrong ones.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import workloads as wl
import worker
from circuitcodes import cli


class GoldenCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.golden = wl.load_golden()
        cls.item = worker._search_item(cli, "S8.4", "S8.4", wl.SEARCHES["S8.4"])

    def test_real_answer_passes(self):
        self.assertEqual(wl.check_search_item(self.item, self.golden), [])

    def test_tampered_golden_record_is_rejected(self):
        for field, value in (("n", 24), ("witnesses", [[1, 2, 3]]), ("literature", 24)):
            tampered = copy.deepcopy(self.golden)
            tampered["S8.4"][field] = value
            with self.subTest(field=field):
                self.assertNotEqual(wl.check_search_item(self.item, tampered), [])

    def test_non_exhaustive_or_mismatching_answer_is_rejected(self):
        truncated = copy.deepcopy(self.item)
        truncated["record"]["exhaustive"] = False
        mismatch = copy.deepcopy(self.item)
        mismatch["lines"] = ["MISMATCH n=22 expected=24 (tampered)"]
        crashed = copy.deepcopy(self.item)
        crashed["rc"] = 4
        for bad in (truncated, mismatch, crashed):
            self.assertNotEqual(wl.check_search_item(bad, self.golden), [])


class CorpusCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        golden = wl.load_golden()
        words = wl.make_corpus(golden, wl.QUICK_CORPUS_SOURCES, wl.QUICK_CORPUS_WORDS, seed=7)
        cls.verdicts, cls.classes = wl.corpus_oracle(golden, words)
        run.WORK.mkdir(exist_ok=True)
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl", dir=run.WORK, delete=False) as fh:
            fh.write(wl.audit_lines(words, cls.verdicts))
        try:
            cls.result = worker._corpus(
                cli, [(e["d"], e["k"], e["word"]) for e in words], fh.name
            )
        finally:
            Path(fh.name).unlink()

    def test_corpus_has_both_verdicts(self):
        self.assertTrue(any(self.verdicts))
        self.assertFalse(all(self.verdicts))

    def test_same_seed_same_corpus(self):
        golden = wl.load_golden()
        a = wl.make_corpus(golden, wl.QUICK_CORPUS_SOURCES, 50, seed=3)
        b = wl.make_corpus(golden, wl.QUICK_CORPUS_SOURCES, 50, seed=3)
        self.assertEqual(a, b)

    def test_real_answer_passes(self):
        self.assertEqual(wl.check_corpus(self.result, self.verdicts, self.classes), (0, []))

    def test_wrong_verdict_is_rejected(self):
        bad = copy.deepcopy(self.result)
        bad["verdicts"][0] = not bad["verdicts"][0]
        failed, problems = wl.check_corpus(bad, self.verdicts, self.classes)
        self.assertGreaterEqual(failed, 1)
        self.assertTrue(problems)

    def test_wrong_class_is_rejected(self):
        bad = copy.deepcopy(self.result)
        bad["classes"][0][1] -= 1
        bad["classes"].append([[1, 2, 1, 2], 1])
        self.assertGreaterEqual(wl.check_corpus(bad, self.verdicts, self.classes)[0], 1)

    def test_failed_audit_is_rejected(self):
        bad = dict(self.result, audit_rc=4, audit_fail_lines=2)
        self.assertEqual(wl.check_corpus(bad, self.verdicts, self.classes)[0], 2)


class ParallelCheckTest(unittest.TestCase):
    def _pass(self, nodes, children_cpu_s=1.0):
        item = {"record": {"nodes": nodes}}
        return {"children_cpu_s": children_cpu_s, "items": [item], "extras": []}

    def test_agreeing_pool_passes(self):
        self.assertEqual(run.Workload._parallel_problems([self._pass(5), self._pass(5)]), [])

    def test_in_process_fallback_is_rejected(self):
        self.assertTrue(run.Workload._parallel_problems([self._pass(5, children_cpu_s=0.0)]))

    def test_node_drift_is_rejected(self):
        self.assertTrue(run.Workload._parallel_problems([self._pass(5), self._pass(6)]))


class EndToEndTest(unittest.TestCase):
    def _quick(self, trace: int) -> dict:
        out = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--quick", "--seed", "5",
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(out.returncode, 0, out.stderr)
        line = json.loads(out.stdout.splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertGreaterEqual(line["attempted"], 1)
        return line["metrics"]

    def test_quick_mode_reports_the_declared_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            metrics = self._quick(trace)
            with self.subTest(section=section):
                self.assertEqual(
                    {name: m["unit"] for name, m in metrics.items()},
                    {m["name"]: m["unit"] for m in spec[section]},
                )

    def test_refuses_to_run_without_sources(self):
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            shutil.copytree(
                run.BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__")
            )
            out = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
