"""Self-test of the benchmark on a tiny config (N = 48 and 64, 40 steps).

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the output check fails once a reference file is corrupted, and
that the traced run records at least one span in every layer.  Takes
about 20 seconds; writes only under .perfbench_work/.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import outputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

# two names, so that neither run clears the other's outputs
TINY = {name: run.Workload("perfbench/configs/tiny.json", "all")
        for name in ("tiny", "tiny-traced")}
TRACE_SEED = 3      # no references: the traced run gets the structural check


def _main(argv):
    """run.main on the tiny workload; returns (stdout lines, result)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.main(argv, workloads=TINY)
    return buf.getvalue().splitlines(), result


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cls.refs = run.WORK / "selftest-references"
        shutil.rmtree(cls.refs, ignore_errors=True)
        cls._saved_refs, run.REFERENCES = run.REFERENCES, cls.refs
        _main(["--workload", "tiny", "--record-reference"])
        cls.lines, cls.result = _main(["--workload", "tiny", "--seconds", "1"])
        cls.run_dir = run.WORK / "tiny" / "run-0"
        # tracing patches the package in place, so it gets its own process
        code = ("import sys; sys.path.insert(0, 'perfbench'); import run, selftest; "
                f"run.main(['--workload', 'tiny-traced', '--trace', '1', '--seed', '{TRACE_SEED}'], "
                "workloads=selftest.TINY)")
        proc = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT,
                              capture_output=True, text=True, check=True)
        cls.trace_lines = proc.stdout.splitlines()
        cls.trace_result = json.loads(cls.trace_lines[-1])

    @classmethod
    def tearDownClass(cls):
        run.REFERENCES = cls._saved_refs

    def _assert_printed(self, section, lines, result):
        for spec in self.spec[section]:
            name, unit = spec["name"], spec["unit"]
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertTrue(any(line.split()[:1] == [name] and line.split()[-1] == unit
                                for line in lines), f"{name} not printed with {unit}")
        self.assertEqual(set(result["metrics"]), {s["name"] for s in self.spec[section]})

    def test_end_to_end_metrics_printed_with_units(self):
        self.assertTrue(self.result["correct"])
        self.assertEqual(json.loads(self.lines[-1]), self.result)
        self._assert_printed("end_to_end", self.lines, self.result)

    def test_per_layer_metrics_printed_with_units(self):
        self.assertTrue(self.trace_result["correct"])
        self._assert_printed("per_layer", self.trace_lines, self.trace_result)

    def test_reference_check_fails_on_corrupted_reference(self):
        problems, compared, identical = outputs.compare_reference(self.run_dir, self.refs / "tiny")
        self.assertEqual(problems, [])
        self.assertEqual(compared, identical)
        self.assertGreater(compared, 0)

        corrupt = run.WORK / "selftest-corrupt"
        shutil.rmtree(corrupt, ignore_errors=True)
        shutil.copytree(self.refs, corrupt)
        target = corrupt / "tiny" / "lsc-48-7.csv"
        header, first, *rest = target.read_text(encoding="utf-8").splitlines()
        cells = first.split(",")
        cells[4] = repr(float(cells[4]) * 1.001)     # abs_err, 0.1% off
        target.write_text("\n".join([header, ",".join(cells)] + rest) + "\n",
                          encoding="utf-8")
        problems, _compared, _identical = outputs.compare_reference(self.run_dir, corrupt / "tiny")
        self.assertEqual(len(problems), 1)
        self.assertIn("lsc-48-7.csv", problems[0])

        w = TINY["tiny"]
        doc = json.loads((run.ROOT / w.config).read_text(encoding="utf-8"))
        run.REFERENCES = corrupt
        try:
            checked = run.check("tiny", w, doc, run.DEFAULT_SEED, self.run_dir, 0)
        finally:
            run.REFERENCES = self.refs
        self.assertTrue(checked.problems)
        self.assertEqual(checked.failed, checked.attempted)

    def test_traced_run_records_every_layer(self):
        spans = [json.loads(line) for line in
                 (run.WORK / "tiny-traced" / "spans.jsonl").read_text(encoding="utf-8").splitlines()]
        self.assertEqual({s["layer"] for s in spans}, set(tracer.LAYERS))
        metrics = self.trace_result["metrics"]
        self.assertEqual(metrics["martingale.evolve.calls"]["value"], 16)
        self.assertLess(abs(metrics["trace.remainder_s"]["value"]),
                        run.REMAINDER_LIMIT * metrics["trace.wall_s"]["value"])


if __name__ == "__main__":
    unittest.main()
