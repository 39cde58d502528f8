"""Self-test of the benchmark: the gates bite, and every workload runs.

    python3 bench/selftest.py

Each workload runs at its smallest size ("smoke").  A wrong expected verdict,
a corrupted family in place of a real one and a corrupted orbit step must
each give failed > 0 and a nonzero exit.  The file is not named test_*.py,
so the repository's own pytest run does not collect it.
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run

run.import_package()
import workloads  # noqa: E402
from qpweyl import cli, evolution  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int = 0, known=None) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)], known=known, size="smoke")
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def test_each_workload_reports_every_end_to_end_metric(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                code, result = smoke(workload)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), names)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_run_reports_every_per_layer_metric(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        code, result = smoke("orbit", trace=1)
        self.assertEqual(code, 0)
        self.assertEqual(set(result["metrics"]), names)
        self.assertGreater(result["metrics"]["evolution.step_calls"]["value"], 0)


class GatesBite(unittest.TestCase):
    def assert_caught(self, code, result):
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_wrong_expected_verdict(self):
        known = copy.deepcopy(workloads.load_known())
        expected = known["mutants"]["D5 s3"]
        check_id = next(k for k, v in expected.items() if v == "pass")
        expected[check_id] = "fail"
        self.assert_caught(*smoke("refute", known=known))

    def test_corrupted_family_in_place_of_the_real_one(self):
        real = cli.make_family
        corrupt = workloads.Families().mutant("D5", "s2")
        with mock.patch.object(cli, "make_family",
                               lambda name: corrupt if name == "D5" else real(name)):
            self.assert_caught(*smoke("sampled"))

    def test_corrupted_orbit_step(self):
        real = evolution.orbit_step

        def off_by_one(fam, st, direction="forward"):
            nxt = real(fam, st, direction)
            if direction == "forward" and nxt.t == 2:
                nxt = evolution.OrbitState(nxt.q, nxt.nu, nxt.kappa1, nxt.kappa2,
                                           nxt.f + 1, nxt.g, nxt.t)
            return nxt

        with mock.patch.object(evolution, "orbit_step", off_by_one):
            self.assert_caught(*smoke("orbit"))


class MissingPackage(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        lonely = run.OUT / "lonely"
        shutil.rmtree(lonely, ignore_errors=True)
        (lonely / run.BENCH.name).mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", lonely)
        for path in run.BENCH.iterdir():
            if path.is_file():
                shutil.copy(path, lonely / run.BENCH.name)
        try:
            done = subprocess.run(
                [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "sampled",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=lonely, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(lonely, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
