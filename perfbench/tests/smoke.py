"""Smoke test of the benchmark at tiny sizes (--small: catalog at --max-n 6,
five large-rank ids with n <= 1000, enumerate on B8, C6 and C5).

    python3 perfbench/tests/smoke.py

It is not named test_*.py, so the package's own pytest run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from child import digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int, seed: int = 5) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small")
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Smoke(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    res = result(workload["name"], trace)
                    self.assertEqual((res["correct"], res["failed"]), (True, 0))
                    self.assertGreater(res["attempted"], 0)
                    units = {name: m["unit"] for name, m in res["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in SPEC[kind]})
                    values = {name: m["value"] for name, m in res["metrics"].items()}
                    if trace:
                        self_s = sum(v for name, v in values.items() if name.endswith(".self_s"))
                        self.assertLessEqual(self_s, values["trace.wall_s"])
                    else:
                        self.assertTrue(all(v > 0 for v in values.values()), values)

    def test_traced_call_counts_repeat(self):
        first, second = (result("large-rank", 1, seed=9) for _ in range(2))
        calls = [{k: m["value"] for k, m in r["metrics"].items() if k.endswith(".calls")} for r in (first, second)]
        self.assertEqual(calls[0], calls[1])
        self.assertGreater(calls[0]["pasquier.variety.calls"], 0)

    def test_corrupted_cli_output_counts_as_failure(self):
        references = run.load_references()
        argv = ["table", "--max-n", "6"]
        code, out, *_ = run.spawn([run.PYTHON, "-m", "twoorbit.cli", *argv])
        self.assertIsNone(run.judge_cli(argv, code, digest(out), references))
        p = run.Pass()
        p.tally(run.judge_cli(argv, code, digest(out.replace(b"Unstable", b"Stable", 1)), references))
        p.tally(run.judge_cli(["verify", "--max-n", "6"], 0, digest(b"bl_h_num: FAIL, cf: PASS\n"), references))
        p.tally(run.judge_cli(argv, 1, digest(out), references))
        self.assertEqual((p.attempted, len(p.failures)), (3, 3))

    def test_wrong_large_rank_record_counts_as_failure(self):
        run.check_checkout()
        request = json.dumps({"mode": "queries", "ids": ["Cn:n=40:k=7"], "trace": False}).encode()
        _, raw, *_ = run.spawn([run.PYTHON, str(run.CHILD)], request)
        (answer,) = json.loads(raw)["results"]
        self.assertIsNone(run.judge_record("Cn:n=40:k=7", answer))
        wrong = {"record": {**answer["record"], "dim_X": answer["record"]["dim_X"] + 1}}
        self.assertIn("dim_X", run.judge_record("Cn:n=40:k=7", wrong))

    def test_refuses_to_run_without_sources(self):
        bare = BENCH / "out" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
