#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 -m unittest perfbench/test_benchmark.py     # from the repo root

The spec tests are instant. The workload tests build the benchmark (first
time only) and run every workload once untraced and once traced with a
one-second budget; each run still completes its minimum op count, so the
suite takes about three minutes on a 4-CPU host.
"""
import argparse
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7


def run_bench(workload, trace, cwd=ROOT, env=None):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


class SpecTest(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        for p in SPEC["paths"]:
            self.assertRegex(p, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue((ROOT / p).is_dir())

    def test_metric_declarations(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in SPEC["end_to_end"]}
        setup = bounds["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_no_percentile_is_declared(self):
        # Every workload emits every metric, and train / a7_eval runs have
        # fewer than 100 ops, so no tail percentile can be declared. Op time
        # is declared as a mean; the median is provenance only.
        percentiles = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
                       if re.search(r"_p\d+$", m["name"])]
        self.assertEqual(percentiles, [])


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class SeedRecordTest(unittest.TestCase):
    def test_record_is_per_code_and_left_only_by_a_passing_run(self):
        run = load_run_module()
        args = argparse.Namespace(workload="maeri_eco", seed=SEED)
        with tempfile.TemporaryDirectory() as tmp:
            records = Path(tmp)
            self.assertIsNone(run.check_against_seed_record(records, args, {"wl_m": 1.0}, False))
            self.assertEqual(list(records.iterdir()), [])
            self.assertIsNone(run.check_against_seed_record(records, args, {"wl_m": 1.0}, True))
            [record] = records.iterdir()
            self.assertIn(run.code_hash(), record.name)
            self.assertIsNone(run.check_against_seed_record(records, args, {"wl_m": 1.0}, True))
            self.assertIsNotNone(run.check_against_seed_record(records, args, {"wl_m": 2.0}, True))


class WorkloadTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertNotEqual(got["value"], 0, f"{m['name']} must never be 0")
        # The tail percentile is printed only with at least 10 samples above it.
        provenance = json.loads(lines[-2])["provenance"]
        if provenance["op_ms_p90"] is not None:
            self.assertGreaterEqual(provenance["ops"], 100)
        self.assertGreater(provenance["op_ms_p50"], 0)
        self.assertEqual(provenance["threads"], 1)
        self.assertEqual(provenance["seed"], SEED)
        return result

    def test_every_workload_untraced_and_traced(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_refuses_gnnmls_knobs(self):
        env = dict(os.environ, GNNMLS_FAULT="route.shard")
        proc = run_bench("maeri_eco", 0, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_fails_without_the_library_sources(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, Path(tmp) / p)
            proc = run_bench("maeri_eco", 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    sys.exit(unittest.main())
