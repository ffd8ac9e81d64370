#!/usr/bin/env python3
"""Self-test of the benchmark harness: corrupted references must be caught.

Run from the repository root (takes a few seconds):

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import unittest

import run
import workloads as wl

HFG = run.load_hfg()


def corrupt(text: str) -> str:
    return ("0" if text[0] != "0" else "1") + text[1:]


class CorruptedReferences(unittest.TestCase):
    def test_invariants_digest(self):
        sweep = wl.InvariantsSweep(HFG, 0)
        item = min(sweep.pool["profiles"], key=lambda i: i["cost_ms"])
        report = sweep.run(item)
        self.assertIsNone(sweep.check(item, report))
        bad = dict(item, report_sha256=corrupt(item["report_sha256"]))
        self.assertIn("differs from the reference", sweep.check(bad, report))

    def test_ideal_verdicts_and_basis(self):
        products = wl.IdealProducts(HFG, 0)
        try:
            item = min(products.pool["ops"], key=lambda i: i["cost_ms"])
            report = products.run(item)
            self.assertIsNone(products.check(item, report))
            bad = dict(item, verdicts=[not v for v in item["verdicts"]])
            self.assertIn("verdicts", products.check(bad, report))
            bad = dict(item, basis_sha256=corrupt(item["basis_sha256"]))
            self.assertIn("basis differs", products.check(bad, report))
            # the fallback that recomputes the product ideal agrees too
            products._captured.clear()
            self.assertIsNone(products.check(item, report))
        finally:
            products.release()

    def test_verify_outcomes(self):
        ladder = wl.VerifyLadder(HFG, 0, run.ROOT, run.OUT)
        item = ladder.grids[0]
        good = {
            "passed": True,
            "instances": [
                {"label": "resolution Hilbert function matches", "passed": True, "flag": None},
                {"label": "initial degree matches", "passed": True, "flag": None},
            ],
        }
        self.assertIsNone(ladder.check(item, (0, json.dumps(good))))
        self.assertIn("exited with code 1", ladder.check(item, (1, json.dumps(good))))
        failed = copy.deepcopy(good)
        failed["instances"][0]["passed"] = False
        self.assertIn("failed", ladder.check(item, (0, json.dumps(failed))))
        missing = copy.deepcopy(good)
        del missing["instances"][1]
        self.assertIn("no initial degree", ladder.check(item, (0, json.dumps(missing))))
        self.assertIn("no JSON", ladder.check(item, (0, "")))

    def test_run_exits_nonzero_on_mismatch(self):
        pool = wl.load_pool(wl.InvariantsSweep.pool_file)
        for item in pool["profiles"]:
            item["report_sha256"] = corrupt(item["report_sha256"])
        original = wl.load_pool
        wl.load_pool = lambda name: pool
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = run.main(
                    ["--workload", "invariants_sweep", "--seed", "0", "--seconds", "0.5"]
                )
        finally:
            wl.load_pool = original
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class SkipAccounting(unittest.TestCase):
    def test_every_encoding_counts(self):
        ran = {"label": "x", "computed": "equal", "passed": True, "flag": None}
        self.assertFalse(wl.is_skipped(ran))
        for skipped in (
            dict(ran, flag="skipped: budget"),
            dict(ran, computed="not computed"),
            dict(ran, status="skipped"),
        ):
            self.assertTrue(wl.is_skipped(skipped))


if __name__ == "__main__":
    unittest.main()
