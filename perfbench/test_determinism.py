#!/usr/bin/env python3
"""Determinism check for the gpcc benchmark.

    python3 perfbench/test_determinism.py

Runs each measuring mode twice with one seed, each time on a fresh store,
and checks that everything except host time repeats exactly: proof and
fallback counts, pass firings, funnel statistics, winners and simulated
GFLOPS. Takes about a minute.
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7
COMMON = (["attempted", "failed", "gflops", "passes.rejected", "ast.kernels"]
          + ["passes.%s.%s" % (p, f) for p in run.PASSES for f in ("runs", "fired")])
EXACT = {
    "compile": COMMON + ["verify.symbolic_proofs", "verify.concrete_fallbacks",
                         "analysis_cache.hits", "analysis_cache.misses",
                         "store.entries", "sim.blocks"],
    "explore": COMMON + ["verify.symbolic_proofs", "verify.concrete_fallbacks",
                         "explore.distinct", "explore.pruned", "explore.partial_runs",
                         "explore.fully_measured", "cost_model.predict_calls"],
    "simulate": COMMON + ["sim.blocks", "sim.launches"],
}
EXTRA = {"explore": ["--phase", "cold"], "simulate": ["--seconds", "0"]}


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.scratch = tempfile.mkdtemp(prefix="determinism-", dir=os.path.join(run.HERE, "_run"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def twice(self, mode):
        docs = []
        for _ in range(2):
            store = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
            docs.append(run.gpbench(self.scratch, store, mode, SEED, EXTRA.get(mode, ())))
            shutil.rmtree(store, ignore_errors=True)
        self.assertNotIn(None, docs, "a measuring process failed")
        return docs

    def check(self, mode):
        a, b = self.twice(mode)
        self.assertEqual(a["failed"], 0, a["failures"])
        for key in EXACT[mode]:
            self.assertEqual(a[key], b[key], "%s: %s differs between runs" % (mode, key))

    def test_compile(self):
        self.check("compile")

    def test_explore(self):
        self.check("explore")

    def test_simulate(self):
        self.check("simulate")


if __name__ == "__main__":
    unittest.main()
