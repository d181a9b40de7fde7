"""The benchmark under bench/ reaches into toralg by name: its tracer
wraps the functions listed in bench/spans.py, and bench/workloads.py
imports the suites and builders it times. A rename in src/ would break
the benchmark without failing any other test, so these tests resolve
every such name. They only read the bench files."""

import importlib
import importlib.util
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    """Import bench/<name>.py under a private module name."""
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = keep
    return mod


class TestBenchNames(unittest.TestCase):
    def test_every_patched_name_resolves(self):
        spans = load("spans")
        # install() also wraps these two, outside SPANS and COUNTS
        extra = [("toralg.cli", "run_checks"),
                 ("toralg.vertex", "VertexSpace.__init__")]
        targets = [(m, q) for m, q, _name in spans.SPANS + spans.COUNTS]
        self.assertGreater(len(targets), 0)
        for modname, qualname in targets + extra:
            with self.subTest(name=f"{modname}.{qualname}"):
                importlib.import_module(modname)
                obj = spans._resolve(modname, qualname)
                self.assertTrue(callable(obj))
                # the tracer replaces the object wherever it is bound
                self.assertTrue(spans._bindings(obj))

    def test_workloads_import(self):
        workloads = load("workloads")
        declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(workloads.WORKLOADS),
                         sorted(w["name"] for w in declared["workloads"]))
        for wl in workloads.WORKLOADS.values():
            for part in ("setup", "run", "oracle", "check"):
                self.assertTrue(callable(getattr(wl, part)))


if __name__ == "__main__":
    unittest.main()
