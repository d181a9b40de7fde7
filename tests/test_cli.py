"""Command-line driver: exit codes (0 pass, 1 check failure, 2 invalid
config, 3 internal error), JSON report schema, byte-identical determinism, file exports,
planted failures that checks must report, and the documented rejection
messages."""

import contextlib
import io
import json
import os
import unittest
from unittest import mock

from toralg import cli
from toralg.cli import main
from toralg.hvir import SugawaraCharges, SugawaraOperator
from toralg.lie_table import load_table
from toralg.rep import ActionParams
from toralg.scalar import Q, is_rational
from toralg.toroidal import AlgebraParams


def run_cli(*argv, err=None):
    """Invoke the driver in-process; returns (exit_code, report_or_None,
    stdout_text). Stderr goes to err when given."""
    out = io.StringIO()
    err = io.StringIO() if err is None else err
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    return code, report, text


class TestExitCodes(unittest.TestCase):
    def test_pass_is_zero(self):
        code, rep, _ = run_cli("verify-toroidal", "--samples", "10",
                               "--seed", "1")
        self.assertEqual(code, 0)
        self.assertTrue(rep["pass"])

    def test_check_failure_is_one(self):
        # at the degenerate point the kernel is nonzero: a real failure
        code, rep, _ = run_cli("singular-scan", "--alpha", "0,0",
                               "--beta", "0,0", "--h-bar", "0",
                               "--depth", "2", "--max-degree", "1")
        self.assertEqual(code, 1)
        self.assertFalse(rep["pass"])
        bad = [c for c in rep["checks"] if not c["pass"]]
        self.assertEqual(bad[0]["name"], "raising-kernel-empty")
        self.assertIn("witness", bad[0])

    def test_degenerate_scan_report(self):
        # pins the count and the canonical basis of the candidates
        code, rep, _ = run_cli("singular-scan", "--alpha", "0,0",
                               "--beta", "0,0", "--h-bar", "0",
                               "--depth", "3", "--max-degree", "2")
        self.assertEqual(code, 1)
        scan = rep["checks"][0]
        self.assertEqual(scan["name"], "raising-kernel-empty")
        self.assertEqual(scan["candidates"], 12)
        self.assertEqual(scan["witness"], {
            "degree": 1, "s": [0, 0],
            "vector": "1*((), (0, 0), (('L', -1),), 0)"})

    def test_invalid_config_is_two(self):
        for argv in (("verify-action", "--N", "2", "--mu", "1", "--c", "0"),
                     ("singular-scan", "--max-degree", "5"),
                     ("verify-action", "--depth", "-1"),
                     ("verify-action", "--module-v", "foo"),
                     ("verify-action", "--module-w", "foo"),
                     ("char", "--thm56", "--depth", "-1"),
                     ("char", "--thm56", "--lattice-bound", "-1"),
                     # negative bounds and empty counts: never exit 3,
                     # never a pass over nothing
                     ("verify-action", "--depth", "2", "--mode-bound", "-1"),
                     ("verify-action", "--elem-lattice-bound", "-1"),
                     ("verify-action", "--samples", "0"),
                     ("verify-action", "--states-per-point", "0"),
                     ("verify-toroidal", "--mode-bound=-1"),
                     ("verify-toroidal", "--lattice-bound=-1"),
                     ("verify-toroidal", "--samples=0"),
                     ("verify-toroidal", "--samples=-1"),
                     ("verify-embedding", "--mode-bound", "-1"),
                     ("sugawara", "--mode-bound", "-1"),
                     ("singular-scan", "--depth", "2", "--max-degree=-1"),
                     ("singular-scan", "--depth", "2", "--max-degree", "0"),
                     ("singular-scan", "--depth", "2", "--mode-bound", "-1"),
                     ("singular-scan", "--depth", "2", "--mode-bound", "0"),
                     ("singular-scan", "--depth", "2",
                      "--elem-lattice-bound", "-1")):
            with self.subTest(argv=argv):
                code, rep, _ = run_cli(*argv)
                self.assertEqual(code, 2)
                self.assertIsNone(rep)

    def test_bad_rational_is_two(self):
        code, _, _ = run_cli("verify-toroidal", "--mu", "1/0")
        self.assertEqual(code, 2)

    def test_lattice_mismatch_is_two(self):
        code, _, _ = run_cli("verify-action", "--N", "2",
                             "--alpha", "1/3", "--samples", "1")
        self.assertEqual(code, 2)

    def test_unknown_subcommand_is_two(self):
        with self.assertRaises(SystemExit) as cm:
            run_cli("frobnicate")
        self.assertEqual(cm.exception.code, 2)

    def test_huge_raising_box_is_two(self):
        code, _, _ = run_cli("singular-scan", "--thm56", "--max-degree", "1")
        self.assertEqual(code, 2)

    def test_wrong_coset_charge_is_one(self):
        real = cli.sugawara_charges

        def planted(*args, **kwargs):
            s = real(*args, **kwargs)
            return SugawaraCharges(s.c_prime + 1, s.h_prime)

        with mock.patch.object(cli, "sugawara_charges", planted):
            code, rep, _ = run_cli("sugawara", "--N", "2", "--table", "rank0")
        self.assertEqual(code, 1)
        by_name = {c["name"]: c for c in rep["checks"]}
        self.assertFalse(by_name["coset-charges"]["pass"])
        self.assertTrue(by_name["cbar-closed-form"]["pass"])

    def test_doubled_sugawara_prefactor_is_one(self):
        # 2 L^Sug(n) brackets with the currents as 2 (-m) x(n+m), not -m
        real = SugawaraOperator.__init__

        def planted(self, *args, **kwargs):
            real(self, *args, **kwargs)
            self.prefactor = 2 * self.prefactor

        with mock.patch.object(SugawaraOperator, "__init__", planted):
            code, rep, _ = run_cli("sugawara", "--N", "2")
        self.assertEqual(code, 1)
        by_name = {c["name"]: c for c in rep["checks"]}
        self.assertFalse(by_name["sugawara-commutation"]["pass"])
        self.assertFalse(by_name["sugawara-virasoro"]["pass"])
        self.assertTrue(by_name["coset-charges"]["pass"])

    def test_wrong_sugawara_central_charge_is_one(self):
        real = SugawaraOperator.central_charge
        with mock.patch.object(SugawaraOperator, "central_charge",
                               lambda self: real(self) + 1):
            code, rep, _ = run_cli("sugawara", "--N", "2")
        self.assertEqual(code, 1)
        by_name = {c["name"]: c for c in rep["checks"]}
        self.assertFalse(by_name["sugawara-virasoro"]["pass"])
        self.assertTrue(by_name["sugawara-commutation"]["pass"])

    def test_commutator_error_is_not_a_skip(self):
        # only an empty safe zone skips a pair; any other error in
        # verify_commutator marks a bug and must reach the caller
        ap = ActionParams(AlgebraParams(2, load_table("sl2")),
                          (Q(1, 3), Q(1, 5)), (1, 0), h_bar=Q(1, 7))
        with mock.patch("toralg.rep.bracket",
                        side_effect=ValueError("planted residue")):
            with self.assertRaisesRegex(ValueError, "planted residue"):
                cli.action_suite(ap, 2, 1, 2, 1, 3, 2)

    def test_internal_error_is_three(self):
        # a bug is neither a check failure nor a configuration error: the
        # traceback goes to stderr and no report to stdout
        err = io.StringIO()
        with mock.patch("toralg.rep.bracket",
                        side_effect=ValueError("planted residue")):
            code, _, text = run_cli("verify-action", "--depth", "2",
                                    "--samples", "3", "--seed", "2", err=err)
        self.assertEqual(code, 3)
        self.assertEqual(text, "")
        self.assertIn("Traceback", err.getvalue())
        self.assertIn("planted residue", err.getvalue())


class TestExactness(unittest.TestCase):
    def test_no_float_reaches_a_moment(self):
        # the weight floor compares integers; every coefficient that the
        # moment caches hold after a suite run must stay an exact rational
        ap = ActionParams(AlgebraParams(2, load_table("sl2")),
                          (Q(1, 3), Q(1, 5)), (1, -1), h_bar=Q(1, 7))
        built = []
        real = cli.build_module

        def spy(*args):
            built.append(real(*args))
            return built[-1]

        with mock.patch.object(cli, "build_module", spy):
            checks = cli.action_suite(ap, 2, 1, 2, 1, 3, 2) \
                + cli.scan_suite(ap, 2, 1, 1, 1, 1)
        self.assertTrue(all(c["pass"] for c in checks))
        coeffs = [c for module in built
                  for space in (module.space, module.vacspace)
                  for lc in space._cache.values() for _sym, c in lc.items()]
        self.assertGreater(len(coeffs), 0)
        for c in coeffs:
            self.assertNotIsInstance(c, float)
            self.assertTrue(is_rational(c), repr(c))


class TestReports(unittest.TestCase):
    def test_schema(self):
        code, rep, _ = run_cli("verify-embedding", "--sigma", "1/2",
                               "--mode-bound", "2")
        self.assertEqual(code, 0)
        self.assertEqual(set(rep), {"command", "config", "seed", "checks",
                                    "pass"})
        self.assertEqual(rep["command"], "verify-embedding")
        for check in rep["checks"]:
            self.assertIn("name", check)
            self.assertIn("pass", check)

    def test_rationals_as_strings(self):
        code, rep, _ = run_cli("verify-action", "--mu", "1/2",
                               "--c", "3/4", "--alpha", "1/3,1/5",
                               "--beta", "1,0", "--depth", "2",
                               "--samples", "3", "--seed", "2")
        self.assertEqual(code, 0)
        self.assertEqual(rep["config"]["mu"], "1/2")
        self.assertEqual(rep["config"]["c"], "3/4")
        self.assertEqual(rep["config"]["alpha"], ["1/3", "1/5"])

    def test_determinism(self):
        argv = ("verify-action", "--samples", "4", "--seed", "9",
                "--depth", "2")
        _, _, a = run_cli(*argv)
        _, _, b = run_cli(*argv)
        self.assertEqual(a, b)

    def test_seed_echoed(self):
        _, rep, _ = run_cli("verify-toroidal", "--samples", "5",
                            "--seed", "123")
        self.assertEqual(rep["seed"], 123)


class TestSubcommands(unittest.TestCase):
    def test_sugawara_spot_values(self):
        code, rep, _ = run_cli("sugawara", "--N", "2", "--mu", "0",
                               "--c", "1", "--mode-bound", "1")
        self.assertEqual(code, 0)
        by_name = {c["name"]: c for c in rep["checks"]}
        self.assertEqual(by_name["cbar-closed-form"]["cbar"], "2")
        self.assertEqual(by_name["coset-charges"]["c_prime"], "0")
        code, rep, _ = run_cli("sugawara", "--N", "12", "--mu", "1",
                               "--c", "1", "--table", "rank0")
        self.assertEqual(code, 0)
        by_name = {c["name"]: c for c in rep["checks"]}
        self.assertEqual(by_name["cbar-closed-form"]["cbar"], "0")

    def test_char_thm56_with_exports(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = os.path.join(tmp, "table.csv")
            json_path = os.path.join(tmp, "table.json")
            code, rep, _ = run_cli("char", "--thm56", "--depth", "5",
                                   "--lattice-bound", "1",
                                   "--csv", csv_path,
                                   "--table-json", json_path)
            self.assertEqual(code, 0)
            by_name = {c["name"]: c for c in rep["checks"]}
            self.assertEqual(by_name["series-match"]["dims"],
                             [1, 24, 324, 3200, 25650, 176256])
            with open(csv_path) as fh:
                header = fh.readline().strip().split(",")
            self.assertEqual(header[0], "n")
            self.assertEqual(header[-1], "dim")
            with open(json_path) as fh:
                doc = json.load(fh)
            self.assertEqual(doc["max_n"], 5)

    def test_char_general(self):
        code, rep, _ = run_cli("char", "--depth", "2", "--h-bar", "1/7",
                               "--alpha", "1/3,1/5", "--beta", "1,0")
        self.assertEqual(code, 0)
        names = [c["name"] for c in rep["checks"]]
        self.assertEqual(names, ["totals-match-basis", "oscillator-factor"])

    def test_out_file(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            code, rep, text = run_cli("--out", path, "verify-embedding",
                                      "--sigma", "1", "--mode-bound", "1")
            self.assertEqual(code, 0)
            with open(path) as fh:
                self.assertEqual(json.load(fh), rep)

    def test_thm56_scan_restricted(self):
        code, rep, _ = run_cli("singular-scan", "--thm56",
                               "--max-degree", "2",
                               "--elem-lattice-bound", "0")
        self.assertEqual(code, 0)
        self.assertTrue(rep["pass"])


if __name__ == "__main__":
    unittest.main()
