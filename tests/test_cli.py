"""Command-line driver: exit codes (0 pass, 1 check failure, 2 invalid
config, 3 internal error), JSON report schema, byte-identical determinism, file exports,
planted failures that checks must report, and the documented rejection
messages."""

import contextlib
import io
import json
import os
import random
import unittest
from unittest import mock

from toralg import ConfigError, cli, rep as rep_mod, vertex
from toralg.cli import main
from toralg.hvir import SugawaraCharges, SugawaraOperator, VermaModule
from toralg.lie_table import load_table
from toralg.rep import ActionParams, rank0_params
from toralg.scalar import Q, is_rational, parse_q
from toralg.toroidal import AlgebraParams, TorElement


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

    def test_wrong_fbar_virasoro_central_is_one(self):
        # virasoro-rank expects (2N + cbar)/2 with cbar the closed form of
        # the algebra parameters, so an f-factor built with cbar + 1 or
        # cbar - 1 must fail it
        real = rep_mod.fbar_centrals
        for delta in (1, -1):
            def planted(params, delta=delta):
                cents = real(params)
                cents["Vir"] = cents["Vir"] + delta
                return cents

            with self.subTest(delta=delta):
                with mock.patch.object(rep_mod, "fbar_centrals", planted):
                    code, rep, _ = run_cli("verify-action", "--depth", "3")
                self.assertEqual(code, 1)
                by_name = {c["name"]: c for c in rep["checks"]}
                vrank = by_name["virasoro-rank"]
                self.assertFalse(vrank["pass"])
                gap = parse_q(vrank["measured"]) - parse_q(vrank["expected"])
                self.assertEqual(gap, Q(delta, 2))

    def test_short_key_pool_is_two(self):
        # when every drawn key gives a zero element, the pool cannot fill
        # and the suite must say so instead of sampling from less
        with mock.patch.object(cli, "spanning_element",
                               lambda params, key: TorElement.zero(params)):
            code, rep, _ = run_cli("verify-action", "--depth", "2",
                                   "--samples", "3", "--seed", "2")
            self.assertEqual(code, 2)
            self.assertIsNone(rep)
            with self.assertRaisesRegex(ConfigError, "drew 0 of 4"):
                cli._draw_keys(AlgebraParams(2, load_table("sl2")), 2, 1,
                               random.Random(1), 4)

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
        # the weight floor compares integers, and integral coefficients
        # may stay ints; every coefficient that the moment caches and the
        # f-factor's basis-action caches hold after a suite run must stay
        # an exact rational, at general points and at the rank-0 point.
        # At mu = 0 the dhat head has no u_p(-2) term and the sampled
        # rank-0 pairs never peel it above its weight floor; the suite at
        # mu c != 0 does, so some peel takes a binomial with k >= 1
        table = load_table("sl2")
        point = ((Q(1, 3), Q(1, 5)), (1, -1))
        ap = ActionParams(AlgebraParams(2, table), *point, h_bar=Q(1, 7))
        ap_mu = ActionParams(AlgebraParams(2, table, mu=Q(1, 2), c=Q(3, 4)),
                             *point, h_bar=Q(1, 7))
        built = []
        real_build, real_binom = cli.build_module, vertex.binom
        binom_ks = set()

        def spy(*args):
            built.append(real_build(*args))
            return built[-1]

        def binom_spy(top, k):
            binom_ks.add(k)
            return real_binom(top, k)

        with mock.patch.object(cli, "build_module", spy), \
                mock.patch.object(vertex, "binom", binom_spy):
            checks = cli.action_suite(ap, 2, 1, 2, 1, 3, 2) \
                + cli.scan_suite(ap, 2, 1, 1, 1, 1) \
                + cli.action_suite(ap_mu, 2, 1, 2, 1, 3, 1) \
                + cli.action_suite(rank0_params(), 3, 1, 2, 1, 5, 20260821)
        self.assertTrue(all(c["pass"] for c in checks))
        self.assertEqual([m.params.rank0 for m in built],
                         [False, False, False, True])
        self.assertGreater(max(binom_ks), 0)
        caches = {"vertex": [space._cache for module in built
                             for space in (module.space, module.vacspace)],
                  "f-factor": [f._apply_cache for module in built
                               for f in (module.fmod, module.fvac)
                               if isinstance(f, VermaModule)]}
        for layer, found in caches.items():
            coeffs = [c for cache in found for lc in cache.values()
                      for _sym, c in lc.items()]
            with self.subTest(layer=layer):
                self.assertGreater(len(coeffs), 0)
                for c in coeffs:
                    self.assertNotIsInstance(c, float)
                    self.assertTrue(is_rational(c), repr(c))
        rank0 = built[-1].space._cache
        self.assertGreater(sum(len(lc.terms) for lc in rank0.values()), 0)


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
