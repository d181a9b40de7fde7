"""Acceptance gate: nine exact checks covering the whole tower, from
the bracket axioms of the toroidal algebra to the singular-vector scan
of the represented module. Every comparison is exact rational equality
(zero tolerance); each criterion prints one pass/fail line. Criteria
with a stated wall-clock target assert that target.

  1. bracket axioms on seeded spanning triples (three cocycle values)
  2. invariant-form axioms, including vanishing on exact-form images
  3. the shift embedding is a homomorphism for all three centrals
  4. the central-charge formula web and its frozen spot values
  5. the Sugawara operator on a level-1 truncation and its weight shift
  6. commutator preservation on the depth-4 general-position module
  7. rank-0 commutators plus the 24-color oscillator character
  8. the Virasoro rank scalar at both reference points
  9. empty raising kernel at a generic point; planted null detected
"""

import random
import time
import unittest

from toralg.cli import _draw_keys, action_suite
from toralg.hvir import (BarredCharges, HVContext, HighestWeightData,
                         SugawaraOperator, VermaModule, barred_charges,
                         cbar_closed_form, central_character_gamma0,
                         rho_sigma, sugawara_charges, symbolic_bracket,
                         verma_singular_scan)
from toralg.characters import (colored_partition_series,
                               compare_character, graded_character,
                               oscillator_dimensions)
from toralg.lie_table import (adjoint_module, build_slN_table,
                              casimir_eigenvalue, load_table)
from toralg.linear import LinComb
from toralg.rep import (ActionParams, build_module, rank0_params,
                        singular_scan, verify_virasoro_rank)
from toralg.scalar import Q
from toralg.toroidal import (AlgebraParams, TorElement, bracket, dsym,
                             gsym, invariant_form, ksym)

from qmatrices import mat_mul

SEED = 20260815
SL2 = load_table("sl2")
SLN2 = build_slN_table(2)


def _line(num, name, ok):
    print("criterion %d  %-34s %s" % (num, name, "PASS" if ok else "FAIL"))


def _generic_point(mu):
    alg = AlgebraParams(2, SL2, mu=mu, c=1)
    return ActionParams(alg, (Q(1, 3), Q(1, 5)), (1, 0), h_bar=Q(1, 7))


def _draw_symbol(rng, N=2, jmax=3, rmax=2):
    kind = rng.choice(["g", "k", "d"])
    s = tuple(rng.randint(-jmax if p == 0 else -rmax,
                          jmax if p == 0 else rmax) for p in range(N + 1))
    if kind == "g":
        return gsym(s, rng.randrange(SL2.dim))
    if kind == "k":
        return ksym(s, rng.randint(0, N))
    return dsym(s, rng.randint(0, N))


def _draw_element(rng, params):
    while True:
        el = TorElement.of(params, _draw_symbol(rng))
        if not el.is_zero():
            return el


class TestAcceptance(unittest.TestCase):

    def _criterion(self, num, name, body):
        ok = False
        try:
            body()
            ok = True
        finally:
            _line(num, name, ok)

    def test_1_toroidal_axioms(self):
        def body():
            t0 = time.monotonic()
            for mu in (Q(0), Q(1), Q(1, 2)):
                params = AlgebraParams(2, SL2, mu=mu, c=1)
                rng = random.Random(SEED + 1)
                for _ in range(500):
                    x = _draw_element(rng, params)
                    y = _draw_element(rng, params)
                    z = _draw_element(rng, params)
                    self.assertTrue(
                        (bracket(x, y) + bracket(y, x)).is_zero(),
                        msg=f"antisymmetry mu={mu} {x!r} {y!r}")
                    jac = bracket(x, bracket(y, z)) \
                        + bracket(y, bracket(z, x)) \
                        + bracket(z, bracket(x, y))
                    self.assertTrue(
                        jac.is_zero(),
                        msg=f"jacobi mu={mu} {x!r} {y!r} {z!r}")
            self.assertLess(time.monotonic() - t0, 10.0)
        self._criterion(1, "toroidal bracket axioms", body)

    def test_2_form_axioms(self):
        def body():
            for mu in (Q(0), Q(1), Q(1, 2)):
                params = AlgebraParams(2, SL2, mu=mu, c=1)
                rng = random.Random(SEED + 2)
                pool = _draw_keys(params, 3, 2, rng, 1500)
                for t in range(500):
                    x = pool[3 * t][1]
                    y = pool[3 * t + 1][1]
                    z = pool[3 * t + 2][1]
                    self.assertEqual(invariant_form(x, y),
                                     invariant_form(y, x))
                    self.assertEqual(invariant_form(x, bracket(y, z)),
                                     invariant_form(bracket(x, y), z))
                    m = (0, 0, 0)
                    while not any(m):
                        m = (rng.randint(-3, 3), rng.randint(-2, 2),
                             rng.randint(-2, 2))
                    image = TorElement(
                        LinComb({ksym(m, p): Q(m[p])
                                 for p in range(3) if m[p]}),
                        params, reduced=True)
                    self.assertEqual(invariant_form(x, image), 0)
        self._criterion(2, "invariant-form axioms", body)

    def test_3_shift_embedding(self):
        def body():
            fbar = HVContext(SL2, SLN2, "barVir", False)
            full = HVContext(SL2, SLN2, "Vir", True)
            for sigma in (Q(1, 12), Q(1, 2), Q(1), Q(-2, 3)):
                for n in range(-6, 7):
                    for m in range(-6, 7):
                        x = LinComb.single(("L", n))
                        y = LinComb.single(("L", m))
                        lhs = rho_sigma(symbolic_bracket(x, y, fbar), sigma)
                        rhs = symbolic_bracket(rho_sigma(x, sigma),
                                               rho_sigma(y, sigma), full)
                        self.assertEqual(lhs, rhs,
                                         msg=f"sigma={sigma} n={n} m={m}")
        self._criterion(3, "shift embedding homomorphism", body)

    def test_4_charge_web(self):
        def body():
            rng = random.Random(SEED + 4)
            points = []
            while len(points) < 10:
                N = rng.choice([2, 3, 5, 12])
                mu = Q(rng.randint(-6, 6), rng.randint(1, 6))
                c = Q(rng.randint(-6, 6), rng.randint(1, 6))
                if c == 0 or c + SL2.dual_coxeter == 0 \
                        or 1 - mu * c + N == 0:
                    continue
                points.append((N, mu, c))
            for N, mu, c in points:
                gamma = central_character_gamma0(N, mu, c)
                b = barred_charges(gamma, Q(1, N))
                self.assertEqual(b.c_vir_bar, cbar_closed_form(N, mu, c))
                s = sugawara_charges(b, SL2, N, table_sl=build_slN_table(N))
                want = (12 * (1 - Q(1, N)) + 12 * mu * c * (1 + Q(1, N))
                        - 2 * N - c * SL2.dim / (c + SL2.dual_coxeter)
                        - (1 - mu * c) * (N * N - 1) / (1 - mu * c + N))
                self.assertEqual(s.c_prime, want)
            self.assertEqual(cbar_closed_form(2, 0, 1), 2)
            b = barred_charges(central_character_gamma0(2, 0, 1), Q(1, 2))
            self.assertEqual(b.c_vir_bar, 2)
            self.assertEqual(
                sugawara_charges(b, SL2, 2, table_sl=SLN2).c_prime, 0)
            self.assertEqual(cbar_closed_form(12, 1, 1), 0)
            b = barred_charges(central_character_gamma0(12, 1, 1), Q(1, 12))
            self.assertEqual(b.c_vir_bar, 0)
        self._criterion(4, "central-charge formula web", body)

    def test_5_sugawara(self):
        def body():
            # matrix Casimir oracle: sum_i ad(g_i) ad(g^i) on the adjoint
            dual = SL2.dual_basis()
            acc = [[Q(0)] * 3 for _ in range(3)]
            for i in range(3):
                for k in range(3):
                    if dual[k][i] == 0:
                        continue
                    prod = mat_mul(SL2.ad(i), SL2.ad(k))
                    for r in range(3):
                        for c in range(3):
                            acc[r][c] = acc[r][c] + dual[k][i] * prod[r][c]
            omega_v = Q(4)
            self.assertEqual(acc, [[omega_v if r == c else Q(0)
                                    for c in range(3)] for r in range(3)])
            self.assertEqual(casimir_eigenvalue(SL2, [2]), omega_v)
            b = BarredCharges(Q(2), Q(1), Q(1), Q(0))
            s = sugawara_charges(b, SL2, 2, h_bar=0, weight_v=[2],
                                 table_sl=SLN2)
            self.assertEqual(s.h_prime, -omega_v / 6)

            ctx = HVContext(SL2, None, "Vir", True)
            aff = VermaModule(ctx, {"g": Q(1)},
                              HighestWeightData(module_g=adjoint_module(SL2)),
                              has_vir=False, has_hei=False)
            op = SugawaraOperator(aff, "g")
            hw = aff.vacuum_state()
            states = [hw, aff.apply(("g", 0, -1), hw),
                      aff.apply_many([("g", 2, -2), ("g", 0, -1)], hw)]
            csug = op.central_charge()
            self.assertEqual(csug, 1)
            for n in range(-2, 3):
                for m in range(-2, 3):
                    for i in range(3):
                        x = ("g", i, m)
                        for v in states:
                            lhs = op.apply_mode(n, aff.apply(x, v)) \
                                - aff.apply(x, op.apply_mode(n, v))
                            rhs = aff.apply(("g", i, n + m), v).scale(-m)
                            self.assertEqual(lhs, rhs,
                                             msg=f"n={n} m={m} i={i}")
                    for v in states:
                        lhs = op.apply_mode(n, op.apply_mode(m, v)) \
                            - op.apply_mode(m, op.apply_mode(n, v))
                        rhs = op.apply_mode(n + m, v).scale(n - m)
                        if n + m == 0:
                            rhs = rhs + v.scale(Q(n ** 3 - n, 12) * csug)
                        self.assertEqual(lhs, rhs, msg=f"L n={n} m={m}")
        self._criterion(5, "Sugawara operator and weight shift", body)

    def test_6_commutator_preservation(self):
        def body():
            t0 = time.monotonic()
            for mu in (0, 1):
                checks = action_suite(_generic_point(mu), depth=4, smax=2,
                                      jmax=2, elem_rmax=1, samples=40,
                                      seed=SEED + 6)
                by_name = {c["name"]: c for c in checks}
                for c in checks:
                    self.assertTrue(c["pass"], msg=f"mu={mu} {c}")
                comm = by_name["commutators"]
                self.assertEqual(
                    comm["pairs_checked"] + comm["pairs_skipped"], 40)
                self.assertGreaterEqual(comm["pairs_checked"], 35)
                self.assertGreater(comm["safe_vectors"], 100)
            self.assertLess(time.monotonic() - t0, 180.0)
        self._criterion(6, "depth-4 commutator preservation", body)

    def test_7_rank0_module_and_character(self):
        def body():
            checks = action_suite(rank0_params(), depth=3, smax=1,
                                  jmax=2, elem_rmax=1, samples=15,
                                  seed=SEED + 7)
            for c in checks:
                self.assertTrue(c["pass"], msg=str(c))
            comm = {c["name"]: c for c in checks}["commutators"]
            self.assertGreater(comm["safe_vectors"], 0)

            dims = oscillator_dimensions(12, 8)
            series = colored_partition_series(24, 8)
            frozen = [1, 24, 324, 3200, 25650, 176256, 1073720,
                      5930496, 30178575]
            self.assertEqual(dims.as_list(), frozen)
            self.assertEqual(series.as_list(), frozen)
            # hand counts: parts drawn from 24 colors at each size
            self.assertEqual(frozen[1], 24)
            self.assertEqual(frozen[2], 24 + 25 * 24 // 2)
            self.assertEqual(frozen[3], 24 + 24 * 24 + 26 * 25 * 24 // 6)

            mod = build_module(rank0_params(), 3, 1)
            tab = graded_character(mod, factor="oscillator")
            self.assertTrue(tab.s_independent())
            rep = compare_character(tab, colored_partition_series(24, 3))
            self.assertTrue(rep["pass"], msg=str(rep["mismatch"]))
            self.assertGreater(rep["checked"], 0)
        self._criterion(7, "rank-0 commutators and character", body)

    def test_8_virasoro_rank(self):
        def body():
            out = verify_virasoro_rank(build_module(rank0_params(), 3, 1))
            self.assertTrue(out["pass"])
            self.assertEqual(out["measured"], 12)
            out = verify_virasoro_rank(build_module(_generic_point(0), 3, 1))
            self.assertTrue(out["pass"])
            self.assertEqual(out["measured"], 3)
        self._criterion(8, "Virasoro rank scalars 12 and 3", body)

    def test_9_singular_scan(self):
        def body():
            mod = build_module(_generic_point(0), 3, 1)
            self.assertEqual(singular_scan(mod, 3), [])
            # planted null: top weight 0 at central charge 0 has the
            # translate of the top as a depth-one singular vector
            ctx = HVContext(None, None, vir_central="Vir",
                            allow_heisenberg=False)
            verma = VermaModule(ctx, {"Vir": 0},
                                HighestWeightData(0, 0, None, None))
            found = verma_singular_scan(verma, 2, [("L", 1), ("L", 2)])
            self.assertEqual([(d, list(v.items())) for d, v in found
                              if d == 1],
                             [(1, [(((("L", -1),), 0), Q(1))])])
        self._criterion(9, "raising-kernel scan", body)


if __name__ == "__main__":
    unittest.main()
