"""Twisted Heisenberg-Virasoro layer: brackets, the sigma-shift
embedding, central-charge bookkeeping, Verma modules, Sugawara operators.

Frozen values are derived by hand from the defining brackets, e.g.
[L(2), I(-2)] = 2 I(0) - (2^2+2) C_VH and [L(2), L(-2)] = 4 L(0) +
(8-2)/12 C_Vir; Casimir numbers come from an independent adjoint-matrix
computation in this file.
"""

import random
import unittest

from toralg.hvir import (
    BarredCharges,
    HVContext,
    HighestWeightData,
    SugawaraOperator,
    VermaModule,
    barred_charges,
    bracket_modes,
    cbar_closed_form,
    central_character_gamma0,
    default_h_vir,
    mode_sort_key,
    rho_sigma,
    sugawara_charges,
    symbolic_bracket,
    verma_singular_scan,
)
from toralg.lie_table import (
    adjoint_module,
    build_slN_table,
    casimir_eigenvalue,
    load_table,
    trivial_module,
)
from toralg.fock import mono_depth
from toralg.linear import LinComb
from toralg.scalar import Q

from qmatrices import mat_mul

SL2 = load_table("sl2")
SLN2 = build_slN_table(2)

HV_CTX = HVContext(None, None, "Vir", True)
F_CTX = HVContext(SL2, SLN2, "Vir", True)
FBAR_CTX = HVContext(SL2, SLN2, "barVir", False)


def lc(*terms):
    return LinComb([(s, Q(c)) for s, c in terms])


class TestBrackets(unittest.TestCase):
    def test_frozen_virasoro(self):
        modes, cents = bracket_modes(("L", 2), ("L", -2), HV_CTX)
        self.assertEqual(modes, lc((("L", 0), 4)))
        self.assertEqual(cents, {"Vir": Q(1, 2)})

    def test_frozen_vir_heis_cocycle(self):
        modes, cents = bracket_modes(("L", 2), ("I", -2), HV_CTX)
        self.assertEqual(modes, lc((("I", 0), 2)))
        self.assertEqual(cents, {"VH": Q(-6)})
        # orientation matters for the cocycle
        modes, cents = bracket_modes(("I", -2), ("L", 2), HV_CTX)
        self.assertEqual(modes, lc((("I", 0), -2)))
        self.assertEqual(cents, {"VH": Q(6)})

    def test_frozen_heisenberg(self):
        modes, cents = bracket_modes(("I", 1), ("I", -1), HV_CTX)
        self.assertTrue(modes.is_zero())
        self.assertEqual(cents, {"Hei": Q(1)})
        self.assertEqual(bracket_modes(("I", 3), ("I", 2), HV_CTX)[1], {})

    def test_frozen_currents(self):
        # [e(1), f(-1)] = h(0) + (e|f) C
        modes, cents = bracket_modes(("g", 0, 1), ("g", 2, -1), F_CTX)
        self.assertEqual(modes, lc((("g", 1, 0), 1)))
        self.assertEqual(cents, {"g": Q(1)})
        # Virasoro moves current modes, Heisenberg and the other family do not
        modes, cents = bracket_modes(("L", 3), ("g", 1, -1), F_CTX)
        self.assertEqual(modes, lc((("g", 1, 2), 1)))
        self.assertEqual(cents, {})
        self.assertTrue(bracket_modes(("I", 2), ("g", 0, -2), F_CTX)[0].is_zero())
        self.assertTrue(bracket_modes(("g", 0, 1), ("sl", 0, -1), F_CTX)[0].is_zero())

    def test_antisymmetry_and_jacobi_sampled(self):
        rng = random.Random(7)
        universe = []
        for n in range(-3, 4):
            universe.append(("L", n))
            universe.append(("I", n))
        for n in range(-2, 3):
            for i in range(SL2.dim):
                universe.append(("g", i, n))
                universe.append(("sl", i, n))

        def br(x, y):
            return symbolic_bracket(x, y, F_CTX)

        for _ in range(120):
            x, y, z = (LinComb.single(rng.choice(universe)) for _ in range(3))
            self.assertTrue((br(x, y) + br(y, x)).is_zero())
            jac = br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)
            self.assertTrue(jac.is_zero(), f"jacobi fails at {x}, {y}, {z}")

    def test_barred_context_rejects_heisenberg(self):
        with self.assertRaises(ValueError):
            bracket_modes(("I", 1), ("I", -1), FBAR_CTX)
        modes, cents = bracket_modes(("L", 2), ("L", -2), FBAR_CTX)
        self.assertEqual(cents, {"barVir": Q(1, 2)})


class TestRhoSigma(unittest.TestCase):
    def test_image_frozen(self):
        img = rho_sigma(LinComb.single(("L", 3)), Q(1, 2))
        self.assertEqual(img, lc((("L", 3), 1), (("I", 3), Q(3, 2))))
        img0 = rho_sigma(LinComb.single(("L", 0)), Q(1, 2))
        self.assertEqual(
            img0,
            lc((("L", 0), 1), (("C", "VH"), Q(1, 2)), (("C", "Hei"), Q(-1, 8))))
        cimg = rho_sigma(LinComb.single(("C", "barVir")), Q(1, 2))
        self.assertEqual(
            cimg,
            lc((("C", "Vir"), 1), (("C", "VH"), 12), (("C", "Hei"), -3)))

    def test_rejects_heisenberg_input(self):
        with self.assertRaises(ValueError):
            rho_sigma(LinComb.single(("I", 1)), 1)

    def test_homomorphism_virasoro_pairs(self):
        for sigma in (Q(1, 2), Q(-2, 3)):
            for n in range(-4, 5):
                for m in range(-4, 5):
                    x = LinComb.single(("L", n))
                    y = LinComb.single(("L", m))
                    lhs = rho_sigma(symbolic_bracket(x, y, FBAR_CTX), sigma)
                    rhs = symbolic_bracket(
                        rho_sigma(x, sigma), rho_sigma(y, sigma), F_CTX)
                    self.assertEqual(lhs, rhs, f"sigma={sigma} n={n} m={m}")

    def test_homomorphism_with_currents(self):
        sigma = Q(1, 12)
        elems = [LinComb.single(("L", 2)), LinComb.single(("L", -2)),
                 LinComb.single(("g", 0, 1)), LinComb.single(("g", 2, -1)),
                 LinComb.single(("sl", 1, -3))]
        for x in elems:
            for y in elems:
                lhs = rho_sigma(symbolic_bracket(x, y, FBAR_CTX), sigma)
                rhs = symbolic_bracket(
                    rho_sigma(x, sigma), rho_sigma(y, sigma), F_CTX)
                self.assertEqual(lhs, rhs)


class TestCharges(unittest.TestCase):
    def test_gamma0_values(self):
        g = central_character_gamma0(2, 0, 1)
        self.assertEqual(
            (g.c_gdot, g.c_slN, g.c_hei, g.c_vh, g.c_vir),
            (Q(1), Q(1), Q(2), Q(1), Q(-4)))
        g = central_character_gamma0(12, 1, 1)
        self.assertEqual(
            (g.c_gdot, g.c_slN, g.c_hei, g.c_vh, g.c_vir),
            (Q(1), Q(0), Q(0), Q(6), Q(-12)))

    def test_barred_matches_closed_form(self):
        rng = random.Random(11)
        for _ in range(25):
            N = rng.choice([2, 3, 5, 12])
            mu = Q(rng.randint(-4, 4), rng.randint(1, 5))
            c = Q(rng.randint(1, 6), rng.randint(1, 4))
            g = central_character_gamma0(N, mu, c)
            b = barred_charges(g, Q(1, N))
            self.assertEqual(b.c_vir_bar, cbar_closed_form(N, mu, c))
            # the default lowest weight cancels the embedding shift exactly
            self.assertEqual(default_h_vir(g, N) + b.h_shift, 0)

    def test_spot_values(self):
        b = barred_charges(central_character_gamma0(2, 0, 1), Q(1, 2))
        self.assertEqual(b.c_vir_bar, Q(2))
        s = sugawara_charges(b, SL2, 2, table_sl=SLN2)
        self.assertEqual(s.c_prime, Q(0))
        self.assertEqual(s.h_prime, Q(0))
        b = barred_charges(central_character_gamma0(12, 1, 1), Q(1, 12))
        self.assertEqual(b.c_vir_bar, Q(0))
        s = sugawara_charges(b, load_table("rank0"), 12)
        self.assertEqual(s.c_prime, Q(0))

    def test_casimir_oracle_and_h_prime(self):
        # independent oracle: sum_i ad(g_i) ad(g^i) = Omega * Id on sl2
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
        self.assertEqual(acc, [[Q(4) if r == c else Q(0) for c in range(3)]
                               for r in range(3)])
        self.assertEqual(casimir_eigenvalue(SL2, [2]), Q(4))
        b = BarredCharges(Q(2), Q(1), Q(1), Q(0))
        s = sugawara_charges(b, SL2, 2, h_bar=0, weight_v=[2], table_sl=SLN2)
        self.assertEqual(s.h_prime, Q(-2, 3))


def hvir_module(h, h_hei, c_vir, c_hei, c_vh):
    return VermaModule(
        HV_CTX, {"Vir": c_vir, "Hei": c_hei, "VH": c_vh},
        HighestWeightData(h=h, h_hei=h_hei), has_vir=True, has_hei=True)


def fbar_module(cbar, c_g, c_sl, h, V, W, vacuum=False):
    ctx = HVContext(SL2, SLN2, "barVir", False)
    return VermaModule(
        ctx, {"barVir": cbar, "g": c_g, "sl": c_sl},
        HighestWeightData(h=h, module_g=V, module_sl=W), vacuum=vacuum)


class TestVermaModule(unittest.TestCase):
    def test_frozen_sl2_of_hvir_relations(self):
        mod = hvir_module(Q(3, 7), Q(2), Q(-4), Q(5), Q(1, 3))
        hw = mod.vacuum_state()
        lm1 = mod.apply(("L", -1), hw)
        self.assertEqual(mod.apply(("L", 0), lm1), lm1.scale(Q(3, 7) + 1))
        self.assertEqual(mod.apply(("L", 1), lm1), hw.scale(Q(6, 7)))
        lm2 = mod.apply(("L", -2), hw)
        self.assertEqual(mod.apply(("L", 2), lm2),
                         hw.scale(4 * Q(3, 7) + Q(-4) / 2))
        im1 = mod.apply(("I", -1), hw)
        self.assertEqual(mod.apply(("I", 1), im1), hw.scale(5))
        self.assertEqual(mod.apply(("L", 1), im1),
                         hw.scale(Q(2) - 2 * Q(1, 3)))

    def test_straightening_reorders_and_brackets(self):
        mod = hvir_module(0, 0, 1, 1, 1)
        got = mod.apply_many([("L", -1), ("L", -2)], mod.vacuum_state())
        want = LinComb([
            (((("L", -2), ("L", -1)), 0), Q(1)),
            (((("L", -3),), 0), Q(1)),
        ])
        self.assertEqual(got, want)
        # already sorted application just stacks
        got = mod.apply_many([("L", -2), ("L", -1)], mod.vacuum_state())
        self.assertEqual(got, LinComb.single((((("L", -2), ("L", -1))), 0)))

    def test_apply_leaves_cached_values_alone(self):
        """apply accumulates in a fresh dict, so the cached action on a
        basis state never changes when a later sum reuses it."""
        mod = hvir_module(Q(3, 7), Q(2), Q(-4), Q(5), Q(1, 3))
        states = [LinComb.single(s) for d in (1, 2)
                  for s in mod.slice_basis(d)]
        syms = [("L", 1), ("L", -1), ("I", 1), ("L", 2)]
        for sym in syms:
            for v in states:
                mod.apply(sym, v)
        snapshot = {k: dict(v.terms) for k, v in mod._apply_cache.items()}
        # sums whose first coefficient is 1, over cached basis states
        for sym in syms:
            for v, w in zip(states, states[1:]):
                mod.apply(sym, v + w.scale(2))
        for k, terms in snapshot.items():
            self.assertEqual(mod._apply_cache[k].terms, terms, k)

    def test_grading_operators(self):
        mod = hvir_module(Q(1, 5), Q(7), Q(2), Q(3), Q(0))
        for depth in (1, 2, 3):
            for state in mod.slice_basis(depth):
                v = LinComb.single(state)
                self.assertEqual(mod.apply(("L", 0), v),
                                 v.scale(Q(1, 5) + depth))
                self.assertEqual(mod.apply(("I", 0), v), v.scale(7))

    def test_slice_counts(self):
        vir = VermaModule(HV_CTX, {"Vir": Q(0)}, HighestWeightData())
        self.assertEqual(len(vir.slice_basis(4)), 5)
        vac = VermaModule(HV_CTX, {"Vir": Q(0)}, HighestWeightData(),
                          vacuum=True)
        self.assertEqual(len(vac.slice_basis(4)), 2)
        self.assertEqual(len(vac.slice_basis(1)), 0)
        hv = hvir_module(0, 0, 1, 1, 1)
        self.assertEqual(len(hv.slice_basis(2)), 5)
        L1, L2, L3 = (("L", -n) for n in (1, 2, 3))
        I1, I2, I3 = (("I", -n) for n in (1, 2, 3))
        self.assertEqual(hv.slice_basis(3), [
            ((I3,), 0), ((I2, I1), 0), ((I2, L1), 0), ((I1, I1, I1), 0),
            ((L3,), 0), ((L2, I1), 0), ((L2, L1), 0), ((L1, I1, I1), 0),
            ((L1, L1, I1), 0), ((L1, L1, L1), 0)])
        fb = fbar_module(Q(2), Q(1), Q(1), 0,
                         adjoint_module(SL2), trivial_module(SLN2))
        monos = {m for (m, _) in fb.slice_basis(2)}
        self.assertEqual(len(monos), 35)
        self.assertEqual(len(fb.slice_basis(2)), 105)

    def test_vacuum_kills_translation_only_at_top(self):
        vac = VermaModule(HV_CTX, {"Vir": Q(1, 2)}, HighestWeightData(),
                          vacuum=True)
        top = vac.vacuum_state()
        self.assertTrue(vac.apply(("L", -1), top).is_zero())
        got = vac.apply_many([("L", -1), ("L", -2)], top)
        self.assertEqual(got, LinComb.single((((("L", -3),)), 0)))
        with self.assertRaises(ValueError):
            VermaModule(HV_CTX, {"Vir": Q(0)}, HighestWeightData(h=1),
                        vacuum=True)

    def test_current_zero_modes_and_level(self):
        mod = fbar_module(Q(2), Q(1), Q(1), 0,
                          adjoint_module(SL2), trivial_module(SLN2))
        hw_h = mod.vacuum_state(mod.hw_join(1, 0))  # the vector h in V
        got = mod.apply(("g", 0, 0), hw_h)  # e . h = -2 e
        self.assertEqual(got, mod.vacuum_state(mod.hw_join(0, 0)).scale(-2))
        # [e(1), f(-1)] = h(0) + (e|f) C on the highest vector e of V
        hw_e = mod.vacuum_state(mod.hw_join(0, 0))
        got = mod.apply_many([("g", 0, 1), ("g", 2, -1)], hw_e)
        self.assertEqual(got, hw_e.scale(3))


class TestSugawara(unittest.TestCase):
    def affine(self, V):
        ctx = HVContext(SL2, None, "Vir", True)
        return VermaModule(ctx, {"g": Q(1)},
                           HighestWeightData(module_g=V),
                           has_vir=False, has_hei=False)

    def test_zero_mode_eigenvalues(self):
        triv = self.affine(trivial_module(SL2))
        op = SugawaraOperator(triv, "g")
        self.assertTrue(op.apply_mode(0, triv.vacuum_state()).is_zero())
        adj = self.affine(adjoint_module(SL2))
        op = SugawaraOperator(adj, "g")
        hw = adj.vacuum_state()
        self.assertEqual(op.apply_mode(0, hw), hw.scale(Q(2, 3)))
        deep = adj.apply(("g", 0, -1), hw)
        self.assertEqual(op.apply_mode(0, deep), deep.scale(Q(2, 3) + 1))
        self.assertEqual(op.central_charge(), Q(1))

    def test_commutes_as_virasoro_with_currents(self):
        adj = self.affine(adjoint_module(SL2))
        op = SugawaraOperator(adj, "g")
        hw = adj.vacuum_state()
        states = [hw,
                  adj.apply(("g", 0, -1), hw),
                  adj.apply_many([("g", 2, -2), ("g", 1, -1)], hw)]
        for n in range(-2, 3):
            for m in range(-2, 3):
                for i in range(3):
                    x = ("g", i, m)
                    for v in states:
                        lhs = op.apply_mode(n, adj.apply(x, v)) \
                            - adj.apply(x, op.apply_mode(n, v))
                        rhs = adj.apply(("g", i, n + m), v).scale(-m)
                        self.assertEqual(lhs, rhs, f"n={n} m={m} x={x}")

    def test_virasoro_relations(self):
        adj = self.affine(adjoint_module(SL2))
        op = SugawaraOperator(adj, "g")
        c = op.central_charge()
        hw = adj.vacuum_state()
        states = [hw, adj.apply(("g", 1, -1), hw)]
        for n, m in [(2, -2), (1, -1), (2, -1), (-2, 1), (0, 3), (3, -2)]:
            for v in states:
                lhs = op.apply_mode(n, op.apply_mode(m, v)) \
                    - op.apply_mode(m, op.apply_mode(n, v))
                rhs = op.apply_mode(n + m, v).scale(n - m)
                if n == -m:
                    rhs = rhs + v.scale(Q(n ** 3 - n, 12) * c)
                self.assertEqual(lhs, rhs, f"n={n} m={m}")

    def test_mode_closure(self):
        adj = self.affine(adjoint_module(SL2))
        l0 = SugawaraOperator(adj, "g").apply_mode
        hw = adj.vacuum_state()
        self.assertEqual(l0(0, hw), hw.scale(Q(2, 3)))


def reference_mode(mod, fam, n, state):
    """L^Sug(n) by its defining formula, independently of
    SugawaraOperator: for every basis state, a double apply over the
    dual basis for each split m + (n - m) = n (a window wider than the
    nonzero one), then the prefactor 1 / (2 (k + h^vee))."""
    table = mod.ctx.table(fam)
    dual = table.dual_basis()
    level = mod.central(fam)
    out = LinComb.zero()
    for (mono, hw_idx), coeff in state.items():
        d = mono_depth(mono)
        vec = LinComb.single((mono, hw_idx), coeff)
        for m in range(n - d - 2, d + 3):
            first, second = sorted((m, n - m))
            for i in range(table.dim):
                for k in range(table.dim):
                    if dual[k][i] != 0:
                        out = out + mod.apply(
                            (fam, i, first),
                            mod.apply((fam, k, second), vec)).scale(dual[k][i])
    return out.scale(Q(1, 2) / (level + table.dual_coxeter))


class TestSugawaraCache(unittest.TestCase):
    """apply_mode is the linear extension of a cached action on basis
    states; it must agree with the defining formula, for every n, on
    multi-term states, and its cached values must never change."""

    def affine(self, table, V, level):
        ctx = HVContext(table, None, "Vir", True)
        return VermaModule(ctx, {"g": Q(level)},
                           HighestWeightData(module_g=V),
                           has_vir=False, has_hei=False)

    def states(self, mod):
        """Multi-term states over every top vector, up to depth 3."""
        dim = mod.ctx.table_g.dim
        top = LinComb.zero()
        for idx in range(mod.hw_dim):
            top = top + mod.vacuum_state(idx).scale(Q(idx + 1, 2))
        one = mod.apply(("g", 0, -1), top)
        two = mod.apply_many([("g", dim - 1, -1), ("g", 0, -1)], top)
        three = mod.apply_many([("g", dim // 2, -2), ("g", dim - 1, -1)], top)
        return [top, one + top.scale(3), two - one.scale(Q(2, 5)),
                three + two + top]

    def test_equals_defining_formula(self):
        sl3 = load_table("sl3")
        modules = [("sl2 adjoint", self.affine(SL2, adjoint_module(SL2), 1)),
                   ("sl2 trivial", self.affine(SL2, trivial_module(SL2),
                                               Q(3, 2))),
                   ("sl3 adjoint", self.affine(sl3, adjoint_module(sl3), 2))]
        for name, mod in modules:
            op = SugawaraOperator(mod, "g")
            states = self.states(mod)
            for n in range(-3, 4):
                for v in states:
                    with self.subTest(module=name, n=n):
                        self.assertEqual(op.apply_mode(n, v),
                                         reference_mode(mod, "g", n, v))

    def test_overlapping_modes_leave_cached_values_alone(self):
        mod = self.affine(SL2, adjoint_module(SL2), 1)
        op = SugawaraOperator(mod, "g")
        basis = [LinComb.single(s) for d in (0, 1, 2)
                 for s in mod.slice_basis(d)]
        for n in range(-2, 3):
            for v in basis:
                op.apply_mode(n, v)
        snapshot = {k: dict(v.terms) for k, v in op._cache.items()}
        # sums whose first coefficient is 1, over cached basis states,
        # and modes of modes, which reuse cached values as inputs
        for n in range(-2, 3):
            for v, w in zip(basis, basis[1:]):
                op.apply_mode(n, v + w.scale(2))
                op.apply_mode(n, op.apply_mode(-n, v))
        self.assertGreater(len(op._cache), len(snapshot))
        for k, terms in snapshot.items():
            self.assertEqual(op._cache[k].terms, terms, k)


class TestSingularScan(unittest.TestCase):
    def test_planted_null_vector(self):
        mod = VermaModule(HV_CTX, {"Vir": Q(0)}, HighestWeightData(h=0))
        found = verma_singular_scan(mod, 2, [("L", 1), ("L", 2)])
        self.assertGreaterEqual(len(found), 2)
        depth, vec = found[0]
        self.assertEqual(depth, 1)
        self.assertEqual(vec, LinComb.single((((("L", -1),)), 0)))
        # the degenerate point also has the classic depth-2 null vector
        d2 = [v for d, v in found if d == 2]
        self.assertEqual(len(d2), 1)
        v = d2[0]
        a = v.coeff(((("L", -2),), 0))
        b = v.coeff(((("L", -1), ("L", -1)), 0))
        self.assertEqual(3 * a + 2 * b, 0)
        self.assertNotEqual(a, 0)

    def test_multi_term_vector_normal_form(self):
        # M(c=0, h=5/8): h = h_{1,2}, one null vector at depth 2, reported
        # with coefficient 1 on the last basis monomial
        mod = VermaModule(HV_CTX, {"Vir": Q(0)}, HighestWeightData(h=Q(5, 8)))
        found = verma_singular_scan(mod, 3, [("L", 1), ("L", 2)])
        self.assertEqual(found, [(2, LinComb({
            ((("L", -1), ("L", -1)), 0): Q(1),
            ((("L", -2),), 0): Q(-3, 2)}))])

    def test_generic_point_is_clean(self):
        mod = VermaModule(HV_CTX, {"Vir": Q(3, 5)},
                          HighestWeightData(h=Q(1, 7)))
        self.assertEqual(verma_singular_scan(mod, 3, [("L", 1), ("L", 2)]), [])


class TestOrderingKey(unittest.TestCase):
    def test_sort_key_orders_by_mode_then_family(self):
        syms = [("g", 0, -1), ("L", -2), ("I", -1), ("L", -1), ("sl", 1, -2)]
        ordered = sorted(syms, key=mode_sort_key)
        self.assertEqual(ordered, [("L", -2), ("sl", 1, -2), ("L", -1),
                                   ("I", -1), ("g", 0, -1)])


if __name__ == "__main__":
    unittest.main()
