"""Module action of the divergence-free algebra: frozen zero-mode
eigenvalues, window sizes counted two ways, the grading-shift property
of every spanning operator, the K-relation operator identity, exact
commutator preservation on seeded samples (general and rank-0 points),
the Virasoro rank scalar with a falsification fixture, and the
singular-vector scan with a planted positive control, its graded
slices and its one-operator verdict at the generic point."""

import random
import unittest
from unittest import mock

from toralg import rep as rep_mod
from toralg.fock import lattice_box
from toralg.hvir import VermaModule, verma_singular_scan
from toralg.lie_table import load_table
from toralg.linear import LinComb
from toralg.rep import (ActionParams, act_key, build_module, rank0_params,
                        raising_set, represent, singular_scan, tor_repr,
                        verify_commutator, verify_virasoro_rank)
from toralg.scalar import Q
from toralg.toroidal import AlgebraParams, bracket, gdiv_spanning, \
    spanning_element
from toralg.vertex import omega_total, vac_state


def sl2_params(mu=0, c=1, h_bar=Q(1, 7)):
    alg = AlgebraParams(2, load_table("sl2"), mu=mu, c=c)
    return ActionParams(alg, (Q(1, 3), Q(1, 5)), (1, 0), h_bar=h_bar)


class TestActionParams(unittest.TestCase):
    def test_shift_defaults(self):
        self.assertEqual(sl2_params().d0_shift, 0)
        self.assertEqual(rank0_params().d0_shift, 1)
        self.assertEqual(rank0_params(d0_shift=Q(3, 2)).d0_shift, Q(3, 2))

    def test_rank0_guards(self):
        tab = load_table("rank0")
        with self.assertRaises(ValueError):
            ActionParams(AlgebraParams(12, tab, mu=0, c=1),
                         (0,) * 12, (0,) * 12, rank0=True)
        with self.assertRaises(ValueError):
            ActionParams(AlgebraParams(12, tab, mu=1, c=1),
                         (0,) * 12, (0,) * 12, rank0=True, h_bar=1)
        with self.assertRaises(ValueError):
            ActionParams(AlgebraParams(2, load_table("sl2"), mu=1, c=1),
                         (0, 0), (0, 0), rank0=True)

    def test_lattice_mismatch(self):
        with self.assertRaises(ValueError):
            ActionParams(AlgebraParams(2, load_table("sl2")), (0,), (0, 0))


class TestWindow(unittest.TestCase):
    def test_size_sl2(self):
        # osc depth <= 1: 1 + 4; f depth <= 1: top, L(-1), 3 g(-1), 3 sl(-1)
        mod = build_module(sl2_params(), 1, 0)
        self.assertEqual(mod.basis_size(), 5 * 8)
        self.assertEqual(len(list(mod.basis())), 40)

    def test_size_rank0(self):
        mod = build_module(rank0_params(), 2, 0)
        self.assertEqual(mod.basis_size(), 1 + 24 + 324)
        mod = build_module(rank0_params(), 3, 1)
        # lazy arithmetic only: 3^12 lattice points never materialize
        self.assertEqual(mod.basis_size(), (1 + 24 + 324 + 3200) * 3 ** 12)

    def test_trivial_window(self):
        mod = build_module(sl2_params(), 0, 0)
        self.assertEqual(mod.basis_size(), 1)
        self.assertEqual(list(mod.basis()), [((), (0, 0), (), 0)])

    def test_deterministic_order(self):
        mod = build_module(sl2_params(), 2, 1)
        self.assertEqual(list(lattice_box(2, 1)),
                         [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)])
        pts = list(dict.fromkeys(w[1] for w in mod.basis()))
        self.assertEqual(pts, list(lattice_box(2, 1)))
        self.assertEqual(mod.basis_at((0, 0)), mod.basis_at((0, 0)))
        self.assertEqual(mod.basis_at((0, 0))[0], ((), (0, 0), (), 0))

    def test_window_errors(self):
        with self.assertRaises(ValueError):
            build_module(sl2_params(), -1, 0)
        with self.assertRaises(ValueError):
            build_module(sl2_params(), 2, -2)

    def test_contains(self):
        mod = build_module(sl2_params(), 1, 0)
        self.assertTrue(mod.contains(((("u", 1, -1),), (0, 0), (), 0)))
        self.assertFalse(mod.contains(((("u", 1, -2),), (0, 0), (), 0)))
        self.assertFalse(mod.contains(((), (1, 0), (), 0)))


class TestZeroModes(unittest.TestCase):
    def test_k0_is_c_identity(self):
        ap = sl2_params(mu=1, c=Q(2, 3))
        mod = build_module(ap, 1, 1)
        op = represent(spanning_element(ap.algebra, ("k0", 0, (0, 0))), mod)
        for w in mod.basis():
            wl = LinComb.single(w)
            self.assertEqual(op(wl), wl.scale(Q(2, 3)))

    def test_kp_is_c_beta(self):
        ap = sl2_params(c=Q(5, 2))
        mod = build_module(ap, 1, 1)
        for p, beta_p in ((1, 1), (2, 0)):
            op = represent(
                spanning_element(ap.algebra, ("k", 0, (0, 0), p)), mod)
            for w in mod.basis():
                wl = LinComb.single(w)
                self.assertEqual(op(wl), wl.scale(Q(5, 2) * beta_p))

    def test_dp_is_alpha_plus_s(self):
        ap = sl2_params()
        mod = build_module(ap, 1, 1)
        for p in (1, 2):
            op = represent(spanning_element(ap.algebra, ("dp", 0, p)), mod)
            for w in mod.basis():
                wl = LinComb.single(w)
                self.assertEqual(op(wl), wl.scale(mod.dp_eigenvalue(w, p)))

    def test_d0_spectrum(self):
        ap = sl2_params()
        mod = build_module(ap, 2, 0)
        op = represent(spanning_element(ap.algebra, ("d0",)), mod)
        for w in mod.basis_at((0, 0)):
            wl = LinComb.single(w)
            self.assertEqual(op(wl), wl.scale(mod.d0_eigenvalue(w)))
        # vacuum eigenvalue: -(base weight + h) = -(1/3 + 1/7)
        vac = mod.basis_at((0, 0))[0]
        self.assertEqual(mod.d0_eigenvalue(vac), Q(-10, 21))

    def test_d0_vacuum_rank0(self):
        mod = build_module(rank0_params(), 2, 0)
        op = represent(spanning_element(mod.params.algebra, ("d0",)), mod)
        vac = LinComb.single(mod.basis_at((0,) * 12)[0])
        self.assertEqual(op(vac), vac)


class TestGrading(unittest.TestCase):
    def test_degree_shifts(self):
        ap = sl2_params(mu=1, c=Q(2, 3))
        mod = build_module(ap, 3, 2)
        states = mod.basis_at((0, 0))[:3] + mod.basis_at((1, -1))[:3]
        for se in gdiv_spanning(ap.algebra, 2, 1):
            j, r, fn = act_key(mod, se.key)
            for w in states:
                for t, _ in fn(LinComb.single(w)).items():
                    self.assertEqual(mod.weight(t) - mod.weight(w), -j)
                    self.assertEqual(
                        tuple(t[1][i] - w[1][i] for i in range(2)), tuple(r))

    def test_operator_degrees_listed(self):
        ap = sl2_params()
        mod = build_module(ap, 2, 1)
        x = spanning_element(ap.algebra, ("dhat", 1, (1, 0), 1))
        self.assertEqual(represent(x, mod).degrees(), [(1, (1, 0))])


class TestKRelation(unittest.TestCase):
    def test_operator_identity(self):
        # j K(j,r,0) + sum_p r_p K(j,r,p) acts as zero although no single
        # moment does: the relation of the quotient holds on the module.
        ap = sl2_params(mu=1)
        mod = build_module(ap, 3, 2)
        states = mod.basis_at((0, 0))[:4] + mod.basis_at((-1, 1))[:2]
        for j, r in [(1, (1, 0)), (2, (1, -1)), (-1, (0, 1)), (0, (1, 1))]:
            _, _, f0 = act_key(mod, ("k0", j, r))
            for w in states:
                wl = LinComb.single(w)
                tot = f0(wl).scale(j)
                for p in (1, 2):
                    if r[p - 1]:
                        _, _, fp = act_key(mod, ("k", j, r, p))
                        tot = tot + fp(wl).scale(r[p - 1])
                self.assertTrue(tot.is_zero())

    def test_reduced_zero_acts_as_zero(self):
        from toralg.toroidal import TorElement, ksym
        ap = sl2_params()
        mod = build_module(ap, 2, 0)
        x = TorElement.of(ap.algebra, ksym((3, 0, 0), 0))
        self.assertTrue(x.is_zero())
        self.assertEqual(represent(x, mod).pieces, [])


SL2_PAIRS = [
    (("dhat", 1, (1, 0), 1), ("dhat", -1, (-1, 0), 1)),
    (("dhat", 0, (1, 1), 1), ("dhat", 0, (-1, -1), 2)),
    (("dab", 1, (1, 0), 1, 2), ("dhat", -1, (0, 1), 2)),
    (("dab", 0, (1, -1), 1, 2), ("dab", 0, (-1, 1), 1, 2)),
    (("g", 1, (1, 0), 0), ("g", -1, (-1, 0), 1)),
    (("g", 1, (1, 0), 0), ("dhat", -1, (-1, 0), 1)),
    (("k", 1, (0, 1), 2), ("dab", 0, (1, 0), 1, 2)),
    (("dp", 2, 1), ("dhat", -1, (1, 0), 1)),
    (("d0",), ("dhat", 1, (1, 1), 2)),
    (("k0", 1, (1, 0)), ("dhat", -1, (-1, 0), 1)),
]


class TestCommutators(unittest.TestCase):
    def check_pairs(self, ap, mod, states, pairs):
        for kx, ky in pairs:
            x = spanning_element(ap.algebra, kx)
            y = spanning_element(ap.algebra, ky)
            rep = verify_commutator(x, y, mod, states=states)
            self.assertGreater(rep.safe_count, 0)
            self.assertTrue(rep.residual_zero,
                            msg=f"{kx} vs {ky}: {rep.witness}")

    def test_sl2_point(self):
        for mu in (0, 1):
            ap = sl2_params(mu=mu)
            mod = build_module(ap, 3, 1)
            states = (mod.basis_at((0, 0))[:6] + mod.basis_at((1, 0))[:3]
                      + mod.basis_at((0, -1))[:3])
            self.check_pairs(ap, mod, states, SL2_PAIRS)

    def test_both_sides_vanish(self):
        # [t_0 d_1, t_0^{-1} d_1] = 0 in the algebra and as operators.
        ap = sl2_params()
        mod = build_module(ap, 2, 0)
        x = spanning_element(ap.algebra, ("dp", 1, 1))
        y = spanning_element(ap.algebra, ("dp", -1, 1))
        self.assertTrue(bracket(x, y).is_zero())
        rep = verify_commutator(x, y, mod)
        self.assertTrue(rep.residual_zero)
        self.assertGreater(rep.safe_count, 0)

    def test_seeded_sample(self):
        from toralg.rep import _key_degree
        rng = random.Random(20260815)
        ap = sl2_params(mu=Q(1, 2), c=Q(3, 4))
        mod = build_module(ap, 3, 1)
        span = gdiv_spanning(ap.algebra, 2, 1)
        states = mod.basis_at((0, 0))[:5]
        checked = 0
        while checked < 12:
            sx, sy = rng.choice(span), rng.choice(span)
            jx, rx = _key_degree(sx.key, 2)
            jy, ry = _key_degree(sy.key, 2)
            if abs(jx) + abs(jy) > 2 or any(
                    abs(a + b) > 1 for a, b in zip(rx, ry)):
                continue
            rep = verify_commutator(sx.element, sy.element, mod,
                                    states=states)
            self.assertTrue(rep.residual_zero,
                            msg=f"{sx.key} vs {sy.key}: {rep.witness}")
            checked += 1

    def test_report_json(self):
        ap = sl2_params()
        mod = build_module(ap, 2, 0)
        x = spanning_element(ap.algebra, ("dp", 1, 1))
        doc = verify_commutator(x, x, mod).to_json()
        self.assertEqual(set(doc), {"x", "y", "safe_count", "residual_zero"})
        self.assertTrue(doc["residual_zero"])
        self.assertEqual(doc["x"], doc["y"])
        self.assertIsInstance(doc["x"], str)

    def test_empty_safe_zone(self):
        ap = sl2_params()
        tiny = build_module(ap, 0, 0)
        x = spanning_element(ap.algebra, ("g", -1, (0, 0), 0))
        y = spanning_element(ap.algebra, ("g", 1, (0, 0), 1))
        with self.assertRaises(ValueError):
            verify_commutator(x, y, tiny)

    def test_unsafe_states_skipped(self):
        # On a depth-1 window a depth-raising pair leaves only the states
        # whose images fit; deeper start states are skipped, not checked.
        ap = sl2_params()
        mod = build_module(ap, 1, 0)
        x = spanning_element(ap.algebra, ("g", -1, (0, 0), 0))
        y = spanning_element(ap.algebra, ("g", 1, (0, 0), 0))
        rep = verify_commutator(x, y, mod)
        self.assertLess(rep.safe_count, len(list(mod.basis())))
        self.assertTrue(rep.residual_zero)


class TestRank0(unittest.TestCase):
    R1 = (1,) + (0,) * 11
    R1M = (-1,) + (0,) * 11
    R2 = (0, 1) + (0,) * 10

    def test_commutators(self):
        ap = rank0_params()
        mod = build_module(ap, 3, 1)
        states = mod.basis_at((0,) * 12)[:5] + mod.basis_at(self.R2)[:3]
        pairs = [
            (("dhat", 1, self.R1, 1), ("dhat", -1, self.R1M, 1)),
            (("dab", 0, self.R1, 1, 2), ("dab", 0, self.R1M, 1, 2)),
            (("dhat", 0, self.R1, 1), ("dab", 0, self.R2, 1, 2)),
            (("k0", 1, self.R1), ("dhat", -1, self.R1M, 1)),
            (("dp", 1, 5), ("dhat", -1, self.R1, 1)),
        ]
        for kx, ky in pairs:
            x = spanning_element(ap.algebra, kx)
            y = spanning_element(ap.algebra, ky)
            rep = verify_commutator(x, y, mod, states=states)
            self.assertGreater(rep.safe_count, 0)
            self.assertTrue(rep.residual_zero,
                            msg=f"{kx} vs {ky}: {rep.witness}")

    def test_termwise_specialization(self):
        # The rank-0 action is the general assignment evaluated on the
        # one-dimensional f-factor: every term carrying an f-mode
        # contributes nothing, so the oscillator part alone agrees.
        from toralg.rep import _dhat_head
        ap = rank0_params()
        mod = build_module(ap, 3, 1)
        A = _dhat_head(mod, self.R1)
        osc_only = LinComb({w: cc for w, cc in A.items() if w[2] == ()})
        self.assertNotEqual(len(A.terms), len(osc_only.terms))
        for w in mod.basis_at((0,) * 12)[:4]:
            wl = LinComb.single(w)
            for m in (-3, -2, -1, 0, 1):
                self.assertEqual(mod.space.mom(A, m, wl),
                                 mod.space.mom(osc_only, m, wl))


class TestVirasoroRank(unittest.TestCase):
    def test_sl2_scalar_three(self):
        # 2N + cbar = 4 + 2 at N=2, mu=0, c=1; the check value is half.
        mod = build_module(sl2_params(), 3, 0)
        out = verify_virasoro_rank(mod)
        self.assertEqual(out["expected"], 3)
        self.assertEqual(out["measured"], 3)
        self.assertTrue(out["pass"])
        self.assertGreater(out["states_checked"], 0)

    def test_rank0_scalar_twelve(self):
        mod = build_module(rank0_params(), 3, 0)
        out = verify_virasoro_rank(mod)
        self.assertEqual(out["expected"], 12)
        self.assertEqual(out["measured"], 12)
        self.assertTrue(out["pass"])

    def test_perturbed_omega_fails(self):
        mod = build_module(sl2_params(), 3, 0)
        om = omega_total(2) - LinComb.single(
            vac_state((("u", 2, -1), ("v", 2, -1)), (0, 0)))
        out = verify_virasoro_rank(mod, omega=om)
        self.assertFalse(out["pass"])
        self.assertIsNotNone(out["witness"])

    def test_window_too_small(self):
        with self.assertRaises(ValueError):
            verify_virasoro_rank(build_module(sl2_params(), 2, 0))


class TestSingularScan(unittest.TestCase):
    def test_generic_point_empty(self):
        mod = build_module(sl2_params(), 3, 1)
        self.assertEqual(singular_scan(mod, 2), [])

    def test_first_operator_decides_the_generic_point(self):
        # the first raising operator alone empties every slice, so the
        # incremental kernel never applies the others
        mod = build_module(sl2_params(), 3, 1)
        calls = []

        class Counted:
            def __init__(self, op):
                self.index = len(calls)
                self.op = op
                calls.append(0)

            def apply(self, state):
                calls[self.index] += 1
                return self.op.apply(state)

        real = rep_mod.represent
        with mock.patch.object(rep_mod, "represent",
                               lambda x, m: Counted(real(x, m))):
            self.assertEqual(singular_scan(mod, 2), [])
        self.assertGreater(len(calls), 1)
        states = sum(len(mod.slice_at((0, 0), d)) for d in (1, 2))
        self.assertEqual(calls, [states] + [0] * (len(calls) - 1))

    def test_slices_are_the_graded_basis(self):
        mod = build_module(sl2_params(), 3, 1)
        for s in [(0, 0), (1, -1)]:
            for d in range(2 * mod.depth + 2):
                self.assertEqual(mod.slice_at(s, d),
                                 [w for w in mod.basis_at(s)
                                  if mod.state_depth(w) == d])

    def test_raising_set_positive_degree(self):
        ap = sl2_params()
        for se in raising_set(ap.algebra):
            self.assertGreaterEqual(se.key[1] if se.key[0] != "d0" else 0, 1)

    def test_planted_vector_found(self):
        # Virasoro top with h = 0, central 0 has the translate of the top
        # at depth one; the same common-kernel scan sees it.
        from toralg.hvir import HVContext, HighestWeightData
        ctx = HVContext(None, None, vir_central="Vir",
                        allow_heisenberg=False)
        mod = VermaModule(ctx, {"Vir": 0},
                          HighestWeightData(0, 0, None, None))
        found = verma_singular_scan(mod, 2, [("L", 1), ("L", 2)])
        self.assertTrue(any(d == 1 for d, _ in found))
        vec = [v for d, v in found if d == 1][0]
        self.assertEqual(list(vec.items()), [(((("L", -1),), 0), Q(1))])

    def test_degree_exceeds_window(self):
        mod = build_module(sl2_params(), 2, 0)
        with self.assertRaises(ValueError):
            singular_scan(mod, 3)


class TestReprs(unittest.TestCase):
    def test_tor_repr(self):
        ap = sl2_params()
        x = spanning_element(ap.algebra, ("dp", 1, 1))
        self.assertEqual(tor_repr(x), "1*d[1,0,0;1]")
        from toralg.toroidal import TorElement
        self.assertEqual(tor_repr(TorElement.zero(ap.algebra)), "0")


if __name__ == "__main__":
    unittest.main()
