"""Hyperbolic-lattice Fock layer: oscillator algebra, zero modes,
lattice shifts, weights, and basis enumeration counts. Lattice shifts
and combinations of oscillators are applied through a VertexSpace with
a one-dimensional f-factor, whose states (osc, s, (), 0) are the bare
Fock states (osc, s).

Count oracle: oscillator monomials of depth d over 2N colors are colored
partitions, so N=2 gives 1, 4, 14 states at depths 0, 1, 2 and N=12
gives 1, 24 at depths 0, 1.
"""

import random
import unittest

from toralg.fock import (
    LatticeParams,
    base_weight,
    enumerate_osc,
    gamma_pair,
    lattice_box,
    mono_depth,
    oscillator_apply,
    vacuum_lattice,
)
from toralg.hvir import HVContext, OneDimHWModule
from toralg.linear import LinComb
from toralg.scalar import Q
from toralg.vertex import VertexSpace


def st(osc, s):
    canon = tuple(sorted(osc, key=lambda x: (x[2], x[0], x[1])))
    return LinComb.single((canon, tuple(s)))


def fock_space(params):
    """params tensored with the one-dimensional f-factor."""
    return VertexSpace(params, OneDimHWModule(HVContext(None, None),
                                              {"Vir": 0}))


def pairing(x, y):
    """(x|y) for the directions of two oscillator symbols."""
    return Q(1) if (x[0] != y[0] and x[1] == y[1]) else Q(0)


def commutator(params, x, y, state):
    return oscillator_apply(params, x, oscillator_apply(params, y, state)) \
        - oscillator_apply(params, y, oscillator_apply(params, x, state))


def vst(osc, s):
    """st(osc, s) as a state of fock_space."""
    (canon, s), = st(osc, s).terms
    return LinComb.single((canon, s, (), 0))


class TestBasics(unittest.TestCase):
    def test_params_validation(self):
        with self.assertRaises(ValueError):
            LatticeParams(2, (Q(1, 3),), (1, 0))
        p = LatticeParams(2, (Q(1, 3), Q(1, 5)), (1, 0))
        self.assertEqual(p.alpha, (Q(1, 3), Q(1, 5)))
        self.assertEqual(p.beta, (1, 0))
        self.assertEqual(vacuum_lattice(3).alpha, (Q(0), Q(0), Q(0)))

    def test_pairings(self):
        # [x(1), y(-1)] = (x|y) on the vacuum
        p = LatticeParams(2, (Q(1, 3), Q(1, 5)), (1, 0))
        vac = st([], [0, 0])
        self.assertEqual(commutator(p, ("u", 1, 1), ("v", 1, -1), vac), vac)
        self.assertTrue(
            commutator(p, ("u", 1, 1), ("v", 2, -1), vac).is_zero())
        self.assertTrue(
            commutator(p, ("u", 1, 1), ("u", 1, -1), vac).is_zero())
        self.assertEqual(gamma_pair(p, "u", 1, (0, 0)), Q(1))
        self.assertEqual(gamma_pair(p, "u", 2, (5, 5)), Q(0))
        self.assertEqual(gamma_pair(p, "v", 1, (0, 0)), Q(1, 3))
        self.assertEqual(gamma_pair(p, "v", 2, (0, -2)), Q(1, 5) - 2)

    def test_weights(self):
        p = LatticeParams(2, (Q(1, 3), Q(1, 5)), (1, 0))
        # (alpha+s).beta + oscillator depth, the f-factor adding nothing
        space = fock_space(p)
        self.assertEqual(space.mod_weight(((), (0, 0), (), 0)), Q(1, 3))
        self.assertEqual(space.mod_weight(((), (-1, 2), (), 0)), Q(-2, 3))
        deep = ((("u", 1, -2), ("v", 2, -1)), (0, 0), (), 0)
        self.assertEqual(space.mod_weight(deep), Q(1, 3) + 3)
        self.assertEqual(base_weight(p, (3, -7)), Q(10, 3))


class TestOscillators(unittest.TestCase):
    def setUp(self):
        self.p = LatticeParams(2, (Q(1, 3), Q(1, 5)), (1, 0))

    def test_create_annihilate_frozen(self):
        v = st([], [0, 0])
        created = oscillator_apply(self.p, ("v", 1, -1), v)
        self.assertEqual(created, st([("v", 1, -1)], [0, 0]))
        # u_1(1) contracts against v_1(-1) with factor 1*(u|v)
        back = oscillator_apply(self.p, ("u", 1, 1), created)
        self.assertEqual(back, v)
        # double occupancy multiplies by the multiplicity
        twice = oscillator_apply(self.p, ("v", 1, -1), created)
        back2 = oscillator_apply(self.p, ("u", 1, 1), twice)
        self.assertEqual(back2, created.scale(2))
        # mismatched direction or depth gives zero
        self.assertTrue(oscillator_apply(self.p, ("u", 2, 1), created).is_zero())
        self.assertTrue(oscillator_apply(self.p, ("u", 1, 2), created).is_zero())

    def test_zero_modes(self):
        state = st([("u", 1, -3)], [2, -1])
        self.assertEqual(oscillator_apply(self.p, ("u", 1, 0), state), state.scale(1))
        self.assertEqual(oscillator_apply(self.p, ("v", 1, 0), state),
                         state.scale(Q(1, 3) + 2))
        self.assertEqual(oscillator_apply(self.p, ("v", 2, 0), state),
                         state.scale(Q(1, 5) - 1))

    def test_commutation_property(self):
        rng = random.Random(23)
        syms = [(k, p, n) for k in ("u", "v") for p in (1, 2)
                for n in (-3, -2, -1, 1, 2, 3)]
        states = [st([], [0, 0]),
                  st([("v", 1, -1), ("v", 1, -1), ("u", 2, -2)], [1, 0]),
                  st([("u", 1, -1), ("v", 2, -3)], [-1, 2])]
        for _ in range(200):
            x = rng.choice(syms)
            y = rng.choice(syms)
            w = rng.choice(states)
            lhs = commutator(self.p, x, y, w)
            expect = LinComb.zero()
            if x[2] == -y[2]:
                expect = w.scale(Q(x[2]) * pairing(x, y))
            self.assertEqual(lhs, expect, f"x={x} y={y}")

    def test_zero_mode_commutes_with_oscillators(self):
        state = st([("v", 1, -2)], [0, 0])
        x0 = ("v", 1, 0)
        y = ("u", 1, -2)
        lhs = oscillator_apply(self.p, x0, oscillator_apply(self.p, y, state))
        rhs = oscillator_apply(self.p, y, oscillator_apply(self.p, x0, state))
        self.assertEqual(lhs, rhs)

    def test_lattice_shift(self):
        space = fock_space(self.p)
        state = vst([("u", 1, -1)], [0, 1])
        shifted = space.shift_op((2, -1), state)
        self.assertEqual(shifted, vst([("u", 1, -1)], [2, 0]))
        # [v_p(0), e^{ru}] = r_p e^{ru}
        lhs = space.osc_op(("v", 1, 0), space.shift_op((2, -1), state)) \
            - space.shift_op((2, -1), space.osc_op(("v", 1, 0), state))
        self.assertEqual(lhs, shifted.scale(2))
        # and u_p(0) commutes since (u|u) = 0
        lhs = space.osc_op(("u", 1, 0), space.shift_op((2, -1), state)) \
            - space.shift_op((2, -1), space.osc_op(("u", 1, 0), state))
        self.assertTrue(lhs.is_zero())

    def test_comb_application(self):
        space = fock_space(self.p)
        op = LinComb([(("u", 1, 1), Q(2)), (("u", 2, 1), Q(5))])
        state = vst([("v", 1, -1)], [0, 0]) + vst([("v", 2, -1)], [0, 0])
        got = space.osc_op_comb(op, state)
        self.assertEqual(got, vst([], [0, 0]).scale(7))


def basis(N, max_depth, points):
    """Every (osc, s) with oscillator depth <= max_depth, s in points."""
    return [(osc, tuple(s)) for s in points
            for osc in enumerate_osc(N, max_depth)]


class TestEnumeration(unittest.TestCase):
    def test_count_examples(self):
        self.assertEqual(len(basis(12, 1, lattice_box(12, 0))), 25)
        self.assertEqual(len(basis(2, 2, lattice_box(2, 0))), 19)

    def test_depth_layers(self):
        oscs = enumerate_osc(2, 2)
        by_depth = {}
        for o in oscs:
            by_depth.setdefault(mono_depth(o), []).append(o)
        self.assertEqual({d: len(v) for d, v in by_depth.items()},
                         {0: 1, 1: 4, 2: 14})
        self.assertEqual(len(set(oscs)), len(oscs))
        for o in oscs:
            self.assertEqual(tuple(sorted(o, key=lambda s: (s[2], s[0], s[1]))), o)
        u1, u2, u3 = (("u", 1, -n) for n in (1, 2, 3))
        v1, v2, v3 = (("v", 1, -n) for n in (1, 2, 3))
        self.assertEqual(enumerate_osc(1, 3), [
            (), (u1,), (v1,),
            (u2,), (v2,), (u1, u1), (u1, v1), (v1, v1),
            (u3,), (v3,), (u2, u1), (u2, v1), (v2, u1), (v2, v1),
            (u1, u1, u1), (u1, u1, v1), (u1, v1, v1), (v1, v1, v1)])

    def test_box_and_points(self):
        self.assertEqual(len(list(lattice_box(2, 1))), 9)
        pts = [(0, 0), (3, -3)]
        states = basis(2, 1, pts)
        self.assertEqual(len(states), 10)
        self.assertTrue(all(s in pts for _, s in states))


if __name__ == "__main__":
    unittest.main()
