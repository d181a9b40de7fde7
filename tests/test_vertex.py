"""Vertex-operator moment engine: frozen single values computed by hand,
strong structural oracles (free-field moments reduce to single modes,
the total Virasoro zero moment is the grading), and the locality
reassembly identity

    [mom(a,m1), mom(b,m2)] = sum_n binom(-m1-1,n) mom(a_(n)b, m1+m2+1+n)

checked exactly on seeded samples."""

import random
import unittest

from hypothesis import given, strategies as st

from toralg import vertex
from toralg.fock import LatticeParams, enumerate_osc, vacuum_lattice
from toralg.hvir import (HVContext, HighestWeightData, OneDimHWModule,
                         VermaModule)
from toralg.lie_table import load_table, trivial_module
from toralg.linear import LinComb
from toralg.scalar import Q
from toralg.vertex import (VertexSpace, nth_product, omega_fbar, omega_hyp,
                           omega_total, vac_state, vacuum_space)

from shifted_fields import (bracket_expand, family_moment,
                            field_identity_check, state_derivative)


def fbar_vacuum(c_vir, table_sl=None, level_sl=0):
    """Vacuum module of the f-factor: Virasoro plus optional currents."""
    ctx = HVContext(None, table_sl, vir_central="Vir")
    centrals = {"Vir": Q(c_vir)}
    hw = HighestWeightData()
    if table_sl is not None:
        centrals["sl"] = Q(level_sl)
        hw = HighestWeightData(module_sl=trivial_module(table_sl))
    return VermaModule(ctx, centrals, hw, vacuum=True)


def fbar_verma(h, c_vir, table_sl=None, level_sl=0):
    ctx = HVContext(None, table_sl, vir_central="Vir")
    centrals = {"Vir": Q(c_vir)}
    hw = HighestWeightData(h=h)
    if table_sl is not None:
        centrals["sl"] = Q(level_sl)
        hw = HighestWeightData(h=h, module_sl=trivial_module(table_sl))
    return VermaModule(ctx, centrals, hw)


def top(space, s=None):
    """The first top state at lattice point s (default 0)."""
    return LinComb.single(((), (0,) * space.lat.N if s is None else tuple(s),
                           (), 0))


def mstate(osc, s, fmono=(), fh=0):
    from toralg.fock import osc_key
    from toralg.hvir import mode_sort_key
    return (tuple(sorted(osc, key=osc_key)), tuple(s),
            tuple(sorted(fmono, key=mode_sort_key)), fh)


class TestFreeFieldMoments(unittest.TestCase):
    def setUp(self):
        lat = LatticeParams(1, (Q(1, 3),), (1,))
        self.space = VertexSpace(lat, fbar_vacuum(2))

    def pool(self):
        w0 = top(self.space)
        return [
            w0,
            self.space.osc_op(("u", 1, -1), w0),
            self.space.osc_op(("v", 1, -2), w0),
            self.space.osc_op(("u", 1, -1),
                              self.space.osc_op(("v", 1, -1), w0)),
            self.space.shift_op((2,), self.space.osc_op(("v", 1, -1), w0)),
        ]

    def test_single_oscillator_state(self):
        a_u = vac_state([("u", 1, -1)], (0,))
        a_v = vac_state([("v", 1, -1)], (0,))
        for m in range(-4, 4):
            for w in self.pool():
                self.assertEqual(self.space.mom(a_u, m, w),
                                 self.space.osc_op(("u", 1, -m - 1), w))
                self.assertEqual(self.space.mom(a_v, m, w),
                                 self.space.osc_op(("v", 1, -m - 1), w))

    def test_derived_oscillator_state(self):
        # x(-2)1 = D x(-1)1, so its field is the z-derivative
        a2 = vac_state([("u", 1, -2)], (0,))
        for m in range(-5, 3):
            for w in self.pool():
                self.assertEqual(
                    self.space.mom(a2, m, w),
                    self.space.osc_op(("u", 1, -m - 2), w).scale(m + 1))


class TestLatticeMoments(unittest.TestCase):
    def test_pure_shift_powers(self):
        # beta = 2 so e^{u} z^{(u|gamma)} enters at z^2
        space = VertexSpace(LatticeParams(1, (0,), (2,)), fbar_vacuum(2))
        w = top(space)
        e1 = vac_state([], (1,))
        self.assertEqual(space.mom(e1, 1, w), LinComb.zero())
        self.assertEqual(space.mom(e1, 2, w),
                         LinComb.single(mstate([], (1,))))
        self.assertEqual(space.mom(e1, 3, w),
                         LinComb.single(mstate([("u", 1, -1)], (1,))))
        got = space.mom(e1, 4, w)
        want = LinComb.single(mstate([("u", 1, -2)], (1,)), Q(1, 2)) \
            + LinComb.single(mstate([("u", 1, -1), ("u", 1, -1)], (1,)),
                             Q(1, 2))
        self.assertEqual(got, want)

    def test_annihilation_contraction(self):
        space = VertexSpace(LatticeParams(1, (Q(1, 3),), (1,)),
                            fbar_vacuum(2))
        w = space.osc_op(("v", 1, -1), top(space))
        e1 = vac_state([], (1,))
        self.assertEqual(space.mom(e1, 0, w),
                         LinComb.single(mstate([], (1,)), -1))
        want = LinComb.single(mstate([("v", 1, -1)], (1,))) \
            - LinComb.single(mstate([("u", 1, -1)], (1,)))
        self.assertEqual(space.mom(e1, 1, w), want)

    def test_zero_mode_of_shift_field(self):
        # [z^0] Y(e^{ru}, z) on the top at alpha.beta = 0 keeps the state
        space = VertexSpace(LatticeParams(2, (Q(1, 2), 0), (0, 3)),
                            fbar_vacuum(2))
        w = top(space)
        e = vac_state([], (1, 0))
        self.assertEqual(space.mom(e, 0, w),
                         LinComb.single(mstate([], (1, 0))))


class TestVirasoroMoments(unittest.TestCase):
    def test_total_zero_moment_is_grading(self):
        fmod = fbar_verma(Q(3, 7), -4, table_sl=load_table("sl2"),
                          level_sl=Q(5, 3))
        space = VertexSpace(LatticeParams(2, (Q(1, 3), Q(1, 5)), (1, 0)),
                            fmod)
        omega = omega_total(2)
        w0 = top(space)
        pool = [
            w0,
            top(space, (1, -2)),
            space.osc_op(("u", 2, -3), w0),
            space.f_op(("L", -2), top(space, (0, 1))),
            space.f_op(("sl", 0, -1), space.osc_op(("v", 1, -1), w0)),
        ]
        for w in pool:
            (state, _c), = w.items()
            want = w.scale(space.mod_weight(state))
            self.assertEqual(space.mom(omega, -2, w), want)

    def test_hyp_zero_moment_on_top(self):
        space = VertexSpace(LatticeParams(2, (Q(1, 3), Q(1, 5)), (1, 0)),
                            fbar_vacuum(2))
        w = top(space)
        self.assertEqual(space.mom(omega_hyp(2), -2, w), w.scale(Q(1, 3)))
        self.assertEqual(space.mom(omega_fbar(2), -2, w), LinComb.zero())

    def test_fbar_moments_are_modes(self):
        fmod = fbar_verma(Q(3, 7), -4, table_sl=load_table("sl2"),
                          level_sl=Q(5, 3))
        space = VertexSpace(LatticeParams(1, (Q(1, 3),), (1,)), fmod)
        w0 = top(space)
        pool = [w0, space.f_op(("L", -1), w0),
                space.f_op(("sl", 1, -2), w0),
                space.osc_op(("v", 1, -1), space.f_op(("L", -2), w0))]
        omega = vac_state([], (0,), [("L", -2)])
        for m in range(-4, 4):
            for w in pool:
                self.assertEqual(space.mom(omega, m, w),
                                 space.f_op(("L", -m - 2), w))
        cur = vac_state([], (0,), [("sl", 0, -1)])
        for m in range(-3, 3):
            for w in pool:
                self.assertEqual(space.mom(cur, m, w),
                                 space.f_op(("sl", 0, -m - 1), w))


class TestPeelGuard(unittest.TestCase):
    def test_translation_mode_in_a_vacuum_state_raises(self):
        # L(-1) kills the vacuum, so no vacuum-side state holds it; a
        # moment of one must not be read as some field's moment
        space = VertexSpace(LatticeParams(1, (Q(1, 3),), (1,)),
                            fbar_verma(Q(3, 7), -4))
        w = top(space)
        for a in [vac_state([], (0,), [("L", -1)]),
                  vac_state([], (0,), [("L", -1), ("L", -2)]),
                  vac_state([("u", 1, -1)], (0,), [("L", -1)])]:
            with self.assertRaises(ValueError):
                space.mom(a, 0, w)


class TestVacuumProducts(unittest.TestCase):
    def setUp(self):
        self.vac = vacuum_space(1, fbar_vacuum(2))

    def test_heisenberg_products(self):
        a = vac_state([("u", 1, -1)], (0,))
        b = vac_state([("v", 1, -1)], (0,))
        one = vac_state([], (0,))
        self.assertEqual(nth_product(self.vac, a, 0, b), LinComb.zero())
        self.assertEqual(nth_product(self.vac, a, 1, b), LinComb.single(one))
        self.assertEqual(bracket_expand(self.vac, a, b),
                         [(1, [(0, LinComb.single(one))])])
        self.assertEqual(bracket_expand(self.vac, a, a), [])

    def test_isotropic_shift_fields_commute(self):
        a = vac_state([], (1,))
        b = vac_state([], (-1,))
        self.assertEqual(bracket_expand(self.vac, a, b), [])

    def test_creation_product(self):
        # a_(-1) 1 = a for every state
        for a in [vac_state([("u", 1, -2)], (0,)),
                  vac_state([], (2,)),
                  vac_state([("v", 1, -1)], (1,))]:
            one = vac_state([], (0,))
            self.assertEqual(nth_product(self.vac, a, -1, one),
                             LinComb.single(a))

    def test_omega_products_give_virasoro_data(self):
        vac2 = vacuum_space(2, fbar_vacuum(2))
        om = omega_total(2)
        # omega_(1) omega = 2 L(0) omega = 2 wt(omega) omega
        self.assertEqual(nth_product(vac2, om, 1, om), om.scale(2))
        # omega_(3) omega = (c/2) 1, c = 2N + c_fbar = 4 + 2
        one = vac_state([], (0, 0))
        self.assertEqual(nth_product(vac2, om, 3, om),
                         LinComb.single(one, 3))
        self.assertEqual(nth_product(vac2, om, 2, om), LinComb.zero())


class TestCacheNotAliased(unittest.TestCase):
    def test_overlapping_moments_leave_cached_values_alone(self):
        """Moments are accumulated in fresh dicts, so a cached moment
        never changes when later moments reuse it."""
        fmod = fbar_verma(Q(3, 7), -4)
        space = VertexSpace(LatticeParams(2, (Q(1, 3), Q(1, 5)), (1, 0)),
                            fmod)
        w0 = top(space)
        u1 = space.osc_op(("u", 1, -1), w0)
        l2 = space.f_op(("L", -2), w0)
        # multi-term states with coefficient 1 first, so an accumulator
        # that started from a cached value's terms would write into it
        pool = [w0, u1, l2, w0 + u1, u1 + l2.scale(Q(2, 3)) + w0]
        vacs = [vac_state([("u", 1, -1)], (0, 0)),
                vac_state([("v", 2, -2)], (0, 0)),
                vac_state([], (1, 0)),
                vac_state([("v", 1, -1)], (0, 1)),
                vac_state([], (0, 0), [("L", -2)]),
                omega_total(2)]
        for a in vacs:
            for m in range(-3, 2):
                for w in pool[:3]:
                    space.mom(a, m, w)
        snapshot = {k: dict(v.terms) for k, v in space._cache.items()}
        for a in vacs:
            for m in range(-3, 2):
                for w in pool:
                    # u_1(-1) w + w: new basis states next to cached ones
                    space.mom(a, m, space.mom(vacs[0], 0, w) + w)
        self.assertGreater(len(space._cache), len(snapshot))
        for k, terms in snapshot.items():
            self.assertEqual(space._cache[k].terms, terms, k)


class TestReassembly(unittest.TestCase):
    """The commutator of two field moments equals the finite sum over
    their vacuum products, exactly, state by state."""

    def build(self):
        fmod = fbar_verma(Q(3, 7), -4, table_sl=load_table("sl2"),
                          level_sl=Q(5, 3))
        space = VertexSpace(LatticeParams(2, (Q(1, 3), Q(1, 5)), (1, 0)),
                            fmod)
        fvac = fbar_vacuum(-4, table_sl=load_table("sl2"),
                           level_sl=Q(5, 3))
        vac = vacuum_space(2, fvac)
        return space, vac

    def states(self, space, rng, count):
        oscs = enumerate_osc(2, 2)
        fslices = [space.fmod.slice_basis(d) for d in range(3)]
        out = []
        for _ in range(count):
            osc = rng.choice(oscs)
            s = (rng.randint(-1, 1), rng.randint(-1, 1))
            fm, fh = rng.choice(fslices[rng.randint(0, 2)])
            out.append(LinComb.single((osc, s, fm, fh)))
        return out

    def vac_pool(self):
        return [
            vac_state([("u", 1, -1)], (0, 0)),
            vac_state([("v", 2, -1)], (0, 0)),
            vac_state([], (1, 0)),
            vac_state([], (-1, 1)),
            vac_state([("u", 2, -1)], (0, 1)),
            omega_hyp(2),
            omega_fbar(2),
            vac_state([], (0, 0), [("sl", 0, -1)]),
            vac_state([], (0, 0), [("sl", 2, -1)]),
        ]

    def test_sampled_commutators(self):
        space, vac = self.build()
        rng = random.Random(20260815)
        pool = self.vac_pool()
        products = {}
        checks = 0
        for w in self.states(space, rng, 12):
            ia = rng.randrange(len(pool))
            ib = rng.randrange(len(pool))
            a, b = pool[ia], pool[ib]
            m1 = rng.randint(-2, 2)
            m2 = rng.randint(-2, 2)
            if (ia, ib) not in products:
                products[(ia, ib)] = bracket_expand(vac, a, b)
            diff = field_identity_check(space, vac, a, b, m1, m2, w,
                                        products[(ia, ib)])
            self.assertTrue(diff.is_zero(),
                            msg=f"a={a} b={b} m1={m1} m2={m2} diff={diff}")
            checks += 1
        self.assertEqual(checks, 12)

    def test_heisenberg_pair_all_moments(self):
        space, vac = self.build()
        a = vac_state([("u", 1, -1)], (0, 0))
        b = vac_state([("v", 1, -1)], (0, 0))
        w = space.osc_op(("v", 1, -2), top(space))
        prods = bracket_expand(vac, a, b)
        for m1 in range(-2, 3):
            for m2 in range(-2, 3):
                diff = field_identity_check(space, vac, a, b, m1, m2, w,
                                            prods)
                self.assertTrue(diff.is_zero())

    def test_shifted_families(self):
        # the z^k shift reaches second delta-derivatives, so this pins
        # the divided-power coefficient binom(-s,i)/n! of the expansion
        space, vac = self.build()
        fam_a = [(omega_hyp(2), 1)]
        pool_b = [
            vac_state([("u", 1, -1)], (0, 0)),
            [(LinComb.single(vac_state([("v", 2, -1)], (0, 0))), -2)],
            [(omega_hyp(2), 1)],
            vac_state([], (1, 0)),
        ]
        w = space.osc_op(("u", 2, -1), top(space, (0, 1)))
        for fam_b in pool_b:
            prods = bracket_expand(vac, fam_a, fam_b)
            for m1 in range(-2, 3):
                for m2 in range(-1, 2):
                    diff = field_identity_check(space, vac, fam_a, fam_b,
                                                m1, m2, w, prods)
                    self.assertTrue(diff.is_zero(),
                                    msg=f"b={fam_b} m1={m1} m2={m2}")

    def test_affinization_reindexes_moments(self):
        space, _vac = self.build()
        a = LinComb.single(vac_state([("v", 1, -1)], (1, 0)))
        w = top(space)
        for k in range(-3, 4):
            for P in range(-2, 3):
                self.assertEqual(family_moment(space, [(a, k)], P, w),
                                 space.mom(a, P - k, w))


class TestDerivative(unittest.TestCase):
    def test_translation_identity(self):
        fvac = fbar_vacuum(-4, table_sl=load_table("sl2"), level_sl=Q(5, 3))
        vac = vacuum_space(2, fvac)
        fmod = fbar_verma(Q(3, 7), -4, table_sl=load_table("sl2"),
                          level_sl=Q(5, 3))
        space = VertexSpace(LatticeParams(2, (Q(1, 3), Q(1, 5)), (1, 0)),
                            fmod)
        pool = [
            vac_state([("u", 1, -1)], (0, 0)),
            vac_state([], (1, -1)),
            vac_state([("v", 2, -1)], (1, 0)),
            omega_hyp(2),
            omega_fbar(2),
            vac_state([], (0, 0), [("sl", 1, -1)]),
        ]
        w = space.osc_op(("v", 1, -1), top(space))
        for a in pool:
            da = state_derivative(vac, a)
            for m in range(-3, 3):
                self.assertEqual(space.mom(da, m, w),
                                 space.mom(a, m + 1, w).scale(m + 1))

    def test_derivative_values(self):
        fvac = fbar_vacuum(2)
        vac = vacuum_space(1, fvac)
        a = vac_state([("u", 1, -1)], (0,))
        self.assertEqual(state_derivative(vac, a),
                         LinComb.single(vac_state([("u", 1, -2)], (0,))))
        e = vac_state([], (3,))
        self.assertEqual(state_derivative(vac, e),
                         LinComb.single(vac_state([("u", 1, -1)], (3,)), 3))
        om = vac_state([], (0,), [("L", -2)])
        self.assertEqual(state_derivative(vac, om),
                         LinComb.single(vac_state([], (0,), [("L", -3)])))


class TestOneDimFbar(unittest.TestCase):
    def test_constructor_guards(self):
        ctx = HVContext(None, None)
        OneDimHWModule(ctx, {"Vir": 0})
        with self.assertRaises(ValueError):
            OneDimHWModule(ctx, {"Vir": 1})
        with self.assertRaises(ValueError):
            OneDimHWModule(ctx, {"Vir": 0}, HighestWeightData(h=Q(1, 2)))

    def test_all_modes_act_as_zero(self):
        mod = OneDimHWModule(HVContext(None, None), {"Vir": 0})
        v = mod.vacuum_state()
        for sym in [("L", -2), ("L", 0), ("L", 3), ("L", -1)]:
            self.assertTrue(mod.apply(sym, v).is_zero())
        self.assertEqual(mod.slice_basis(0), [((), 0)])
        self.assertEqual(mod.slice_basis(2), [])

    def test_vertex_space_over_onedim(self):
        mod = OneDimHWModule(HVContext(None, None), {"Vir": 0})
        space = VertexSpace(LatticeParams(2, (0, 0), (1, 1)), mod)
        w = space.osc_op(("u", 1, -1), top(space, (1, 0)))
        for m in range(-3, 3):
            self.assertTrue(space.mom(omega_fbar(2), m, w).is_zero())
        (state, _), = w.items()
        self.assertEqual(space.mom(omega_total(2), -2, w),
                         w.scale(space.mod_weight(state)))


class TestStateHelpers(unittest.TestCase):
    def test_vac_state_canonicalizes(self):
        a = vac_state([("v", 1, -1), ("u", 1, -2), ("u", 1, -1)], (0,),
                      [("L", -2), ("L", -3)])
        self.assertEqual(a[0], (("u", 1, -2), ("u", 1, -1), ("v", 1, -1)))
        self.assertEqual(a[2], (("L", -3), ("L", -2)))

    def test_weights(self):
        a = vac_state([("u", 1, -2)], (5,), [("L", -2)])
        self.assertEqual(vertex.vac_weight(a), 4)
        lat = LatticeParams(1, (Q(1, 3),), (2,))
        space = VertexSpace(lat, fbar_vacuum(1))
        self.assertEqual(space.mod_weight((((("u", 1, -1)),), (1,), (), 0)),
                         Q(1, 3) * 2 + 2 + 1)


rationals = st.builds(Q, st.integers(-5, 5), st.integers(1, 5))
osc_syms = st.tuples(st.sampled_from("uv"), st.integers(1, 3),
                     st.integers(-3, -1))
f_modes = st.sampled_from([("L", -1), ("L", -2), ("L", -3)])


@st.composite
def floor_pairs(draw):
    """A lattice point with rational alpha, integral beta of mixed sign,
    integral s and r, and one oscillator and f-part."""
    n = draw(st.integers(1, 3))
    ints = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    alpha = draw(st.lists(rationals, min_size=n, max_size=n))
    beta, s, r = draw(ints), draw(ints), draw(ints)
    osc = [sym for sym in draw(st.lists(osc_syms, max_size=3)) if sym[1] <= n]
    fmono = draw(st.lists(f_modes, max_size=2))
    return alpha, beta, s, r, osc, fmono, draw(rationals)


class TestWeightFloor(unittest.TestCase):
    """The floor test compares integers: the weight gap between shift s
    and s + r is r.beta, and every term of mom(a, m) w sits at weight
    mod_weight(w) + vac_weight(a) + m, never below the target floor."""

    # beta = (2, -1): r.beta positive, negative and zero
    RBETA = {(1, 0): 2, (0, 1): -1, (1, 2): 0}

    def setUp(self):
        lat = LatticeParams(2, (Q(1, 3), Q(1, 5)), (2, -1))
        self.space = VertexSpace(lat, fbar_verma(Q(1, 7), 2))
        self.s = (0, 1)

    @given(floor_pairs())
    def test_gap_is_r_dot_beta(self, data):
        alpha, beta, s, r, osc, fmono, h = data
        space = VertexSpace(LatticeParams(len(s), alpha, beta),
                            fbar_verma(h, 1))
        sr = tuple(si + ri for si, ri in zip(s, r))
        gap = space.mod_weight(mstate(osc, sr, fmono)) \
            - space.mod_weight(mstate(osc, s, fmono))
        rbeta = sum(rp * bp for rp, bp in zip(r, beta))
        self.assertEqual(gap, rbeta)
        self.assertEqual(space.rbeta(r), rbeta)
        self.assertIs(type(space.rbeta(r)), int)

    def test_terms_sit_at_moment_weight(self):
        space = self.space
        w_pool = [mstate([], self.s), mstate([("v", 1, -1)], self.s),
                  mstate([("u", 2, -1)], self.s, [("L", -1)])]
        for r, rbeta in self.RBETA.items():
            self.assertEqual(space.rbeta(r), rbeta)
            a_pool = [vac_state([], r), vac_state([("u", 1, -1)], r),
                      vac_state([("v", 2, -1)], r, [("L", -2)])]
            nonzero = 0
            for a, w in ((a, w) for a in a_pool for w in w_pool):
                low = rbeta - vertex.mod_depth(w) - vertex.vac_weight(a)
                for m in range(low - 2, low + 3):
                    got = space.mom(a, m, LinComb.single(w))
                    if m < low:
                        self.assertTrue(got.is_zero())
                    want = space.mod_weight(w) + vertex.vac_weight(a) + m
                    for term, _c in got.items():
                        self.assertEqual(space.mod_weight(term), want)
                    nonzero += bool(got)
            self.assertGreater(nonzero, 0, f"r = {r}")

    def test_tight_floor(self):
        """Planted fixtures that are nonzero exactly at the floor
        m = r.beta - depth(w) - depth(a), one per kind of peeled symbol,
        and whose creation halves reach their own floor exactly."""
        space, s = self.space, self.s
        w = LinComb.single(mstate([], s))
        for r, rbeta in self.RBETA.items():
            at = lambda osc=(), fmono=(): mstate(
                osc, (s[0] + r[0], s[1] + r[1]), fmono)
            with self.subTest(r=r):
                # e^{ru}: E^- E^+ on the top gives the shifted top
                a = vac_state([], r)
                self.assertTrue(space.mom(a, rbeta - 1, w).is_zero())
                self.assertEqual(space.mom(a, rbeta, w),
                                 LinComb.single(at()))
                # v_1(-1) e^{ru}: v_1(0) = alpha_1 + s_1 at the floor, the
                # creation term v_1(-1) first one step above it
                a = vac_state([("v", 1, -1)], r)
                self.assertTrue(space.mom(a, rbeta - 2, w).is_zero())
                self.assertEqual(space.mom(a, rbeta - 1, w),
                                 LinComb.single(at(), Q(1, 3)))
                self.assertEqual(
                    space.mom(a, rbeta, w).coeff(at([("v", 1, -1)])), 1)
                # L(-2) e^{ru}: L(0) = h at the floor, the creation term
                # L(-2) two steps above it
                a = vac_state([], r, [("L", -2)])
                self.assertTrue(space.mom(a, rbeta - 3, w).is_zero())
                self.assertEqual(space.mom(a, rbeta - 2, w),
                                 LinComb.single(at(), Q(1, 7)))
                self.assertEqual(
                    space.mom(a, rbeta, w).coeff(at(fmono=[("L", -2)])), 1)


if __name__ == "__main__":
    unittest.main()
