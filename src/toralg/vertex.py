"""Exact moment calculus for vertex operators on lattice x current-Virasoro
tensor modules.

A module state is a 4-tuple (osc, s, fmono, fhw): a hyperbolic-lattice
Fock state (oscillators + shift s) tensored with a PBW basis state of
the f-factor (a highest-weight module of Virasoro plus current
algebras). A vacuum-side state, whose field we take moments of, is a
3-tuple (osc, r, fmono) in the corresponding vertex algebra.

The moment mom(a, m) = [z^m] Y(a, z) = a_(-m-1) is computed by peeling
one symbol of a at a time:

  * oscillator x(-n):  Y(x(-n)b, z) = :(d^{n-1}x(z)/(n-1)!) Y(b, z):
    with x(j) z^{-j-n} carrying binom(-j-1, n-1);
  * current mode X(-n): the same shape on the f-factor;
  * Virasoro mode L(-n), n >= 2: modes L(j) z^{-j-n} with
    binom(-j-2, n-2); the normal ordering splits at the vertex-operator
    index, so L(-1) belongs to the right (annihilation) half;
  * pure lattice e^{ru}: E^-(z) E^+(z) e^{ru} z^{r.beta}.

Each moment applied to a basis state is a finite exact computation: the
annihilation halves are bounded by the oscillator/PBW content of the
state, the creation halves by the weight floor of the target lattice
point (every state at shift s weighs at least (alpha+s).beta + h).

The floor is tested over integers. A moment of a = (osc, r, fmono)
carries a state w at shift s to shift s + r, and the two floors differ
by exactly (alpha+s+r).beta - (alpha+s).beta = r.beta: alpha and h
cancel, and r.beta is an integer because r and beta are integral. Since
mom(a, m) w weighs mod_weight(w) + vac_weight(a) + m, it vanishes unless
depth(w) + depth(a) + m >= r.beta, every depth (oscillator plus
f-depth) an integer, so no rational sum is formed per lattice point.
"""

from __future__ import annotations

from math import factorial

from . import fock
from .fock import LatticeParams, osc_depth, osc_key
from .hvir import mode_of, mode_sort_key
from .linear import LinComb, add_into, lincomb_add_into
from .scalar import Q, ZERO, ONE, binom, falling


def vac_state(osc=(), r=(), fmono=()):
    """Canonical vacuum-side state tuple."""
    return (tuple(sorted(osc, key=osc_key)), tuple(int(x) for x in r),
            tuple(sorted(fmono, key=mode_sort_key)))


def fdepth(fmono) -> int:
    return -sum(mode_of(sym) for sym in fmono)


def vac_weight(a) -> int:
    """Weight of a vacuum-side state: its oscillator plus f-depth (e^{ru}
    weighs (ru|ru)/2 = 0, as u is isotropic)."""
    osc, _r, fmono = a
    return osc_depth(osc) + fdepth(fmono)


def mod_depth(w) -> int:
    """Oscillator plus f-depth of a module state: its weight above the
    floor of its lattice point."""
    return osc_depth(w[0]) + fdepth(w[2])


def omega_hyp(N: int) -> LinComb:
    """The lattice Virasoro vector sum_p u_p(-1) v_p(-1) 1 (rank 2N)."""
    zero_r = (0,) * N
    return LinComb([(vac_state([("u", p, -1), ("v", p, -1)], zero_r), ONE)
                    for p in range(1, N + 1)])


def omega_fbar(N: int) -> LinComb:
    """The Virasoro vector of the f-factor as a vacuum-side state."""
    return LinComb.single(vac_state([], (0,) * N, [("L", -2)]))


def omega_total(N: int) -> LinComb:
    return omega_hyp(N) + omega_fbar(N)


class VertexSpace:
    """One tensor module: lattice data (alpha, beta) plus an f-factor
    highest-weight module. All moments act exactly on LinCombs of
    module basis states."""

    def __init__(self, lat: LatticeParams, fmod):
        self.lat = lat
        self.fmod = fmod
        self.h_bar = Q(fmod.hw.h)
        self._cache = {}

    # -- state bookkeeping --------------------------------------------------

    def top_states(self, s=None):
        s = (0,) * self.lat.N if s is None else tuple(s)
        return [((), s, (), i) for i in range(self.fmod.hw_dim)]

    def mod_weight(self, w):
        return fock.base_weight(self.lat, w[1]) + self.h_bar + mod_depth(w)

    def rbeta(self, r) -> int:
        """r.beta: how far the weight floor rises from shift s to s + r."""
        return sum(rp * bp for rp, bp in zip(r, self.lat.beta))

    # -- primitive operators ------------------------------------------------

    def osc_op(self, sym, state: LinComb) -> LinComb:
        out = {}
        for (osc, s, fm, fh), c in state.items():
            inner = fock.oscillator_apply(
                self.lat, sym, LinComb.single((osc, s), c))
            for (o2, s2), c2 in inner.items():
                lincomb_add_into(out, (o2, s2, fm, fh), c2)
        return LinComb(out)

    def osc_op_comb(self, op: LinComb, state: LinComb) -> LinComb:
        out = {}
        for sym, c in op.items():
            add_into(out, self.osc_op(sym, state), c)
        return LinComb(out)

    def f_op(self, fsym, state: LinComb) -> LinComb:
        out = {}
        for (osc, s, fm, fh), c in state.items():
            inner = self.fmod.apply(fsym, LinComb.single((fm, fh), c))
            for (fm2, fh2), c2 in inner.items():
                lincomb_add_into(out, (osc, s, fm2, fh2), c2)
        return LinComb(out)

    def shift_op(self, r, state: LinComb) -> LinComb:
        out = {}
        for (osc, s, fm, fh), c in state.items():
            s2 = tuple(si + ri for si, ri in zip(s, r))
            lincomb_add_into(out, (osc, s2, fm, fh), c)
        return LinComb(out)

    # -- moments -------------------------------------------------------------

    def mom(self, a, m: int, state: LinComb) -> LinComb:
        """[z^m] Y(a, z) applied to a combination of module states; a is
        a vacuum-side state or a LinComb of them."""
        out = {}
        if isinstance(a, LinComb):
            for at, ac in a.items():
                add_into(out, self.mom(at, m, state), ac)
        else:
            for w, c in state.items():
                add_into(out, self._mom_basis(a, m, w), c)
        return LinComb(out)

    def _mom_basis(self, a, m, w) -> LinComb:
        key = (a, m, w)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        osc_a, r, fmono_a = a
        # weight floor of the target lattice point
        if mod_depth(w) + vac_weight(a) + m < self.rbeta(r):
            out = LinComb.zero()
        elif osc_a:
            out = self._osc_mom(a, m, w)
        elif fmono_a:
            out = self._f_mom(a, m, w)
        else:
            out = self._lattice_mom(r, m, w)
        self._cache[key] = out
        return out

    def _osc_mom(self, a, m, w):
        osc_a, r, fmono_a = a
        sym = osc_a[0]
        kind, p, mode = sym
        n = -mode
        b = (osc_a[1:], r, fmono_a)
        wlc = LinComb.single(w)
        out = {}
        # annihilation half: x(j), j >= 0, applied first
        for j in range(0, osc_depth(w[0]) + 1):
            c = binom(-j - 1, n - 1)
            if c == 0:
                continue
            xw = self.osc_op((kind, p, j), wlc)
            if xw:
                add_into(out, self.mom(b, m + j + n, xw), c)
        # creation half: x(j), j <= -1, applied last; bounded by the
        # weight floor for the inner moment
        pmin = self.rbeta(r) - mod_depth(w) - vac_weight(b)
        j = -1
        while m + j + n >= pmin:
            c = binom(-j - 1, n - 1)
            if c != 0:
                inner = self.mom(b, m + j + n, wlc)
                if inner:
                    add_into(out, self.osc_op((kind, p, j), inner), c)
            j -= 1
        return LinComb(out)

    def _f_mom(self, a, m, w):
        _osc_a, r, fmono_a = a
        fsym = fmono_a[0]
        b = ((), r, fmono_a[1:])
        if fsym[0] == "L":
            n = -fsym[1]
            if n < 2:
                raise ValueError("vacuum-side states cannot contain L(-1)")
            coeff = lambda j: binom(-j - 2, n - 2)
            right_start = -1
            make = lambda j: ("L", j)
        else:
            fam, idx, mode = fsym
            n = -mode
            coeff = lambda j: binom(-j - 1, n - 1)
            right_start = 0
            make = lambda j: (fam, idx, j)
        wlc = LinComb.single(w)
        out = {}
        # annihilation half (includes L(-1) and the zero modes)
        for j in range(right_start, self.fmod.depth(w[2]) + 1):
            c = coeff(j)
            if c == 0:
                continue
            xw = self.f_op(make(j), wlc)
            if xw:
                add_into(out, self.mom(b, m + j + n, xw), c)
        # creation half
        pmin = self.rbeta(r) - mod_depth(w) - vac_weight(b)
        j = right_start - 1
        while m + j + n >= pmin:
            c = coeff(j)
            if c != 0:
                inner = self.mom(b, m + j + n, wlc)
                if inner:
                    add_into(out, self.f_op(make(j), inner), c)
            j -= 1
        return LinComb(out)

    def _lattice_mom(self, r, m, w):
        if not any(r):
            return LinComb.single(w) if m == 0 else LinComb.zero()
        rbeta = self.rbeta(r)
        shifted = self.shift_op(r, LinComb.single(w))
        out = {}
        for t, lc in self._eplus(r, shifted).items():
            need = m - rbeta + t
            if need >= 0:
                add_into(out, self._eminus(r, need, lc))
        return LinComb(out)

    def _ru_op(self, r, mode):
        return LinComb([(("u", p, mode), Q(r[p - 1]))
                        for p in range(1, self.lat.N + 1) if r[p - 1]])

    def _eplus(self, r, state: LinComb):
        """exp(-sum_j ru(j)/j z^-j) expansion: dict (z-power t >= 0,
        meaning z^{-t}) -> resulting combination."""
        out = {0: state}
        vmodes = set()
        for w in state.items():
            for sym in w[0][0]:
                if sym[0] == "v" and r[sym[1] - 1]:
                    vmodes.add(-sym[2])
        for jm in sorted(vmodes):
            op = self._ru_op(r, jm)
            new = {}
            for t, lc in out.items():
                cur = lc
                k = 0
                coeff = ONE
                while cur:
                    add_into(new.setdefault(t + jm * k, {}), cur, coeff)
                    k += 1
                    coeff = coeff * Q(-1, jm * k)
                    cur = self.osc_op_comb(op, cur)
            out = {t: LinComb(d) for t, d in new.items()}
        return out

    def _eminus(self, r, D, state: LinComb):
        """Coefficient of z^D in exp(sum_j ru(-j)/j z^j) applied to state."""
        if D == 0:
            return state
        out = {}

        def rec(remaining, maxpart, lc, coeff):
            if remaining == 0:
                add_into(out, lc, coeff)
                return
            for j in range(min(maxpart, remaining), 0, -1):
                op = self._ru_op(r, -j)
                cur = lc
                c = coeff
                k = 0
                while (k + 1) * j <= remaining:
                    k += 1
                    cur = self.osc_op_comb(op, cur)
                    if not cur:
                        break
                    c = c * Q(1, j * k)
                    rec(remaining - j * k, j - 1, cur, c)

        rec(D, D, state, ONE)
        return LinComb(out)


def vacuum_space(N: int, fvac) -> VertexSpace:
    """The vertex algebra itself as a module: alpha = beta = 0 and the
    f-factor in its vacuum module."""
    return VertexSpace(fock.vacuum_lattice(N), fvac)


def _embed(a):
    return ((a[0], a[1], a[2], 0))


def _project(w):
    if w[3] != 0:
        raise ValueError("vacuum space has a one-dimensional top")
    return (w[0], w[1], w[2])


def nth_product(space: VertexSpace, a, n: int, b) -> LinComb:
    """a_(n) b inside the vertex algebra; space must be a vacuum space
    and a, b vacuum-side states (or LinCombs)."""
    if isinstance(b, LinComb):
        out = {}
        for bt, bc in b.items():
            add_into(out, nth_product(space, a, n, bt), bc)
        return LinComb(out)
    got = space.mom(a, -n - 1, LinComb.single(_embed(b)))
    return LinComb([(_project(w), c) for w, c in got.items()])


def as_family(x):
    """Normalize to the shifted-field form: a list of (states, k) pairs
    meaning sum_k z^k Y(states, z). Plain states and LinCombs become a
    single unshifted entry."""
    if isinstance(x, list):
        return [(a if isinstance(a, LinComb) else LinComb.single(a), int(k))
                for a, k in x]
    if isinstance(x, LinComb):
        return [(x, 0)]
    return [(LinComb.single(x), 0)]


def family_moment(space: VertexSpace, fam, power: int,
                  state: LinComb) -> LinComb:
    """Coefficient of z^power of a shifted field applied to state."""
    out = {}
    for a, k in as_family(fam):
        add_into(out, space.mom(a, power - k, state))
    return LinComb(out)


def bracket_expand(space: VertexSpace, fam_a, fam_b):
    """The delta-function expansion of the commutator of two shifted
    fields: [A(z), B(w)] = sum_n Y(c^n, w) [z^-1 (d/dw)^n delta(w/z)]
    with c^n = sum_j c^{n,j} shifted by z^{-j} and

        c^{n,j} = sum_{s+k+i=j} (1/n!) binom(-s, i) (a^s)_(n+i) b^k

    (a family entry with z-power shift k contributes as a^{-k}). All
    sums are finite; space must be a vacuum space. Returns the nonzero
    tail as [(n, [(j, LinComb), ...]), ...]."""
    fa, fb = as_family(fam_a), as_family(fam_b)
    out = {}
    for a, ka in fa:
        for b, kb in fb:
            s, k = -ka, -kb
            bound = 0
            for at, _ in a.items():
                for bt, _ in b.items():
                    bound = max(bound, vac_weight(at) + vac_weight(bt))
            for t in range(bound):
                prod = nth_product(space, a, t, b)
                if not prod:
                    continue
                for n in range(t + 1):
                    i = t - n
                    c = binom(-s, i) * Q(1, factorial(n))
                    if c == 0:
                        continue
                    slot = out.setdefault(n, {})
                    j = s + k + i
                    add_into(slot.setdefault(j, {}), prod, c)
    result = []
    for n in sorted(out):
        entries = [(j, LinComb(d)) for j, d in sorted(out[n].items()) if d]
        if entries:
            result.append((n, entries))
    return result


def cn_family(entries):
    """Turn bracket_expand's [(j, states)] into a shifted field."""
    return [(lc, -j) for j, lc in entries]


def field_identity_check(space: VertexSpace, vacspace: VertexSpace,
                         fam_a, fam_b, m1: int, m2: int, state: LinComb,
                         products=None):
    """Exact check that the commutator of two shifted-field moments
    equals its delta-expansion reassembly

        [A_{m1}, B_{m2}] =
            sum_n falling(-m1-1, n) (c^n-field moment at m1+m2+1+n)

    on the given states; returns the difference (zero iff it holds)."""
    lhs = family_moment(space, fam_a, m1,
                        family_moment(space, fam_b, m2, state)) \
        - family_moment(space, fam_b, m2,
                        family_moment(space, fam_a, m1, state))
    if products is None:
        products = bracket_expand(vacspace, fam_a, fam_b)
    rhs = {}
    for n, entries in products:
        factor = falling(-m1 - 1, n)
        if factor != 0:
            add_into(rhs, family_moment(space, cn_family(entries),
                                        m1 + m2 + 1 + n, state), factor)
    return lhs - LinComb(rhs)


def state_derivative(vacspace: VertexSpace, a) -> LinComb:
    """The translation derivative D a on vacuum-side states: Leibniz over
    oscillators (x(-n) -> n x(-n-1)), the translation mode L(-1) on the
    f-factor, and D e^{ru} = ru(-1) e^{ru}. Satisfies
    mom(D a, m) = (m + 1) mom(a, m + 1)."""
    out = {}
    if isinstance(a, LinComb):
        for at, ac in a.items():
            add_into(out, state_derivative(vacspace, at), ac)
        return LinComb(out)
    osc, r, fmono = a
    for i, (kind, p, mode) in enumerate(osc):
        lifted = osc[:i] + ((kind, p, mode - 1),) + osc[i + 1:]
        lincomb_add_into(out, vac_state(lifted, r, fmono), Q(-mode))
    if fmono:
        dstate = vacspace.fmod.apply(("L", -1), LinComb.single((fmono, 0)))
        for (fm2, _fh), c2 in dstate.items():
            lincomb_add_into(out, vac_state(osc, r, fm2), c2)
    for p in range(1, vacspace.lat.N + 1):
        if r[p - 1]:
            lincomb_add_into(out, vac_state(osc + (("u", p, -1),), r, fmono),
                             Q(r[p - 1]))
    return LinComb(out)
