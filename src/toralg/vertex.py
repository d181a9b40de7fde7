"""Exact moment calculus for vertex operators on lattice x current-Virasoro
tensor modules.

A module state is a 4-tuple (osc, s, fmono, fhw): a hyperbolic-lattice
Fock state (oscillators + shift s) tensored with a PBW basis state of
the f-factor (a highest-weight module of Virasoro plus current
algebras). A vacuum-side state, whose field we take moments of, is a
3-tuple (osc, r, fmono) in the corresponding vertex algebra.

The moment mom(a, m) = [z^m] Y(a, z) = a_(-m-1) is computed by peeling
the head symbol of a, its first oscillator, else its first f-mode, by
one rule for every field x of conformal weight wt (wt = 2 for the
Virasoro field L, wt = 1 for oscillators and currents):

    Y(x(-n) b, z) = :(d^{n-wt} x(z) / (n-wt)!) Y(b, z):,  n >= wt,

so the mode x(j) z^{-j-n} carries binom(-j-wt, n-wt). The normal
ordering splits at j = -wt: the annihilation half j >= 1 - wt (which
holds L(-1) and the zero modes) acts first, the creation half
j <= -wt last. No vacuum-side state holds a mode with n < wt (L(-1)
kills the vacuum), and peeling one raises ValueError. The pure lattice
state e^{ru} gives E^-(z) E^+(z) e^{ru} z^{r.beta}.

Each moment applied to a basis state is a finite exact computation: the
annihilation half is bounded by the depth of the state's monomial in
that factor, the creation half by the weight floor of the target
lattice point (every state at shift s weighs at least (alpha+s).beta + h).

The floor is tested over integers. A moment of a = (osc, r, fmono)
carries a state w at shift s to shift s + r, and the two floors differ
by exactly (alpha+s+r).beta - (alpha+s).beta = r.beta: alpha and h
cancel, and r.beta is an integer because r and beta are integral. Since
mom(a, m) w weighs mod_weight(w) + vac_weight(a) + m, it vanishes unless
depth(w) + depth(a) + m >= r.beta, every depth (oscillator plus
f-depth) an integer, so no rational sum is formed per lattice point.
"""

from __future__ import annotations

from . import fock
from .fock import LatticeParams, mono_depth, osc_key
from .hvir import mode_sort_key
from .linear import LinComb, add_into, lincomb_add_into
from .scalar import Q, ONE, binom


def vac_state(osc=(), r=(), fmono=()):
    """Canonical vacuum-side state tuple."""
    return (tuple(sorted(osc, key=osc_key)), tuple(int(x) for x in r),
            tuple(sorted(fmono, key=mode_sort_key)))


def vac_weight(a) -> int:
    """Weight of a vacuum-side state: its oscillator plus f-depth (e^{ru}
    weighs (ru|ru)/2 = 0, as u is isotropic)."""
    osc, _r, fmono = a
    return mono_depth(osc) + mono_depth(fmono)


def mod_depth(w) -> int:
    """Oscillator plus f-depth of a module state: its weight above the
    floor of its lattice point."""
    return mono_depth(w[0]) + mono_depth(w[2])


def omega_hyp(N: int) -> LinComb:
    """The lattice Virasoro vector sum_p u_p(-1) v_p(-1) 1 (rank 2N)."""
    zero_r = (0,) * N
    return LinComb([(vac_state([("u", p, -1), ("v", p, -1)], zero_r), 1)
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

    def mod_weight(self, w):
        return fock.base_weight(self.lat, w[1]) + self.h_bar + mod_depth(w)

    def rbeta(self, r) -> int:
        """r.beta: how far the weight floor rises from shift s to s + r."""
        return sum(rp * bp for rp, bp in zip(r, self.lat.beta))

    # -- primitive operators ------------------------------------------------

    def osc_op(self, sym, state: LinComb) -> LinComb:
        return fock.oscillator_apply(self.lat, sym, state)

    def osc_op_comb(self, op: LinComb, state: LinComb) -> LinComb:
        out = {}
        for sym, c in op.items():
            add_into(out, self.osc_op(sym, state), c)
        return LinComb.adopt(out)

    def f_op(self, fsym, state: LinComb) -> LinComb:
        out = {}
        basis = self.fmod._apply_basis
        for (osc, s, fm, fh), c in state.items():
            for (fm2, fh2), c2 in basis(fsym, fm, fh).items():
                lincomb_add_into(out, (osc, s, fm2, fh2), c2 * c)
        return LinComb.adopt(out)

    def shift_op(self, r, state: LinComb) -> LinComb:
        out = {}
        for (osc, s, fm, fh), c in state.items():
            s2 = tuple(si + ri for si, ri in zip(s, r))
            lincomb_add_into(out, (osc, s2, fm, fh), c)
        return LinComb.adopt(out)

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
        return LinComb.adopt(out)

    def _mom_basis(self, a, m, w) -> LinComb:
        key = (a, m, w)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        osc_a, r, fmono_a = a
        # weight floor of the target lattice point: the least m at which
        # mom(a, m) w can be nonzero
        pmin = self.rbeta(r) - mod_depth(w) - vac_weight(a)
        if m < pmin:
            out = LinComb.zero()
        elif osc_a or fmono_a:
            out = self._peel(a, m, w, pmin)
        else:
            out = self._lattice_mom(r, m, w)
        self._cache[key] = out
        return out

    def _peel(self, a, m, w, pmin):
        """mom(a, m) w for a = x(-n) b with x the head symbol of a: the
        peel rule of the module docstring. pmin is the weight floor of
        mom(a, .) w; b weighs n less than a, so its floor is pmin + n."""
        osc_a, r, fmono_a = a
        if osc_a:
            sym, b = osc_a[0], (osc_a[1:], r, fmono_a)
            op, mono = self.osc_op, w[0]
        else:
            sym, b = fmono_a[0], ((), r, fmono_a[1:])
            op, mono = self.f_op, w[2]
        wt = 2 if sym[0] == "L" else 1
        n = -sym[-1]
        if n < wt:
            raise ValueError(f"vacuum-side states cannot contain {sym!r}")
        head = sym[:-1]
        wlc = LinComb.single(w)
        out = {}
        # annihilation half: x(j), j >= 1 - wt, applied first
        for j in range(1 - wt, mono_depth(mono) + 1):
            c = binom(-j - wt, n - wt)
            if c == 0:
                continue
            xw = op(head + (j,), wlc)
            if xw:
                add_into(out, self.mom(b, m + j + n, xw), c)
        # creation half: x(j), j <= -wt, applied last; bounded by the
        # weight floor for the inner moment
        pmin_b = pmin + n
        j = -wt
        while m + j + n >= pmin_b:
            c = binom(-j - wt, n - wt)
            if c != 0:
                inner = self.mom(b, m + j + n, wlc)
                if inner:
                    add_into(out, op(head + (j,), inner), c)
            j -= 1
        return LinComb.adopt(out)

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
        return LinComb.adopt(out)

    def _ru_op(self, r, mode):
        return LinComb([(("u", p, mode), r[p - 1])
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
            out = {t: LinComb.adopt(d) for t, d in new.items()}
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
        return LinComb.adopt(out)


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
        return LinComb.adopt(out)
    got = space.mom(a, -n - 1, LinComb.single(_embed(b)))
    return LinComb([(_project(w), c) for w, c in got.items()])
