"""Bosonic Fock spaces over a rank-2N hyperbolic lattice.

The lattice has isotropic dual bases u_1..u_N, v_1..v_N with
(u_i|v_j) = delta_ij and (u|u) = (v|v) = 0. A module M+(alpha, beta) is
spanned by oscillator monomials applied to lattice points

    e^gamma,  gamma = (alpha + s) u + beta v,  s in Z^N,

so a basis state is a pair (osc, s): osc a sorted tuple of creation
symbols (kind, p, n) with kind in {'u','v'}, p in 1..N, n <= -1, and s
an integer vector. The commutation rule is [x(n), y(m)] = n (x|y)
delta_{n,-m}, and zero modes act by x(0) e^gamma = (x|gamma) e^gamma.
Because the shift sublattice Z^N u is isotropic, the usual lattice
cocycle is identically 1 and carries no signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import ConfigError
from .linear import LinComb, lincomb_add_into
from .scalar import Q, ZERO


@dataclass(frozen=True)
class LatticeParams:
    """Module data: rank N, rational alpha in Q^N, integral beta."""
    N: int
    alpha: tuple
    beta: tuple

    def __post_init__(self):
        if self.N < 1:
            raise ConfigError("lattice rank must be at least 1")
        alpha = tuple(Q(a) for a in self.alpha)
        beta = tuple(int(b) for b in self.beta)
        if len(alpha) != self.N or len(beta) != self.N:
            raise ConfigError("alpha and beta must have length N")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def vacuum_lattice(N: int) -> LatticeParams:
    """alpha = beta = 0: the lattice half of the vertex algebra itself."""
    return LatticeParams(N, (0,) * N, (0,) * N)


def osc_key(sym):
    return (sym[2], sym[0], sym[1])


def gamma_pair(params: LatticeParams, kind, p, s):
    """(x | gamma) for gamma = (alpha+s)u + beta v at shift s."""
    if kind == "u":
        return params.beta[p - 1]
    return params.alpha[p - 1] + s[p - 1]


def mono_depth(mono) -> int:
    """Depth of a monomial of creation modes, oscillators (kind, p, n) or
    f-factor modes (..., n) alike: minus the sum of its mode numbers."""
    return -sum(sym[-1] for sym in mono)


def base_weight(params: LatticeParams, s):
    """(gamma|gamma)/2 = (alpha+s).beta, the weight of e^gamma."""
    return sum(((params.alpha[p] + s[p]) * params.beta[p] for p in range(params.N)), ZERO)


def oscillator_apply(params: LatticeParams, sym, state: LinComb) -> LinComb:
    """Apply the mode x(n) to a combination of states (osc, s, ...): the
    oscillator monomial and the shift come first, and whatever follows
    them in a state tuple (the f-factor part of a tensor-module state)
    is carried through unchanged."""
    kind, p, n = sym
    out = {}
    for st, coeff in state.items():
        osc, tail = st[0], st[1:]
        if n < 0:
            new = tuple(sorted(osc + (sym,), key=osc_key))
            lincomb_add_into(out, (new,) + tail, coeff)
        elif n == 0:
            lincomb_add_into(out, st,
                             coeff * gamma_pair(params, kind, p, tail[0]))
        else:
            partner = ("v" if kind == "u" else "u", p, -n)
            mult = osc.count(partner)
            if mult:
                rest = list(osc)
                rest.remove(partner)
                lincomb_add_into(out, (tuple(rest),) + tail, coeff * mult * n)
    return LinComb.adopt(out)


def monomials(gens_at, key, depth: int):
    """Every monomial of total depth `depth` in creation generators, as a
    tuple of factors in nondecreasing key order. gens_at(n) lists the
    generators of mode -n (n >= 1) in key order, and key must order
    deeper modes first. Each mode's generators and keys are computed once.
    Order: the first factor runs from the deepest mode down, then the
    rest recursively."""
    table = {n: [(key(g), g) for g in gens_at(n)] for n in range(1, depth + 1)}
    # a floor no key is below, so the first factor is unconstrained
    floor = min((k for row in table.values() for k, _g in row), default=None)
    found = []

    def rec(remaining, min_key, acc):
        if remaining == 0:
            found.append(tuple(acc))
            return
        for n in range(remaining, 0, -1):
            for k, g in table[n]:
                if k < min_key:
                    continue
                acc.append(g)
                rec(remaining - n, k, acc)
                acc.pop()

    rec(depth, floor, [])
    return found


def enumerate_osc(N: int, max_depth: int):
    """All creation monomials of depth <= max_depth over 2N colors,
    deepest modes first within each tuple."""
    def gens_at(n):
        return [(kind, p, -n) for kind in ("u", "v") for p in range(1, N + 1)]

    out = []
    for d in range(max_depth + 1):
        out.extend(monomials(gens_at, osc_key, d))
    return out


def lattice_box(N: int, smax: int):
    """All integer vectors with |s_p| <= smax, lazily, in lexicographic
    order."""
    return product(range(-smax, smax + 1), repeat=N)
