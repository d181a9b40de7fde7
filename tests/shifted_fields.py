"""Shifted fields: an independent oracle for the moment calculus.

A shifted field is a list of (states, k) pairs meaning
sum_k z^k Y(states, z). The delta-function expansion of the commutator
of two shifted fields is computed from vacuum n-th products alone, so
field_identity_check tests the moments of VertexSpace against locality,
and state_derivative tests them against the translation axiom.
"""

from math import factorial

from toralg.linear import LinComb, add_into, lincomb_add_into
from toralg.scalar import ONE, Q, binom
from toralg.vertex import VertexSpace, nth_product, vac_state, vac_weight


def falling(top, k: int):
    """Falling factorial top*(top-1)*...*(top-k+1), exact."""
    out = ONE
    top = Q(top)
    for i in range(k):
        out = out * (top - i)
    return out


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
