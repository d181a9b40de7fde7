"""The toroidal Lie algebra in N+1 variables and its divergence-free
subalgebra.

Elements live in (R tensor gdot) + K + Der R with R the Laurent ring in
t_0..t_N. Degrees are integer multi-indices s = (s_0, ..., s_N); we write
j = s_0 for the distinguished direction and r = (s_1..s_N) for the rest.
Symbols:

    ('g', s, i)   t^s g_i, g_i a basis element of the finite table
    ('k', s, p)   t^s k_p, 0 <= p <= N, modulo d(R)
    ('d', s, a)   t^s d_a, 0 <= a <= N

K is the quotient of the free R-span of k_0..k_N by the relations
sum_p s_p t^s k_p = 0 (one per degree s != 0). Elements are kept in the
canonical form that eliminates, at each degree s != 0, the pivot k_{p*}
with p* = max{p : s_p != 0}.

The bracket carries the mu-twisted derivation cocycle on Der R; it is a
Lie bracket only modulo d(R), which the canonical form takes care of.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ConfigError
from .fock import lattice_box
from .lie_table import SimpleLieTable
from .linear import LinComb, lincomb_add_into
from .scalar import Q, ZERO


@dataclass(frozen=True)
class AlgebraParams:
    """N >= 1 lattice directions beside t_0, the finite table for gdot,
    the cocycle twist mu, and the k_0 level c used by the divergence-free
    spanning elements (the bundled suites normalize c = 1)."""
    N: int
    table: SimpleLieTable
    mu: object = 0
    c: object = 1

    def __post_init__(self):
        object.__setattr__(self, "mu", Q(self.mu))
        object.__setattr__(self, "c", Q(self.c))
        if self.N < 1:
            raise ConfigError("N must be >= 1")
        if self.c == 0:
            raise ConfigError("c must be nonzero (it divides the d-hat tail)")


# symbols ------------------------------------------------------------------

def gsym(s, i):
    return ("g", tuple(s), i)


def ksym(s, p):
    return ("k", tuple(s), p)


def dsym(s, a):
    return ("d", tuple(s), a)


def _add_idx(s, m):
    return tuple(a + b for a, b in zip(s, m))


def _pivot(s):
    """Largest p with s_p != 0, or None for s = 0."""
    for p in range(len(s) - 1, -1, -1):
        if s[p] != 0:
            return p
    return None


def kreduce(lc: LinComb) -> LinComb:
    """Rewrite every pivot k_{p*} at degree s != 0 via the relation
    sum_p s_p t^s k_p = 0. Idempotent; the result is the canonical form."""
    out = {}
    for sym, coeff in lc.items():
        if sym[0] != "k":
            lincomb_add_into(out, sym, coeff)
            continue
        _, s, p = sym
        piv = _pivot(s)
        if piv is None or p != piv:
            lincomb_add_into(out, sym, coeff)
            continue
        scale = -coeff / Q(s[piv])
        for q in range(len(s)):
            if q != piv and s[q] != 0:
                lincomb_add_into(out, ("k", s, q), scale * Q(s[q]))
    return LinComb(out)


class TorElement:
    """A toroidal element held in K-canonical form."""

    __slots__ = ("lc", "params")

    def __init__(self, lc: LinComb, params: AlgebraParams, reduced=False):
        self.params = params
        self.lc = lc if reduced else kreduce(lc)

    @classmethod
    def zero(cls, params):
        return cls(LinComb.zero(), params, reduced=True)

    @classmethod
    def of(cls, params, sym, coeff=1):
        return cls(LinComb.single(sym, Q(coeff)), params)

    def __add__(self, other):
        return TorElement(self.lc + other.lc, self.params, reduced=True)

    def __sub__(self, other):
        return TorElement(self.lc - other.lc, self.params, reduced=True)

    def scale(self, coeff):
        return TorElement(self.lc.scale(coeff), self.params, reduced=True)

    def is_zero(self):
        return self.lc.is_zero()

    def __eq__(self, other):
        return isinstance(other, TorElement) and self.lc == other.lc

    def __hash__(self):
        return hash(self.lc)

    def __repr__(self):
        return f"TorElement({self.lc!r})"


def _bracket_syms(a, b, params: AlgebraParams, out: dict, scale):
    """Accumulate [a, b] * scale into out (pre-reduction)."""
    ka, sa, ia = a
    kb, sb, ib = b
    table = params.table
    if ka == "g" and kb == "g":
        s = _add_idx(sa, sb)
        for k, c in table.bracket(ia, ib).items():
            lincomb_add_into(out, ("g", s, k), scale * c)
        pair = table.pairing(ia, ib)
        if pair != 0:
            for p, sp in enumerate(sa):
                if sp != 0:
                    lincomb_add_into(out, ("k", s, p), scale * pair * sp)
        return
    if "k" in (ka, kb) and "d" not in (ka, kb):
        return  # [K, K] = [g, K] = 0
    if ka == "d" and kb == "g":
        s = _add_idx(sa, sb)
        if sb[ia] != 0:
            lincomb_add_into(out, ("g", s, ib), scale * sb[ia])
        return
    if ka == "g" and kb == "d":
        _bracket_syms(b, a, params, out, -scale)
        return
    if ka == "d" and kb == "k":
        s = _add_idx(sa, sb)
        if sb[ia] != 0:
            lincomb_add_into(out, ("k", s, ib), scale * sb[ia])
        if ia == ib:
            for p, sp in enumerate(sa):
                if sp != 0:
                    lincomb_add_into(out, ("k", s, p), scale * sp)
        return
    if ka == "k" and kb == "d":
        _bracket_syms(b, a, params, out, -scale)
        return
    if ka == "d" and kb == "d":
        s = _add_idx(sa, sb)
        if sb[ia] != 0:
            lincomb_add_into(out, ("d", s, ib), scale * sb[ia])
        if sa[ib] != 0:
            lincomb_add_into(out, ("d", s, ia), -scale * sa[ib])
        if params.mu != 0 and sb[ia] != 0 and sa[ib] != 0:
            f = params.mu * sb[ia] * sa[ib]
            for p, sp in enumerate(sb):
                if sp != 0:
                    lincomb_add_into(out, ("k", s, p), scale * f * sp)
        return
    raise AssertionError(f"unhandled symbol pair {a} {b}")


def bracket(x: TorElement, y: TorElement) -> TorElement:
    out = {}
    for a, ca in x.lc.items():
        for b, cb in y.lc.items():
            _bracket_syms(a, b, x.params, out, ca * cb)
    return TorElement(LinComb(out), x.params)


def divergence(x: TorElement) -> dict:
    """Divergence of the Der part: degree s -> sum_p a_p s_p. Cur and Cen
    parts are ignored (their divergence is not defined here)."""
    out = {}
    for sym, coeff in x.lc.items():
        if sym[0] == "d":
            _, s, a = sym
            if s[a] != 0:
                lincomb_add_into(out, s, coeff * s[a])
    return out


def invariant_form(x: TorElement, y: TorElement):
    """The symmetric invariant form on the divergence-free subalgebra:
    (t^r g1 | t^m g2) = delta_{r,-m} (g1|g2), Der pairs with Cen by
    picking out the matching coefficient, everything else is 0. Raises
    if either argument has a Der part that is not divergence free."""
    for z in (x, y):
        if divergence(z):
            raise ValueError("invariant form needs divergence-free Der parts")
    table = x.params.table
    total = ZERO
    yg = {}
    yk = {}
    yd = {}
    for sym, coeff in y.lc.items():
        (yg if sym[0] == "g" else yk if sym[0] == "k" else yd)[sym] = coeff
    for sym, coeff in x.lc.items():
        kind, s, i = sym
        neg = tuple(-a for a in s)
        if kind == "g":
            for j in range(table.dim):
                c2 = yg.get(("g", neg, j))
                if c2 is not None:
                    total = total + coeff * c2 * table.pairing(i, j)
        elif kind == "d":
            c2 = yk.get(("k", neg, i))
            if c2 is not None:
                total = total + coeff * c2
        else:  # Cen pairs with Der
            c2 = yd.get(("d", neg, i))
            if c2 is not None:
                total = total + coeff * c2
    return total


# the divergence-free spanning set -----------------------------------------

@dataclass(frozen=True)
class SpanningElement:
    key: tuple
    element: TorElement = field(compare=False)

    def __repr__(self):
        return f"Span{self.key}"


def _full(j, r):
    return (j,) + tuple(r)


def spanning_element(params: AlgebraParams, key) -> TorElement:
    """Build the element for a spanning key.

    Keys: ('k0', j, r), ('k', j, r, p), ('g', j, r, i), ('d0',),
    ('dp', j, p), ('dab', j, r, a, b), ('dhat', j, r, a); r always the
    length-N tail of the degree."""
    kind = key[0]
    N = params.N
    if kind == "k0":
        _, j, r = key
        return TorElement.of(params, ksym(_full(j, r), 0))
    if kind == "k":
        _, j, r, p = key
        return TorElement.of(params, ksym(_full(j, r), p))
    if kind == "g":
        _, j, r, i = key
        return TorElement.of(params, gsym(_full(j, r), i))
    if kind == "d0":
        return TorElement.of(params, dsym((0,) * (N + 1), 0))
    if kind == "dp":
        _, j, p = key
        return TorElement.of(params, dsym(_full(j, (0,) * N), p))
    if kind == "dab":
        _, j, r, a, b = key
        s = _full(j, r)
        # r_b d_a - r_a d_b
        lc = LinComb([(dsym(s, a), Q(r[b - 1])), (dsym(s, b), Q(-r[a - 1]))])
        return TorElement(lc, params)
    if kind == "dhat":
        _, j, r, a = key
        s = _full(j, r)
        ra = Q(r[a - 1])
        mu, c = params.mu, params.c
        tail = ra * (mu * (Q(2 * j + 1, 2)) + (N - 1 + mu * c) / (2 * c * N))
        lc = LinComb([
            (dsym(s, 0), -ra),
            (dsym(s, a), Q(j)),
            (ksym(s, 0), tail),
        ])
        return TorElement(lc, params)
    raise ValueError(f"unknown spanning key {key!r}")


def gdiv_spanning(params: AlgebraParams, jmax: int, rmax: int):
    """All spanning elements of the divergence-free subalgebra with
    |j| <= jmax and |r|_inf <= rmax, zero elements skipped."""
    N = params.N
    rs = list(lattice_box(N, rmax))
    out = []

    def emit(key):
        el = spanning_element(params, key)
        if not el.is_zero():
            out.append(SpanningElement(key, el))

    for j in range(-jmax, jmax + 1):
        for r in rs:
            emit(("k0", j, r))
            for p in range(1, N + 1):
                emit(("k", j, r, p))
            for i in range(params.table.dim):
                emit(("g", j, r, i))
    emit(("d0",))
    for j in range(-jmax, jmax + 1):
        for p in range(1, N + 1):
            emit(("dp", j, p))
    for j in range(-jmax, jmax + 1):
        for r in rs:
            if all(x == 0 for x in r):
                continue
            for a in range(1, N + 1):
                for b in range(a + 1, N + 1):
                    emit(("dab", j, r, a, b))
            for a in range(1, N + 1):
                emit(("dhat", j, r, a))
    return out


def gdiv_decompose(x: TorElement, params: AlgebraParams):
    """Write x in the divergence-free subalgebra as a combination of
    spanning keys. Returns a list of (coeff, key). Raises ValueError if
    x is not in the subalgebra (nonzero divergence) or leaves an
    unexplained residue (which would be a bug, not bad input)."""
    if divergence(x):
        raise ValueError("element is not divergence free")
    pieces = []
    # group Der terms by degree
    der = {}
    for sym, coeff in x.lc.items():
        if sym[0] == "d":
            der.setdefault(sym[1], {})[sym[2]] = coeff
    for s, comps in sorted(der.items()):
        j, r = s[0], s[1:]
        if all(v == 0 for v in r):
            if j == 0:
                if 0 in comps:
                    pieces.append((comps[0], ("d0",)))
                for p in range(1, params.N + 1):
                    if p in comps:
                        pieces.append((comps[p], ("dp", 0, p)))
            else:
                if comps.get(0):
                    raise ValueError("t_0^j d_0 with j != 0 is not divergence free")
                for p in range(1, params.N + 1):
                    if p in comps:
                        pieces.append((comps[p], ("dp", j, p)))
            continue
        piv = max(p for p in range(1, params.N + 1) if r[p - 1] != 0)
        rp = Q(r[piv - 1])
        a0 = comps.get(0, ZERO)
        vec = {p: comps.get(p, ZERO) for p in range(1, params.N + 1)}
        if a0 != 0:
            lam = -a0 / rp
            pieces.append((lam, ("dhat", j, r, piv)))
            vec[piv] = vec[piv] - lam * j
        for p in range(1, params.N + 1):
            if p == piv or vec[p] == 0:
                continue
            coeff = vec[p] / rp
            if p < piv:
                pieces.append((coeff, ("dab", j, r, p, piv)))
            else:
                pieces.append((-coeff, ("dab", j, r, piv, p)))
    # whatever remains must be pure Cur/Cen
    residual = x
    for coeff, key in pieces:
        residual = residual - spanning_element(params, key).scale(coeff)
    for sym, coeff in residual.lc.items():
        kind, s, i = sym
        j, r = s[0], s[1:]
        if kind == "g":
            pieces.append((coeff, ("g", j, r, i)))
        elif kind == "k":
            pieces.append((coeff, ("k0", j, r) if i == 0 else ("k", j, r, i)))
        else:
            raise ValueError(f"decomposition left a Der residue at {sym}")
    return pieces
