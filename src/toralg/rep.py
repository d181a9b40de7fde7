"""Action of the divergence-free toroidal algebra on truncated tensor
modules (hyperbolic-lattice Fock factor times a highest-weight f-factor),
with exact commutator-preservation verification, the Virasoro rank
check, and a desk-scale singular-vector scan.

Every spanning element is homogeneous of a degree (j, r): its operator
is a finite sum of field moments that shifts conformal weight by -j and
the lattice point by +r. The moment calculus is exact on every basis
state, so the windows of a truncated module never truncate an operator;
they only select which vectors participate in a check (a vector is safe
for a pair when its images under both operators and the compositions
stay inside the window).

The operator assignments, per spanning key:

    k_0 at (j, r)      c [z^-j]   Y(e^{ru}, z)
    k_p at (j, r)      c [z^-j-1] Y(u_p(-1) e^{ru}, z)
    g_i at (j, r)        [z^-j-1] Y(g_i(-1) e^{ru}, z)
    d_p at (j, 0)      v_p(j)
    d_0                d0_shift - omega_(1)
    d_ab at (j, r)       [z^-j-1] Y(B_ab, z)
    dhat_a at (j, r)   r_a [z^-j-2] Y(A, z) + j [z^-j-1] Y(B_a, z)

with B_ab = (r_b v_a(-1) - r_a v_b(-1)) e^{ru}
          + sum_p r_p e^{ru} (r_b psi(E_pa) - r_a psi(E_pb))(-1),
     B_a  = v_a(-1) e^{ru} + sum_p r_p e^{ru} psi(E_pa)(-1),
     A    = omega_(-1) e^{ru} + sum_{p,s} r_p u_s(-1) e^{ru} psi(E_ps)(-1)
          + (mu c - 1) sum_p r_p u_p(-2) e^{ru},

where omega is the total Virasoro vector of the carrier and psi is the
traceless projection of the matrix units. The rank-0 mode carries the
same assignment on the lattice factor alone (the one-dimensional
f-factor kills every current and Virasoro term) with d_0 shifted by +1.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ConfigError, fock
from .fock import LatticeParams, mono_depth
from .hvir import (HVContext, HighestWeightData, OneDimHWModule, VermaModule,
                   cbar_closed_form)
from .lie_table import MODULE_LABELS, build_slN_table, load_table, \
    module_by_label, sln_psi, trivial_module
from .linear import LinComb, add_into, lincomb_add_into
from .qlinalg import kernel
from .scalar import Q, qstr
from .toroidal import AlgebraParams, TorElement, bracket, gdiv_decompose, \
    gdiv_spanning
from .vertex import mod_depth, nth_product, omega_total, vac_state, \
    vacuum_space, VertexSpace


@dataclass(frozen=True)
class ActionParams:
    """Data selecting one tensor module: the algebra parameters, the
    lattice module (alpha, beta), the top of the f-factor, and the
    rank-0 flag that restricts to the lattice factor alone (N = 12,
    mu = c = 1, empty finite algebra, one-dimensional f-factor, and the
    d_0 shift defaulting to +1 instead of 0)."""
    algebra: AlgebraParams
    alpha: tuple
    beta: tuple
    h_bar: object = 0
    module_v: str = "trivial"
    module_w: str = "trivial"
    rank0: bool = False
    d0_shift: object = None

    def __post_init__(self):
        lat = LatticeParams(self.algebra.N, self.alpha, self.beta)
        object.__setattr__(self, "alpha", lat.alpha)
        object.__setattr__(self, "beta", lat.beta)
        object.__setattr__(self, "h_bar", Q(self.h_bar))
        shift = self.d0_shift
        if shift is None:
            shift = 1 if self.rank0 else 0
        object.__setattr__(self, "d0_shift", Q(shift))
        for label in (self.module_v, self.module_w):
            if label not in MODULE_LABELS:
                raise ConfigError(f"module {label!r} is not realized; "
                                  f"use one of {', '.join(MODULE_LABELS)}")
        if self.rank0:
            alg = self.algebra
            if alg.N != 12 or alg.mu != 1 or alg.c != 1 or alg.table.dim != 0:
                raise ConfigError(
                    "rank-0 mode needs N=12, mu=c=1 and the empty table")
            if self.h_bar != 0 or self.module_v != "trivial" \
                    or self.module_w != "trivial":
                raise ConfigError("rank-0 mode needs a trivial f-factor")

    @property
    def lattice(self) -> LatticeParams:
        return LatticeParams(self.algebra.N, self.alpha, self.beta)


def rank0_params(alpha=None, beta=None, d0_shift=None) -> ActionParams:
    """The exceptional rank-0 point: the lattice factor alone at N=12."""
    alg = AlgebraParams(12, load_table("rank0"), mu=1, c=1)
    alpha = (0,) * 12 if alpha is None else tuple(alpha)
    beta = (0,) * 12 if beta is None else tuple(beta)
    return ActionParams(alg, alpha, beta, rank0=True, d0_shift=d0_shift)


def fbar_centrals(params: ActionParams) -> dict:
    """Central values of the f-factor fixed by the algebra parameters."""
    alg = params.algebra
    cents = {"Vir": cbar_closed_form(alg.N, alg.mu, alg.c),
             "sl": 1 - alg.mu * alg.c}
    if alg.table.dim:
        cents["g"] = alg.c
    return cents


def build_fbar_modules(params: ActionParams):
    """The f-factor as a PBW module, and the vacuum module (h = 0,
    trivial tops) that carries the vertex-algebra side, both over one
    bracket context: generalized Verma modules with the prescribed
    centrals, or the one-dimensional module in rank-0 mode."""
    cents = fbar_centrals(params)
    if params.rank0:
        cents.pop("g", None)
        onedim = OneDimHWModule(
            HVContext(vir_central="Vir", allow_heisenberg=False), cents)
        return onedim, onedim
    alg = params.algebra
    table_g = alg.table if alg.table.dim else None
    table_sl = build_slN_table(alg.N)
    if not table_sl.dim:
        table_sl = None
    ctx = HVContext(table_g, table_sl, vir_central="Vir",
                    allow_heisenberg=False)
    hw = HighestWeightData(
        params.h_bar, 0,
        module_by_label(table_g, params.module_v) if table_g else None,
        module_by_label(table_sl, params.module_w) if table_sl else None)
    vac_hw = HighestWeightData(
        0, 0,
        trivial_module(table_g) if table_g else None,
        trivial_module(table_sl) if table_sl else None)
    return (VermaModule(ctx, cents, hw),
            VermaModule(ctx, cents, vac_hw, vacuum=True))


class TruncatedModule:
    """A finite window of the tensor module: every basis state whose
    oscillator depth and f-depth are each at most `depth` and whose
    lattice point satisfies |s|_inf <= smax. Basis order is
    deterministic: lattice points lexicographically, then oscillator
    depth, oscillator monomial, f-depth, f-basis order.

    The lattice box is iterated lazily (at N = 12 it has 3^12 points per
    unit bound); basis_size does the arithmetic without materializing."""

    def __init__(self, params: ActionParams, depth: int, smax: int):
        if depth < 0 or smax < 0:
            raise ConfigError("empty window")
        self.params = params
        self.depth = int(depth)
        self.smax = int(smax)
        self.lat = params.lattice
        self.fmod, self.fvac = build_fbar_modules(params)
        self.space = VertexSpace(self.lat, self.fmod)
        self.vacspace = vacuum_space(params.algebra.N, self.fvac)
        self._osc_slices = None
        self._f_slices = None
        self._states = {}
        self._ops = {}

    @property
    def N(self) -> int:
        return self.params.algebra.N

    def osc_slice(self, d: int):
        if self._osc_slices is None:
            groups = [[] for _ in range(self.depth + 1)]
            for osc in fock.enumerate_osc(self.N, self.depth):
                groups[mono_depth(osc)].append(osc)
            self._osc_slices = groups
        return self._osc_slices[d]

    def f_slice(self, k: int):
        if self._f_slices is None:
            self._f_slices = [self.fmod.slice_basis(d)
                              for d in range(self.depth + 1)]
        return self._f_slices[k]

    def basis_at(self, s):
        s = tuple(int(x) for x in s)
        out = []
        for d1 in range(self.depth + 1):
            for osc in self.osc_slice(d1):
                for k in range(self.depth + 1):
                    for fm, fh in self.f_slice(k):
                        out.append((osc, s, fm, fh))
        return out

    def slice_at(self, s, d: int):
        """The basis states at lattice point s of oscillator plus f-depth
        d, in basis_at order."""
        s = tuple(int(x) for x in s)
        return [(osc, s, fm, fh)
                for d1 in range(max(d - self.depth, 0), min(d, self.depth) + 1)
                for osc in self.osc_slice(d1)
                for fm, fh in self.f_slice(d - d1)]

    def basis(self):
        for s in fock.lattice_box(self.N, self.smax):
            for w in self.basis_at(s):
                yield w

    def basis_size(self) -> int:
        per = sum(len(self.osc_slice(d)) for d in range(self.depth + 1)) \
            * sum(len(self.f_slice(k)) for k in range(self.depth + 1))
        return per * (2 * self.smax + 1) ** self.N

    # -- gradings -------------------------------------------------------------

    def state_depth(self, w) -> int:
        return mod_depth(w)

    def weight(self, w):
        return self.space.mod_weight(w)

    def d0_eigenvalue(self, w):
        return self.params.d0_shift - self.weight(w)

    def dp_eigenvalue(self, w, p: int):
        return self.lat.alpha[p - 1] + w[1][p - 1]

    def contains(self, w) -> bool:
        return (mono_depth(w[0]) <= self.depth
                and mono_depth(w[2]) <= self.depth
                and all(abs(x) <= self.smax for x in w[1]))

    def contains_comb(self, lc: LinComb) -> bool:
        return all(self.contains(w) for w, _ in lc.items())


def build_module(params: ActionParams, depth: int, smax: int) -> TruncatedModule:
    return TruncatedModule(params, depth, smax)


# -- operators of spanning keys ----------------------------------------------

def _eru(r):
    return vac_state((), r, ())


def _key_degree(key, N: int):
    kind = key[0]
    if kind == "d0":
        return 0, (0,) * N
    if kind == "dp":
        return key[1], (0,) * N
    return key[1], tuple(key[2])


def _cached_state(module: TruncatedModule, tag, builder):
    hit = module._states.get(tag)
    if hit is None:
        hit = builder()
        module._states[tag] = hit
    return hit


def _psi_part(N, r, column, factor_by_p):
    """sum_p factor(p) e^{ru} psi(E_{p,column})(-1) as module-side
    oscillator-free states; factor_by_p maps p -> scalar."""
    out = {}
    for p in range(1, N + 1):
        f = factor_by_p(p)
        if f == 0:
            continue
        for idx, cc in sln_psi(N, p, column).items():
            lincomb_add_into(out, vac_state((), r, (("sl", idx, -1),)), f * cc)
    return LinComb(out)


def _dab_state(module: TruncatedModule, r, a: int, b: int) -> LinComb:
    def build():
        N = module.N
        ra, rb = Q(r[a - 1]), Q(r[b - 1])
        osc = LinComb([(vac_state((("v", a, -1),), r), rb),
                       (vac_state((("v", b, -1),), r), -ra)])
        cur = _psi_part(N, r, a, lambda p: Q(r[p - 1]) * rb) \
            + _psi_part(N, r, b, lambda p: -Q(r[p - 1]) * ra)
        return osc + cur
    return _cached_state(module, ("dab", tuple(r), a, b), build)


def _dhat_head(module: TruncatedModule, r) -> LinComb:
    """A = omega_(-1) e^{ru} + sum_{p,s} r_p u_s(-1) e^{ru} psi(E_ps)(-1)
    + (mu c - 1) sum_p r_p u_p(-2) e^{ru}; the (-1)-product is computed
    inside the vacuum space so its normal-ordering tail is exact."""
    def build():
        N = module.N
        alg = module.params.algebra
        head = nth_product(module.vacspace, omega_total(N), -1, _eru(r))
        cur = {}
        for p in range(1, N + 1):
            rp = Q(r[p - 1])
            if rp == 0:
                continue
            for col in range(1, N + 1):
                for idx, cc in sln_psi(N, p, col).items():
                    lincomb_add_into(
                        cur, vac_state((("u", col, -1),), r, (("sl", idx, -1),)),
                        rp * cc)
        extra = LinComb([(vac_state((("u", p, -2),), r),
                          (alg.mu * alg.c - 1) * Q(r[p - 1]))
                         for p in range(1, N + 1) if r[p - 1]])
        return head + LinComb(cur) + extra
    return _cached_state(module, ("dhatA", tuple(r)), build)


def _dhat_tail(module: TruncatedModule, r, a: int) -> LinComb:
    def build():
        base = LinComb.single(vac_state((("v", a, -1),), r))
        return base + _psi_part(module.N, r, a, lambda p: Q(r[p - 1]))
    return _cached_state(module, ("dhatB", tuple(r), a), build)


def _key_piece(module: TruncatedModule, key):
    """The operator of one spanning key as a piece (j, r, fn, coeff):
    coeff times fn, a map state -> state."""
    space = module.space
    kind = key[0]
    coeff = module.params.algebra.c if kind in ("k0", "k") else 1
    j, r = _key_degree(key, module.N)
    if kind == "k0":
        a = _eru(r)
        fn = lambda st, a=a, m=-j: space.mom(a, m, st)
    elif kind == "k":
        a = vac_state((("u", key[3], -1),), r)
        fn = lambda st, a=a, m=-j - 1: space.mom(a, m, st)
    elif kind == "g":
        a = vac_state((), r, (("g", key[3], -1),))
        fn = lambda st, a=a, m=-j - 1: space.mom(a, m, st)
    elif kind == "d0":
        om = omega_total(module.N)
        shift = module.params.d0_shift
        fn = lambda st, om=om, shift=shift: \
            st.scale(shift) - space.mom(om, -2, st)
    elif kind == "dp":
        fn = lambda st, sym=("v", key[2], j): space.osc_op(sym, st)
    elif kind == "dab":
        a = _dab_state(module, r, key[3], key[4])
        fn = lambda st, a=a, m=-j - 1: space.mom(a, m, st)
    elif kind == "dhat":
        head = _dhat_head(module, r)
        tail = _dhat_tail(module, r, key[3])
        ra = Q(r[key[3] - 1])
        fn = lambda st, A=head, B=tail, ra=ra, mj=j: \
            space.mom(A, -mj - 2, st).scale(ra) \
            + space.mom(B, -mj - 1, st).scale(Q(mj))
    else:
        raise ValueError(f"unknown spanning key {key!r}")
    return j, r, fn, coeff


def act_key(module: TruncatedModule, key):
    """The operator of one spanning key as (j, r, state -> state)."""
    piece = _key_piece(module, key)
    return piece[0], piece[1], RepOperator(module, [piece]).apply


class RepOperator:
    """A represented element: a sum of homogeneous moment pieces
    (j, r, fn, coeff), each coeff times fn of degree (j, r). The piece
    of degree (j, r) shifts conformal weight by -j and the lattice point
    by +r."""

    __slots__ = ("module", "pieces")

    def __init__(self, module, pieces):
        self.module = module
        self.pieces = pieces

    def degrees(self):
        return [(j, r) for j, r, _fn, _c in self.pieces]

    def apply(self, state: LinComb) -> LinComb:
        out = {}
        for _j, _r, fn, coeff in self.pieces:
            add_into(out, fn(state), coeff)
        return LinComb.adopt(out)

    __call__ = apply


def represent(x: TorElement, module: TruncatedModule) -> RepOperator:
    """The exact operator of a divergence-free element on the module."""
    cached = module._ops.get(x.lc)
    if cached is not None:
        return cached
    pieces = []
    for coeff, key in gdiv_decompose(x, module.params.algebra):
        j, r, fn, scale = _key_piece(module, key)
        pieces.append((j, r, fn, coeff * scale))
    op = RepOperator(module, pieces)
    module._ops[x.lc] = op
    return op


# -- verification ------------------------------------------------------------

def tor_repr(x: TorElement) -> str:
    """Canonical one-line form of a toroidal element."""
    if x.is_zero():
        return "0"
    bits = []
    for sym, coeff in x.lc.sorted_items():
        kind, s, i = sym
        bits.append(f"{qstr(coeff)}*{kind}[{','.join(map(str, s))};{i}]")
    return " + ".join(bits)


@dataclass
class CommutatorReport:
    """Result of one exact commutator-preservation check: the pair, the
    number of safe vectors actually checked, whether every residual was
    exactly zero, and the first failing vector if any."""
    x: TorElement
    y: TorElement
    safe_count: int
    residual_zero: bool
    witness: dict = None

    def to_json(self) -> dict:
        doc = {"x": tor_repr(self.x), "y": tor_repr(self.y),
               "safe_count": self.safe_count,
               "residual_zero": self.residual_zero}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


class EmptySafeZone(ValueError):
    """No given window vector is safe for the pair: the check is skipped,
    not failed."""


def verify_commutator(x: TorElement, y: TorElement, module: TruncatedModule,
                      states=None) -> CommutatorReport:
    """Check [rho(x), rho(y)] = rho([x, y]) exactly on every given
    window vector whose images under both operators and both
    compositions stay inside the window. Raises EmptySafeZone if no
    vector is safe."""
    opx = represent(x, module)
    opy = represent(y, module)
    opz = represent(bracket(x, y), module)
    if states is None:
        states = list(module.basis())
    safe = 0
    ok = True
    witness = None
    for w in states:
        wl = LinComb.single(w)
        ix = opx(wl)
        iy = opy(wl)
        if not (module.contains_comb(ix) and module.contains_comb(iy)):
            continue
        xy = opx(iy)
        yx = opy(ix)
        if not (module.contains_comb(xy) and module.contains_comb(yx)):
            continue
        safe += 1
        resid = xy - yx - opz(wl)
        if resid:
            ok = False
            term, cc = resid.sorted_items()[0]
            witness = {"state": repr(w), "term": repr(term),
                       "residual": qstr(cc)}
            break
    if safe == 0:
        raise EmptySafeZone("empty safe zone")
    return CommutatorReport(x, y, safe, ok, witness)


def verify_virasoro_rank(module: TruncatedModule, omega=None, states=None) -> dict:
    """[L(2), L(-2)] - 4 L(0) of the carrier's Virasoro field must be
    the scalar (2N + cbar)/2 (lattice rank plus the closed-form barred
    central). cbar is the closed form of the algebra parameters, not
    the central the f-factor was built with, so an f-factor carrying a
    wrong central fails. An explicit omega overrides the canonical one
    (falsification fixtures pass a perturbed vector)."""
    if module.depth < 3:
        raise ValueError("window too small")
    space = module.space
    N = module.N
    alg = module.params.algebra
    om = omega_total(N) if omega is None else omega
    expected = (2 * N + cbar_closed_form(N, alg.mu, alg.c)) / 2
    if states is None:
        states = [w for w in module.basis_at((0,) * N)
                  if mono_depth(w[0]) + 2 <= module.depth
                  and mono_depth(w[2]) + 2 <= module.depth]
    measured = None
    ok = True
    witness = None
    checked = 0
    for w in states:
        wl = LinComb.single(w)
        br = space.mom(om, -4, space.mom(om, 0, wl)) \
            - space.mom(om, 0, space.mom(om, -4, wl)) \
            - space.mom(om, -2, wl).scale(4)
        if measured is None:
            measured = br.coeff(w)
        checked += 1
        resid = br - wl.scale(expected)
        if resid:
            ok = False
            term, cc = resid.sorted_items()[0]
            witness = {"state": repr(w), "term": repr(term),
                       "residual": qstr(cc)}
            break
    return {"expected": expected, "measured": measured, "pass": ok,
            "states_checked": checked, "witness": witness}


# -- singular-vector scan ----------------------------------------------------

def raising_set(params: AlgebraParams, jmax=2, rmax=1):
    """Spanning elements of positive t_0-degree with 1 <= j <= jmax and
    |r|_inf <= rmax; at desk scale these generate the raising half, so
    an empty kernel against them is an empty kernel against all of it."""
    return [se for se in gdiv_spanning(params, jmax, rmax)
            if _key_degree(se.key, params.N)[0] >= 1]


def singular_scan(module: TruncatedModule, max_degree: int,
                  jmax=2, rmax=1):
    """Exact common kernel of the raising operators on each graded
    slice above the top at the lattice point 0. Returns
    [(degree, lattice point, vector)]; an empty list supports
    irreducibility at desk scale, a non-empty list reports candidates
    only."""
    if max_degree > module.depth:
        raise ValueError("max_degree exceeds the window depth")
    s0 = (0,) * module.N
    ops = [represent(se.element, module).apply
           for se in raising_set(module.params.algebra, jmax, rmax)]
    return [(d, s0, vec) for d in range(1, max_degree + 1)
            for vec in kernel(module.slice_at(s0, d), ops)]
