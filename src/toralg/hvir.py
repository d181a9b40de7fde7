"""Twisted Heisenberg-Virasoro algebra, the current-extended barred
algebra, the sigma-shift embedding between them, central-charge
bookkeeping, and an exact PBW engine for generalized Verma modules.

Mode symbols are tuples:

    ('L', n)        Virasoro
    ('I', n)        Heisenberg
    ('g', i, n)     current over the gdot table, basis index i
    ('sl', i, n)    current over the type-A table, basis index i
    ('C', name)     central symbols in symbolic combinations

The twisted brackets:

    [L(n), L(m)] = (n-m) L(n+m) + (n^3-n)/12 delta C_Vir
    [I(n), I(m)] = n delta C_Hei
    [L(n), I(m)] = -m I(n+m) - (n^2+n) delta C_VH
    [L(n), X(m)] = -m X(n+m)
    [X(n), Y(m)] = [X,Y](n+m) + n (X|Y) delta C_family
    [I(n), X(m)] = 0

The barred algebra is the same without I, with its own Virasoro central.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .fock import mono_depth, monomials
from .lie_table import SimpleLieTable, WeightModule, casimir_eigenvalue
from .linear import LinComb, add_into, lincomb_add_into
from .qlinalg import kernel
from .scalar import Q, ZERO

_FAMRANK = {"L": 0, "I": 1, "g": 2, "sl": 3}


def mode_of(sym):
    return sym[-1]


def mode_sort_key(sym):
    if sym[0] in ("L", "I"):
        return (sym[1], _FAMRANK[sym[0]], 0)
    return (sym[2], _FAMRANK[sym[0]], sym[1])


@dataclass(frozen=True)
class HVContext:
    """Bracket context: current tables (either may be rank 0 / None) and
    the name of the Virasoro central ('Vir' or 'barVir')."""
    table_g: SimpleLieTable = None
    table_sl: SimpleLieTable = None
    vir_central: str = "Vir"
    allow_heisenberg: bool = True

    def table(self, fam):
        t = self.table_g if fam == "g" else self.table_sl
        if t is None:
            raise ValueError(f"no table for current family {fam!r}")
        return t


def bracket_modes(a, b, ctx: HVContext):
    """[a, b] for two mode symbols: (LinComb of mode symbols, dict of
    central-name -> coefficient)."""
    fa, fb = a[0], b[0]
    modes = {}
    cents = {}
    if fa == "L" and fb == "L":
        n, m = a[1], b[1]
        if n != m:
            lincomb_add_into(modes, ("L", n + m), Q(n - m))
        if n == -m:
            cents["Vir"] = Q(n ** 3 - n, 12)
    elif fa == "L" and fb == "I":
        n, m = a[1], b[1]
        if m != 0:
            lincomb_add_into(modes, ("I", n + m), Q(-m))
        if n == -m:
            cents["VH"] = Q(-(n * n + n))
    elif fa == "I" and fb == "L":
        inner_m, inner_c = bracket_modes(b, a, ctx)
        return inner_m.scale(-1), {k: -v for k, v in inner_c.items()}
    elif fa == "I" and fb == "I":
        n, m = a[1], b[1]
        if n == -m and n != 0:
            cents["Hei"] = Q(n)
    elif fa == "L":
        n, m = a[1], b[2]
        if m != 0:
            lincomb_add_into(modes, (fb, b[1], n + m), Q(-m))
    elif fb == "L":
        inner_m, inner_c = bracket_modes(b, a, ctx)
        return inner_m.scale(-1), {k: -v for k, v in inner_c.items()}
    elif "I" in (fa, fb):
        pass  # Heisenberg commutes with the current factors
    elif fa != fb:
        pass  # the two current factors commute
    else:
        table = ctx.table(fa)
        i, n = a[1], a[2]
        j, m = b[1], b[2]
        for k, c in table.bracket(i, j).items():
            lincomb_add_into(modes, (fa, k, n + m), c)
        if n == -m and n != 0:
            pair = table.pairing(i, j)
            if pair != 0:
                cents[fa] = Q(n) * pair
    if not ctx.allow_heisenberg and ("I" in (fa, fb) or "Hei" in cents or "VH" in cents):
        raise ValueError("Heisenberg modes are not part of the barred algebra")
    if "Vir" in cents and ctx.vir_central != "Vir":
        cents[ctx.vir_central] = cents.pop("Vir")
    return LinComb.adopt(modes), cents


def symbolic_bracket(x: LinComb, y: LinComb, ctx: HVContext) -> LinComb:
    """Bracket of combinations that may contain ('C', name) symbols
    (which are central)."""
    out = {}
    for a, ca in x.items():
        if a[0] == "C":
            continue
        for b, cb in y.items():
            if b[0] == "C":
                continue
            modes, cents = bracket_modes(a, b, ctx)
            f = ca * cb
            for sym, c in modes.items():
                lincomb_add_into(out, sym, f * c)
            for name, c in cents.items():
                lincomb_add_into(out, ("C", name), f * c)
    return LinComb.adopt(out)


def rho_sigma(x: LinComb, sigma) -> LinComb:
    """The shift embedding of the barred algebra into the twisted
    Heisenberg-Virasoro algebra extended by the same currents:

        Lbar(n) -> L(n) + sigma n I(n) + delta_{n,0}(sigma C_VH
                   - sigma^2/2 C_Hei)
        Cbar_Vir -> C_Vir + 24 sigma C_VH - 12 sigma^2 C_Hei
        currents -> themselves
    """
    s = Q(sigma)
    out = {}
    for sym, coeff in x.items():
        if sym[0] == "L":
            n = sym[1]
            lincomb_add_into(out, ("L", n), coeff)
            if n != 0:
                lincomb_add_into(out, ("I", n), coeff * s * n)
            else:
                lincomb_add_into(out, ("C", "VH"), coeff * s)
                lincomb_add_into(out, ("C", "Hei"), -coeff * s * s / 2)
        elif sym == ("C", "barVir"):
            lincomb_add_into(out, ("C", "Vir"), coeff)
            lincomb_add_into(out, ("C", "VH"), coeff * 24 * s)
            lincomb_add_into(out, ("C", "Hei"), -coeff * 12 * s * s)
        elif sym[0] == "I":
            raise ValueError("barred elements cannot contain Heisenberg modes")
        else:
            lincomb_add_into(out, sym, coeff)
    return LinComb.adopt(out)


# central-charge bookkeeping -------------------------------------------------

@dataclass(frozen=True)
class CentralCharacter:
    """Values of (C_gdot, C_slN, C_Hei, C_VH, C_Vir)."""
    c_gdot: object
    c_slN: object
    c_hei: object
    c_vh: object
    c_vir: object

    def __post_init__(self):
        for f in ("c_gdot", "c_slN", "c_hei", "c_vh", "c_vir"):
            object.__setattr__(self, f, Q(getattr(self, f)))

    def value(self, name):
        return {"gdot": self.c_gdot, "g": self.c_gdot, "sl": self.c_slN,
                "Hei": self.c_hei, "VH": self.c_vh, "Vir": self.c_vir}[name]


def central_character_gamma0(N: int, mu, c) -> CentralCharacter:
    """The distinguished central character of the toroidal action:
    (c, 1 - mu c, N(1 - mu c), N/2, 12 mu c - 2N)."""
    mu, c = Q(mu), Q(c)
    return CentralCharacter(c, 1 - mu * c, Q(N) * (1 - mu * c), Q(N, 2), 12 * mu * c - 2 * N)


def default_h_vir(gamma: CentralCharacter, N: int):
    """The lowest-weight normalization used by the embedding suites:
    -(1/N) c_VH + 1/(2 N^2) c_Hei."""
    return -gamma.c_vh / N + gamma.c_hei / (2 * N * N)


@dataclass(frozen=True)
class BarredCharges:
    c_vir_bar: object
    c_gdot: object
    c_slN: object
    h_shift: object

    def __post_init__(self):
        for f in ("c_vir_bar", "c_gdot", "c_slN", "h_shift"):
            object.__setattr__(self, f, Q(getattr(self, f)))


def barred_charges(gamma: CentralCharacter, sigma) -> BarredCharges:
    """Central character and lowest-weight shift of the sigma-embedded
    Virasoro: cbar = c_Vir + 24 sigma c_VH - 12 sigma^2 c_Hei, the
    L(0)-eigenvalue shifts by sigma c_VH - sigma^2/2 c_Hei."""
    s = Q(sigma)
    return BarredCharges(
        gamma.c_vir + 24 * s * gamma.c_vh - 12 * s * s * gamma.c_hei,
        gamma.c_gdot,
        gamma.c_slN,
        s * gamma.c_vh - s * s / 2 * gamma.c_hei,
    )


def cbar_closed_form(N: int, mu, c):
    """Independent closed form of the barred central charge at
    sigma = 1/N: 12(1 - 1/N) + 12 mu c (1 + 1/N) - 2N."""
    mu, c = Q(mu), Q(c)
    return 12 * (1 - Q(1, N)) + 12 * mu * c * (1 + Q(1, N)) - 2 * N


@dataclass(frozen=True)
class SugawaraCharges:
    c_prime: object
    h_prime: object


def sugawara_charges(barred: BarredCharges, table_g: SimpleLieTable, N: int,
                     h_bar=0, omega_v=None, omega_w=None,
                     weight_v=None, weight_w=None,
                     table_sl: SimpleLieTable = None) -> SugawaraCharges:
    """Coset charges after subtracting both current Sugawara fields:

        c' = cbar - c dim(gdot)/(c + hv) - c_slN (N^2-1)/(c_slN + N)
        h' = hbar - Omega_V/(2(c + hv)) - Omega_W/(2(c_slN + N))

    Casimirs may be given directly or via dominant weights."""
    c_prime = barred.c_vir_bar
    h_prime = Q(h_bar)
    if table_g is not None and table_g.dim:
        k = barred.c_gdot
        hv = table_g.dual_coxeter
        if k + hv == 0:
            raise ValueError("critical level for the gdot factor")
        c_prime = c_prime - k * table_g.dim / (k + hv)
        if omega_v is None:
            omega_v = casimir_eigenvalue(table_g, weight_v) if weight_v is not None else ZERO
        h_prime = h_prime - Q(omega_v) / (2 * (k + hv))
    if N >= 2:
        k = barred.c_slN
        if k + N == 0:
            raise ValueError("critical level for the sl_N factor")
        c_prime = c_prime - k * (N * N - 1) / (k + N)
        if omega_w is None:
            omega_w = casimir_eigenvalue(table_sl, weight_w) if weight_w is not None else ZERO
        h_prime = h_prime - Q(omega_w) / (2 * (k + N))
    return SugawaraCharges(c_prime, h_prime)


# generalized Verma modules ---------------------------------------------------

@dataclass(frozen=True)
class HighestWeightData:
    """Top-space data for a generalized Verma module: finite modules for
    the current factors and eigenvalues for L(0) and I(0)."""
    h: object = 0
    h_hei: object = 0
    module_g: WeightModule = None
    module_sl: WeightModule = None

    def __post_init__(self):
        object.__setattr__(self, "h", Q(self.h))
        object.__setattr__(self, "h_hei", Q(self.h_hei))


class VermaModule:
    """PBW-normal-form arithmetic for a graded highest-weight module.

    States are combinations of (monomial, hw_index) with the monomial a
    tuple of negative-mode symbols sorted by (mode, family, index). With
    vacuum=True the module is the vacuum module: h must be 0 and L(-1)
    kills the top vector, so L(-1) never appears in the PBW basis."""

    def __init__(self, ctx: HVContext, centrals: dict, hw: HighestWeightData,
                 has_vir=True, has_hei=False, vacuum=False):
        self.ctx = ctx
        self.centrals = dict(centrals)
        self.hw = hw
        self.has_vir = has_vir
        self.has_hei = has_hei
        self.vacuum = vacuum
        if vacuum and hw.h != 0:
            raise ValueError("vacuum module needs h = 0")
        self.dim_g = hw.module_g.dim if hw.module_g else 1
        self.dim_sl = hw.module_sl.dim if hw.module_sl else 1
        self.hw_dim = self.dim_g * self.dim_sl
        self._apply_cache = {}

    def central(self, name):
        v = self.centrals.get(name)
        if v is None:
            raise ValueError(f"no central value for {name!r}")
        return Q(v)

    # hw index helpers
    def hw_split(self, idx):
        return divmod(idx, self.dim_sl)

    def hw_join(self, vi, wi):
        return vi * self.dim_sl + wi

    def vacuum_state(self, hw_idx=0) -> LinComb:
        return LinComb.single(((), hw_idx))

    def _zero_mode(self, sym, hw_idx):
        """Action of a mode-0 symbol on a top-space vector."""
        out = {}
        if sym[0] == "L":
            if self.hw.h != 0:
                out[((), hw_idx)] = self.hw.h
        elif sym[0] == "I":
            if self.hw.h_hei != 0:
                out[((), hw_idx)] = self.hw.h_hei
        elif sym[0] == "g":
            vi, wi = self.hw_split(hw_idx)
            mod = self.hw.module_g
            if mod is not None and mod.mats:
                for r, c in mod.act(sym[1], vi).items():
                    lincomb_add_into(out, ((), self.hw_join(r, wi)), c)
        elif sym[0] == "sl":
            vi, wi = self.hw_split(hw_idx)
            mod = self.hw.module_sl
            if mod is not None and mod.mats:
                for r, c in mod.act(sym[1], wi).items():
                    lincomb_add_into(out, ((), self.hw_join(vi, r)), c)
        else:
            raise ValueError(f"cannot act with {sym}")
        return LinComb(out)

    def _apply_basis(self, sym, mono, hw_idx) -> LinComb:
        key = (sym, mono, hw_idx)
        hit = self._apply_cache.get(key)
        if hit is not None:
            return hit
        n = mode_of(sym)
        if not mono:
            if n > 0 or (sym[0] in ("g", "sl") and n == 0 and
                         (self.hw.module_g if sym[0] == "g" else self.hw.module_sl) is None):
                out = LinComb.zero()
            elif n == 0:
                out = self._zero_mode(sym, hw_idx)
            elif self.vacuum and sym == ("L", -1):
                out = LinComb.zero()
            else:
                out = LinComb.single(((sym,), hw_idx))
        else:
            head, rest = mono[0], mono[1:]
            # In a vacuum module L(-1) is the translation derivation: it
            # must straighten through every creation operator and vanish
            # on the vacuum instead of heading a PBW monomial.
            translate = self.vacuum and sym == ("L", -1)
            if mode_sort_key(sym) <= mode_sort_key(head) and not translate:
                out = LinComb.single(((sym,) + mono, hw_idx))
            else:
                # sym.head = head.sym + [sym, head]
                inner = self._apply_basis(sym, rest, hw_idx)
                # apply builds a fresh dict and hands it to nobody
                # else, so it is extended in place
                acc = self.apply(head, inner).terms
                modes, cents = bracket_modes(sym, head, self.ctx)
                for bsym, c in modes.items():
                    add_into(acc, self._apply_basis(bsym, rest, hw_idx), c)
                lincomb_add_into(acc, (rest, hw_idx), sum(
                    (c * self.central(name) for name, c in cents.items()), ZERO))
                out = LinComb.adopt(acc)
        self._apply_cache[key] = out
        return out

    def apply(self, sym, state: LinComb) -> LinComb:
        out = {}
        for (mono, hw_idx), coeff in state.items():
            add_into(out, self._apply_basis(sym, mono, hw_idx), coeff)
        return LinComb.adopt(out)

    def apply_many(self, syms, state: LinComb) -> LinComb:
        """Apply a product of mode symbols, rightmost first."""
        for sym in reversed(syms):
            state = self.apply(sym, state)
        return state

    def generators_at(self, n: int):
        """Creation symbols at mode -n (n >= 1), in sort order."""
        out = []
        if self.has_vir and not (self.vacuum and n == 1):
            out.append(("L", -n))
        if self.has_hei:
            out.append(("I", -n))
        if self.hw.module_g is not None and self.ctx.table_g is not None:
            out.extend(("g", i, -n) for i in range(self.ctx.table_g.dim))
        if self.hw.module_sl is not None and self.ctx.table_sl is not None:
            out.extend(("sl", i, -n) for i in range(self.ctx.table_sl.dim))
        return out

    def slice_basis(self, depth: int):
        """All (monomial, hw_index) at the given depth, monomials sorted."""
        monos = sorted(monomials(self.generators_at, mode_sort_key, depth))
        return [(m, i) for m in monos for i in range(self.hw_dim)]


class OneDimHWModule:
    """The one-dimensional module on which every mode acts as zero.

    This is consistent exactly when all central charges vanish and the
    top eigenvalues are zero (the brackets then force nothing), so the
    constructor refuses anything else. It mirrors the VermaModule
    interface so it can serve as the f-factor of a tensor module."""

    def __init__(self, ctx: HVContext, centrals: dict,
                 hw: HighestWeightData = None):
        hw = HighestWeightData() if hw is None else hw
        for name, v in centrals.items():
            if Q(v) != 0:
                raise ValueError(
                    f"one-dimensional module needs central {name!r} = 0")
        if hw.h != 0 or hw.h_hei != 0:
            raise ValueError("one-dimensional module needs h = h_hei = 0")
        for mod in (hw.module_g, hw.module_sl):
            if mod is not None and (mod.dim != 1 or any(
                    mod.act(i, 0) for i in range(len(mod.mats)))):
                raise ValueError("current factors must act trivially")
        self.ctx = ctx
        self.centrals = {k: Q(v) for k, v in centrals.items()}
        self.hw = hw
        self.hw_dim = 1
        self.vacuum = True

    def central(self, name):
        v = self.centrals.get(name)
        if v is None:
            raise ValueError(f"no central value for {name!r}")
        return Q(v)

    def vacuum_state(self, hw_idx=0) -> LinComb:
        return LinComb.single(((), hw_idx))

    def _apply_basis(self, sym, mono, hw_idx) -> LinComb:
        return LinComb.zero()

    def apply(self, sym, state: LinComb) -> LinComb:
        return LinComb.zero()

    def apply_many(self, syms, state: LinComb) -> LinComb:
        return LinComb.zero() if syms else state

    def generators_at(self, n: int):
        return []

    def slice_basis(self, depth: int):
        return [((), 0)] if depth == 0 else []


# Sugawara ---------------------------------------------------------------

class SugawaraOperator:
    """L^Sug(n) over one current family of a Verma module, built from
    dual bases of the invariant form. Exact on every state; the normal
    ordering puts the smaller mode on the left.

    L^Sug(n) is linear, so apply_mode is the linear extension of its
    action on basis states, which _mode_basis memoizes per (n, monomial,
    hw index) with the prefactor already applied. Cached values are only
    read into fresh dicts (the rule of linear.add_into), and the cache
    lives and dies with this operator, that is with one suite call."""

    def __init__(self, module: VermaModule, fam="g"):
        self.module = module
        self.fam = fam
        table = module.ctx.table(fam)
        self.table = table
        self.level = module.central(fam)
        kappa = self.level + table.dual_coxeter
        if kappa == 0:
            raise ValueError("critical level: Sugawara undefined")
        self.prefactor = Q(1) / (2 * kappa)
        dual = table.dual_basis()
        self._pairs = [(i, k, dual[k][i]) for i in range(table.dim)
                       for k in range(table.dim) if dual[k][i] != 0]
        self._cache = {}

    def central_charge(self):
        return self.level * self.table.dim / (self.level + self.table.dual_coxeter)

    def apply_mode(self, n: int, state: LinComb) -> LinComb:
        out = {}
        for (mono, hw_idx), coeff in state.items():
            add_into(out, self._mode_basis(n, mono, hw_idx), coeff)
        return LinComb.adopt(out)

    def _mode_basis(self, n, mono, hw_idx) -> LinComb:
        key = (n, mono, hw_idx)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        basis = self.module._apply_basis
        fam = self.fam
        d = mono_depth(mono)
        acc = {}
        for m in range(n - d, d + 1):
            first, second = (m, n - m) if m <= n - m else (n - m, m)
            for i, k, dual_c in self._pairs:
                # normal order :g_i(m) g^i(n-m): ; when reordered the
                # pair is (g^i(n-m), g_i(m)) but the sum over i with
                # dual coefficients is symmetric under that swap
                inner = basis((fam, k, second), mono, hw_idx)
                for (mono2, hw2), c in inner.items():
                    add_into(acc, basis((fam, i, first), mono2, hw2),
                             c * dual_c)
        out = LinComb.adopt(acc).scale(self.prefactor)
        self._cache[key] = out
        return out


# singular-vector scan on a plain Verma module ------------------------------

def verma_singular_scan(module: VermaModule, max_depth: int, raising_syms):
    """Exact common kernel of the raising operators on each graded slice
    up to max_depth. Returns a list of (depth, vector-as-LinComb)."""
    ops = [partial(module.apply, sym) for sym in raising_syms]
    return [(depth, vec) for depth in range(1, max_depth + 1)
            for vec in kernel(module.slice_basis(depth), ops)]
