"""Command-line driver for the verification suites.

Subcommands:
  verify-toroidal   bracket and invariant-form axioms on seeded samples
  verify-embedding  twisted Virasoro-Heisenberg embedding homomorphism
  verify-action     module-action commutator suites (general and rank-0)
  sugawara          central charges, coset values, operator commutation
  char              character tables, series comparison, exports
  singular-scan     raising-operator kernel plus a planted positive control

The report is JSON on stdout (and --out FILE): a config echo with every
rational as a "p/q" string, the seed, one entry per check with exact
witnesses, and a top-level pass flag. Wall time is printed to stderr
only, so a given config and seed produces byte-identical report text.
Exit status: 0 when every check passes, 1 when a check fails, 2 for an
invalid configuration, 3 for an internal error (its traceback goes to
stderr and nothing to stdout).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import traceback

from . import ConfigError
from .characters import (CharacterTable, colored_partition_series,
                         compare_character, graded_character,
                         oscillator_dimensions, sample_lattice_points)
from .fock import enumerate_osc, mono_depth
from .hvir import (HVContext, HighestWeightData, SugawaraOperator,
                   VermaModule, barred_charges, cbar_closed_form,
                   central_character_gamma0, default_h_vir, rho_sigma,
                   sugawara_charges, symbolic_bracket, verma_singular_scan)
from .lie_table import (adjoint_module, casimir_eigenvalue, load_table,
                        load_table_file, trivial_module)
from .linear import LinComb
from .rep import (ActionParams, EmptySafeZone, _key_degree, build_module,
                  rank0_params, represent, singular_scan, tor_repr,
                  verify_commutator, verify_virasoro_rank)
from .scalar import Q, parse_q, qstr
from .toroidal import (AlgebraParams, TorElement, bracket, gdiv_spanning,
                       invariant_form, ksym, spanning_element)


def _rat(text):
    try:
        return parse_q(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad rational {text!r}: {e}")


def _rat_tuple(text):
    return tuple(_rat(tok) for tok in text.split(","))


def _int_tuple(text):
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as e:
        raise ConfigError(f"bad integer list {text!r}: {e}")


def _table(name: str):
    if name in ("sl2", "sl3", "rank0"):
        return load_table(name)
    try:
        return load_table_file(name)
    except (OSError, ValueError, KeyError) as e:
        raise ConfigError(f"cannot load table {name!r}: {e}")


def run_checks(tasks):
    """Run named nullary callables, each returning a dict, in task order."""
    return [dict(name=name, **fn()) for name, fn in tasks]


# -- verify-toroidal -----------------------------------------------------------

def _sample_element(params, span, rng):
    x = TorElement.zero(params)
    for se in rng.sample(span, k=min(2, len(span))):
        x = x + se.element.scale(Q(rng.randint(-3, 3), rng.randint(1, 3)))
    return x


def toroidal_suite(params: AlgebraParams, jmax: int, rmax: int,
                   samples: int, seed: int):
    """Antisymmetry, Jacobi, form symmetry, form invariance, and the
    vanishing of the form against exact derivations, all on seeded
    random combinations of spanning elements."""
    if jmax < 0 or rmax < 0:
        raise ConfigError("mode and lattice bounds must be non-negative")
    if samples < 1:
        raise ConfigError("samples must be positive")
    rng = random.Random(seed)
    span = gdiv_spanning(params, jmax, rmax)
    if not span:
        raise ConfigError("empty spanning set")
    triples = [tuple(_sample_element(params, span, rng) for _ in range(3))
               for _ in range(samples)]
    degrees = [tuple(rng.randint(-jmax, jmax) for _ in range(params.N + 1))
               for _ in range(samples)]

    def _scan(fn):
        for i, (x, y, z) in enumerate(triples):
            w = fn(x, y, z, degrees[i])
            if w is not None:
                return {"pass": False, "samples": samples,
                        "witness": {"sample": i, "residual": w}}
        return {"pass": True, "samples": samples}

    def antisym(x, y, z, m):
        r = bracket(x, y) + bracket(y, x)
        return None if r.is_zero() else tor_repr(r)

    def jacobi(x, y, z, m):
        r = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) \
            + bracket(z, bracket(x, y))
        return None if r.is_zero() else tor_repr(r)

    def symmetry(x, y, z, m):
        d = invariant_form(x, y) - invariant_form(y, x)
        return None if d == 0 else qstr(d)

    def invariance(x, y, z, m):
        d = invariant_form(x, bracket(y, z)) \
            - invariant_form(bracket(x, y), z)
        return None if d == 0 else qstr(d)

    def kills_exact(x, y, z, m):
        # the exact form d(t^m) lands in the center as sum_p m_p t^m k_p;
        # pairing its raw representative with any divergence-free element
        # must vanish (this is what makes the form well defined on the
        # quotient by exact forms)
        km = TorElement(LinComb([(ksym(m, p), Q(mp))
                                 for p, mp in enumerate(m) if mp]),
                        x.params, reduced=True)
        v = invariant_form(x, km)
        return None if v == 0 else qstr(v)

    tasks = [("antisymmetry", lambda: _scan(antisym)),
             ("jacobi", lambda: _scan(jacobi)),
             ("form-symmetry", lambda: _scan(symmetry)),
             ("form-invariance", lambda: _scan(invariance)),
             ("form-kills-exact-derivations", lambda: _scan(kills_exact))]
    return run_checks(tasks)


def cmd_verify_toroidal(args):
    params = AlgebraParams(args.N, _table(args.table), mu=_rat(args.mu),
                           c=_rat(args.c))
    checks = toroidal_suite(params, args.mode_bound, args.lattice_bound,
                            args.samples, args.seed)
    config = {"N": args.N, "mu": qstr(params.mu), "c": qstr(params.c),
              "table": args.table, "mode_bound": args.mode_bound,
              "lattice_bound": args.lattice_bound, "samples": args.samples}
    return _report("verify-toroidal", config, args.seed, checks)


# -- verify-embedding ----------------------------------------------------------

def embedding_suite(sigmas, mode_bound: int):
    """The twisted map must be a homomorphism: the bracket of images
    equals the image of the bracket for every Virasoro mode pair, with
    all three central symbols matched exactly."""
    if mode_bound < 0:
        raise ConfigError("mode bound must be non-negative")
    bar = HVContext(None, None, "barVir", False)
    full = HVContext(None, None, "Vir", True)

    def one(sigma):
        def check():
            pairs = 0
            for n in range(-mode_bound, mode_bound + 1):
                for m in range(-mode_bound, mode_bound + 1):
                    x = LinComb.single(("L", n))
                    y = LinComb.single(("L", m))
                    lhs = rho_sigma(symbolic_bracket(x, y, bar), sigma)
                    rhs = symbolic_bracket(rho_sigma(x, sigma),
                                           rho_sigma(y, sigma), full)
                    if lhs != rhs:
                        return {"pass": False, "pairs": pairs,
                                "witness": {"n": n, "m": m,
                                            "lhs": repr(lhs),
                                            "rhs": repr(rhs)}}
                    pairs += 1
            cbar = rho_sigma(LinComb.single(("C", "barVir")), sigma)
            want = LinComb([(("C", "Vir"), Q(1)),
                            (("C", "VH"), 24 * Q(sigma)),
                            (("C", "Hei"), -12 * Q(sigma) * Q(sigma))])
            if cbar != want:
                return {"pass": False, "pairs": pairs,
                        "witness": {"central": repr(cbar)}}
            return {"pass": True, "pairs": pairs + 1}
        return check

    tasks = [(f"embedding sigma={qstr(Q(s))}", one(Q(s))) for s in sigmas]
    return run_checks(tasks)


def cmd_verify_embedding(args):
    sigmas = [_rat(tok) for tok in args.sigma.split(",")]
    checks = embedding_suite(sigmas, args.mode_bound)
    config = {"sigma": [qstr(Q(s)) for s in sigmas],
              "mode_bound": args.mode_bound}
    return _report("verify-embedding", config, None, checks)


# -- verify-action -------------------------------------------------------------

def _action_params(args) -> ActionParams:
    if args.thm56:
        return rank0_params(d0_shift=None if args.d0_shift is None
                            else _rat(args.d0_shift))
    table = _table(args.table)
    params = AlgebraParams(args.N, table, mu=_rat(args.mu), c=_rat(args.c))
    alpha = _rat_tuple(args.alpha) if args.alpha else (Q(0),) * args.N
    beta = _int_tuple(args.beta) if args.beta else (0,) * args.N
    return ActionParams(
        params, alpha, beta, h_bar=_rat(args.h_bar),
        module_v=args.module_v, module_w=args.module_w,
        d0_shift=None if args.d0_shift is None else _rat(args.d0_shift))


def _sample_states(module, rng, max_points: int, per_point: int):
    if max_points < 1 or per_point < 1:
        raise ConfigError("max_points and states_per_point must be positive")
    pts = sample_lattice_points(module.N, module.smax)
    if len(pts) > max_points:
        pts = [pts[0]] + rng.sample(pts[1:], max_points - 1)
    states = []
    for s in pts:
        bas = module.basis_at(s)
        states.append(bas[0])
        extra = min(per_point, len(bas)) - 1
        if extra > 0:
            states.extend(rng.sample(bas[1:], extra))
    return states


def _draw_keys(params: AlgebraParams, jmax: int, rmax: int, rng,
               count: int):
    """Seeded spanning elements drawn key by key (never materializes
    the full set, whose lattice box is huge at large N). The lattice
    part of each degree has at most two nonzero entries, which keeps
    the sampled operators desk-sized at every rank."""
    N = params.N
    kinds = ["k0", "k", "dp", "dab", "dhat"]
    if params.table.dim:
        kinds.append("g")
    out = []
    guard = 0
    while len(out) < count and guard < 100 * count:
        guard += 1
        kind = rng.choice(kinds)
        j = rng.randint(-jmax, jmax)
        r = [0] * N
        for pos in rng.sample(range(N), k=rng.randint(0, min(N, 2))):
            r[pos] = rng.choice([-1, 1]) * rng.randint(1, max(rmax, 1)) \
                if rmax else 0
        r = tuple(r)
        if kind == "k0":
            key = ("k0", j, r)
        elif kind == "k":
            key = ("k", j, r, rng.randint(1, N))
        elif kind == "g":
            key = ("g", j, r, rng.randrange(params.table.dim))
        elif kind == "dp":
            key = ("dp", j, rng.randint(1, N))
        elif kind == "dab":
            if N < 2:
                continue
            a, b = rng.sample(range(1, N + 1), k=2)
            key = ("dab", j, r, a, b)
        else:
            key = ("dhat", j, r, rng.randint(1, N))
        el = spanning_element(params, key)
        if not el.is_zero():
            out.append((key, el))
    return out


def _sample_pairs(module, pool, rng, samples: int):
    """Seeded spanning-element pairs whose combined degree reach stays
    inside the window, so safe vectors can exist."""
    N = module.N
    pairs = []
    attempts = 0
    while len(pairs) < samples and attempts < 200 * samples:
        attempts += 1
        (kx, ex), (ky, ey) = rng.choice(pool), rng.choice(pool)
        jx, rx = _key_degree(kx, N)
        jy, ry = _key_degree(ky, N)
        if abs(jx) + abs(jy) > module.depth:
            continue
        if any(abs(a + b) > module.smax for a, b in zip(rx, ry)):
            continue
        pairs.append(((kx, ex), (ky, ey)))
    if len(pairs) < samples:
        raise ConfigError("window too small for the requested element bounds")
    return pairs


def action_suite(ap: ActionParams, depth: int, smax: int, jmax: int,
                 elem_rmax: int, samples: int, seed: int,
                 max_points: int = 5, states_per_point: int = 4):
    """Zero-mode eigenvalues, sampled commutator preservation, and (for
    windows of depth >= 3) the Virasoro rank scalar."""
    if jmax < 0 or elem_rmax < 0:
        raise ConfigError("mode and element lattice bounds must be "
                          "non-negative")
    if samples < 1:
        raise ConfigError("samples must be positive")
    module = build_module(ap, depth, smax)
    rng = random.Random(seed)
    states = _sample_states(module, rng, max_points, states_per_point)
    pool = _draw_keys(ap.algebra, jmax, elem_rmax, rng, 4 * samples)
    pairs = _sample_pairs(module, pool, rng, samples)
    alg = ap.algebra

    def zero_modes():
        ops = [("k0-scalar", ("k0", 0, (0,) * module.N),
                lambda w: alg.c),
               ("d0-grading", ("d0",),
                module.d0_eigenvalue)]
        for p in range(1, module.N + 1):
            ops.append((f"k{p}-scalar", ("k", 0, (0,) * module.N, p),
                        lambda w, p=p: alg.c * module.lat.beta[p - 1]))
            ops.append((f"d{p}-grading", ("dp", 0, p),
                        lambda w, p=p: module.dp_eigenvalue(w, p)))
        checked = 0
        for label, key, eig in ops:
            op = represent(spanning_element(alg, key), module)
            for w in states:
                wl = LinComb.single(w)
                if op(wl) != wl.scale(eig(w)):
                    return {"pass": False, "checked": checked,
                            "witness": {"mode": label, "state": repr(w)}}
                checked += 1
        return {"pass": True, "checked": checked}

    def commutators():
        checked = 0
        skipped = 0
        safe_total = 0
        for (kx, ex), (ky, ey) in pairs:
            try:
                rep = verify_commutator(ex, ey, module, states=states)
            except EmptySafeZone:
                skipped += 1
                continue
            checked += 1
            safe_total += rep.safe_count
            if not rep.residual_zero:
                doc = rep.to_json()
                doc["keys"] = [repr(kx), repr(ky)]
                return {"pass": False, "pairs_checked": checked,
                        "witness": doc}
        if checked == 0:
            raise ConfigError("no sampled pair had a safe vector")
        return {"pass": True, "pairs_checked": checked,
                "pairs_skipped": skipped, "safe_vectors": safe_total}

    tasks = [("zero-modes", zero_modes), ("commutators", commutators)]
    if depth >= 3:
        def vrank():
            out = verify_virasoro_rank(module)
            return {"pass": out["pass"],
                    "expected": qstr(out["expected"]),
                    "measured": qstr(out["measured"]),
                    "states_checked": out["states_checked"],
                    **({"witness": out["witness"]} if out["witness"] else {})}
        tasks.append(("virasoro-rank", vrank))
    return run_checks(tasks)


def cmd_verify_action(args):
    ap = _action_params(args)
    checks = action_suite(ap, args.depth, args.lattice_bound,
                          args.mode_bound, args.elem_lattice_bound,
                          args.samples, args.seed,
                          max_points=args.max_points,
                          states_per_point=args.states_per_point)
    config = {"thm56": args.thm56, "N": ap.algebra.N,
              "mu": qstr(ap.algebra.mu), "c": qstr(ap.algebra.c),
              "alpha": [qstr(a) for a in ap.alpha],
              "beta": list(ap.beta), "h_bar": qstr(ap.h_bar),
              "module_v": ap.module_v, "module_w": ap.module_w,
              "d0_shift": qstr(ap.d0_shift),
              "depth": args.depth, "lattice_bound": args.lattice_bound,
              "mode_bound": args.mode_bound,
              "elem_lattice_bound": args.elem_lattice_bound,
              "samples": args.samples, "max_points": args.max_points,
              "states_per_point": args.states_per_point}
    return _report("verify-action", config, args.seed, checks)


# -- sugawara ------------------------------------------------------------------

def sugawara_suite(N: int, mu, c, table, mode_bound: int, h_bar=0):
    """Charge bookkeeping and operator checks: the closed form of the
    barred central charge, cancellation of the embedding shift, the
    Casimir consistency of both eigenvalue paths, the coset charge c'
    against that closed form minus the Sugawara charges of the factors
    present (c dim(gdot)/(c + hv) when gdot is nonzero, (1 - mu c)
    (N^2 - 1)/(1 - mu c + N) when N >= 2), and the Sugawara operator's
    commutation and Virasoro relations on a depth-3 level-c module."""
    if mode_bound < 0:
        raise ConfigError("mode bound must be non-negative")
    gamma = central_character_gamma0(N, mu, c)
    sigma = Q(1, N)

    def closed_form():
        b = barred_charges(gamma, sigma)
        want = cbar_closed_form(N, mu, c)
        ok = b.c_vir_bar == want
        return {"pass": ok, "cbar": qstr(b.c_vir_bar),
                "closed_form": qstr(want),
                "c_gdot": qstr(b.c_gdot), "c_slN": qstr(b.c_slN)}

    def shift_cancels():
        b = barred_charges(gamma, sigma)
        resid = default_h_vir(gamma, N) + b.h_shift
        return {"pass": resid == 0, "h_vir": qstr(default_h_vir(gamma, N)),
                "h_shift": qstr(b.h_shift)}

    def casimir():
        if table.dim == 0:
            return {"pass": True, "skipped": "rank-0 finite part"}
        adj = adjoint_module(table)
        triv = trivial_module(table)
        ok = (adj.casimir() == casimir_eigenvalue(table, adj.highest_weight)
              and triv.casimir() == 0)
        return {"pass": ok, "omega_adjoint": qstr(adj.casimir())}

    def coset():
        b = barred_charges(gamma, sigma)
        s = sugawara_charges(b, table, N, h_bar=h_bar)
        want = cbar_closed_form(N, mu, c)
        if table.dim:
            want -= Q(c) * table.dim / (Q(c) + table.dual_coxeter)
        if N >= 2:
            k_sl = 1 - Q(mu) * Q(c)
            want -= k_sl * (N * N - 1) / (k_sl + N)
        out = {"pass": s.c_prime == want, "c_prime": qstr(s.c_prime),
               "h_prime": qstr(s.h_prime)}
        if s.c_prime != want:
            out["witness"] = {"expected": qstr(want)}
        return out

    tasks = [("cbar-closed-form", closed_form),
             ("embedding-shift-cancels", shift_cancels),
             ("casimir-consistency", casimir),
             ("coset-charges", coset)]

    if table.dim:
        if Q(c) == -table.dual_coxeter:
            raise ConfigError("level plus dual Coxeter must be nonzero")
        ctx = HVContext(table, None, "Vir", True)
        aff = VermaModule(ctx, {"g": Q(c)},
                          HighestWeightData(module_g=adjoint_module(table)),
                          has_vir=False, has_hei=False)
        op = SugawaraOperator(aff, "g")
        hw = aff.vacuum_state()
        states = [hw, aff.apply(("g", 0, -1), hw),
                  aff.apply_many([("g", table.dim - 1, -2), ("g", 0, -1)], hw)]

        def commutation():
            checked = 0
            for n in range(-mode_bound, mode_bound + 1):
                for m in range(-mode_bound, mode_bound + 1):
                    for i in range(table.dim):
                        x = ("g", i, m)
                        for v in states:
                            lhs = op.apply_mode(n, aff.apply(x, v)) \
                                - aff.apply(x, op.apply_mode(n, v))
                            rhs = aff.apply(("g", i, n + m), v).scale(-m)
                            if lhs != rhs:
                                return {"pass": False, "checked": checked,
                                        "witness": {"n": n, "m": m, "i": i}}
                            checked += 1
            return {"pass": True, "checked": checked}

        def virasoro():
            csug = op.central_charge()
            checked = 0
            for n in range(-mode_bound, mode_bound + 1):
                for m in range(-mode_bound, mode_bound + 1):
                    for v in states:
                        lhs = op.apply_mode(n, op.apply_mode(m, v)) \
                            - op.apply_mode(m, op.apply_mode(n, v))
                        rhs = op.apply_mode(n + m, v).scale(n - m)
                        if n + m == 0:
                            rhs = rhs + v.scale(
                                Q(n ** 3 - n, 12) * csug)
                        if lhs != rhs:
                            return {"pass": False, "checked": checked,
                                    "witness": {"n": n, "m": m}}
                        checked += 1
            return {"pass": True, "checked": checked,
                    "central_charge": qstr(csug)}

        tasks.append(("sugawara-commutation", commutation))
        tasks.append(("sugawara-virasoro", virasoro))
    return run_checks(tasks)


def cmd_sugawara(args):
    table = _table(args.table)
    mu, c = _rat(args.mu), _rat(args.c)
    if args.N < 1:
        raise ConfigError("N must be positive")
    checks = sugawara_suite(args.N, mu, c, table, args.mode_bound,
                            h_bar=_rat(args.h_bar))
    config = {"N": args.N, "mu": qstr(mu), "c": qstr(c),
              "table": args.table, "mode_bound": args.mode_bound,
              "h_bar": qstr(_rat(args.h_bar))}
    return _report("sugawara", config, None, checks)


# -- char ----------------------------------------------------------------------

def char_suite_thm56(max_n: int, smax: int):
    """Character of the rank-0 module: counted dimensions against the
    dual-algorithm series, explicit enumeration at low depth, and
    s-independence of the tabulated columns."""
    if max_n < 0 or smax < 0:
        raise ConfigError("depth and lattice bound must be non-negative")
    dims = oscillator_dimensions(12, max_n)
    series = colored_partition_series(24, max_n)
    points = sample_lattice_points(12, smax)
    entries = {(n, s): dims[n] for s in points for n in range(max_n + 1)}
    table = CharacterTable(entries, points, max_n, max_n,
                           meta={"factor": "oscillator", "mode": "thm56"})

    def series_match():
        rep = compare_character(table, series)
        out = {"pass": rep["pass"], "checked": rep["checked"],
               "dims": dims.as_list()}
        if rep["mismatch"]:
            out["witness"] = rep["mismatch"]
        return out

    def enumeration():
        cap = min(max_n, 4)
        counts = [0] * (cap + 1)
        for osc in enumerate_osc(12, cap):
            counts[mono_depth(osc)] += 1
        ok = counts == dims.as_list()[:cap + 1]
        return {"pass": ok, "depth_cap": cap, "counts": counts}

    def independence():
        return {"pass": table.s_independent(), "points": len(points)}

    checks = run_checks([("series-match", series_match),
                         ("enumeration-crosscheck", enumeration),
                         ("s-independence", independence)])
    return checks, table


def char_suite_general(ap: ActionParams, depth: int, smax: int):
    """Character of a general truncated module: totals against the
    enumerated basis and the oscillator factor against the 2N-color
    series."""
    module = build_module(ap, depth, smax)
    table = graded_character(module)

    def totals():
        for s in table.points:
            want = len(module.basis_at(s))
            if table.total(s) != want:
                return {"pass": False,
                        "witness": {"s": list(s), "table": table.total(s),
                                    "basis": want}}
        return {"pass": True, "points": len(table.points)}

    def osc_factor():
        osc_tab = graded_character(module, factor="oscillator")
        rep = compare_character(
            osc_tab, colored_partition_series(2 * module.N, module.depth))
        out = {"pass": rep["pass"], "checked": rep["checked"]}
        if rep["mismatch"]:
            out["witness"] = rep["mismatch"]
        return out

    checks = run_checks([("totals-match-basis", totals),
                         ("oscillator-factor", osc_factor)])
    return checks, table


def cmd_char(args):
    if args.thm56:
        checks, table = char_suite_thm56(args.depth, args.lattice_bound)
        config = {"thm56": True, "depth": args.depth,
                  "lattice_bound": args.lattice_bound}
    else:
        ap = _action_params(args)
        checks, table = char_suite_general(ap, args.depth,
                                           args.lattice_bound)
        config = {"thm56": False, "N": ap.algebra.N,
                  "mu": qstr(ap.algebra.mu), "c": qstr(ap.algebra.c),
                  "h_bar": qstr(ap.h_bar), "depth": args.depth,
                  "lattice_bound": args.lattice_bound}
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(table.to_csv())
        config["csv"] = args.csv
    if args.table_json:
        with open(args.table_json, "w") as fh:
            fh.write(table.to_json() + "\n")
        config["table_json"] = args.table_json
    return _report("char", config, None, checks)


# -- singular-scan ---------------------------------------------------------------

def scan_suite(ap: ActionParams, depth: int, smax: int, max_degree: int,
               jmax: int, elem_rmax: int, planted: bool = True):
    """Common kernel of the raising operators per graded slice (pass
    means empty: no singular candidates at desk scale), plus a planted
    positive control on a degenerate highest weight that must be
    detected."""
    if max_degree < 1:
        raise ConfigError("max_degree must be at least 1")
    if jmax < 1:
        raise ConfigError("mode bound must be at least 1: the raising set "
                          "has mode degrees 1..mode bound")
    if elem_rmax < 0:
        raise ConfigError("element lattice bound must be non-negative")
    if (2 * elem_rmax + 1) ** ap.algebra.N > 20000:
        raise ConfigError(
            "raising-set lattice box too large at this rank; "
            "reduce --elem-lattice-bound (0 keeps the scan exact)")
    if max_degree > depth:
        raise ConfigError("max_degree exceeds the window depth")
    module = build_module(ap, depth, smax)

    def kernel():
        found = singular_scan(module, max_degree, jmax=jmax, rmax=elem_rmax)
        out = {"pass": not found, "max_degree": max_degree,
               "candidates": len(found)}
        if found:
            d, s0, vec = found[0]
            out["witness"] = {"degree": d, "s": list(s0),
                              "vector": repr(vec)}
        return out

    def control():
        ctx = HVContext(None, None, "Vir", False)
        verma = VermaModule(ctx, {"Vir": 0}, HighestWeightData(0, 0))
        found = verma_singular_scan(verma, 2, [("L", 1), ("L", 2)])
        ok = any(d == 1 for d, _v in found)
        return {"pass": ok, "found": len(found)}

    tasks = [("raising-kernel-empty", kernel)]
    if planted:
        tasks.append(("planted-control", control))
    return run_checks(tasks)


def cmd_singular_scan(args):
    ap = _action_params(args)
    checks = scan_suite(ap, args.depth, args.lattice_bound, args.max_degree,
                        args.mode_bound, args.elem_lattice_bound,
                        planted=not args.no_control)
    config = {"thm56": args.thm56, "N": ap.algebra.N,
              "mu": qstr(ap.algebra.mu), "c": qstr(ap.algebra.c),
              "h_bar": qstr(ap.h_bar), "depth": args.depth,
              "lattice_bound": args.lattice_bound,
              "max_degree": args.max_degree,
              "mode_bound": args.mode_bound,
              "elem_lattice_bound": args.elem_lattice_bound}
    return _report("singular-scan", config, None, checks)


# -- plumbing ------------------------------------------------------------------

def _report(command: str, config: dict, seed, checks) -> dict:
    return {"command": command, "config": config, "seed": seed,
            "checks": checks, "pass": all(c["pass"] for c in checks)}


def _add_module_flags(p):
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--mu", default="0")
    p.add_argument("--c", default="1")
    p.add_argument("--table", default="sl2",
                   help="table name (sl2, sl3, rank0) or a JSON file path")
    p.add_argument("--alpha", default=None,
                   help="comma list of rationals, one per lattice direction")
    p.add_argument("--beta", default=None, help="comma list of integers")
    p.add_argument("--h-bar", default="0")
    p.add_argument("--module-v", default="trivial")
    p.add_argument("--module-w", default="trivial")
    p.add_argument("--d0-shift", default=None)
    p.add_argument("--thm56", action="store_true",
                   help="rank-0 point: N=12, mu=c=1, lattice factor alone")


def parse_args(argv=None):
    top = argparse.ArgumentParser(
        prog="toralg",
        description="Exact verification suites for toroidal-algebra "
                    "module actions.")
    top.add_argument("--out", default=None, help="also write the report here")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-toroidal", help="bracket and form axioms")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--mu", default="0")
    p.add_argument("--c", default="1")
    p.add_argument("--table", default="sl2")
    p.add_argument("--mode-bound", type=int, default=3)
    p.add_argument("--lattice-bound", type=int, default=2)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify-embedding", help="twisted embedding suite")
    p.add_argument("--sigma", default="1/12,1/2,1,-2/3",
                   help="comma list of rational twists")
    p.add_argument("--mode-bound", type=int, default=6)

    p = sub.add_parser("verify-action", help="module-action commutators")
    _add_module_flags(p)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--lattice-bound", type=int, default=1)
    p.add_argument("--mode-bound", type=int, default=2)
    p.add_argument("--elem-lattice-bound", type=int, default=1)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-points", type=int, default=5)
    p.add_argument("--states-per-point", type=int, default=4)

    p = sub.add_parser("sugawara", help="charge and operator checks")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--mu", default="0")
    p.add_argument("--c", default="1")
    p.add_argument("--table", default="sl2")
    p.add_argument("--h-bar", default="0")
    p.add_argument("--mode-bound", type=int, default=2)

    p = sub.add_parser("char", help="character tables and series")
    _add_module_flags(p)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--lattice-bound", type=int, default=0)
    p.add_argument("--csv", default=None, help="write the table as CSV")
    p.add_argument("--table-json", default=None,
                   help="write the table as JSON")

    p = sub.add_parser("singular-scan", help="raising-kernel scan")
    _add_module_flags(p)
    # generic default point: the scan's pass criterion is an empty kernel,
    # which needs parameters off the degenerate locus
    p.set_defaults(alpha="1/3,1/5", beta="1,0", h_bar="1/7")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--lattice-bound", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--mode-bound", type=int, default=2)
    p.add_argument("--elem-lattice-bound", type=int, default=1)
    p.add_argument("--no-control", action="store_true")

    return top.parse_args(argv)


COMMANDS = {
    "verify-toroidal": cmd_verify_toroidal,
    "verify-embedding": cmd_verify_embedding,
    "verify-action": cmd_verify_action,
    "sugawara": cmd_sugawara,
    "char": cmd_char,
    "singular-scan": cmd_singular_scan,
}


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.time()
    try:
        report = COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    print(f"elapsed: {time.time() - t0:.2f}s", file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
