"""Graded characters of truncated modules and colored-partition series.

The character table counts basis states per (depth offset n, lattice
point s). The depth offset is the non-negative index of the grading:
the d_0-eigenvalue of a state at point s is shift - base(s) - n, so n
enumerates the tower above the top and the table columns are identical
across lattice points (each point contributes one copy of the tower).

The series side is computed by two independent algorithms (direct
product expansion of prod_{k>=1} (1-q^k)^(-colors), and the Euler
divisor-sum recurrence n a_n = colors * sum_k sigma_1(k) a_{n-k}),
which must agree. A third, counting-based routine gives the oscillator
graded dimensions by a bounded-knapsack walk over modes (stars and bars
per mode), so dimensions beyond feasible enumeration still have an
enumeration-flavored oracle.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from math import comb

from .fock import lattice_box
from .scalar import Q


# -- series -------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesExpansion:
    """Finite prefix of a one-variable series with integer coefficients,
    indexed 0..max_n."""
    coeffs: tuple

    @property
    def max_n(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def as_list(self):
        return list(self.coeffs)

    def __str__(self):
        return str(self.as_list())


def _series_product(colors: int, max_n: int):
    """Coefficients of prod_{k>=1} (1-q^k)^(-colors) by truncated
    polynomial multiplication, one geometric-power factor at a time."""
    out = [0] * (max_n + 1)
    out[0] = 1
    for k in range(1, max_n + 1):
        # multiply by (1-q^k)^(-colors) = sum_j C(j+colors-1, j) q^{jk}
        nxt = [0] * (max_n + 1)
        for base, cc in enumerate(out):
            if cc == 0:
                continue
            j = 0
            while base + j * k <= max_n:
                nxt[base + j * k] += cc * comb(j + colors - 1, j)
                j += 1
        out = nxt
    return out


def _sigma1(n: int) -> int:
    tot = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            tot += d
            if d != n // d:
                tot += n // d
        d += 1
    return tot


def _series_euler(colors: int, max_n: int):
    """Same coefficients from n a_n = colors sum_{k<=n} sigma_1(k)
    a_{n-k}; every division must be exact."""
    sig = [0] + [_sigma1(k) for k in range(1, max_n + 1)]
    out = [1]
    for n in range(1, max_n + 1):
        acc = sum(sig[k] * out[n - k] for k in range(1, n + 1))
        val = Q(colors * acc, n)
        num = int(val)
        if num != val:
            raise ArithmeticError("recurrence produced a non-integer")
        out.append(num)
    return out


def colored_partition_series(colors: int, max_n: int,
                             method: str = "both") -> SeriesExpansion:
    """Partitions of n into parts of `colors` colors. With the default
    method both algorithms run and must agree coefficient by
    coefficient."""
    if max_n < 0:
        raise ValueError("max_n must be non-negative")
    if colors < 1:
        raise ValueError("colors must be positive")
    if method == "product":
        return SeriesExpansion(tuple(_series_product(colors, max_n)))
    if method == "euler":
        return SeriesExpansion(tuple(_series_euler(colors, max_n)))
    if method != "both":
        raise ValueError(f"unknown method {method!r}")
    a = _series_product(colors, max_n)
    b = _series_euler(colors, max_n)
    if a != b:
        n = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
        raise ArithmeticError(
            f"series algorithms disagree at n={n}: {a[n]} != {b[n]}")
    return SeriesExpansion(tuple(a))


def oscillator_dimensions(N: int, max_n: int) -> SeriesExpansion:
    """Graded dimensions of the free-oscillator tower on 2N colors,
    counted mode by mode: a monomial assigns each mode k a multiset of
    colored factors, C(j + 2N - 1, j) choices for j factors. Counts the
    slice dimensions without materializing monomials."""
    colors = 2 * N
    dims = [0] * (max_n + 1)
    dims[0] = 1
    for k in range(1, max_n + 1):
        for base in range(max_n - k, -1, -1):
            if dims[base] == 0:
                continue
            j = 1
            while base + j * k <= max_n:
                dims[base + j * k] += dims[base] * comb(j + colors - 1, j)
                j += 1
    return SeriesExpansion(tuple(dims))


# -- character tables ----------------------------------------------------------

def sample_lattice_points(N: int, smax: int):
    """Deterministic sample of the window box: the whole box when it has
    at most 1000 points, otherwise origin, axis extremes, the two uniform
    corners and 8 draws of seed 20260815 (duplicates removed, order
    preserved)."""
    if smax < 0:
        raise ValueError("smax must be non-negative")
    box = (2 * smax + 1) ** N
    if box <= 1000:
        return list(lattice_box(N, smax))
    pts = [(0,) * N]
    for p in range(N):
        for sign in (1, -1):
            v = [0] * N
            v[p] = sign * smax
            pts.append(tuple(v))
    pts.append((smax,) * N)
    pts.append((-smax,) * N)
    rng = random.Random(20260815)
    for _ in range(8):
        pts.append(tuple(rng.randint(-smax, smax) for _ in range(N)))
    seen = set()
    out = []
    for p in pts:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


@dataclass
class CharacterTable:
    """Association (n, s) -> dimension over a point sample; n runs
    0..max_n, complete_depth marks the largest n whose slice is complete
    (comparisons against series stop there)."""
    entries: dict
    points: list
    max_n: int
    complete_depth: int
    meta: dict = field(default_factory=dict)

    def dim(self, n: int, s) -> int:
        return self.entries.get((n, tuple(s)), 0)

    def column(self, s):
        return [self.dim(n, s) for n in range(self.max_n + 1)]

    def total(self, s) -> int:
        return sum(self.column(s))

    def s_independent(self) -> bool:
        cols = [self.column(s) for s in self.points]
        return all(col == cols[0] for col in cols[1:])

    def to_json(self) -> str:
        doc = {"points": [list(s) for s in self.points],
               "max_n": self.max_n,
               "complete_depth": self.complete_depth,
               "rows": [[n, list(s), self.dim(n, s)]
                        for s in self.points
                        for n in range(self.max_n + 1)]}
        doc.update(self.meta)
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n"] + [f"s{i+1}" for i in range(len(self.points[0]))]
                   + ["dim"])
        for s in self.points:
            for n in range(self.max_n + 1):
                w.writerow([n] + list(s) + [self.dim(n, s)])
        return buf.getvalue()


def graded_character(module, max_n=None, points=None,
                     factor: str = "full") -> CharacterTable:
    """Character of a truncated module over a deterministic point
    sample. factor='full' counts every state (oscillator and f-factor
    together; slices above the window depth are the per-factor-capped
    tail, counted as present but marked incomplete). factor='oscillator'
    counts the lattice-factor tower alone."""
    if factor not in ("full", "oscillator"):
        raise ValueError(f"unknown factor {factor!r}")
    if points is None:
        points = sample_lattice_points(module.N, module.smax)
    points = [tuple(int(x) for x in s) for s in points]
    for s in points:
        if any(abs(x) > module.smax for x in s):
            raise ValueError(f"point {s} outside the window")
    osc = [len(module.osc_slice(d)) for d in range(module.depth + 1)]
    if factor == "oscillator":
        col = osc
        complete = module.depth
    else:
        fdim = [len(module.f_slice(k)) for k in range(module.depth + 1)]
        col = [sum(osc[d] * fdim[n - d]
                   for d in range(max(0, n - module.depth),
                                  min(n, module.depth) + 1))
               for n in range(2 * module.depth + 1)]
        complete = module.depth
    if max_n is None:
        max_n = len(col) - 1
    if max_n >= len(col):
        raise ValueError("max_n exceeds the window")
    entries = {}
    for s in points:
        for n in range(max_n + 1):
            entries[(n, s)] = col[n]
    return CharacterTable(entries, points, max_n, min(complete, max_n),
                          meta={"factor": factor})


def compare_character(table: CharacterTable, series: SeriesExpansion) -> dict:
    """Exact comparison table(n, s) == series(n) for every sampled point
    and every complete depth both sides cover. Reports the first
    mismatch with its location."""
    top = min(table.complete_depth, series.max_n)
    if top < 0:
        raise ValueError("windows do not overlap")
    checked = 0
    for s in table.points:
        for n in range(top + 1):
            got, want = table.dim(n, s), series[n]
            if got != want:
                return {"pass": False, "checked": checked,
                        "mismatch": {"n": n, "s": list(s),
                                     "table": got, "series": want}}
            checked += 1
    return {"pass": True, "checked": checked, "mismatch": None}
