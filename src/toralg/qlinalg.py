"""Small exact linear algebra over Q: row reduction, inverse, nullspace.

Matrices are lists of lists of rationals. Sizes here are desk scale
(hundreds of columns at most), so plain fraction-free-ish Gaussian
elimination with exact rationals is plenty.
"""

from __future__ import annotations

from .scalar import ZERO, ONE


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = [[ZERO] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(m):
            c = ai[k]
            if c == 0:
                continue
            bk = b[k]
            for j in range(p):
                if bk[j] != 0:
                    oi[j] = oi[j] + c * bk[j]
    return out


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def rref(mat):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(mat, cols=None):
    """Basis of the right kernel as a list of column vectors."""
    if not mat:
        n = cols or 0
        return [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]
    n = len(mat[0])
    red, pivots = rref(mat)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * n
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def invert(mat):
    """Exact inverse; raises ValueError on singular input."""
    n = len(mat)
    aug = [list(mat[i]) + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def rank(mat):
    if not mat:
        return 0
    return len(rref(mat)[1])
