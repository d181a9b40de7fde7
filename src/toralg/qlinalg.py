"""Small exact linear algebra over Q: inverse, nullspace, and the
kernel of stacked operators. Matrices are lists of lists of rationals;
elimination runs on sparse rows (dicts column -> nonzero), since the
stacked raising matrices of the singular scans are a few percent dense.
"""

from __future__ import annotations

from .linear import LinComb
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


def _sparse(row):
    return {j: x for j, x in enumerate(row) if x != 0}


def _subtract(row, f, other):
    """row -= f * other in place, dropping the zeros."""
    for c, x in other.items():
        y = row.get(c, ZERO) - f * x
        if y:
            row[c] = y
        else:
            del row[c]


def _reduce(rows, ncols):
    """Sparse Gauss-Jordan elimination: {pivot column: row}, each row 1
    at its pivot and 0 at the other pivots. A new pivot is the leftmost
    column of a vector in the row space, so these are the rows of the
    reduced row echelon form, whatever the input order. Stops once
    every column is a pivot."""
    pivots = {}
    for row in rows:
        for pc in [c for c in row if c in pivots]:
            _subtract(row, row[pc], pivots[pc])
        if not row:
            continue
        p = min(row)
        inv = ONE / row[p]
        row = {c: x * inv for c, x in row.items()}
        for prow in pivots.values():
            if p in prow:
                _subtract(prow, prow[p], row)
        pivots[p] = row
        if len(pivots) == ncols:
            break
    return pivots


def nullspace(mat, cols=None):
    """Basis of the right kernel as a list of column vectors: one per
    free column of the reduced echelon form, 1 there, 0 at the others."""
    n = len(mat[0]) if mat else (cols or 0)
    red = _reduce(map(_sparse, mat), n)
    basis = []
    for fc in range(n):
        if fc not in red:
            v = [ZERO] * n
            v[fc] = ONE
            for pc, row in red.items():
                if fc in row:
                    v[pc] = -row[fc]
            basis.append(v)
    return basis


def kernel(basis, ops):
    """Common kernel of the operators ops (each LinComb -> LinComb) on
    the span of basis, as LinCombs over basis. The stacked matrix has
    one row per (operator index, image term)."""
    rows = {}
    for oi, op in enumerate(ops):
        for j, b in enumerate(basis):
            for term, c in op(LinComb.single(b)).items():
                row = rows.get((oi, term))
                if row is None:
                    row = rows[(oi, term)] = [ZERO] * len(basis)
                row[j] = c
    return [LinComb({basis[i]: c for i, c in enumerate(vec) if c != 0})
            for vec in nullspace(list(rows.values()), cols=len(basis))]


def invert(mat):
    """Exact inverse; raises ValueError on singular input."""
    n = len(mat)
    red = _reduce(({**_sparse(row), n + i: ONE} for i, row in enumerate(mat)),
                  2 * n)
    if any(c not in red for c in range(n)):
        raise ValueError("matrix is singular")
    return [[red[i].get(n + j, ZERO) for j in range(n)] for i in range(n)]


def rank(mat):
    return len(_reduce(map(_sparse, mat), len(mat[0]) if mat else 0))
