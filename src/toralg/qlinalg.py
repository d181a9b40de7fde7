"""Small exact linear algebra over Q: inverse, nullspace, and the
common kernel of several operators, intersected one operator at a time
with an early exit once it is empty. Matrices are lists of lists of
rationals; elimination runs on sparse rows (dicts column -> nonzero),
since the raising matrices of the singular scans are a few percent
dense.
"""

from __future__ import annotations

from .linear import LinComb
from .scalar import ZERO, ONE


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
    the span of basis, as LinCombs over basis, built one operator at a
    time: each operator is applied only to the kernel of the ones
    before it, and the nullspace of its images (a row per image term, a
    column per kernel vector) gives the new kernel. An operator whose
    images all vanish leaves the kernel as it is; the loop stops once
    the kernel is empty.

    Sound because each partial kernel contains the full one, so an
    empty partial kernel proves the full kernel empty, and after the
    last operator the partial kernel is the full one.

    The result is the basis the stacked solve of all operators gives:
    the reduced echelon form of the kernel with the columns read right
    to left, one vector per free column, 1 there and 0 at the other
    free columns. The unit vectors start in that form, and each step
    keeps it because each nullspace vector is in that form over the
    kernel vectors it combines. The form is unique to the subspace, so
    neither the path taken nor the order of ops changes the result."""
    vecs = [{i: ONE} for i in range(len(basis))]
    for op in ops:
        if not vecs:
            break
        rows = {}
        for k, vec in enumerate(vecs):
            image = op(LinComb({basis[i]: c for i, c in vec.items()}))
            for term, c in image.items():
                row = rows.get(term)
                if row is None:
                    row = rows[term] = [ZERO] * len(vecs)
                row[k] = c
        if rows:
            vecs = [_combine(vecs, y)
                    for y in nullspace(list(rows.values()), cols=len(vecs))]
    return [LinComb({basis[i]: c for i, c in sorted(vec.items())})
            for vec in vecs]


def _combine(vecs, coeffs):
    """sum_k coeffs[k] vecs[k] over sparse vectors, dropping the zeros."""
    out = {}
    for vec, f in zip(vecs, coeffs):
        if f:
            _subtract(out, -f, vec)
    return out


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
