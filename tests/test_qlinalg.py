"""Exact linear algebra: nullspace vectors in reduced-echelon normal form,
rank-nullity, independence from row order, and the inverse, on small
rational matrices including empty, zero, wide and tall ones."""

import pytest
from hypothesis import given, strategies as st

from toralg.qlinalg import identity, invert, mat_mul, nullspace, rank
from toralg.scalar import Q

# mostly zeros, so that rank deficiency and empty rows are common
entries = st.one_of(st.just(Q(0)), st.just(Q(0)),
                    st.builds(Q, st.integers(-3, 3), st.integers(1, 3)))


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    mat = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    return mat, cols


@st.composite
def nonsingular(draw, max_n=4):
    """A product L U of triangular factors with nonzero diagonals."""
    n = draw(st.integers(0, max_n))
    nonzero = st.builds(Q, st.integers(1, 3) | st.integers(-3, -1),
                        st.integers(1, 3))
    low = [[draw(nonzero) if i == j else draw(entries) if j < i else Q(0)
            for j in range(n)] for i in range(n)]
    up = [[draw(nonzero) if i == j else draw(entries) if j > i else Q(0)
           for j in range(n)] for i in range(n)]
    return mat_mul(low, up)


def free_column(v):
    return max(i for i, x in enumerate(v) if x != 0)


@given(matrices())
def test_nullspace_vectors_are_reduced_kernel_vectors(mc):
    mat, cols = mc
    vecs = nullspace(mat, cols=cols)
    free = [free_column(v) for v in vecs]
    assert free == sorted(set(free))
    for k, v in enumerate(vecs):
        assert len(v) == cols
        assert mat_mul(mat, [[x] for x in v]) == [[Q(0)] for _ in mat]
        assert [v[fc] for fc in free] == [Q(int(fc == free[k]))
                                          for fc in free]


@given(matrices())
def test_rank_nullity(mc):
    mat, cols = mc
    assert len(nullspace(mat, cols=cols)) == cols - rank(mat)
    assert rank(mat) <= min(len(mat), cols)


@given(matrices(), st.randoms(use_true_random=False))
def test_nullspace_ignores_row_order(mc, rng):
    mat, cols = mc
    shuffled = mat[:]
    rng.shuffle(shuffled)
    assert nullspace(shuffled, cols=cols) == nullspace(mat, cols=cols)


@given(nonsingular())
def test_invert(a):
    assert mat_mul(a, invert(a)) == identity(len(a))


@given(nonsingular(), st.data())
def test_singular_raises(a, data):
    n = len(a)
    if n == 0:
        a = [[Q(0)]]
    else:
        # replace one row by a combination of the others (zero when n = 1)
        i = data.draw(st.integers(0, n - 1))
        coeffs = [data.draw(entries) for _ in range(n)]
        a[i] = [sum((coeffs[k] * a[k][j] for k in range(n) if k != i), Q(0))
                for j in range(n)]
    with pytest.raises(ValueError):
        invert(a)
