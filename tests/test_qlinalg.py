"""Exact linear algebra: nullspace vectors in reduced-echelon normal form,
rank-nullity, independence from row order, and the inverse, on small
rational matrices including empty, zero, wide and tall ones; the
incremental common kernel against a stacked solve, independent of the
order of the operators, and its early exit."""

import pytest
from hypothesis import given, strategies as st

from toralg.linear import LinComb, add_into
from toralg.qlinalg import invert, kernel, nullspace, rank
from toralg.scalar import Q

from qmatrices import identity, mat_mul

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


# -- common kernel ------------------------------------------------------------

def linear_op(images):
    """The linear map sending basis symbol b to images[b] (0 if absent)."""
    def op(state):
        out = {}
        for b, c in state.items():
            if b in images:
                add_into(out, images[b], c)
        return LinComb(out)
    return op


def stacked_kernel(basis, ops):
    """The reference: one nullspace of all images stacked, a row per
    (operator index, image term)."""
    rows = {}
    for oi, op in enumerate(ops):
        for j, b in enumerate(basis):
            for term, c in op(LinComb.single(b)).items():
                rows.setdefault((oi, term), [Q(0)] * len(basis))[j] = c
    return [LinComb({basis[i]: c for i, c in enumerate(vec) if c != 0})
            for vec in nullspace(list(rows.values()), cols=len(basis))]


# few image terms, so that images of different basis states share terms
image_terms = st.sampled_from(["x", "y", "z"])


@st.composite
def operator_sets(draw):
    basis = [f"b{i}" for i in range(draw(st.integers(0, 5)))]
    ops = []
    for _ in range(draw(st.integers(0, 4))):
        images = {}
        for b in basis:
            terms = draw(st.lists(st.tuples(image_terms, entries), max_size=3))
            images[b] = LinComb(terms)
        ops.append(images)
    return basis, ops


@given(operator_sets(), st.randoms(use_true_random=False))
def test_kernel_is_the_stacked_kernel(bo, rng):
    basis, images = bo
    ops = [linear_op(im) for im in images]
    ref = stacked_kernel(basis, ops)
    assert kernel(basis, ops) == ref
    rng.shuffle(ops)
    assert kernel(basis, ops) == ref


def test_kernel_of_no_operator_is_the_whole_span():
    basis = ["a", "b", "c"]
    assert kernel(basis, []) == [LinComb.single(b) for b in basis]
    zero = linear_op({})
    assert kernel(basis, [zero, zero]) == [LinComb.single(b) for b in basis]
    assert kernel([], [zero]) == []


def planted_raise(state):
    raise AssertionError("operator applied after the kernel was empty")


def test_kernel_stops_once_empty():
    basis = ["a", "b", "c"]
    injective = linear_op({"a": LinComb.single("x"),
                           "b": LinComb([("x", 1), ("y", 1)]),
                           "c": LinComb.single("z", 2)})
    assert kernel(basis, [injective, planted_raise]) == []
    with pytest.raises(AssertionError):
        kernel(basis, [planted_raise, injective])


def test_later_operator_shrinks_the_kernel():
    basis = ["a", "b", "c", "d"]
    # the first kills a - b and c, the second then kills only c
    first = linear_op({"a": LinComb.single("x"), "b": LinComb.single("x"),
                       "d": LinComb.single("y")})
    second = linear_op({"a": LinComb.single("z"), "b": LinComb.single("z", 2)})
    assert kernel(basis, [first]) == [LinComb([("a", -1), ("b", 1)]),
                                      LinComb.single("c")]
    ops = [first, second]
    assert kernel(basis, ops) == [LinComb.single("c")]
    assert kernel(basis, ops) == stacked_kernel(basis, ops)
