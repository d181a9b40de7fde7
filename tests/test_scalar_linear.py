from hypothesis import given, strategies as st

from toralg.linear import LinComb, add_into
from toralg.scalar import Q, binom, falling, parse_q, qstr


def test_rational_basics():
    assert Q(2, 4) == Q(1, 2)
    assert qstr(Q(-6, 4)) == "-3/2"
    assert qstr(Q(8, 4)) == "2"
    assert parse_q("-3/2") == Q(-3, 2)
    assert parse_q("7") == Q(7)


def test_binom_negative_top():
    # binom(-1, k) = (-1)^k
    assert [binom(-1, k) for k in range(4)] == [1, -1, 1, -1]
    assert binom(Q(-3), 2) == Q(6)
    assert binom(5, 7) == 0
    assert falling(4, 2) == 12
    assert falling(-2, 3) == -24


def test_lincomb_cancellation():
    x = LinComb([("a", Q(1)), ("b", Q(2))])
    y = LinComb([("a", Q(-1)), ("b", Q(1))])
    z = x + y
    assert z.coeff("a") == 0
    assert "a" not in z.terms
    assert z.coeff("b") == 3
    assert (z - z).is_zero()


def test_lincomb_single_and_scale():
    x = LinComb.single("s", Q(1, 3))
    assert x.scale(3) == LinComb.single("s")
    assert x.scale(0).is_zero()
    assert LinComb.single("s", 0).is_zero()


syms = st.sampled_from(["a", "b", "c", "d"])
coeffs = st.integers(-9, 9).map(lambda n: Q(n, 3))
combos = st.lists(st.tuples(syms, coeffs), max_size=6).map(LinComb)


@given(combos, combos, combos)
def test_lincomb_module_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x - x).is_zero()
    assert (x + y).scale(5) == x.scale(5) + y.scale(5)
    assert x.scale(Q(1, 2)).scale(2) == x


@given(combos)
def test_lincomb_canonical_no_zeros(x):
    assert all(c != 0 for c in x.terms.values())


scalars = st.one_of(st.sampled_from([Q(0), Q(1), 1]), coeffs)


@given(combos, combos, scalars, st.booleans())
def test_add_into_is_the_copying_sum(x, y, c, cancel):
    if cancel:
        y = x.scale(-c)  # the sum cancels to zero
    d = dict(y.terms)
    before = dict(x.terms)
    add_into(d, x, c)
    assert LinComb(d) == y + x.scale(c)
    assert all(v != 0 for v in d.values())
    assert x.terms == before
    if cancel:
        assert d == {}
