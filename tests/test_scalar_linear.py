from fractions import Fraction

from hypothesis import given, strategies as st

from toralg.linear import LinComb, add_into
from toralg.scalar import Q, binom, parse_q, qstr

from shifted_fields import falling


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


@given(st.integers(-30, 30), st.integers(0, 10))
def test_int_binom_is_the_rational_product(t, k):
    # the int path floor-divides; k! divides k consecutive integers
    want = Fraction(1)
    for i in range(k):
        want = want * (t - i) / (i + 1)
    got = binom(t, k)
    assert type(got) is int
    assert got == want
    assert binom(Q(t), k) == want


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
    assert x.scale(1) is x
    assert x.scale(Q(1)) is x


# a value of the backend rational type, an int, and a value of any other
# type (bool and an int subclass included), which goes through Q()
RAT_TYPE = type(Q(0))


class Tagged(int):
    pass


def test_single_and_scale_keep_exact_coefficients():
    q, n = Q(2, 3), 5
    for c in (q, n):
        assert LinComb.single("s", c).coeff("s") is c
        assert type(LinComb.single("s", 1).scale(c).coeff("s")) is type(c)
    assert type(LinComb.single("s").coeff("s")) is int
    for c, want in ((True, 1), (Tagged(4), 4)):
        got = LinComb.single("s", c).coeff("s")
        assert type(got) is RAT_TYPE and got == want, c
    # scale wraps the same way (by a value equal to 1, True included,
    # it returns self instead)
    got = LinComb.single("s", 1).scale(Tagged(4)).coeff("s")
    assert type(got) is RAT_TYPE and got == 4
    # a float goes through Q() too: Fraction refuses it, and a backend
    # that takes it must return its rational type, never the float
    for make in (lambda: LinComb.single("s", 0.5),
                 lambda: LinComb.single("s", 1).scale(0.5)):
        try:
            got = make().coeff("s")
        except TypeError:
            continue
        assert type(got) is RAT_TYPE and got == Q(1, 2)


def test_int_and_integral_rational_are_one_value():
    # represent() caches operators by x.lc, so a combination must equal
    # and hash the same whichever exact type holds an integral value
    a = LinComb([("a", 2), ("b", Q(1, 2))])
    b = LinComb([("a", Q(2)), ("b", Q(1, 2))])
    assert type(a.coeff("a")) is int and type(b.coeff("a")) is RAT_TYPE
    assert a == b and hash(a) == hash(b)
    assert {a: "op"}[b] == "op"


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
