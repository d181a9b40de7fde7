import random

import pytest

from toralg.lie_table import load_table
from toralg.linear import LinComb
from toralg.scalar import Q
from toralg.toroidal import (
    AlgebraParams,
    TorElement,
    bracket,
    divergence,
    dsym,
    gdiv_decompose,
    gdiv_spanning,
    gsym,
    invariant_form,
    ksym,
    kreduce,
    spanning_element,
)

SL2 = load_table("sl2")
E, H, F = 0, 1, 2


def params(N=2, mu=0, c=1, table=SL2):
    return AlgebraParams(N=N, table=table, mu=mu, c=c)


def one(p, sym, coeff=1):
    return TorElement.of(p, sym, coeff)


def test_cur_der_bracket():
    # [t^(1,0,2) d_1, t^(0,3,1) e] = 3 t^(1,3,3) e
    p = params()
    x = one(p, dsym((1, 0, 2), 1))
    y = one(p, gsym((0, 3, 1), E))
    assert bracket(x, y) == one(p, gsym((1, 3, 3), E), 3)


def test_kassel_term():
    # [t_0 e, t_0^-1 f] = h + k_0 at degree 0
    p = params(N=1)
    x = one(p, gsym((1, 0), E))
    y = one(p, gsym((-1, 0), F))
    out = bracket(x, y)
    want = TorElement(LinComb([(gsym((0, 0), H), Q(1)), (ksym((0, 0), 0), Q(1))]), p)
    assert out == want


def test_kreduce_pivot_elimination():
    p = params(N=1)
    # at degree (1,0) the relation is k_0 = 0
    assert one(p, ksym((1, 0), 0), 2).is_zero()
    # at degree (1,1): k_0 + k_1 = 0, pivot is k_1
    assert one(p, ksym((1, 1), 1)) == one(p, ksym((1, 1), 0), -1)
    # non-pivot representative is stable, and reduction is idempotent
    x = one(p, ksym((1, 1), 0))
    assert kreduce(x.lc) == x.lc
    lc = LinComb.single(ksym((2, 3), 1), Q(5))
    assert kreduce(kreduce(lc)) == kreduce(lc)


def test_der_der_bracket_with_cocycle():
    # [t_1 d_0, t_0 t_1^-1 d_1] = t_0 d_1 - t_0 d_0 - mu t_0 k_1 (N=1)
    for mu in (0, 1, Q(1, 2)):
        p = params(N=1, mu=mu)
        x = one(p, dsym((0, 1), 0))
        y = one(p, dsym((1, -1), 1))
        out = bracket(x, y)
        want = TorElement(LinComb([
            (dsym((1, 0), 1), Q(1)),
            (dsym((1, 0), 0), Q(-1)),
            (ksym((1, 0), 1), -Q(mu)),
        ]), p)
        assert out == want


def test_divergence():
    p = params(N=1)
    x = TorElement(LinComb([(dsym((1, 2), 1), Q(1)), (dsym((1, 2), 0), Q(-2))]), p)
    assert not divergence(x)
    y = one(p, dsym((0, 1), 1))
    assert divergence(y) == {(0, 1): Q(1)}


def test_invariant_form_values():
    p = params(N=1)
    x = TorElement(LinComb([(dsym((1, 2), 1), Q(1)), (dsym((1, 2), 0), Q(-2))]), p)
    k1 = one(p, ksym((-1, -2), 1))
    k0 = one(p, ksym((-1, -2), 0))
    assert invariant_form(x, k1) == 1
    assert invariant_form(x, k0) == -2
    assert invariant_form(k1, x) == 1  # symmetric
    e = one(p, gsym((2, -1), E))
    f = one(p, gsym((-2, 1), F))
    assert invariant_form(e, f) == 1
    assert invariant_form(e, e) == 0
    with pytest.raises(ValueError):
        invariant_form(one(p, dsym((0, 1), 1)), k1)


def test_dhat_expansion():
    # j=1, r=(1,0), N=2, mu=c=1: coefficient on k_0 is mu(j+1/2)+(N-1+mu c)/(2cN) = 2
    p = params(N=2, mu=1, c=1)
    el = spanning_element(p, ("dhat", 1, (1, 0), 1))
    s = (1, 1, 0)
    want = TorElement(LinComb([
        (dsym(s, 0), Q(-1)),
        (dsym(s, 1), Q(1)),
        (ksym(s, 0), Q(2)),
    ]), p)
    assert el == want


def test_spanning_all_divergence_free_and_brackets_close():
    p = params(N=2, mu=1, c=1)
    span = gdiv_spanning(p, 1, 1)
    assert all(not divergence(s.element) for s in span)
    rng = random.Random(7)
    for _ in range(40):
        x, y = rng.sample(span, 2)
        out = bracket(x.element, y.element)
        assert not divergence(out)
        gdiv_decompose(out, p)  # must not raise


@pytest.mark.parametrize("mu", [0, 1, Q(1, 2)])
def test_antisymmetry_and_jacobi_sampled(mu):
    p = params(N=2, mu=mu, c=1)
    span = gdiv_spanning(p, 2, 1)
    rng = random.Random(20240915)
    zero = TorElement.zero(p)
    for _ in range(60):
        x, y, z = (rng.choice(span).element for _ in range(3))
        assert bracket(x, y) + bracket(y, x) == zero
        jac = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
        assert jac == zero


@pytest.mark.parametrize("mu", [0, Q(1, 2)])
def test_form_symmetric_and_invariant_sampled(mu):
    p = params(N=2, mu=mu, c=1)
    span = gdiv_spanning(p, 2, 1)
    rng = random.Random(99)
    for _ in range(60):
        x, y, z = (rng.choice(span).element for _ in range(3))
        assert invariant_form(x, y) == invariant_form(y, x)
        assert invariant_form(bracket(x, y), z) == invariant_form(x, bracket(y, z))


def test_decompose_roundtrip():
    p = params(N=2, mu=1, c=1)
    span = gdiv_spanning(p, 2, 1)
    rng = random.Random(3)
    for _ in range(25):
        combo = TorElement.zero(p)
        for _ in range(4):
            combo = combo + rng.choice(span).element.scale(Q(rng.randint(-3, 3), rng.randint(1, 3)))
        rebuilt = TorElement.zero(p)
        for coeff, key in gdiv_decompose(combo, p):
            rebuilt = rebuilt + spanning_element(p, key).scale(coeff)
        assert rebuilt == combo


def test_decompose_rejects_bad_elements():
    p = params(N=1)
    with pytest.raises(ValueError):
        gdiv_decompose(one(p, dsym((0, 1), 1)), p)
