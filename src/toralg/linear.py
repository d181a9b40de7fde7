"""Finite linear combinations of hashable symbols over Q.

The canonical form drops zero coefficients eagerly, so equality of
combinations is dict equality and the zero element is the empty dict.
Symbols only need to be hashable; anything used for display or canonical
dumps is sorted by the caller's key.
"""

from __future__ import annotations

from .scalar import Q, ZERO


class LinComb:
    """Immutable-by-convention mapping symbol -> nonzero rational."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            for sym, coeff in terms.items() if isinstance(terms, dict) else terms:
                if coeff == 0:
                    continue
                acc = d.get(sym)
                acc = coeff if acc is None else acc + coeff
                if acc == 0:
                    d.pop(sym, None)
                else:
                    d[sym] = acc
        self.terms = d

    @classmethod
    def single(cls, sym, coeff=1):
        out = cls.__new__(cls)
        c = Q(coeff)
        out.terms = {} if c == 0 else {sym: c}
        return out

    @classmethod
    def zero(cls):
        out = cls.__new__(cls)
        out.terms = {}
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LinComb) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not other.terms:
            return self
        d = dict(self.terms)
        add_into(d, other)
        out = LinComb.__new__(LinComb)
        out.terms = d
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, coeff):
        c = Q(coeff)
        out = LinComb.__new__(LinComb)
        if c == 0:
            out.terms = {}
        else:
            out.terms = {sym: v * c for sym, v in self.terms.items()}
        return out

    def coeff(self, sym):
        return self.terms.get(sym, ZERO)

    def items(self):
        return self.terms.items()

    def sorted_items(self, key=None):
        return sorted(self.terms.items(), key=(lambda kv: key(kv[0])) if key else None)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for sym, coeff in sorted(self.terms.items(), key=lambda kv: repr(kv[0])):
            bits.append(f"{coeff}*{sym}")
        return " + ".join(bits)


def lincomb_add_into(d: dict, sym, coeff):
    """In-place accumulate into a plain dict used as a scratch combination."""
    if coeff == 0:
        return
    acc = d.get(sym)
    acc = coeff if acc is None else acc + coeff
    if acc == 0:
        d.pop(sym, None)
    else:
        d[sym] = acc


def add_into(d: dict, lc: LinComb, coeff=1):
    """d += coeff * lc, in place, by the zero-dropping rule of
    lincomb_add_into; multiplies only when coeff != 1. lc is not
    changed, so LinComb(d) equals the sum of fresh copies.

    Sound only when d is a fresh scratch dict owned by the caller and
    never the terms of a LinComb: VertexSpace._mom_basis and
    VermaModule._apply_basis hand the same cached LinComb to every
    caller, and LinComb.__add__ returns self when the other side is
    zero, so writing into a LinComb's terms would change values that
    other code still holds."""
    if coeff != 0:
        for sym, c in lc.terms.items():
            lincomb_add_into(d, sym, c if coeff == 1 else c * coeff)
