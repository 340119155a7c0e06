"""Exact positive values of the form prod_p p^(e_p) with rational exponents.

The subgroup supremum on finite groups produces values like
(|H| m) / prod_j (|H_j| m_j)^(1/p_j): products of positive rationals raised to
rational powers.  Stored as a prime -> exponent map these multiply, divide and
power exactly, and two values compare exactly: the sign of
sum_p n_p log p (n_p integers, not all zero) is the sign of
prod_{n_p>0} p^{n_p} - prod_{n_p<0} p^{-n_p}, a pure integer comparison.
"""

from __future__ import annotations

import functools
import math
from decimal import Context, Decimal
from fractions import Fraction
from typing import Dict, Union

from .intmat import clear_denominators

Rationalish = Union[int, Fraction, "ExactValue"]


def _factor(n: int) -> Dict[int, int]:
    if n <= 0:
        raise ValueError("only positive integers factor here")
    out: Dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@functools.lru_cache(maxsize=256)
def _ln(p: int, digits: int) -> Decimal:
    return Context(prec=digits).ln(p)


def _nearest_double(exp: Dict[int, Fraction]) -> float:
    """The double nearest to x = prod_p p^(e_p), for a product that is not
    rational.  x = exp(sum_p e_p ln p) is computed in decimal, first to 20
    digits beyond its error bound.  When both ends of the interval that
    bound leaves round to the same double, so does x; x is never a rounding
    boundary, so more digits always settle it."""
    # Each rounded operation errs by at most u = 5 * 10^-digits relative.
    # Each term e_p ln p takes three of them and the sum m more, so the sum
    # errs by at most (m + 3) u sum|e_p ln p|, and its exp by that plus u.
    # The slack is ten times that bound, rounded up to a power of ten.
    size = sum(abs(float(e) * math.log(p)) for p, e in exp.items())
    spread = math.ceil(math.log10(10 * (len(exp) + 3) * (size + 1) * 5))
    digits = spread + 20
    while True:
        ctx = Context(prec=digits)
        s = Decimal(0)
        for p, e in exp.items():
            s = ctx.add(s, ctx.divide(ctx.multiply(e.numerator, _ln(p, digits)),
                                      e.denominator))
        y = ctx.exp(s)
        slack = ctx.scaleb(y, spread - digits)
        lo, hi = float(ctx.subtract(y, slack)), float(ctx.add(y, slack))
        if lo == hi:
            if math.isinf(lo):
                raise OverflowError("exact value too large to convert to float")
            return lo
        digits += 20


class ExactValue:
    """A positive real number represented exactly as a product of rational
    powers of primes.  Immutable."""

    __slots__ = ("_exp", "_float")

    def __init__(self, exponents: Dict[int, Fraction] | None = None):
        self._exp = {p: e for p, e in (exponents or {}).items() if e != 0}
        self._float = None   # the nearest double, once asked for

    @classmethod
    def one(cls) -> "ExactValue":
        return _ONE

    @classmethod
    def of(cls, q: Rationalish) -> "ExactValue":
        if isinstance(q, ExactValue):
            return q
        q = Fraction(q)
        if q <= 0:
            raise ValueError("ExactValue is for positive numbers")
        if q == 1:
            return _ONE
        exp: Dict[int, Fraction] = {}
        for p, e in _factor(q.numerator).items():
            exp[p] = exp.get(p, Fraction(0)) + e
        for p, e in _factor(q.denominator).items():
            exp[p] = exp.get(p, Fraction(0)) - e
        return cls(exp)

    def __mul__(self, other: Rationalish) -> "ExactValue":
        other = ExactValue.of(other)
        if not other._exp:
            return self
        if not self._exp:
            return other
        exp = dict(self._exp)
        for p, e in other._exp.items():
            exp[p] = exp.get(p, Fraction(0)) + e
        return ExactValue(exp)

    __rmul__ = __mul__

    def __truediv__(self, other: Rationalish) -> "ExactValue":
        other = ExactValue.of(other)
        if not other._exp:
            return self
        exp = dict(self._exp)
        for p, e in other._exp.items():
            exp[p] = exp.get(p, Fraction(0)) - e
        return ExactValue(exp)

    def __pow__(self, k) -> "ExactValue":
        if not self._exp:
            return self
        k = Fraction(k)
        return ExactValue({p: e * k for p, e in self._exp.items()})

    def is_rational(self) -> bool:
        return all(e.denominator == 1 for e in self._exp.values())

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        out = Fraction(1)
        for p, e in self._exp.items():
            out *= Fraction(p) ** int(e)
        return out

    def __float__(self) -> float:
        """The nearest double."""
        if self._float is None:
            self._float = (float(self.as_fraction()) if self.is_rational()
                           else _nearest_double(self._exp))
        return self._float

    def _cmp(self, other: Rationalish) -> int:
        other = ExactValue.of(other)
        diff: Dict[int, Fraction] = dict(self._exp)
        for p, e in other._exp.items():
            diff[p] = diff.get(p, Fraction(0)) - e
        diff = {p: e for p, e in diff.items() if e != 0}
        if not diff:
            return 0
        pos = neg = 1
        for p, n in zip(diff, clear_denominators(list(diff.values()))):
            if n > 0:
                pos *= p**n
            else:
                neg *= p**(-n)
        return (pos > neg) - (pos < neg)

    def __eq__(self, other) -> bool:
        try:
            return self._cmp(other) == 0
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash(tuple(sorted(self._exp.items())))

    def __str__(self) -> str:
        if not self._exp:
            return "1"
        parts = []
        for p in sorted(self._exp):
            e = self._exp[p]
            parts.append(str(p) if e == 1 else f"{p}^({e})")
        return " * ".join(parts)

    def __repr__(self) -> str:
        return f"ExactValue({self})"


# Values are immutable, so every unit, and every product or quotient by one,
# shares this instance or its other operand instead of allocating a copy.
_ONE = ExactValue()
