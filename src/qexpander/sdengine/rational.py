"""Exact rational functions in one indeterminate N.

Polynomials are tuples of Fractions in ascending degree with no trailing
zeros. A RationalInN is stored reduced: numerator and denominator coprime
and the denominator monic, so equality is plain field comparison. The
canonical text form clears coefficient denominators to print integer
polynomials p(N)/q(N).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

Poly = tuple[Fraction, ...]

_ZERO: Poly = ()
_ONE: Poly = (Fraction(1),)


def _trim(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _trim(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    )


def _pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)

def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return _ZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _pdivmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b) and _trim(r):
        shift = len(r) - len(b)
        c = r[-1] / lead
        q[shift] = c
        for i, cb in enumerate(b):
            r[shift + i] -= c * cb
        del r[-1]
    return _trim(q), _trim(r)


def _pmonic(a: Poly) -> Poly:
    if not a:
        return a
    lead = a[-1]
    return tuple(c / lead for c in a)


def _pgcd(a: Poly, b: Poly) -> Poly:
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, _pmonic(r)
    return _pmonic(a)


def _peval(a: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class RationalInN:
    """num(N)/den(N), reduced, denominator monic and nonzero."""

    num: Poly
    den: Poly

    @staticmethod
    def from_fraction(value) -> "RationalInN":
        f = Fraction(value)
        return RationalInN._make(_trim((f,)), _ONE)

    @staticmethod
    def from_int(value: int) -> "RationalInN":
        return RationalInN.from_fraction(value)

    @staticmethod
    def n_power(k: int) -> "RationalInN":
        """N^k for any integer k, negative powers included."""
        mono: Poly = tuple([Fraction(0)] * abs(k) + [Fraction(1)])
        if k >= 0:
            return RationalInN._make(mono, _ONE)
        return RationalInN._make(_ONE, mono)

    @staticmethod
    def _make(num: Poly, den: Poly) -> "RationalInN":
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            return RationalInN(num=_ZERO, den=_ONE)
        g = _pgcd(num, den)
        if len(g) > 1 or (g and g[0] != 1):
            num, _ = _pdivmod(num, g)
            den, _ = _pdivmod(den, g)
        lead = den[-1]
        num = tuple(c / lead for c in num)
        den = tuple(c / lead for c in den)
        return RationalInN(num=num, den=den)

    # -- field operations ---------------------------------------------------

    def __add__(self, other: "RationalInN") -> "RationalInN":
        return RationalInN._make(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __sub__(self, other: "RationalInN") -> "RationalInN":
        return self + (-other)

    def __neg__(self) -> "RationalInN":
        return RationalInN(num=_pneg(self.num), den=self.den)

    def __mul__(self, other: "RationalInN") -> "RationalInN":
        return RationalInN._make(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __truediv__(self, other: "RationalInN") -> "RationalInN":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalInN._make(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def is_zero(self) -> bool:
        return not self.num

    def evaluate(self, n) -> Fraction:
        x = Fraction(n)
        d = _peval(self.den, x)
        if d == 0:
            raise ZeroDivisionError(f"pole at N={n}")
        return _peval(self.num, x) / d

    # -- canonical text form ------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        scale = 1
        for c in (*self.num, *self.den):
            scale = scale * c.denominator // gcd(scale, c.denominator)
        num_i = [int(c * scale) for c in self.num]
        den_i = [int(c * scale) for c in self.den]
        content = 0
        for c in (*num_i, *den_i):
            content = gcd(content, c)
        num_i = [c // content for c in num_i]
        den_i = [c // content for c in den_i]
        if den_i[-1] < 0:
            num_i = [-c for c in num_i]
            den_i = [-c for c in den_i]
        num_s = _format_int_poly(num_i)
        if den_i == [1]:
            return num_s
        den_s = _format_int_poly(den_i)
        if len([c for c in num_i if c != 0]) > 1:
            num_s = f"({num_s})"
        if len([c for c in den_i if c != 0]) > 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"


def _format_int_poly(coeffs: list[int]) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            base = "N" if k == 1 else f"N^{k}"
            body = base if mag == 1 else f"{mag}*{base}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(terms) if terms else "0"


RAT_ZERO = RationalInN.from_int(0)
RAT_ONE = RationalInN.from_int(1)
