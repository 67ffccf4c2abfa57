"""Exact rational functions in one indeterminate N.

Polynomials are tuples of Fractions in ascending degree with no trailing
zeros. A RationalInN is stored reduced: numerator and denominator coprime
and the denominator monic, so equality is plain field comparison. The
canonical text form clears coefficient denominators to print integer
polynomials p(N)/q(N).

`_interpolate` rebuilds a rational function from its exact values at
integer points, by Cauchy interpolation (von zur Gathen and Gerhard,
Modern Computer Algebra, 3rd ed., 2013, section 5.8).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

from ..errors import NumericalError

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


def _cauchy(xs: list[int], ys: list[Fraction]) -> tuple[Poly, Poly]:
    """The r/t of least deg r + deg t with r(x) = y t(x) and t(x) != 0 at
    every data point, among the rows of the extended Euclidean algorithm
    on prod(N - x) and the interpolating polynomial. Any rational function
    of degree sum below len(xs) that fits the data is one of those rows
    (von zur Gathen and Gerhard, Theorem 5.16)."""
    # Newton divided differences, expanded into the monomial basis
    coef = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    g = _ZERO
    for x, c in zip(reversed(xs), reversed(coef)):
        g = _padd(_pmul(g, (Fraction(-x), Fraction(1))), _trim((c,)))
    m = _ONE
    for x in xs:
        m = _pmul(m, (Fraction(-x), Fraction(1)))
    best = (g, _ONE)
    r0, r1, t0, t1 = m, g, _ZERO, _ONE
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _padd(t0, _pneg(_pmul(q, t1)))
        if r1 and len(r1) + len(t1) < len(best[0]) + len(best[1]):
            if all(_peval(t1, Fraction(x)) for x in xs):
                best = (r1, t1)
    return best


FAR_POINT = 10**6 + 3  # a second check far from the data points
MAX_POINTS = 40  # data points one interpolant may use


def _interpolate(value_at: Callable[[int], Fraction], start: int) -> "RationalInN":
    """The rational function whose values at N = start, start + 1, ...
    `value_at` returns. The Cauchy interpolant of the first n values is
    accepted once it reproduces the value at the next point and at
    FAR_POINT; otherwise that next point joins the data. Past MAX_POINTS
    data points it raises NumericalError."""
    xs = [start]
    ys = [Fraction(value_at(start))]
    far = None
    while True:
        num, den = _cauchy(xs, ys)
        x = xs[-1] + 1
        y = Fraction(value_at(x))
        if _fits(num, den, x, y):
            if far is None:
                far = Fraction(value_at(FAR_POINT))
            if _fits(num, den, FAR_POINT, far):
                return RationalInN._make(num, den)
        if len(xs) == MAX_POINTS:
            raise NumericalError(
                f"no rational function of N interpolating {MAX_POINTS} solved points "
                f"(N = {start}..{x - 1}) reproduces the next point and N = {FAR_POINT}"
            )
        xs.append(x)
        ys.append(y)


def _fits(num: Poly, den: Poly, x: int, y: Fraction) -> bool:
    d = _peval(den, Fraction(x))
    return d != 0 and _peval(num, Fraction(x)) == y * d


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
