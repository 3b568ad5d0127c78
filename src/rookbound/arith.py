"""Exact integer and polynomial arithmetic in the formal variable q.

Python integers are already unbounded, so they serve as the big-integer
type everywhere in this package.  This module adds the two pieces the
rest of the code builds on: a dense integer-coefficient polynomial in q,
and an explicit negative-infinity value so that degree and trailing
degree of the zero polynomial need no numeric sentinel.
"""

from __future__ import annotations

import math
from typing import Iterable, Union


class NegInfinity:
    """Degree/trailing degree of the zero polynomial.

    A singleton that compares below every integer.  Addition with an
    integer is absorbing, which is exactly what degree recursions need.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        if isinstance(other, NegInfinity):
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, (int, NegInfinity)):
            return True
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, (int, NegInfinity)):
            return False
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, NegInfinity):
            return True
        if isinstance(other, int):
            return False
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, NegInfinity)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __repr__(self):
        return "-inf"

    def __hash__(self):
        return hash("NegInfinity")


NEG_INFINITY = NegInfinity()

ExtendedInt = Union[int, NegInfinity]


class IntPolynomial:
    """Polynomial in q with exact integer coefficients.

    Coefficients are stored densely by exponent and normalized so the
    tuple never ends in a zero; the zero polynomial has an empty tuple.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * exponent + (coefficient,))

    @classmethod
    def from_exponent_map(cls, mapping: dict) -> "IntPolynomial":
        if not mapping:
            return cls.zero()
        top = max(int(e) for e in mapping)
        c = [0] * (top + 1)
        for e, a in mapping.items():
            c[int(e)] += int(a)
        return cls(c)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-v for v in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(v * other for v in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = IntPolynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, exponent: int) -> "IntPolynomial":
        """Multiply by q**exponent."""
        if not self.coeffs:
            return self
        return IntPolynomial((0,) * exponent + self.coeffs)

    def coefficient(self, exponent: int) -> int:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def degree(self) -> ExtendedInt:
        if not self.coeffs:
            return NEG_INFINITY
        return len(self.coeffs) - 1

    def trailing_degree(self) -> ExtendedInt:
        """Smallest exponent carrying a nonzero coefficient."""
        for e, v in enumerate(self.coeffs):
            if v:
                return e
        return NEG_INFINITY

    def evaluate(self, x: int) -> int:
        acc = 0
        for v in reversed(self.coeffs):
            acc = acc * x + v
        return acc

    def to_exponent_map(self) -> dict:
        return {e: v for e, v in enumerate(self.coeffs) if v}

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, v in enumerate(self.coeffs):
            if not v:
                continue
            if e == 0:
                parts.append(str(v))
            else:
                power = "q" if e == 1 else f"q^{e}"
                if v == 1:
                    parts.append(power)
                elif v == -1:
                    parts.append(f"-{power}")
                else:
                    parts.append(f"{v}*{power}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"IntPolynomial({self.coeffs!r})"


def binomial(a: int, b: int) -> int:
    if a < 0 or b < 0 or a < b:
        raise ValueError(f"binomial({a},{b}) requires a >= b >= 0")
    return math.comb(a, b)


def catalan(n: int) -> int:
    """n-th Catalan number, binomial(2n, n) / (n + 1), exactly."""
    if n < 0:
        raise ValueError("catalan requires n >= 0")
    top = math.comb(2 * n, n)
    assert top % (n + 1) == 0
    return top // (n + 1)


def q_binomial(a: int, b: int) -> IntPolynomial:
    """Gaussian binomial coefficient as an exact polynomial in q.

    Computed by the product formula
        [a, b] = prod_{i < t} (1 - q^(a-i)) / (1 - q^(i+1)),  t = min(b, a-b),
    one factor at a time: after i + 1 factors the running quotient is
    [a, i+1], so every division is exact and the whole computation stays
    in integer arithmetic.  Evaluating the result at a prime power q
    counts the b-dimensional subspaces of a fixed a-dimensional space
    over the field with q elements.
    """
    if b < 0 or a < b:
        raise ValueError(f"q_binomial({a},{b}) requires a >= b >= 0")
    coeffs = [1]
    for i in range(min(b, a - b)):
        up, down = a - i, i + 1
        coeffs.extend([0] * up)
        for e in range(len(coeffs) - 1, up - 1, -1):  # times 1 - q^up
            coeffs[e] -= coeffs[e - up]
        for e in range(down, len(coeffs)):  # over 1 - q^down
            coeffs[e] += coeffs[e - down]
        assert not any(coeffs[-down:])
        del coeffs[-down:]
    return IntPolynomial(coeffs)


def q_binomial_eval(a: int, b: int, q: int) -> int:
    """Exact integer value of the Gaussian binomial at an integer q >= 2.

    Uses the product formula prod_i (q^a - q^i) / (q^b - q^i); the
    division is checked to be exact.
    """
    if b < 0 or a < b:
        raise ValueError(f"q_binomial_eval({a},{b}) requires a >= b >= 0")
    if q < 2:
        raise ValueError("q_binomial_eval requires q >= 2")
    num = 1
    den = 1
    for i in range(b):
        num *= q**a - q**i
        den *= q**b - q**i
    assert num % den == 0
    return num // den
