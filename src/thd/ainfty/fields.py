"""Exact coefficient fields: rationals and prime fields.

Field elements support ``+ - * /``, equality and truthiness (nonzero).
Floating point is never used; every rank computation stays exact.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import PreconditionViolation

DEFAULT_PRIME = 32003

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin over the first 13 primes: exact below 3.3 * 10^24 (Sorenson
    and Webster, 2017), a strong probable-prime test above."""
    if n < 2 or any(n % q == 0 for q in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


class Rationals:
    """The field of rationals, with ``fractions.Fraction`` elements."""

    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def __repr__(self) -> str:
        return "Q"

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("Q")


class GFElement:
    """An element of a prime field, reduced representative in ``[0, p)``."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other) -> "GFElement":
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        return GFElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return GFElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        return self._lift(other).__sub__(self)

    def __mul__(self, other):
        other = self._lift(other)
        return GFElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return GFElement(self.value * pow(other.value, -1, self.p), self.p)

    def __rtruediv__(self, other):
        return self._lift(other).__truediv__(self)

    def __neg__(self):
        return GFElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value}"


class PrimeField:
    """The field with ``p`` elements; a modulus that is not prime is refused."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if not is_prime(p):
            raise PreconditionViolation(f"field order {p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = GFElement(0, p)
        self.one = GFElement(1, p)

    def of(self, value) -> GFElement:
        if isinstance(value, GFElement):
            if value.p != self.p:
                raise ValueError("mixed prime fields")
            return value
        if isinstance(value, int):
            return GFElement(value, self.p)
        if isinstance(value, Fraction):
            return GFElement(value.numerator, self.p) / GFElement(value.denominator, self.p)
        if isinstance(value, str):
            return self.of(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("F", self.p))


QQ = Rationals()


def field_by_name(name: str):
    """Parse ``"Q"`` or ``"F <p>"``/``"F<p>"`` into a field object."""
    token = name.strip()
    if token in ("Q", "QQ", "rational", "rationals"):
        return QQ
    if token.startswith("F"):
        rest = token[1:].strip()
        return PrimeField(int(rest)) if rest else PrimeField()
    raise ValueError(f"unknown field {name!r}")
