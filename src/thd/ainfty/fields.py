"""Exact coefficient fields: rationals and prime fields.

A field is one number type: ``Fraction`` over Q, and over F_p an ``int``
reduced into ``[0, p)``, so a value is nonzero exactly when it is truthy.
``field.of`` reads an int, a ``Fraction`` or a string ``"p/q"`` into the
field; ``p`` is the characteristic, 0 for Q, and code that adds or
multiplies values over F_p reduces the result ``% p`` itself.  Floating
point is never used; every rank computation stays exact.
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


def _fraction(value) -> Fraction:
    """``value`` as a ``Fraction``; a zero denominator is a ``ValueError`` that names it."""
    if not isinstance(value, (int, Fraction, str)):
        raise TypeError(f"cannot read {value!r} as a coefficient")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {value!r} has a zero denominator") from None


class Rationals:
    """The field of rationals, with ``fractions.Fraction`` elements."""

    name = "Q"
    p = 0

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value) -> Fraction:
        return value if type(value) is Fraction else _fraction(value)

    def __repr__(self) -> str:
        return "Q"

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("Q")


class PrimeField:
    """The field with ``p`` elements, as ints in ``[0, p)``; a modulus that is not prime is refused."""

    zero, one = 0, 1

    def __init__(self, p: int = DEFAULT_PRIME):
        if not is_prime(p):
            raise PreconditionViolation(f"field order {p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def of(self, value) -> int:
        if type(value) is int:
            return value % self.p
        q = _fraction(value)
        if q.denominator % self.p == 0:
            raise ValueError(f"coefficient {value!r} has a denominator divisible by {self.p}")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

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
