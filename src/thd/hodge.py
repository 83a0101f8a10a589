"""Twisted Hodge numbers of smooth projective hypersurfaces.

For a smooth degree-``d`` hypersurface ``X`` of dimension ``n`` inside
``P^{n+1}``, the twisted Hodge number ``h^{i,j}_p(X)`` is the dimension of
``H^j(X, Omega^i_X(p))``.  The canonical bundle is ``O_X(t)`` with
``t = d - n - 2``.

Only four loci of the ``(n+1) x (n+1)`` table can be nonzero (``_support``): the
lower edge ``j = 0``, the upper edge ``j = n``, the anti-diagonal ``i + j = n`` and
the diagonal ``i = j``.  Each locus has its own exact evaluation:

* anti-diagonal ("middle line"): one coefficient of the Hilbert series
  ``A = (1 + z + ... + z^{d-2})^{n+2}`` of the Jacobian ring of a degree-``d``
  form in ``n + 2`` variables (Griffiths, Ann. of Math. 90, 1969), computed
  once per ``(n, d)``: the first half by the four-term recurrence that
  ``A' (1 - z)(1 - z^q) = N A (1 - q z^{q-1} + (q-1) z^q)`` gives
  (``q = d - 1``, ``N = n + 2``), the second half by the Gorenstein symmetry
  of the Jacobian ring, plus a Kronecker delta at ``p = 0`` on the central
  entry;
* diagonal away from the corners and the center: ``delta_{p,0}``;
* corners: section counts of twists of the structure sheaf, via the Koszul
  resolution on the ambient space and Serre duality;
* edges ``j = 0`` (and ``j = n`` by Serre duality): a loop that peels off
  one exterior power at a time through the restriction of ambient
  differential forms (:func:`pullback_cohomology_dim`, from Bott's table
  for ``P^{n+1}`` alone), and stops as soon as every remaining ambient term
  vanishes.  Closed-form edge expressions that truncate this loop are only
  valid for small twists; the loop is validated against an independent
  Euler-characteristic oracle (:func:`euler_characteristic`) in the tests.

Every evaluation is a loop with no nested call, so the cost of a diamond is
linear in ``n`` for a fixed twist and no dimension fails on recursion depth.
:func:`diamond` fills each locus straight from its evaluation;
:func:`hodge_number` dispatches one cell at a time through the case table
``_hodge``, with the same precedence.

The public functions take a :class:`Hypersurface`, which checks ``n, d >= 1``;
the core below them (``_hodge``, ``_h0``, the cached helpers) takes ``(n, d)``.
Everything is exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .combinatorics import binom
from .errors import PreconditionViolation


@dataclass(frozen=True)
class Hypersurface:
    """A smooth degree-``d`` hypersurface of dimension ``n`` in ``P^{n+1}``.

    ``t = d - n - 2`` is the canonical twist: ``omega_X = O_X(t)``.
    """

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise PreconditionViolation(f"dimension n must be >= 1, got {self.n}")
        if self.d < 1:
            raise PreconditionViolation(f"degree d must be >= 1, got {self.d}")

    @property
    def t(self) -> int:
        return self.d - self.n - 2


def projective_space_hodge(m: int, p: int, i: int, j: int) -> int:
    """Twisted Hodge number ``h^{i,j}_p`` of projective space ``P^m``.

    Bott's table: for ``0 < j < m`` only ``delta_{p,0} delta_{i,j}``
    survives; ``j = 0`` carries the product formula
    ``binom(p-1, i) * binom(p+m-i, m-i)``; ``j = m`` is Serre-dual to
    ``j = 0``.  The diagonal delta applies at the corners too (it wins over
    the product formula, which would return 0 at ``i = j = 0``, ``p = 0``).
    """
    if i < 0 or i > m or j < 0 or j > m:
        return 0
    if i == j and p == 0:
        return 1
    if j == 0:
        return binom(p - 1, i) * binom(p + m - i, m - i)
    if j == m:
        return projective_space_hodge(m, -p, m - i, 0)
    return 0


def structure_sheaf_h0(X: Hypersurface, p: int) -> int:
    """``dim H^0(X, O_X(p))``, from the Koszul resolution on ``P^{n+1}``."""
    return _h0(X.n, X.d, p)


def _h0(n: int, d: int, p: int) -> int:
    return binom(p + n + 1, n + 1) - binom(p - d + n + 1, n + 1)


def _chi_line(m: int, q: int) -> int:
    """``chi(O_{P^m}(q)) = (q+1)(q+2)...(q+m) / m!``, the binomial polynomial.

    Unlike :func:`binom` it does not vanish for ``q < -m``, where it is
    ``(-1)^m binom(-q-1, m)``.
    """
    if q >= 0:
        return math.comb(q + m, m)
    if q >= -m:
        return 0
    return (-1) ** m * math.comb(-q - 1, m)


def _chi_ambient_forms(m: int, i: int, q: int) -> int:
    """Euler characteristic of ``Omega^i_{P^m}(q)``, by the Euler sequence.

    ``0 -> Omega^l(q) -> O(q-l)^binom(m+1, l) -> Omega^{l-1}(q) -> 0``,
    climbed from ``l = 0`` to ``l = i``.
    """
    if i < 0 or i > m:
        return 0
    total = 0
    for l in range(i + 1):
        total = math.comb(m + 1, l) * _chi_line(m, q - l) - total
    return total


@lru_cache(maxsize=None)
def _chi_forms(n: int, d: int, i: int, p: int) -> int:
    """``chi(Omega^i_X(p))`` for ``X`` of dimension ``n`` and degree ``d``.

    Restriction and the conormal sequence give, for ``m = n + 1``,

        chi(Omega^i_X(p)) = chi(Omega^i_P(p)) - chi(Omega^i_P(p-d)) - chi(Omega^{i-1}_X(p-d)).

    Unrolled down to ``i = -1``, with the Euler sequence applied once to each
    second ambient term, the alternating sum telescopes to
    ``chi(Omega^i_P(p))`` minus one line-bundle term per level ``k``:
    ``binom(m+1, i-k) chi(O_P(p - (k+1)d - (i-k)))``.
    """
    if i < 0 or i > n:
        return 0
    m = n + 1
    total = _chi_ambient_forms(m, i, p)
    for k in range(i + 1):
        term = math.comb(m + 1, i - k) * _chi_line(m, p - (k + 1) * d - (i - k))
        total += term if k % 2 else -term
    return total


def euler_characteristic(X: Hypersurface, i: int, p: int) -> int:
    """Exact ``chi(X, Omega^i_X(p))``.

    Computed from additivity along the restriction and conormal-wedge short
    exact sequences, so it is independent of every per-entry Hodge-number
    formula in this module and serves as their cross-check.
    """
    return _chi_forms(X.n, X.d, i, p)


@lru_cache(maxsize=None)
def _jacobian_series(n: int, d: int) -> tuple:
    """Coefficients of ``A = (1 + z + ... + z^{d-2})^{n+2}``; ``()`` for ``d = 1``.

    The Hilbert series of the Jacobian ring of the Fermat form of degree ``d``
    in ``n + 2`` variables.  With ``q = d - 1`` and ``N = n + 2``, the
    logarithmic derivative of ``A = ((1 - z^q) / (1 - z))^N`` gives
    ``A' (1 - z)(1 - z^q) = N A (1 - q z^{q-1} + (q-1) z^q)``.  Its ``z^{k-1}``
    coefficients give ``a_0 = 1`` and, with ``a_j = 0`` for ``j < 0``, exactly
    ``k a_k = (k-1+N) a_{k-1} + (k-q-Nq) a_{k-q} + (N(q-1) - (k-q-1)) a_{k-q-1}``.

    The ring is Gorenstein with socle in degree ``L = N(q-1)``, so its Hilbert
    function is symmetric, ``a_k = a_{L-k}`` (Stanley, Adv. Math. 28, 1978):
    the recurrence runs up to ``L // 2`` and the rest is the mirror image.
    """
    if d == 1:
        return ()
    q, N = d - 1, n + 2
    L = N * (q - 1)
    a = [0] * q + [1]  # q leading zeros stand for a_{-q} .. a_{-1}
    for k in range(1, L // 2 + 1):
        a.append(((k - 1 + N) * a[-1] + (k - q - N * q) * a[-q]
                  + (N * (q - 1) - (k - q - 1)) * a[-q - 1]) // k)
    half = a[q:]
    return tuple(half + half[:L - L // 2][::-1])


@lru_cache(maxsize=None)
def _middle(n: int, d: int, p: int, i: int) -> int:
    """Anti-diagonal entry ``h^{i,n-i}_p`` for ``0 < i < n``.

    The coefficient of ``z^{(i+1)d - n - 2 - p}`` in :func:`_jacobian_series`
    (0 outside its range), plus 1 on the central entry at ``p = 0``.
    """
    series = _jacobian_series(n, d)
    k = (i + 1) * d - n - 2 - p
    total = series[k] if 0 <= k < len(series) else 0
    if p == 0 and i == n - i:
        total += 1
    return total


def pullback_cohomology_dim(X: Hypersurface, p: int, i: int, j: int) -> int:
    """``dim H^j(X, f^* Omega^i_{P^{n+1}}(p))``, from Bott's table alone.

    On ``P = P^m``, ``m = n + 1``, ``0 -> Omega^i_P(p-d) -(F)-> Omega^i_P(p) ->
    f^* Omega^i_P(p) -> 0`` gives ``(b_j - r_j) + (a_{j+1} - r_{j+1})``, with
    ``a_k = h^k(Omega^i_P(p-d))``, ``b_k = h^k(Omega^i_P(p))`` and ``r_k`` the
    rank of ``F`` on ``H^k``.  Every ``r_k`` is forced: ``F`` is injective on
    ``H^0`` (sections on an integral scheme), so ``r_0 = a_0``, and surjective
    on ``H^m`` (Serre-dual to that), so ``r_m = b_m``; in between, Bott's deltas
    ``delta_{p-d,0}`` and ``delta_{p,0}`` never make ``a_k`` and ``b_k`` both
    nonzero, so ``r_k = 0``.
    """
    return _pullback(X.n, X.d, p, i, j)


def _pullback(n: int, d: int, q: int, i: int, j: int) -> int:
    if j < 0 or j > n:
        return 0
    m = n + 1
    value = projective_space_hodge(m, q, i, j) + projective_space_hodge(m, q - d, i, j + 1)
    if j == 0:
        value -= projective_space_hodge(m, q - d, i, 0)
    if j + 1 == m:
        value -= projective_space_hodge(m, q, i, m)
    return value


@lru_cache(maxsize=None)
def _edge_h0(n: int, d: int, i: int, q: int) -> int:
    """``h^{i,0}_q(X) = dim H^0(X, Omega^i_X(q))`` for ``0 <= i < n``.

    By the conormal sequence, ``h^{i,0}_q(X) = h^0(Omega^i_P|_X(q)) - h^{i-1,0}_{q-d}(X)``,
    whose first term is the ``j = 0`` cell of :func:`_pullback`; its ``a_1``
    term is the defining equation itself, at ``(i, q) = (1, d)``.  For ``n = 3``
    the loop gives ``h^{2,0}_d = binom(d-1, 2) binom(d+2, 2)``, which the tests
    check against the Euler characteristic for ``d = 1 .. 60``.

    The recursion is unrolled into a loop over the levels
    ``(i - k, q - kd)`` with alternating signs, ending in the section count
    of ``O_X(q - id)``.  Once ``q <= i`` the ambient terms vanish, since
    ``binom(q-1, i) = 0``, and they vanish on every level below too, so only
    the ``a_1`` term (reached when ``q = id``) and the last term are left.
    """
    total, sign = 0, 1
    while i > 0:
        if q <= i:
            if q == i * d:
                total += sign if i % 2 else -sign
            if i % 2:
                sign = -sign
            q -= i * d
            break
        total += sign * _pullback(n, d, q, i, 0)
        sign, i, q = -sign, i - 1, q - d
    return total + sign * _h0(n, d, q)


def _support(n: int, i: int) -> set:
    """The columns ``j`` where row ``i`` of a diamond can be nonzero: the four loci above."""
    return {0, n, n - i, i}


def hodge_number(X: Hypersurface, p: int, i: int, j: int) -> int:
    """Twisted Hodge number ``h^{i,j}_p(X)``; out-of-range ``(i, j)`` give 0."""
    return _hodge(X.n, X.d, p, i, j)


def _hodge(n: int, d: int, p: int, i: int, j: int) -> int:
    """:func:`hodge_number` for ``X`` of dimension ``n`` and degree ``d``."""
    t = d - n - 2
    if i < 0 or i > n or j < 0 or j > n:
        return 0
    if i == 0:
        if j == 0:
            return _h0(n, d, p)
        if j == n:
            return _h0(n, d, t - p)
        return 0
    if i == n:
        if j == 0:
            return _h0(n, d, t + p)
        if j == n:
            return _h0(n, d, -p)
        return 0
    # 0 < i < n from here on.  The middle line takes precedence on the
    # diagonal at (n/2, n/2); it already carries that entry's delta.
    if i + j == n:
        return _middle(n, d, p, i)
    if j == 0:
        return _edge_h0(n, d, i, p)
    if j == n:
        # Serre duality: h^{i,n}_p = h^{n-i,0}_{-p}.
        return _edge_h0(n, d, n - i, -p)
    if i == j:
        return 1 if p == 0 else 0
    return 0


@dataclass(frozen=True)
class TwistedHodgeDiamond:
    """The full table ``h^{i,j}_p(X)`` for one twist ``p``.

    ``entries[i][j]`` is ``h^{i,j}_p``; all entries are nonnegative and are
    zero off the four support loci.
    """

    hypersurface: Hypersurface
    twist: int
    entries: tuple = field(repr=False)

    @property
    def n(self) -> int:
        return self.hypersurface.n

    def entry(self, i: int, j: int) -> int:
        n = self.n
        if i < 0 or i > n or j < 0 or j > n:
            return 0
        return self.entries[i][j]

    def middle_line(self):
        """Anti-diagonal entries ``h^{i,n-i}`` for ``i = n..0``."""
        n = self.n
        return [self.entry(i, n - i) for i in range(n, -1, -1)]

    def nonzero_entries(self):
        """Sorted ``(i, j, value)`` triples with ``value != 0``, read off the support cells."""
        n = self.n
        return [
            (i, j, self.entries[i][j])
            for i in range(n + 1)
            for j in sorted(_support(n, i))
            if self.entries[i][j] != 0
        ]

    @staticmethod
    def on_support(n: int, i: int, j: int) -> bool:
        return j in _support(n, i)


def diamond(X: Hypersurface, p: int) -> TwistedHodgeDiamond:
    """The ``p``-twisted Hodge diamond of ``X``.

    Each support locus is filled from its own evaluation, with the same
    precedence as :func:`hodge_number`: the corners from section counts, the
    edges from :func:`_edge_h0`, the middle line from :func:`_middle` (over
    the diagonal delta at the center).  Every other entry is 0.
    """
    n, d = X.n, X.d
    t = d - n - 2
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    rows[0][0], rows[0][n] = _h0(n, d, p), _h0(n, d, t - p)
    rows[n][0], rows[n][n] = _h0(n, d, t + p), _h0(n, d, -p)
    for i in range(1, n):
        row = rows[i]
        row[0], row[n] = _edge_h0(n, d, i, p), _edge_h0(n, d, n - i, -p)
        if p == 0:
            row[i] = 1
        row[n - i] = _middle(n, d, p, i)
    return TwistedHodgeDiamond(X, p, tuple(map(tuple, rows)))
