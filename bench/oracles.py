"""Reference values for the benchmark, computed without calling ``thd``.

Every routine here reaches its numbers by a route that shares no formula
with the library:

* Hodge numbers of the Fermat hypersurface at twist 0 come from Griffiths'
  Jacobian ring ``k[x_0..x_{n+1}] / (x_i^{d-1})``, counted as coefficients
  of ``(1 + t + .. + t^{d-2})^{n+2}``.
* ``chi(X, Omega^i_X(p))`` comes from Hirzebruch-Riemann-Roch: the Chern
  character of ``Omega^i_X`` is read off ``lambda_y`` of the conormal and
  Euler sequences, and ``chi(O_X(a))`` is ``[h^n]`` of ``e^{ah} td(X)``
  expanded as exact rational power series.
* Hochschild dimensions of the bundled ``thd.ainfty`` categories come from
  two facts: HH of a product is the sum over its factors, and the factors
  are ``k[x]/(x^2)`` (``2, 1, 1, ..`` in characteristic != 2) or the A2
  path algebra (``1, 0, 0, ..``).
* Cocycle counts come from rank-nullity along the cochain complex.
* Closedness of a cochain on a one-object category is tested with a
  Hochschild coboundary written here over plain integers mod p.

:func:`self_test` runs each oracle on a small case whose answer is known
independently, before the benchmark trusts it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial
from typing import Dict, List, Sequence, Tuple


# -- Griffiths: primitive middle cohomology of the Fermat hypersurface -------

@lru_cache(maxsize=None)
def _jacobian_ring_dims(n: int, d: int) -> Tuple[int, ...]:
    """Graded dimensions of ``k[x_0..x_{n+1}] / (x_0^{d-1}, .., x_{n+1}^{d-1})``."""
    factor = [1] * max(d - 1, 0)
    dims = [1]
    for _ in range(n + 2):
        out = [0] * (len(dims) + len(factor) - 1) if factor else []
        for a, ca in enumerate(dims):
            for b, cb in enumerate(factor):
                out[a + b] += ca * cb
        dims = out
    return tuple(dims)


def griffiths_middle_line(n: int, d: int) -> List[int]:
    """``h^{n-q, q}`` of a smooth degree-``d`` hypersurface in ``P^{n+1}``, ``q = 0..n``.

    The primitive part is ``R_{(q+1)d - n - 2}`` of the Jacobian ring; the
    hyperplane class adds 1 to the central entry when ``n`` is even.
    """
    dims = _jacobian_ring_dims(n, d)
    line = []
    for q in range(n + 1):
        m = (q + 1) * d - n - 2
        value = dims[m] if 0 <= m < len(dims) else 0
        if 2 * q == n:
            value += 1
        line.append(value)
    return line


# -- Hirzebruch-Riemann-Roch ---------------------------------------------------

#: Euler characteristics grow like ``a^n / n!``; they are compared modulo this
#: prime (2^61 - 1), which exceeds every factorial denominator used below.
CHI_MODULUS = (1 << 61) - 1


def _series_mul(a: Sequence[int], b: Sequence[int], order: int) -> List[int]:
    P = CHI_MODULUS
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i]):
                out[i + j] = (out[i + j] + ai * bj) % P
    return out


def _series_inv(a: Sequence[int], order: int) -> List[int]:
    P = CHI_MODULUS
    inv0 = pow(a[0], -1, P)
    out = [inv0] + [0] * order
    for k in range(1, order + 1):
        acc = sum(a[j] * out[k - j] for j in range(1, k + 1))
        out[k] = -acc * inv0 % P
    return out


def _series_pow(a: Sequence[int], e: int, order: int) -> List[int]:
    """``a^e`` for ``a[0] = 1``, by Miller's recurrence ``k b_k = sum_j (e j - k + j) a_j b_{k-j}``."""
    P = CHI_MODULUS
    out = [1] + [0] * order
    for k in range(1, order + 1):
        acc = sum((e * j - k + j) * a[j] * out[k - j] for j in range(1, k + 1))
        out[k] = acc * pow(k, -1, P) % P
    return out


def _exp_series(scale: int, order: int, shift: int = 0) -> List[int]:
    """Coefficients of ``(e^{scale h})`` from degree ``shift`` on, i.e. ``scale^(k+shift) / (k+shift)!``."""
    P = CHI_MODULUS
    return [pow(scale, k + shift, P) * pow(factorial(k + shift), -1, P) % P for k in range(order + 1)]


@lru_cache(maxsize=None)
def _chi_structure_sheaf_poly(n: int, d: int) -> Tuple[int, ...]:
    """Coefficients ``c_k`` with ``chi(O_X(a)) = sum_k c_k a^k`` modulo :data:`CHI_MODULUS`.

    ``td(X) = (h / (1 - e^{-h}))^{n+2} (1 - e^{-dh}) / (dh)`` and
    ``int_X h^n = d``, so ``chi(O_X(a)) = [h^n] e^{ah} T`` with
    ``T = (h / (1 - e^{-h}))^{n+2} (1 - e^{-dh}) / h``.
    """
    P = CHI_MODULUS
    # (1 - e^{-h}) / h and (1 - e^{-dh}) / h, both from the coefficients of e^{-h}
    line = [-c % P for c in _exp_series(-1, n, shift=1)]
    conormal = [-c % P for c in _exp_series(-d, n, shift=1)]
    T = _series_mul(_series_pow(_series_inv(line, n), n + 2, n), conormal, n)
    return tuple(T[n - k] * pow(factorial(k), -1, P) % P for k in range(n + 1))


def chi_structure_sheaf(n: int, d: int, a: int) -> int:
    """``chi(O_X(a))`` modulo :data:`CHI_MODULUS`."""
    acc = 0
    for c in reversed(_chi_structure_sheaf_poly(n, d)):
        acc = (acc * a + c) % CHI_MODULUS
    return acc


def chi_forms_row(n: int, d: int, p: int) -> List[int]:
    """``chi(X, Omega^i_X(p))`` for ``i = 0..n``, modulo :data:`CHI_MODULUS`.

    With ``lambda_y(Omega_X) = (1 + y e^{-h})^{n+2} / ((1 + y)(1 + y e^{-dh}))``,
    ``ch(Omega^i_X) = sum_{a <= i} (-1)^{i-a} C(n+2, a) sum_{c <= i-a} e^{-(a + cd) h}``.
    """
    chi = {}
    # G[a][m] = sum_{c <= m} chi(O_X(p - a - c d))
    G = []
    for a in range(n + 1):
        acc, prefix = 0, []
        for c in range(n + 1 - a):
            q = p - a - c * d
            if q not in chi:
                chi[q] = chi_structure_sheaf(n, d, q)
            acc += chi[q]
            prefix.append(acc)
        G.append(prefix)
    return [
        sum((-1) ** (i - a) * comb(n + 2, a) * G[a][i - a] for a in range(i + 1)) % CHI_MODULUS
        for i in range(n + 1)
    ]


# -- Hochschild cohomology of the bundled finite categories --------------------

def hh_dual_numbers(degree: int, characteristic: int) -> int:
    """``dim HH^degree(k[x]/(x^2))``: 2 in degree 0, then 1 (2 in characteristic 2)."""
    if degree == 0 or characteristic == 2:
        return 2
    return 1


def hh_a2_path_algebra(degree: int) -> int:
    """The A2 quiver is a tree: ``HH^0`` is the centre ``k`` and nothing is above it."""
    return 1 if degree == 0 else 0


def hh_product(factor_dims: Sequence[Sequence[int]]) -> List[int]:
    """HH of a product of algebras is the direct sum of the factors' HH."""
    return [sum(col) for col in zip(*factor_dims)]


def cocycle_counts(hh_dims: Sequence[int], cochain_dims: Sequence[int]) -> List[int]:
    """``dim Z^k`` from ``dim HH^k`` and ``dim C^k`` by rank-nullity.

    ``rank d^k = dim C^k - dim HH^k - rank d^{k-1}`` and
    ``dim Z^k = dim C^k - rank d^k``.
    """
    counts = []
    prev_rank = 0
    for hh, c in zip(hh_dims, cochain_dims):
        rank = c - hh - prev_rank
        counts.append(c - rank)
        prev_rank = rank
    return counts


def coboundary(mult: Dict[Tuple[int, int], Dict[int, int]], dim: int,
               f: Dict[Tuple[int, ...], Dict[int, int]], degree: int, p: int):
    """Nonzero values of the Hochschild coboundary of ``f`` on a one-object category.

    ``mult[(x, y)]`` is the product of ``x`` then ``y`` (diagram order) as
    ``{basis index: int}``; ``f`` maps ``degree``-tuples of basis indices to
    vectors in the regular bimodule, missing tuples being zero.  All
    arithmetic is on integers mod ``p``::

        df(x_1..x_{n+1}) = x_1 f(x_2..) + sum_i (-1)^i f(.., x_i x_{i+1}, ..)
                           + (-1)^{n+1} f(x_1..x_n) x_{n+1}
    """
    def act_left(x, vec):
        out: Dict[int, int] = {}
        for m, c in vec.items():
            for k, e in mult.get((x, m), {}).items():
                out[k] = (out.get(k, 0) + c * e) % p
        return out

    def act_right(vec, x):
        out: Dict[int, int] = {}
        for m, c in vec.items():
            for k, e in mult.get((m, x), {}).items():
                out[k] = (out.get(k, 0) + c * e) % p
        return out

    nonzero = {}
    for args in itertools.product(range(dim), repeat=degree + 1):
        total: Dict[int, int] = {}

        def add(vec, scale):
            for k, c in vec.items():
                total[k] = (total.get(k, 0) + scale * c) % p

        add(act_left(args[0], f.get(args[1:], {})), 1)
        for i in range(degree):
            sign = -1 if i % 2 == 0 else 1  # (-1)^(i+1) for the merge at slot i+1
            for k, e in mult.get((args[i], args[i + 1]), {}).items():
                merged = args[:i] + (k,) + args[i + 2 :]
                add(f.get(merged, {}), sign * e)
        add(act_right(f.get(args[:-1], {}), args[-1]), -1 if degree % 2 == 0 else 1)
        total = {k: c for k, c in total.items() if c}
        if total:
            nonzero[args] = total
    return nonzero


# -- self test -----------------------------------------------------------------

def _rank_mod_p(rows: List[List[int]], p: int) -> int:
    m = [[v % p for v in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] * inv % p
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _dual_numbers_hh_by_hand(up_to: int, p: int) -> List[int]:
    """HH of ``k[x]/(x^2)`` from its normalized complex, built with :func:`coboundary`."""
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    ranks = []
    for k in range(up_to + 1):
        # normalized k-cochains: the single tuple (x, .., x) with a value in A
        cols = []
        for target in range(2):
            f = {(1,) * k: {target: 1}}
            df = coboundary(mult, 2, f, k, p)
            cols.append([df.get((1,) * (k + 1), {}).get(m, 0) for m in range(2)])
        rows = [list(r) for r in zip(*cols)]
        ranks.append(_rank_mod_p(rows, p))
    return [2 - ranks[k] - (ranks[k - 1] if k else 0) for k in range(up_to + 1)]


def self_test() -> List[str]:
    """Run every oracle on a small case with a known answer; return the failures."""
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"oracle self-test {label}: got {got}, want {want}")

    # Griffiths: quartic K3, cubic surface, cubic and quintic threefolds.
    expect("K3 middle line", griffiths_middle_line(2, 4), [1, 20, 1])
    expect("cubic surface middle line", griffiths_middle_line(2, 3), [0, 7, 0])
    expect("cubic threefold h21", griffiths_middle_line(3, 3)[1], 5)
    expect("quintic threefold h21", griffiths_middle_line(3, 5)[1], 101)
    # HRR: chi(O) of an elliptic curve twisted by a, K3 rows, quintic chi(O).
    mod = lambda values: [v % CHI_MODULUS for v in values]
    expect("elliptic chi(O(a))", [chi_structure_sheaf(1, 3, a) for a in (-2, 0, 5)], mod([-6, 0, 15]))
    expect("K3 chi(Omega^i)", chi_forms_row(2, 4, 0), mod([2, -20, 2]))
    expect("cubic surface chi(Omega^i)", chi_forms_row(2, 3, 0), mod([1, -7, 1]))
    expect("quintic chi(O)", chi_structure_sheaf(3, 5, 0), 0)
    expect("P^2 as a plane chi(Omega^1(2))", chi_forms_row(2, 1, 2)[1], 3)
    # Dual numbers: the closed form against the complex computed by hand.
    for p in (32003, 2):
        want = [hh_dual_numbers(k, p) for k in range(6)]
        expect(f"k[x]/(x^2) in characteristic {p}", _dual_numbers_hh_by_hand(5, p), want)
    # Products and the A2 quiver (Happel: HH^0 - HH^1 = vertices - arrows).
    expect("k x k", hh_product([[1, 0, 0], [1, 0, 0]]), [2, 0, 0])
    expect("A2 Euler characteristic", hh_a2_path_algebra(0) - hh_a2_path_algebra(1), 2 - 1)
    # Rank-nullity: k[x]/(x^2) has normalized cochain spaces of dimension 2.
    expect("dual-number cocycles", cocycle_counts([2, 1, 1, 1], [2, 2, 2, 2]), [2, 1, 2, 1])
    return failures
