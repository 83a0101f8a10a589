"""Hochschild cohomology dimensions along the embedding X -> P^{n+1}.

Three dimension families for a smooth degree-``d`` hypersurface ``X`` with
canonical twist ``t = d - n - 2``:

* ``hh_dim_on_X``: ``dim HH^m(X, O_X(p))`` as the column sum
  ``sum_i h^{i, i-m+n}_{t-p}(X)`` over the ``(t-p)``-twisted diamond;
* ``hh_dim_pushforward``: ``dim HH^m(P^{n+1}, f_* O_X(p))`` as the analogous
  column sum over the cohomology of restricted ambient forms
  (:func:`thd.hodge.pullback_cohomology_dim`), which reads only Bott's table
  for ``P^{n+1}`` and so shares no cell with the diamonds of ``X``;
* ``kernel_dim``: the kernel of the pushforward map ``f_*`` on ``HH^m``,
  which picks out the interior of the middle line.

The first two are computed a whole degree vector at a time: one walk
(:func:`_columns`) over the support cells of the table for a twist adds each
cell into its column, and the vector is cached per ``(n, d, p)``.

The long exact sequence relating the three is mechanized as a rank
propagation ledger (:func:`les_ledger`); it serves as the independent oracle
for the closed-form kernel dimensions.  The first two families and the
ledger take every twist; the kernel refuses ``t - p in {0, d}``, where its
closed form drops Kronecker-delta corrections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .errors import ExactnessViolation, PreconditionViolation
from .hodge import Hypersurface, _hodge, _pullback, _support

TARGETS = ("onX", "pushforward", "kernel")


def _require_nondegenerate_twist(X: Hypersurface, p: int) -> None:
    if X.t - p in (0, X.d):
        raise PreconditionViolation(
            f"t - p = {X.t - p} lies in {{0, d}} for (n, d, p) = ({X.n}, {X.d}, {p}); "
            "the kernel formula drops Kronecker-delta corrections that enter "
            "exactly at these twists"
        )


def _columns(cell, n: int, d: int, tp: int, rows: int, support) -> Tuple[int, ...]:
    """The column sums ``m -> sum_i cell(n, d, tp, i, n + i - m)`` for ``m = 0 .. n + rows - 1``.

    Each cell ``j in support(n, i)`` of row ``i < rows`` adds into degree
    ``m = n + i - j``; ``cell`` must be 0 off its support."""
    dims = [0] * (n + rows)
    for i in range(rows):
        for j in support(n, i):
            dims[n + i - j] += cell(n, d, tp, i, j)
    return tuple(dims)


@lru_cache(maxsize=None)
def _hh_on_X(n: int, d: int, p: int) -> Tuple[int, ...]:
    """``dim HH^m(X, O_X(p))`` for ``m = 0 .. 2n``: column ``j = i - m + n`` of the ``(t-p)``-diamond."""
    return _columns(_hodge, n, d, d - n - 2 - p, n + 1, _support)


def hh_dim_on_X(X: Hypersurface, p: int, m: int) -> int:
    """``dim HH^m(X, O_X(p))`` as an anti-diagonal sum over the (t-p)-diamond."""
    return _hh_on_X(X.n, X.d, p)[m] if 0 <= m <= 2 * X.n else 0


@lru_cache(maxsize=None)
def _hh_push(n: int, d: int, p: int) -> Tuple[int, ...]:
    """``dim HH^m(P^{n+1}, f_* O_X(p))`` for ``m = 0 .. 2n+1``: the column ``j = n - m + i``
    of the pullback dimensions at ``t - p``, which are 0 off ``j in {0, n, i, i-1}``."""
    return _columns(_pullback, n, d, d - n - 2 - p, n + 2,
                    lambda n, i: {j for j in (0, n, i, i - 1) if 0 <= j <= n})


def hh_dim_pushforward(X: Hypersurface, p: int, m: int) -> int:
    """``dim HH^m(P^{n+1}, f_* O_X(p))`` as a column sum of pullback dimensions.

    Every twist is answered, ``t - p in {0, d}`` included: the pullback
    cells come from Bott's table, which carries those deltas itself.
    """
    return _hh_push(X.n, X.d, p)[m] if 0 <= m <= 2 * X.n + 1 else 0


def kernel_dim(X: Hypersurface, p: int, m: int) -> int:
    """Dimension of ``ker(f_*: HH^m(X, O(p)) -> HH^m(P^{n+1}, f_* O(p)))``.

    Requires ``t - p`` outside ``{0, d}``.  Supported in even degrees
    ``0 < m < 2n`` (interior middle-line entries of the ``(t-p)``-diamond)
    and in ``m = 2n`` (a middle-line entry of the ``(t-p-d)``-diamond).
    """
    _require_nondegenerate_twist(X, p)
    return _kernel(X.n, X.d, p, m)


def _kernel(n: int, d: int, p: int, m: int) -> int:
    tp = d - n - 2 - p
    if 0 < m < 2 * n and m % 2 == 0:
        return _hodge(n, d, tp, m // 2, n - m // 2)
    if m == 2 * n:
        return _hodge(n, d, tp - d, n - 1, 1)
    return 0


def kernel_table(X: Hypersurface, p: int) -> Dict[int, int]:
    """``kernel_dim`` for every ``m`` in ``[0, 2n]``."""
    _require_nondegenerate_twist(X, p)
    return {m: _kernel(X.n, X.d, p, m) for m in range(0, 2 * X.n + 1)}


@dataclass(frozen=True)
class HochschildProfile:
    """Dimension vector ``m -> dim`` for one coefficient target."""

    hypersurface: Hypersurface
    twist: int
    target: str
    dims: Dict[int, int] = field(repr=False)

    def dim(self, m: int) -> int:
        return self.dims.get(m, 0)


def hochschild_profile(X: Hypersurface, p: int, target: str) -> HochschildProfile:
    if target not in TARGETS:
        raise PreconditionViolation(f"unknown target {target!r}; expected one of {TARGETS}")
    if target == "kernel":
        dims = {**kernel_table(X, p), 2 * X.n + 1: 0}
    else:  # HH^{2n+1}(X) = 0
        dims = dict(enumerate(_hh_on_X(X.n, X.d, p) + (0,) if target == "onX" else _hh_push(X.n, X.d, p)))
    return HochschildProfile(X, p, target, dims)


def propagate_ranks(dims: List[int]) -> List[int]:
    """Ranks of the maps in an exact sequence with the given term dimensions.

    In an exact sequence each term splits as image-in plus image-out, so
    ``rank_k = dim_k - rank_{k-1}`` with ``rank_{-1} = 0``.  A negative
    propagated rank, or a nonzero rank leaving the last term, means the
    dimensions cannot sit in any exact sequence.
    """
    ranks: List[int] = []
    r = 0
    for k, dim in enumerate(dims):
        r = dim - r
        if r < 0:
            raise ExactnessViolation(f"negative rank {r} after term {k} (dims {dims[:k+1]})")
        ranks.append(r)
    if ranks and ranks[-1] != 0:
        raise ExactnessViolation(f"sequence does not terminate: trailing rank {ranks[-1]}")
    return ranks


@dataclass(frozen=True)
class ExactSequenceLedger:
    """Terms, propagated ranks and extracted kernels of the pushforward LES.

    The sequence repeats ``HH^{i-2}(X, p+d) -> HH^i(X, p) -> HH^i(P, f_* p)``
    for ``i = 0 .. 2n+2``; term ``k`` satisfies ``dim_k = rank_{k-1} + rank_k``.
    ``kernel_of_fstar[m]`` is the rank entering the ``HH^m(X, p)`` term,
    which by exactness is the kernel of ``f_*`` in degree ``m``.
    """

    hypersurface: Hypersurface
    twist: int
    terms: Tuple[Tuple[str, int, int], ...]
    ranks: Tuple[int, ...]
    kernel_of_fstar: Dict[int, int] = field(repr=False)


def les_ledger(X: Hypersurface, p: int) -> ExactSequenceLedger:
    """Build the long-exact-sequence ledger for coefficients ``O_X(p)``.

    Every twist is taken, ``t - p in {0, d}`` included; raises
    :class:`ExactnessViolation` if the dimension formulas are inconsistent.
    """
    n, d = X.n, X.d
    # the three degree vectors, padded to i = 0 .. 2n+2
    columns = zip((0, 0) + _hh_on_X(n, d, p + d), _hh_on_X(n, d, p) + (0, 0), _hh_push(n, d, p) + (0,))
    terms = [(label, i, dim) for i, dims in enumerate(columns) for label, dim in zip("ABC", dims)]
    ranks = propagate_ranks([dim for (_, _, dim) in terms])
    kernels: Dict[int, int] = {}
    for k, (label, i, _) in enumerate(terms):
        if label == "B":
            kernels[i] = ranks[k - 1] if k > 0 else 0
    return ExactSequenceLedger(X, p, tuple(terms), tuple(ranks), kernels)


class SearchRow(NamedTuple):
    n: int
    d: int
    p: int
    m: int
    dim: Optional[int]
    skipped: bool = False
    reason: str = ""


def candidate_search(
    n_range: Iterable[int], d_range: Iterable[int], p_range: Iterable[int]
) -> List[SearchRow]:
    """Kernel dimensions in degree ``m = n + 3`` over a parameter grid.

    One row per ``(n, d, p)``, sorted; rows with a nonzero dimension carry
    candidate deformation classes.  Grid cells where ``t - p`` is degenerate
    are kept but flagged as skipped.  Cells are independent, so evaluation
    order is irrelevant; assembly is deterministic.
    """
    rows: List[SearchRow] = []
    d_values, p_values = sorted(set(d_range)), sorted(set(p_range))  # once, so iterators work too
    for n in sorted(set(n_range)):
        m = n + 3
        for d in d_values:
            Hypersurface(n, d)  # checks n, d >= 1
            t = d - n - 2
            for p in p_values:
                if t - p in (0, d):
                    rows.append(
                        SearchRow(n, d, p, m, None, skipped=True, reason=f"t-p = {t - p} degenerate")
                    )
                    continue
                rows.append(SearchRow(n, d, p, m, _kernel(n, d, p, m)))
    return rows


def quadric_family(k: int, d: int) -> Tuple[Hypersurface, int, int]:
    """``(X, p, m)`` of the odd quadric family: ``n = 2k - 1``, ``p = -kd - d``, ``m = n + 3``."""
    if k < 2 or d < 2:
        raise PreconditionViolation(f"need k >= 2 and d >= 2, got (k, d) = ({k}, {d})")
    n = 2 * k - 1
    return Hypersurface(n, d), -k * d - d, n + 3


def guaranteed_kernel_check(k: int, d: int) -> int:
    """Kernel dimension at the parameters of :func:`quadric_family`.

    This family always yields a one-dimensional kernel for
    ``k >= 2`` and ``d >= 2``.
    """
    return kernel_dim(*quadric_family(k, d))


@dataclass(frozen=True)
class ClaimRow:
    m: int
    computed: int
    claimed: int

    @property
    def matches(self) -> bool:
        return self.computed == self.claimed


@dataclass(frozen=True)
class ClaimReport:
    """Comparison of computed kernel dimensions against externally claimed ones.

    Mismatching rows are flagged, never raised: adjudicating inconsistent
    published values is a supported outcome.
    """

    hypersurface: Hypersurface
    twist: int
    rows: Tuple[ClaimRow, ...]

    @property
    def discrepancies(self) -> Tuple[ClaimRow, ...]:
        return tuple(r for r in self.rows if not r.matches)

    @property
    def confirmed(self) -> Tuple[ClaimRow, ...]:
        return tuple(r for r in self.rows if r.matches)


def kernel_claims_report(X: Hypersurface, p: int, claims: Dict[int, int]) -> ClaimReport:
    rows = tuple(ClaimRow(m, kernel_dim(X, p, m), claimed) for m, claimed in sorted(claims.items()))
    return ClaimReport(X, p, rows)
