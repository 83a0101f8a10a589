"""Hochschild cochains of a finite linear category and their differential.

A degree-``n`` cochain assigns to every composable chain of ``n`` basis
arrows ``x_1: X_0 -> X_1, ..., x_n: X_{n-1} -> X_n`` a value in
``M(X_0, X_n)``; data is stored sparsely as ``(chain, args) -> value``.

The differential is

    df(x_1 .. x_{n+1}) = x_1 . f(x_2 .. x_{n+1})
                         + sum_i (-1)^i f(.. x_i x_{i+1} ..)
                         + (-1)^{n+1} f(x_1 .. x_n) . x_{n+1}

with coefficients in degree 0, so no extra signs appear.  Each call compiles
the structure tensors into tables of raw numbers (:func:`differential_tables`),
from which :func:`differential_terms` emits the terms of ``d`` on one basis
key ``(chain, args, m)``: a prefix term per entry of the left action on
``e_m``, a merge term per pair of arrows whose product hits an argument, a
suffix term per entry of the right action.  The matrix of ``d`` sums them into
sparse columns that :mod:`.linalg` reduces, and :func:`hochschild_differential`
is their linear extension.

Cochain spaces are enumerated in one model, the normalized subcomplex of
cochains vanishing on identity arguments (Loday, *Cyclic Homology*, ch. 1),
whose keys skip each identity; it has the cohomology of the full bar complex.
:func:`hh_dimensions` and :func:`cocycle_space` swap every identity into the
basis and leave the terms of an identity out: they land on identity arguments
and cancel in pairs by the unit laws, which are checked once per call instead.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from ..errors import PreconditionViolation
from .budget import Budget
from .category import (
    Algebra,
    CentralBimodule,
    FiniteLinearCategory,
    LinearFunctor,
    Vec,
    _basis_tuples,
    _gamma_products,
    _lift,
    _unit_failure,
    restricted_bimodule,
    tensor_bimodule,
    tensor_category,
    vadd,
    vclean,
)
from .linalg import exact_rank, multilinear, nullspace, raw


class Cochain:
    """A sparse Hochschild cochain with coefficients in a central bimodule."""

    def __init__(self, cat: FiniteLinearCategory, mod: CentralBimodule, degree: int, data=None):
        if degree < 0:
            raise PreconditionViolation("cochain degree must be >= 0")
        self.cat = cat
        self.mod = mod
        self.degree = degree
        self.data: Dict[Tuple[Tuple, Tuple[int, ...]], Vec] = {}
        for key, vec in (data or {}).items():
            vec = vclean(vec)
            if vec:
                self._check_key(*key)
                self.data[key] = vec

    def _check_key(self, chain: Tuple, args: Tuple[int, ...]) -> None:
        if len(chain) != self.degree + 1 or len(args) != self.degree:
            raise PreconditionViolation(
                f"component on chain {chain} with {len(args)} arguments does not "
                f"fit degree {self.degree}"
            )
        for k in range(self.degree):
            if not 0 <= args[k] < self.cat.dim(chain[k], chain[k + 1]):
                raise PreconditionViolation(
                    f"argument {args[k]} out of range for hom({chain[k]!r},{chain[k+1]!r})"
                )

    def component(self, chain: Tuple, args: Tuple[int, ...]) -> Vec:
        return self.data.get((chain, args), {})

    def evaluate(self, chain: Tuple, arg_vecs: List[Vec]) -> Vec:
        """Multilinear evaluation on arrow vectors (not just basis arrows)."""
        return multilinear(lambda *args: self.data.get((chain, args), {}), arg_vecs)

    def is_zero(self) -> bool:
        return not any(self.data.values())

    def scaled(self, c) -> "Cochain":
        return Cochain(
            self.cat, self.mod, self.degree,
            {k: {i: c * v for i, v in vec.items()} for k, vec in self.data.items()},
        )

    def __add__(self, other: "Cochain") -> "Cochain":
        if other.degree != self.degree:
            raise PreconditionViolation("cannot add cochains of different degrees")
        data = {k: dict(v) for k, v in self.data.items()}
        for k, vec in other.data.items():
            target = data.setdefault(k, {})
            vadd(target, vec, self.cat.field.one)
        return Cochain(self.cat, self.mod, self.degree, data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and {k: vclean(v) for k, v in self.data.items() if vclean(v)}
            == {k: vclean(v) for k, v in other.data.items() if vclean(v)}
        )


def differential_tables(cat: FiniteLinearCategory, mod: CentralBimodule):
    """The tables of :func:`_tables` with every entry, for the full bar differential."""
    return _tables(cat, mod, normalized=False)


def _tables(cat: FiniteLinearCategory, mod: CentralBimodule, normalized: bool):
    """The structure tensors as raw numbers (:func:`~.linalg.raw`), indexed per basis key.

    ``left[(x0, xn, m)]`` lists ``(a, x, [(m', c), ..])`` for each nonzero ``x . e_m``,
    ``right[(x0, xn, m)]`` lists ``(c, x, [(m', c), ..])`` for each nonzero ``e_m . x``,
    ``splits[(a, c, k)]`` is ``[count, pairs]``: ``pairs`` lists ``(b, u, v, coeff)`` for each
    ``u: a->b`` and ``v: b->c`` whose product has ``coeff e_k``, ``count`` how many there are.
    Not cached: tensors can change.  ``normalized`` checks the unit laws and
    drops the terms of ``id . e_m``, ``e_m . id`` and the splits ``(id, k)``
    and ``(k, id)``, still counted: an action entry keeps its place.
    """
    field = cat.field
    units = {a: cat.id_basis_index(a) for a in cat.objects if normalized and cat.dim(a, a)}
    ids = {a: {i: field.one} for a, i in units.items()}
    bad = (_unit_failure(cat.dims, ids, cat.diag, cat.diag, field)
           or _unit_failure(mod.dims, ids, mod.lact, mod.ract, field))
    if bad:
        raise PreconditionViolation("an identity does not act as one on basis element {2} of "
                                    "({0!r}, {1!r}), so d left the normalized subcomplex".format(*bad))
    def raws(vec):
        return [(k, c) for k, c in ((k, raw(field, c)) for k, c in vec.items()) if c]
    left, right = {}, {}
    for (a, x0, xn), table in mod.left.items():
        for (x, m), vec in table.items():
            if x < cat.dim(a, x0) and any(vec.values()):
                left.setdefault((x0, xn, m), []).append(
                    (a, x, [] if (a, x) == (x0, units.get(a)) else raws(vec)))
    for (x0, xn, c), table in mod.right.items():
        for (m, x), vec in table.items():
            if x < cat.dim(xn, c) and any(vec.values()):
                right.setdefault((x0, xn, m), []).append(
                    (c, x, [] if (c, x) == (xn, units.get(c)) else raws(vec)))
    splits: Dict = {}
    for (a, b, c), pairs in cat.compose.items():
        for (u, v), vec in pairs.items():
            for k, coeff in vec.items():
                if coeff:
                    entry = splits.setdefault((a, c, k), [0, []])
                    entry[0] += 1
                    if (b, u, v) not in ((a, units.get(a), k), (c, k, units.get(c))):
                        entry[1].append((b, u, v, raw(field, coeff)))
    return left, splits, right


def differential_terms(tables, chain: Tuple, args: Tuple[int, ...], m: int, budget: Budget):
    """The terms of ``d`` on the basis cochain with value ``e_m`` at ``(chain, args)``.

    Yields ``(chain', args', m', c)`` with ``c`` raw, read from the
    :func:`differential_tables`: prefix terms ``x . e_m`` from the left
    action, merge terms ``(-1)^{i+1} coeff e_m`` from the splits, suffix terms
    ``(-1)^{n+1} e_m . x`` from the right action.  A key can occur more than
    once; its terms are to be summed.  Charges ``budget`` once, one unit per
    nonzero term (an action entry or a split), counted as the tables count.
    """
    left, splits, right = tables
    n = len(args)
    prefix, suffix = left.get((chain[0], chain[-1], m), ()), right.get((chain[0], chain[-1], m), ())
    merges = [splits.get((chain[i], chain[i + 1], args[i]), (0, ())) for i in range(n)]
    budget.charge(len(prefix) + len(suffix) + sum(count for count, _ in merges))
    for a, x, vec in prefix:
        dchain, dargs = (a,) + chain, (x,) + args
        for mm, c in vec:
            yield dchain, dargs, mm, c
    for i, (_, pairs) in enumerate(merges):
        for b, u, v, coeff in pairs:
            yield (chain[: i + 1] + (b,) + chain[i + 1 :], args[:i] + (u, v) + args[i + 1 :],
                   m, coeff if i % 2 else -coeff)
    negate = n % 2 == 0
    for c, x, vec in suffix:
        dchain, dargs = chain + (c,), args + (x,)
        for mm, t in vec:
            yield dchain, dargs, mm, -t if negate else t


def hochschild_differential(f: Cochain, budget: Optional[Budget] = None) -> Cochain:
    """The bar differential ``df``, the linear extension of :func:`differential_terms`.

    Charges the budget for every basis entry ``(chain, args, m)`` of ``f``
    in turn, so a component with several bimodule entries is charged for
    each of them.
    """
    budget = budget or Budget()
    zero = f.cat.field.zero
    tables = differential_tables(f.cat, f.mod)
    out: Dict[Tuple[Tuple, Tuple[int, ...]], Vec] = {}
    for (chain, args), vec in f.data.items():
        for m, c in vec.items():
            for dchain, dargs, mm, t in differential_terms(tables, chain, args, m, budget):
                target = out.setdefault((dchain, dargs), {})
                target[mm] = target.get(mm, zero) + c * t
    return Cochain(f.cat, f.mod, f.degree + 1, out)


def cochain_basis(
    cat: FiniteLinearCategory,
    mod: CentralBimodule,
    degree: int,
    budget: Optional[Budget] = None,
) -> List[Tuple[Tuple, Tuple[int, ...], int]]:
    """Basis keys ``(chain, args, target)`` of the degree-``degree`` normalized cochain space.

    Every identity must be a basis vector; no argument is an identity.
    """
    budget = budget or Budget()
    excluded = {a: cat.id_basis_index(a) for a in cat.objects if cat.dim(a, a)}
    for a, idx in excluded.items():
        if idx is None:
            raise PreconditionViolation(f"identity of {a!r} is not a basis vector")
    keys: List[Tuple[Tuple, Tuple[int, ...], int]] = []
    for chain, args in _basis_tuples(cat.objects, [cat.dim] * degree, keep=mod.dim, skip=excluded):
        for m in range(mod.dim(chain[0], chain[-1])):
            budget.charge()
            keys.append((chain, args, m))
    return keys


def _differential_columns(cat, mod, source, target, budget, tables=None) -> List[Vec]:
    """Sparse columns of ``d`` from the span of ``source`` keys to ``target`` keys.

    Built from ``tables``, by default the normalized :func:`_tables`.  An
    entry is a sum of raw numbers that :mod:`.linalg` reduces: it may be
    zero or, over F_p, outside ``[0, p)``.  A term outside ``target`` raises.
    """
    tables = tables or _tables(cat, mod, normalized=True)
    # cochain_basis emits the keys of each (chain, args) contiguously, m = 0 first
    blocks = {(chain, args): (pos, mod.dim(chain[0], chain[-1]))
              for pos, (chain, args, m) in enumerate(target) if m == 0}
    columns: List[Vec] = []
    for chain, args, m in source:
        col: Dict = {}
        for dchain, dargs, mm, c in differential_terms(tables, chain, args, m, budget):
            pos, size = blocks.get((dchain, dargs), (0, 0))
            if mm >= size:
                raise PreconditionViolation("differential left the normalized subcomplex")
            col[pos + mm] = col.get(pos + mm, 0) + c
        columns.append(col)
    return columns


def identity_basis_change(cat: FiniteLinearCategory, mod: CentralBimodule):
    """``(cat', mod', into, back)``: ``cat`` with every identity a basis vector.

    For each object whose identity ``e_a`` is not a basis vector, ``cat'``
    trades the basis vector ``e_j`` of ``hom(a, a)``, ``j`` the lowest index
    where ``e_a`` is nonzero, for ``e_a``; every other arrow keeps its basis.
    ``into: cat -> cat'`` and ``back: cat' -> cat`` are inverse functors and
    ``mod'`` is ``mod`` restricted along ``back``.  ``(cat, mod, None, None)``
    when every identity already is a basis vector.
    """
    swaps = {}
    for a in cat.objects:
        if cat.dim(a, a) and cat.id_basis_index(a) is None:
            e = vclean(cat.identities.get(a, {}))
            if not e:
                raise PreconditionViolation(f"object {a!r} has endomorphisms but no identity")
            swaps[a] = (min(e), e)
    if not swaps:
        return cat, mod, None, None
    one = cat.field.one
    into = {key: [{i: one} for i in range(d)] for key, d in cat.dims.items()}
    back = dict(into)
    for a, (j, e) in swaps.items():
        inv = one / e[j]  # e_j = inv (e_a - sum_{k != j} c_k e_k)
        back[(a, a)] = [e if i == j else v for i, v in enumerate(into[(a, a)])]
        into[(a, a)] = [{k: (one if k == j else -c) * inv for k, c in e.items()} if i == j else v
                        for i, v in enumerate(into[(a, a)])]
    identities = {**cat.identities, **{a: {j: one} for a, (j, _) in swaps.items()}}
    copy = FiniteLinearCategory(cat.field, cat.objects, cat.dims, {}, identities)
    objects = {a: a for a in cat.objects}
    into_f, back_f = LinearFunctor(cat, copy, objects, into), LinearFunctor(copy, cat, objects, back)
    for a, b, c in cat.compose:
        for x in range(cat.dim(a, b)):
            for y in range(cat.dim(b, c)):
                xy = multilinear(partial(cat.diag, a, b, c), [back[(a, b)][x], back[(b, c)][y]])
                if v := multilinear(partial(into_f.apply, a, c), [xy]):
                    copy.compose.setdefault((a, b, c), {})[(x, y)] = v
    return copy, restricted_bimodule(back_f, mod), into_f, back_f


def hh_dimensions(
    cat: FiniteLinearCategory,
    mod: CentralBimodule,
    up_to: int,
    budget: Optional[Budget] = None,
) -> List[int]:
    """``dim HH^k`` for ``k = 0 .. up_to`` by exact rank-nullity, identities swapped into the basis."""
    budget = budget or Budget()
    cat, mod, _, _ = identity_basis_change(cat, mod)
    bases = [cochain_basis(cat, mod, k, budget) for k in range(up_to + 2)]
    tables = _tables(cat, mod, normalized=True)
    ranks = [exact_rank(_differential_columns(cat, mod, bases[k], bases[k + 1], budget, tables),
                        cat.field)
             for k in range(up_to + 1)]
    # dim HH^k = dim ker d_k - rank d_{k-1}
    return [len(bases[k]) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(up_to + 1)]


def cocycle_space(
    cat: FiniteLinearCategory,
    mod: CentralBimodule,
    degree: int,
    budget: Optional[Budget] = None,
) -> List[Cochain]:
    """A basis of closed normalized degree-``degree`` cochains, in the basis of ``cat``.

    They are found with the identities swapped into the basis, then pulled back.
    """
    budget = budget or Budget()
    work_cat, work_mod, into, _ = identity_basis_change(cat, mod)
    basis = cochain_basis(work_cat, work_mod, degree, budget)
    target = cochain_basis(work_cat, work_mod, degree + 1, budget)
    columns = _differential_columns(work_cat, work_mod, basis, target, budget)
    out = []
    for coeffs in nullspace(columns, work_cat.field):
        data: Dict = {}
        for j, c in coeffs.items():
            chain, args, m = basis[j]
            data.setdefault((chain, args), {})[m] = c
        if into is not None:
            data = _pulled_back(into, Cochain(work_cat, work_mod, degree, data))
        out.append(Cochain(cat, mod, degree, data))
    return out


def random_cochain(cat, mod, degree, rng) -> Cochain:
    """A dense-ish random normalized cochain; every identity must be a basis vector."""
    data: Dict = {}
    for (chain, args, m) in cochain_basis(cat, mod, degree):
        c = rng.randint(-3, 3)
        if c:
            data.setdefault((chain, args), {})[m] = cat.field.of(c)
    return Cochain(cat, mod, degree, data)


def cup_with_identity(eta: Cochain, gamma: Algebra,
                      tcat: Optional[FiniteLinearCategory] = None,
                      tmod: Optional[CentralBimodule] = None) -> Cochain:
    """Extend a cochain along ``- tensor gamma``.

    ``(eta u 1)((x_1, g_1), .., (x_n, g_n)) = eta(x_1 .. x_n) (x) g_1 .. g_n``
    on the tensored category, with coefficients in the tensored bimodule.
    Cocycles map to cocycles.
    """
    cat, n = eta.cat, eta.degree
    gd = gamma.dim
    tcat = tcat or tensor_category(cat, gamma)
    tmod = tmod or tensor_bimodule(eta.mod, gamma, tcat)
    products = _gamma_products(gamma, n)
    data = {(chain, lifted): out for (chain, args), vec in eta.data.items()
            for lifted, out in _lift(args, vec, products, gd)}
    return Cochain(tcat, tmod, n, data)


def restrict_along_functor(F: LinearFunctor, eta: Cochain) -> Cochain:
    """Pull a cochain back along a functor: ``(F_* eta)(y_1..y_n) = eta(F y_1, .., F y_n)``.

    Coefficients live in the restriction of the original bimodule; the
    operation commutes with the differentials on both sides.
    """
    mod = restricted_bimodule(F, eta.mod)
    return Cochain(F.source, mod, eta.degree, _pulled_back(F, eta))


def _pulled_back(F: LinearFunctor, eta: Cochain) -> Dict:
    """The data of :func:`restrict_along_functor`, keyed by basis arguments of ``F.source``."""
    om = F.obj_map
    data: Dict = {}
    for chain, args in _basis_tuples(F.source.objects, [F.source.dim] * eta.degree,
                                     keep=lambda a, b: eta.mod.dim(om[a], om[b])):
        vecs = [F.apply(a, b, idx) for a, b, idx in zip(chain, chain[1:], args)]
        if val := vclean(eta.evaluate(tuple(om[a] for a in chain), vecs)):
            data[(chain, args)] = val
    return data
