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
from which :func:`_block_columns` builds the columns of ``d`` on one block:
the basis keys ``(chain, args, m)`` of one ``(chain, args)``, which
:func:`cochain_basis` emits together.  A column holds a prefix term per entry
of the left action on ``e_m``, a merge term per pair of arrows whose product
hits an argument, a suffix term per entry of the right action.  A merge term
lands in the same target block for every ``m``, and a prefix or suffix term
in the same block for every ``m`` whose action entry reaches it, so the walk
looks each target block up once per source block.  The matrix of ``d`` is
these columns, which :mod:`.linalg` reduces; their linear extension, summed
on raw numbers, is :func:`_coboundary`, which ``deform`` tests for zero and
:func:`hochschild_differential` exports as a :class:`Cochain`.  Indices are
checked once, where they enter: a :class:`Cochain` refuses a key or a target
outside its category and bimodule, and the tables refuse every entry that
``validate()`` refuses, so a term past its block raises there and the walk
itself checks nothing.

Cochain spaces are enumerated in one model, the normalized subcomplex of
cochains vanishing on identity arguments (Loday, *Cyclic Homology*, ch. 1),
whose keys skip each identity; it has the cohomology of the full bar complex.
:func:`hh_dimensions` and :func:`cocycle_space` swap every identity into the
basis and leave the terms of an identity out: they land on identity arguments
and cancel in pairs by the unit laws, which are checked once per call instead.
Before the swap, :func:`hh_dimensions` splits an object whose identity is a
sum of orthogonal idempotent basis vectors into one object per summand
(:func:`~.category._split_idempotents`); HH is Morita invariant
(Lowen-Van den Bergh, *Adv. Math.* 198, 2005), and the split cochain spaces
are far smaller.  It then reduces each ``d_k`` only on the keys that lead no
pivot of ``d_{k-1}`` (:meth:`~.linalg.Echelon.lead_rows`).  :func:`cocycle_space`
returns cochains in the given basis, so it does not split.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby
from operator import itemgetter
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
    _entry_past_spaces,
    _gamma_products,
    _lift,
    _same_field,
    _split_idempotents,
    _unit_failure,
    restricted_bimodule,
    tensor_bimodule,
    tensor_category,
    vadd,
    vclean,
)
from .linalg import Echelon, multilinear, nullspace, raw


class Cochain:
    """A sparse Hochschild cochain with coefficients in a central bimodule."""

    def __init__(self, cat: FiniteLinearCategory, mod: CentralBimodule, degree: int, data=None):
        if degree < 0:
            raise PreconditionViolation("cochain degree must be >= 0")
        _same_field(cat, mod)
        self.cat = cat
        self.mod = mod
        self.degree = degree
        self.data: Dict[Tuple[Tuple, Tuple[int, ...]], Vec] = {}
        of = cat.field.of  # a value is read into the field: -1 over F_p is stored as p - 1
        for (chain, args), vec in (data or {}).items():
            self._check_key(chain, args, vec)
            if vec := {m: v for m, c in vec.items() if (v := of(c))}:
                self.data[(chain, args)] = vec

    @classmethod
    def _built(cls, cat, mod, degree: int, data: Dict) -> "Cochain":
        """A cochain on keys and targets the library made to fit: zeros dropped, nothing re-checked."""
        self = cls.__new__(cls)
        self.cat, self.mod, self.degree = cat, mod, degree
        self.data = {key: vec for key, vec in ((k, vclean(v)) for k, v in data.items()) if vec}
        return self

    def _check_key(self, chain: Tuple, args: Tuple[int, ...], vec: Vec) -> None:
        """Refuse a component off its degree, an argument past its hom, or a target past ``M``."""
        if len(chain) != self.degree + 1 or len(args) != self.degree:
            raise PreconditionViolation(
                f"component on chain {chain} with {len(args)} arguments does not "
                f"fit degree {self.degree}"
            )
        for k in range(self.degree):
            if not 0 <= args[k] < self.cat.dim(chain[k], chain[k + 1]):
                raise PreconditionViolation(
                    f"argument index {args[k]} out of range for hom({chain[k]!r},{chain[k+1]!r})"
                )
        for m in vec:
            if not 0 <= m < self.mod.dim(chain[0], chain[-1]):
                raise PreconditionViolation(
                    f"target index {m} out of range for M({chain[0]!r},{chain[-1]!r})"
                )

    def component(self, chain: Tuple, args: Tuple[int, ...]) -> Vec:
        return self.data.get((chain, args), {})

    def evaluate(self, chain: Tuple, arg_vecs: List[Vec]) -> Vec:
        """Multilinear evaluation on arrow vectors (not just basis arrows)."""
        return multilinear(lambda *args: self.data.get((chain, args), {}), arg_vecs, self.cat.field.p)

    def is_zero(self) -> bool:
        return not any(self.data.values())

    def scaled(self, c) -> "Cochain":
        of = self.cat.field.of
        return Cochain._built(
            self.cat, self.mod, self.degree,
            {k: {i: of(c * v) for i, v in vec.items()} for k, vec in self.data.items()},
        )

    def __add__(self, other: "Cochain") -> "Cochain":
        if other.degree != self.degree:
            raise PreconditionViolation("cannot add cochains of different degrees")
        data = {k: dict(v) for k, v in self.data.items()}
        for k, vec in other.data.items():
            target = data.setdefault(k, {})
            vadd(target, vec, 1, self.cat.field.p)
        return Cochain._built(self.cat, self.mod, self.degree, data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.data == other.data  # both hold only nonzero values
        )


def differential_tables(cat: FiniteLinearCategory, mod: CentralBimodule):
    """The tables of :func:`_tables` with every entry, for the full bar differential."""
    return _tables(cat, mod, normalized=False)


def _refuse_entries_past_spaces(cat: FiniteLinearCategory, mod: CentralBimodule) -> None:
    """Raise, with the words of ``validate()``, on a table entry past its spaces."""
    _entry_past_spaces("compose", cat.compose, cat.objects, cat.dim, cat.dim, cat.dim)
    _entry_past_spaces("left", mod.left, cat.objects, cat.dim, mod.dim, mod.dim)
    _entry_past_spaces("right", mod.right, cat.objects, mod.dim, cat.dim, mod.dim)


def _refuse_before_rebuilding(cat: FiniteLinearCategory, mod: CentralBimodule) -> None:
    """Check the caller's tables if an identity is not a basis vector, and so gets swapped in.

    ``_split_idempotents`` and :func:`identity_basis_change` rebuild the tables over in-range
    arguments, so :func:`_tables` sees only the rebuilt ones; otherwise it is the one check.
    """
    if any(cat.dim(a, a) and cat.id_basis_index(a) is None for a in cat.objects):
        _refuse_entries_past_spaces(cat, mod)


def _tables(cat: FiniteLinearCategory, mod: CentralBimodule, normalized: bool):
    """The structure tensors as raw numbers (:func:`~.linalg.raw`), indexed per basis key.

    ``left[(x0, xn, m)]`` lists ``(a, x, [(m', c), ..])`` for each nonzero ``x . e_m``,
    ``right[(x0, xn, m)]`` lists ``(c, x, [(m', c), ..])`` for each nonzero ``e_m . x``,
    ``splits[(a, c, k)]`` is ``[count, pairs]``: ``pairs`` lists ``(b, u, v, coeff)`` for each
    ``u: a->b`` and ``v: b->c`` whose product has ``coeff e_k``, ``count`` how many there are.
    Not cached: tensors can change.  ``normalized`` checks the unit laws and
    drops the terms of ``id . e_m``, ``e_m . id`` and the splits ``(id, k)``
    and ``(k, id)``, still counted: an action entry keeps its place.  A table
    entry past its spaces raises first (:func:`_refuse_entries_past_spaces`),
    so every term of :func:`_block_columns` lands in its target block.
    """
    _refuse_entries_past_spaces(cat, mod)
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
            if any(vec.values()):
                left.setdefault((x0, xn, m), []).append(
                    (a, x, [] if (a, x) == (x0, units.get(a)) else raws(vec)))
    for (x0, xn, c), table in mod.right.items():
        for (m, x), vec in table.items():
            if any(vec.values()):
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


def _block_columns(tables, chain: Tuple, args: Tuple[int, ...], ms, budget: Budget, place):
    """The columns of ``d`` on the basis cochains ``e_m`` at ``(chain, args)``, one per ``m`` in ``ms``.

    Read from the tables of :func:`_tables`: prefix terms ``x . e_m`` from the
    left action, merge terms ``(-1)^{i+1} coeff e_m`` from the splits, suffix
    terms ``(-1)^{n+1} e_m . x`` from the right action.  ``place((chain',
    args'))`` gives where the target block's ``e_0`` sits; it is asked once
    per target of the block, so a column maps ``pos + m'`` to an unreduced
    sum of raw numbers.  Every term lands in its block: the tables and the
    cochain keys were checked where they were built.  Charges ``budget`` per
    ``m``, one unit per nonzero term (an action entry or a split), counted as
    the tables count.
    """
    left, splits, right = tables
    x0, xn, n = chain[0], chain[-1], len(args)
    merges = [splits.get((chain[i], chain[i + 1], args[i]), (0, ())) for i in range(n)]
    merged = sum(count for count, _ in merges)
    sides = [(m, left.get((x0, xn, m), ()), right.get((x0, xn, m), ())) for m in ms]
    for _, prefix, suffix in sides:
        budget.charge(len(prefix) + len(suffix) + merged)
    # a merge term lands on the same m of the same target for every m
    across = [(place((chain[: i + 1] + (b,) + chain[i + 1 :], args[:i] + (u, v) + args[i + 1 :])),
               coeff if i % 2 else -coeff)
              for i, (_, pairs) in enumerate(merges) for b, u, v, coeff in pairs]
    starts, ends, columns = {}, {}, []
    negate = n % 2 == 0
    for m, prefix, suffix in sides:
        col: Dict = {}
        for a, x, vec in prefix:
            if vec:
                pos = starts.get((a, x))
                if pos is None:
                    pos = starts[(a, x)] = place(((a,) + chain, (x,) + args))
                for mm, c in vec:
                    col[pos + mm] = col.get(pos + mm, 0) + c
        for pos, c in across:
            col[pos + m] = col.get(pos + m, 0) + c
        for c, x, vec in suffix:
            if vec:
                pos = ends.get((c, x))
                if pos is None:
                    pos = ends[(c, x)] = place((chain + (c,), args + (x,)))
                for mm, t in vec:
                    col[pos + mm] = col.get(pos + mm, 0) + (-t if negate else t)
        columns.append(col)
    return columns


def hochschild_differential(f: Cochain, budget: Optional[Budget] = None) -> Cochain:
    """The bar differential ``df``: the raw :func:`_coboundary` in the field's type (``field.of``)."""
    data: Dict = {}
    for (chain, args, m), c in _coboundary(f, budget).items():
        data.setdefault((chain, args), {})[m] = f.cat.field.of(c)
    return Cochain._built(f.cat, f.mod, f.degree + 1, data)


def _coboundary(f: Cochain, budget: Optional[Budget] = None) -> Dict:
    """``df`` as ``{(chain, args, m): c}``, every ``c`` a nonzero raw number (:func:`raw`).

    The columns of :func:`_block_columns` over the full
    :func:`differential_tables`, so a cochain need not be normalized, summed
    with the coefficients of ``f``; the targets get their rows as they
    appear.  Charges the budget for every basis entry ``(chain, args, m)`` of
    ``f``.
    """
    budget, field, mod = budget or Budget(), f.cat.field, f.mod
    p, tables = field.p, differential_tables(f.cat, mod)
    index: Dict = {}
    keys: List = []  # keys[row] is the (chain, args, m) of a row

    def place(target):
        pos = index.get(target)
        if pos is None:
            chain, args = target
            pos = index[target] = len(keys)
            keys.extend((chain, args, m) for m in range(mod.dim(chain[0], chain[-1])))
        return pos

    out: Dict = {}
    for (chain, args), vec in f.data.items():
        for c, col in zip(vec.values(), _block_columns(tables, chain, args, vec, budget, place)):
            c = raw(field, c)
            for row, t in col.items():
                out[row] = out.get(row, 0) + c * t
    return {keys[row]: v for row, c in out.items() if (v := c % p if p else c)}


def cochain_basis(
    cat: FiniteLinearCategory,
    mod: CentralBimodule,
    degree: int,
    budget: Optional[Budget] = None,
) -> List[Tuple[Tuple, Tuple[int, ...], int]]:
    """Basis keys ``(chain, args, target)`` of the degree-``degree`` normalized cochain space.

    Every identity must be a basis vector; no argument is an identity.
    """
    if degree < 0:
        raise PreconditionViolation("cochain degree must be >= 0")
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

    Built from ``tables``, by default the normalized :func:`_tables`, one
    :func:`_block_columns` per run of ``source`` keys on one ``(chain,
    args)``.  An entry is a sum of raw numbers that :mod:`.linalg` reduces:
    it may be zero or, over F_p, outside ``[0, p)``.
    """
    tables = tables or _tables(cat, mod, normalized=True)
    # cochain_basis emits the keys of each (chain, args) contiguously, m = 0 first
    blocks = {(chain, args): pos for pos, (chain, args, m) in enumerate(target) if m == 0}
    columns: List[Vec] = []
    for (chain, args), keys in groupby(source, itemgetter(0, 1)):
        columns += _block_columns(tables, chain, args, [m for _, _, m in keys], budget,
                                  blocks.__getitem__)
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
    one, p = cat.field.one, cat.field.p
    into = {key: [{i: one} for i in range(d)] for key, d in cat.dims.items()}
    back = dict(into)
    for a, (j, e) in swaps.items():
        inv = pow(e[j], -1, p) if p else one / e[j]  # e_j = inv (e_a - sum_{k != j} c_k e_k)
        back[(a, a)] = [e if i == j else v for i, v in enumerate(into[(a, a)])]
        into[(a, a)] = [{k: cat.field.of((one if k == j else -c) * inv) for k, c in e.items()}
                        if i == j else v for i, v in enumerate(into[(a, a)])]
    identities = {**cat.identities, **{a: {j: one} for a, (j, _) in swaps.items()}}
    copy = FiniteLinearCategory(cat.field, cat.objects, cat.dims, {}, identities)
    objects = {a: a for a in cat.objects}
    into_f, back_f = LinearFunctor(cat, copy, objects, into), LinearFunctor(copy, cat, objects, back)
    for a, b, c in cat.compose:
        for x in range(cat.dim(a, b)):
            for y in range(cat.dim(b, c)):
                xy = multilinear(partial(cat.diag, a, b, c), [back[(a, b)][x], back[(b, c)][y]], p)
                if v := multilinear(partial(into_f.apply, a, c), [xy], p):
                    copy.compose.setdefault((a, b, c), {})[(x, y)] = v
    return copy, restricted_bimodule(back_f, mod), into_f, back_f


def hh_dimensions(
    cat: FiniteLinearCategory,
    mod: CentralBimodule,
    up_to: int,
    budget: Optional[Budget] = None,
) -> List[int]:
    """``dim HH^k`` for ``k = 0 .. up_to`` by exact rank-nullity, identities swapped into the basis.

    Identities that split into idempotent basis vectors are split into objects first, which
    lowers ``Budget.spent``; an input that does not split is counted as given.  ``d_k`` is not
    assembled when degree ``k + 1`` has no basis keys: its rank is 0.

    ``d_k`` is reduced only on the basis keys that lead no pivot of ``d_{k-1}`` ("clearing":
    Chen-Kerber, EuroCG 2011; Bauer-Kerber-Reininghaus, 2014).  Those pivots span
    ``im d_{k-1}``, which ``d_k`` kills, and with the keys off their leads they form a basis,
    so the rank is exact and a cleared key's column is never built.  That needs ``d . d = 0``:
    the numbers assume associative tables, which are not checked here.  On tables that are
    not associative they are still nonnegative, and they are not Hochschild dimensions.
    """
    budget = budget or Budget()
    _refuse_before_rebuilding(cat, mod)
    cat, mod = _split_idempotents(cat, mod) or (cat, mod)
    cat, mod, _, _ = identity_basis_change(cat, mod)
    bases = [cochain_basis(cat, mod, k, budget) for k in range(up_to + 2)]
    tables = _tables(cat, mod, normalized=True)
    ranks: List[int] = []
    cleared: set = set()  # the positions in bases[k] that lead a pivot of d_{k-1}
    for k in range(up_to + 1):
        source = [key for j, key in enumerate(bases[k]) if j not in cleared]
        cleared = Echelon(_differential_columns(cat, mod, source, bases[k + 1], budget, tables),
                          cat.field, combos=False).lead_rows() if bases[k + 1] else set()
        ranks.append(len(cleared))
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
    _refuse_before_rebuilding(cat, mod)
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
            data = _pulled_back(into, Cochain._built(work_cat, work_mod, degree, data))
        out.append(Cochain._built(cat, mod, degree, data))
    return out


def random_cochain(cat, mod, degree, rng) -> Cochain:
    """A dense-ish random normalized cochain; every identity must be a basis vector."""
    data: Dict = {}
    for (chain, args, m) in cochain_basis(cat, mod, degree):
        c = rng.randint(-3, 3)
        if c:
            data.setdefault((chain, args), {})[m] = cat.field.of(c)
    return Cochain._built(cat, mod, degree, data)


def cup_with_identity(eta: Cochain, gamma: Algebra) -> Cochain:
    """Extend a cochain along ``- tensor gamma``.

    ``(eta u 1)((x_1, g_1), .., (x_n, g_n)) = eta(x_1 .. x_n) (x) g_1 .. g_n``
    on the tensored category, with coefficients in the tensored bimodule.
    Cocycles map to cocycles.
    """
    n = eta.degree
    tcat = tensor_category(eta.cat, gamma)
    products = _gamma_products(gamma, n)
    data = {(chain, lifted): out for (chain, args), vec in eta.data.items()
            for lifted, out in _lift(args, vec, products, gamma)}
    return Cochain._built(tcat, tensor_bimodule(eta.mod, gamma, tcat), n, data)


def restrict_along_functor(F: LinearFunctor, eta: Cochain) -> Cochain:
    """Pull a cochain back along a functor: ``(F_* eta)(y_1..y_n) = eta(F y_1, .., F y_n)``.

    Coefficients live in the restriction of the original bimodule; the
    operation commutes with the differentials on both sides.  ``eta`` is
    keyed on ``F.target`` first, so a cochain of another category is refused.
    """
    eta = Cochain(F.target, eta.mod, eta.degree, eta.data)
    mod = restricted_bimodule(F, eta.mod)
    return Cochain._built(F.source, mod, eta.degree, _pulled_back(F, eta))


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
