"""Finite k-linear categories, bimodules, algebras and functors.

Conventions used throughout the deformation engine:

* ``hom(a, b)`` is a based finite-dimensional space of arrows ``a -> b``;
* every product table is keyed in diagram order, the order in which
  Hochschild cochains consume arguments: ``compose[(a, b, c)][(x, y)]`` is
  ``x: a->b`` followed by ``y: b->c`` in ``hom(a,c)``, which ``diag`` looks
  up (only the text format in :mod:`.textio` writes function order);
* every table is extended to vectors by :func:`~.linalg.multilinear`;
* every walk over chains of objects and basis tuples along them is
  :func:`_basis_tuples`, which never enters a slot with no arguments;
* bimodule values ``M(a, b)`` carry a left action by ``hom(a', a)`` and a
  right action by ``hom(b, b')``.  Scalars act through the field on both
  sides by construction, so centrality over the base field is built in.

Identity morphisms are stored as vectors; several constructions (tensoring
with an algebra whose unit is not a basis vector) make that unavoidable.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..errors import PreconditionViolation
from .linalg import Vec, multilinear, solve, vadd


def vclean(vec: Vec) -> Vec:
    return {k: c for k, c in vec.items() if c}


def basis_vec(idx: int, field) -> Vec:
    return {idx: field.one}


def _same_field(*objects) -> None:
    """Refuse objects over different fields: their numbers would mix silently."""
    if len(fields := {obj.field for obj in objects}) > 1:
        raise PreconditionViolation("mixed fields: " + " and ".join(sorted(map(repr, fields))))


def _basis_tuples(objects, slot_dims, keep=None, skip=None):
    """Every ``(chain, args)`` with ``args[k]`` in ``range(slot_dims[k](chain[k], chain[k + 1]))``.

    Chains are built one object at a time, and a chain stops at the first
    slot with no arguments left.  ``keep(chain[0], chain[-1])`` drops whole
    chains before their arguments are listed; ``skip[a]`` is left out of
    every slot from ``a`` to ``a``.  The order is by the positions of the
    chain's objects in ``objects``, then by ``args``.
    """
    skip = skip or {}
    walks = [((a,), ()) for a in objects]
    for dim in slot_dims:
        walks = [(chain + (b,), ranges + (slot,)) for chain, ranges in walks for b in objects
                 if (slot := _slot(dim(chain[-1], b), skip.get(b) if b == chain[-1] else None))]
    for chain, ranges in walks:
        if keep is None or keep(chain[0], chain[-1]):
            for args in itertools.product(*ranges):
                yield chain, args


def _slot(dim: int, left_out: Optional[int]):
    return range(dim) if left_out is None else [i for i in range(dim) if i != left_out]


def _first_nonassociative(n1, n2, n3, inner_l, outer_l, inner_r, outer_r, p):
    """The first basis triple with ``outer_l(inner_l(x, y), z) != outer_r(x, inner_r(y, z))``.

    ``x``, ``y`` and ``z`` run over ``range(n1)``, ``range(n2)`` and
    ``range(n3)`` in that nesting; each product maps two basis indices to a
    vector of characteristic ``p``.  Returns ``None`` when the law holds on every triple.
    """
    for x in range(n1):
        for y in range(n2):
            xy = inner_l(x, y)
            for z in range(n3):
                lhs: Vec = {}
                for k, coeff in xy.items():
                    vadd(lhs, outer_l(k, z), coeff, p)
                rhs: Vec = {}
                for k, coeff in inner_r(y, z).items():
                    vadd(rhs, outer_r(x, k), coeff, p)
                if vclean(lhs) != vclean(rhs):
                    return x, y, z
    return None


def _unit_failure(dims, identities, left, right, field):
    """The first ``(a, b, i)`` with ``id_a . e_i != e_i`` or ``e_i . id_b != e_i``, else None.

    ``e_i`` runs over the basis of ``dims[(a, b)]``, ``left`` and ``right`` take
    ``(a, b, c, x, y)`` as ``diag`` does; objects without ``identities`` are skipped.
    """
    p = field.p
    for (a, b), d in dims.items():
        for i in range(d):
            e = {i: field.one}
            if (a in identities and multilinear(partial(left, a, a, b), [identities[a], e], p) != e or
                    b in identities and multilinear(partial(right, a, b, b), [e, identities[b]], p) != e):
                return a, b, i
    return None


def _entry_past_spaces(name, table, objects, first, second, value) -> None:
    """Refuse the first entry of a product or action table that reads or writes past its spaces.

    ``table[(a, b, c)][(x, y)]`` takes ``x`` in ``first(a, b)`` and ``y`` in
    ``second(b, c)`` to a vector of ``value(a, c)``; an entry with no nonzero
    coefficient is no entry at all.  Every differential call runs this too,
    so the dimensions are read once per key and an entry is sorted only to be reported.
    """
    objects = set(objects)
    for (a, b, c), pairs in table.items():
        known, dx, dy, dv = {a, b, c} <= objects, first(a, b), second(b, c), value(a, c)
        inside = range(dv).__contains__
        for (x, y), vec in pairs.items():
            fits = known and 0 <= x < dx and 0 <= y < dy
            if fits and all(map(inside, vec)):
                continue
            out = sorted(k for k, coeff in vec.items() if coeff)
            if out and not (fits and all(map(inside, out))):
                raise PreconditionViolation(f"{name} entry {(x, y)} -> {out} at {(a, b, c)!r} "
                                            f"lies past its spaces (dimensions {dx} x {dy} -> {dv})")


class FiniteLinearCategory:
    """A category with finitely many objects and based finite hom spaces."""

    def __init__(self, field, objects, dims, compose, identities):
        self.field = field
        self.objects: Tuple = tuple(objects)
        if repeated := [a for k, a in enumerate(self.objects) if a in self.objects[:k]]:
            raise PreconditionViolation(f"object {repeated[0]!r} is declared twice")
        self.dims: Dict[Tuple, int] = {k: v for k, v in dims.items() if v}
        self.compose = compose  # (a,b,c) -> {(x in hom(a,b), y in hom(b,c)): Vec in hom(a,c)}
        self.identities: Dict[object, Vec] = identities

    # -- basic access -------------------------------------------------
    def dim(self, a, b) -> int:
        return self.dims.get((a, b), 0)

    def diag(self, a, b, c, x: int, y: int) -> Vec:
        """Product of ``x: a->b`` then ``y: b->c`` as a vector in hom(a,c)."""
        return self.compose.get((a, b, c), {}).get((x, y), {})

    def identity_vector(self, a) -> Vec:
        return self.identities[a]

    def id_basis_index(self, a) -> Optional[int]:
        """Index of the identity if it is a standard basis vector, else None."""
        vec = vclean(self.identities.get(a, {}))
        if len(vec) == 1:
            ((idx, coeff),) = vec.items()
            if coeff == self.field.one:
                return idx
        return None

    # -- validation ----------------------------------------------------
    def validate(self) -> None:
        """Assert table indices in range, then associativity and unit laws on all basis tuples."""
        f = self.field
        _entry_past_spaces("compose", self.compose, self.objects, self.dim, self.dim, self.dim)
        for a in self.objects:
            if self.dim(a, a) == 0 and any(
                self.dim(a, b) or self.dim(b, a) for b in self.objects
            ):
                raise PreconditionViolation(f"object {a!r} has arrows but no endomorphisms")
            if self.dim(a, a) and a not in self.identities:
                raise PreconditionViolation(f"object {a!r} has no identity")
        bad = _unit_failure(self.dims, self.identities, self.diag, self.diag, f)
        if bad:
            raise PreconditionViolation("identity law fails on basis element {2} of hom({0!r},{1!r})"
                                        .format(*bad))
        # one argument per nonzero hom, so each chain with three nonzero homs comes once
        for (a, b, c, e), _ in _basis_tuples(self.objects, [lambda x, y: min(self.dim(x, y), 1)] * 3):
            bad = _first_nonassociative(
                self.dim(a, b), self.dim(b, c), self.dim(c, e),
                partial(self.diag, a, b, c), partial(self.diag, a, c, e),
                partial(self.diag, b, c, e), partial(self.diag, a, b, e), f.p,
            )
            if bad:
                x, y, z = bad
                raise PreconditionViolation(
                    f"associativity fails at ({a!r},{b!r},{c!r},{e!r}) on basis ({x},{y},{z})"
                )


def solve_identities(field, objects, dims, compose) -> Dict[object, Vec]:
    """Solve the unit equations for each object; raise if no unit exists."""
    cat = FiniteLinearCategory(field, objects, dims, compose, {})
    out: Dict[object, Vec] = {}
    for a in objects:
        daa = cat.dim(a, a)
        if daa == 0:
            continue
        columns: List[Vec] = [{} for _ in range(daa)]
        rhs: Vec = {}
        row = 0
        for b in objects:
            # x . id_a = x for x: b -> a, then id_a . x = x for x: a -> b
            for dim, product in ((cat.dim(b, a), lambda x, k: cat.diag(b, a, a, x, k)),
                                 (cat.dim(a, b), lambda x, k: cat.diag(a, a, b, k, x))):
                for x in range(dim):
                    for k in range(daa):
                        for out_idx, c in product(x, k).items():
                            columns[k][row + out_idx] = c
                    rhs[row + x] = field.one
                    row += dim
        sol = solve(columns, rhs, field)
        if sol is None:
            raise PreconditionViolation(f"object {a!r} admits no identity morphism")
        out[a] = vclean(sol)
    return out


class Algebra:
    """A finite-dimensional unital associative algebra with a chosen basis."""

    def __init__(self, field, dim, mult, unit: Vec):
        self.field = field
        self.dim = dim
        self.mult = mult  # (i, j) -> Vec, the product e_i * e_j
        self.unit = vclean(unit)

    def product(self, i: int, j: int) -> Vec:
        return self.mult.get((i, j), {})

    def validate(self) -> None:
        def diag(a, b, c, i, j):  # the algebra as a category on one object, 0
            return self.product(i, j)
        bad = _unit_failure({(0, 0): self.dim}, {0: self.unit}, diag, diag, self.field)
        if bad:
            raise PreconditionViolation(f"unit law fails on basis element {bad[2]}")
        d, mult = self.dim, self.product
        bad = _first_nonassociative(d, d, d, mult, mult, mult, mult, self.field.p)
        if bad:
            i, j, k = bad
            raise PreconditionViolation(f"associativity fails on ({i},{j},{k})")


class CentralBimodule:
    """A bimodule over a finite linear category, central over the base field."""

    def __init__(self, cat: FiniteLinearCategory, dims, left, right):
        self.cat = cat
        self.field = cat.field
        self.dims: Dict[Tuple, int] = {k: v for k, v in dims.items() if v}
        # left:  (a,b,c) -> {(x in hom(a,b), m in M(b,c)): Vec in M(a,c)}
        # right: (a,b,c) -> {(m in M(a,b), x in hom(b,c)): Vec in M(a,c)}
        self.left, self.right = left, right

    def dim(self, a, b) -> int:
        return self.dims.get((a, b), 0)

    def lact(self, a, b, c, x: int, m: int) -> Vec:
        return self.left.get((a, b, c), {}).get((x, m), {})

    def ract(self, a, b, c, m: int, x: int) -> Vec:
        return self.right.get((a, b, c), {}).get((m, x), {})

    @classmethod
    def regular(cls, cat: FiniteLinearCategory) -> "CentralBimodule":
        """The category acting on itself: both actions are composition."""
        left, right = ({key: {pair: dict(vec) for pair, vec in pairs.items() if vec}
                        for key, pairs in cat.compose.items()} for _ in range(2))
        return cls(cat, dict(cat.dims), left, right)

    def validate(self) -> None:
        cat, f = self.cat, self.field
        _entry_past_spaces("left", self.left, cat.objects, cat.dim, self.dim, self.dim)
        _entry_past_spaces("right", self.right, cat.objects, self.dim, cat.dim, self.dim)
        for a, b in self.dims:
            for x in (a, b):
                if x not in cat.identities:
                    raise PreconditionViolation(
                        f"M({a!r},{b!r}) is nonzero but object {x!r} has no identity"
                    )
        bad = _unit_failure(self.dims, cat.identities, self.lact, self.ract, f)
        if bad:
            raise PreconditionViolation("unit action fails on M({!r},{!r}) basis element {}".format(*bad))
        # each chain along which every hom or every M(x, y) is nonzero, once
        either = [lambda x, y: min(cat.dim(x, y) + self.dim(x, y), 1)] * 3
        for (a, b, c, e), _ in _basis_tuples(cat.objects, either):
            at = f"({a!r},{b!r},{c!r},{e!r})"
            # (x . m) . y = x . (m . y)
            if _first_nonassociative(cat.dim(a, b), self.dim(b, c), cat.dim(c, e),
                                     partial(self.lact, a, b, c), partial(self.ract, a, c, e),
                                     partial(self.ract, b, c, e), partial(self.lact, a, b, e), f.p):
                raise PreconditionViolation(f"bimodule actions do not commute at {at}")
            # (x diag y) . m = x . (y . m)
            if _first_nonassociative(cat.dim(a, b), cat.dim(b, c), self.dim(c, e),
                                     partial(cat.diag, a, b, c), partial(self.lact, a, c, e),
                                     partial(self.lact, b, c, e), partial(self.lact, a, b, e), f.p):
                raise PreconditionViolation(f"left action is not associative at {at}")
            # (m . x) . y = m . (x diag y)
            if _first_nonassociative(self.dim(a, b), cat.dim(b, c), cat.dim(c, e),
                                     partial(self.ract, a, b, c), partial(self.ract, a, c, e),
                                     partial(cat.diag, b, c, e), partial(self.ract, a, b, e), f.p):
                raise PreconditionViolation(f"right action is not associative at {at}")


class LinearFunctor:
    """A k-linear functor between finite linear categories."""

    def __init__(self, source: FiniteLinearCategory, target: FiniteLinearCategory, obj_map, maps):
        _same_field(source, target)
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.maps = maps  # (a,b) -> list of Vec, image of each basis arrow

    def apply(self, a, b, idx: int) -> Vec:
        return self.maps.get((a, b), [{}] * self.source.dim(a, b))[idx]

    def validate(self) -> None:
        src, tgt, om, p = self.source, self.target, self.obj_map, self.source.field.p
        for a in src.objects:
            if src.dim(a, a):
                img = multilinear(partial(self.apply, a, a), [src.identity_vector(a)], p)
                if img != vclean(tgt.identity_vector(om[a])):
                    raise PreconditionViolation(f"functor does not preserve the identity of {a!r}")
        for (a, b, c), (x, y) in _basis_tuples(src.objects, [src.dim] * 2):
            lhs = multilinear(partial(self.apply, a, c), [src.diag(a, b, c, x, y)], p)
            rhs = multilinear(partial(tgt.diag, om[a], om[b], om[c]),
                              [self.apply(a, b, x), self.apply(b, c, y)], p)
            if lhs != rhs:
                raise PreconditionViolation(
                    f"functor does not preserve composition on ({x},{y}) "
                    f"in hom({a!r},{b!r}) x hom({b!r},{c!r})"
                )


def restricted_bimodule(F: LinearFunctor, M: CentralBimodule) -> CentralBimodule:
    """Pull a bimodule on the target category back along a functor."""
    _same_field(F.target, M)
    src, om, one, p = F.source, F.obj_map, F.source.field.one, F.source.field.p
    def mdim(a, b):
        return M.dim(om[a], om[b])
    dims = {(a, b): d for a in src.objects for b in src.objects if (d := mdim(a, b))}
    left: Dict = {}
    right: Dict = {}
    for (a, b, c), (x, m) in _basis_tuples(src.objects, [src.dim, mdim]):
        if v := multilinear(partial(M.lact, om[a], om[b], om[c]), [F.apply(a, b, x), {m: one}], p):
            left.setdefault((a, b, c), {})[(x, m)] = v
    for (a, b, c), (m, x) in _basis_tuples(src.objects, [mdim, src.dim]):
        if v := multilinear(partial(M.ract, om[a], om[b], om[c]), [{m: one}, F.apply(b, c, x)], p):
            right.setdefault((a, b, c), {})[(m, x)] = v
    return CentralBimodule(src, dims, left, right)


def _split_idempotents(cat: FiniteLinearCategory, mod: CentralBimodule):
    """``(cat', mod')`` with an object ``(a, i)`` per summand ``e_i`` of a split ``id_a``, else None.

    ``id_a`` splits when it is a sum of basis vectors with ``e_i e_j = delta_ij e_i``; other objects
    stay whole as ``(a, None)``.  ``hom((a, i), (b, j)) = e_i hom(a, b) e_j``, and ``M`` alike, so
    HH is unchanged (Morita invariance).  None when nothing splits, when some basis vector is fixed
    by no idempotent on a side, or when a nonzero table entry leaves its blocks; an idempotent that
    neither fixes nor kills a basis vector makes such an entry.
    """
    one, p, parts = cat.field.one, cat.field.p, {}
    for a in cat.objects:
        e = vclean(cat.identities.get(a, {}))
        if not set(e) <= set(range(cat.dim(a, a))):
            return None
        split = all(c == one and vclean(cat.diag(a, a, a, i, j)) == ({i: one} if i == j else {})
                    for i, c in e.items() for j in e)
        parts[a] = [((a, i), {i: one}) for i in sorted(e)] if split else [((a, None), e)]
    if max(map(len, parts.values()), default=0) < 2:
        return None

    def blocks(dims, lact, ract):  # (a, b, x) -> (A, B, index of e_x in hom(A, B)); block sizes
        place, sizes = {}, {}
        for (a, b), d in dims.items():
            for x in range(d):
                e = {x: one}
                left = [multilinear(partial(lact, a, a, b), [u, e], p) for _, u in parts.get(a, ())]
                right = [multilinear(partial(ract, a, b, b), [e, u], p) for _, u in parts.get(b, ())]
                if e not in left or e not in right:
                    return None
                key = (parts[a][left.index(e)][0], parts[b][right.index(e)][0])
                place[(a, b, x)] = (*key, sizes.get(key, 0))
                sizes[key] = place[(a, b, x)][2] + 1
        return place, sizes

    def relabel(table, first, second, value):  # the table on the blocks, None if an entry leaves them
        out = {}
        for (a, b, c), pairs in table.items():
            for (x, y), vec in pairs.items():
                s, t, image = first.get((a, b, x)), second.get((b, c, y)), {}
                for k, coeff in vclean(vec).items():
                    k = value.get((a, c, k))
                    if None in (s, t, k) or s[1] != t[0] or k[:2] != (s[0], t[1]):
                        return None
                    image[k[2]] = coeff
                if image:
                    out.setdefault((s[0], s[1], t[1]), {})[(s[2], t[2])] = image
        return out

    hom, bimod = blocks(cat.dims, cat.diag, cat.diag), blocks(mod.dims, mod.lact, mod.ract)
    if hom is None or bimod is None:
        return None
    (hp, hs), (mp, ms) = hom, bimod
    tables = [relabel(cat.compose, hp, hp, hp), relabel(mod.left, hp, mp, mp),
              relabel(mod.right, mp, hp, mp)]
    if None in tables:
        return None
    ids = {p: {hp[(a, a, k)][2]: c for k, c in u.items()} for a, ps in parts.items() for p, u in ps}
    new = FiniteLinearCategory(cat.field, list(ids), hs, tables[0], ids)
    return new, CentralBimodule(new, ms, tables[1], tables[2])


def pair_index(h: int, g: int, gdim: int) -> int:
    return h * gdim + g


def tensor_vec(vec: Vec, gvec: Vec, gdim: int, p: int) -> Vec:
    out: Vec = {}
    for h, ch in vec.items():
        for g, cg in gvec.items():
            if val := ch * cg % p if p else ch * cg:
                out[pair_index(h, g, gdim)] = val
    return out



def _gamma_products(gamma: Algebra, s: int) -> List[Tuple[Tuple[int, ...], Vec]]:
    """Every ``(g_1..g_s)`` with ``1 e_{g_1} .. e_{g_s}`` nonzero, with that product."""
    products = [((), gamma.unit)]
    for _ in range(s):
        products = [(gs + (g,), p) for gs, prod in products for g in range(gamma.dim)
                    if (p := multilinear(gamma.product, [prod, basis_vec(g, gamma.field)], gamma.field.p))]
    return products


def _lift(args: Tuple[int, ...], vec: Vec, products, gamma: Algebra):
    """Lift one tensor entry along ``- (x) gamma``, arguments in diagram order.

    Yields ``((args_k (x) g_k)_k, vec (x) g_1 .. g_s)`` for each entry of
    ``products`` (from :func:`_gamma_products`) whose lifted value is nonzero.
    """
    gdim = gamma.dim
    for gs, prod in products:
        out = tensor_vec(vec, prod, gdim, gamma.field.p)
        if out:
            yield tuple(pair_index(h, g, gdim) for h, g in zip(args, gs)), out


def _lift_tables(gamma: Algebra, *tables) -> List[Dict]:
    """Each binary product table ``key -> {(x, y): Vec}`` lifted along ``- (x) gamma``."""
    products = _gamma_products(gamma, 2)
    return [{key: {lifted: out for args, vec in pairs.items()
                   for lifted, out in _lift(args, vec, products, gamma)}
             for key, pairs in table.items()}
            for table in tables]


def tensor_category(cat: FiniteLinearCategory, gamma: Algebra) -> FiniteLinearCategory:
    """Hom spaces tensored with an algebra; products multiply coefficients
    in argument (diagram) order."""
    _same_field(cat, gamma)
    gd = gamma.dim
    dims = {k: v * gd for k, v in cat.dims.items()}
    (compose,) = _lift_tables(gamma, cat.compose)
    identities = {
        a: tensor_vec(cat.identity_vector(a), gamma.unit, gd, gamma.field.p)
        for a in cat.objects
        if cat.dim(a, a)
    }
    return FiniteLinearCategory(cat.field, cat.objects, dims, compose, identities)


def tensor_bimodule(M: CentralBimodule, gamma: Algebra, tcat: FiniteLinearCategory) -> CentralBimodule:
    _same_field(M, gamma, tcat)
    dims = {k: v * gamma.dim for k, v in M.dims.items()}
    left, right = _lift_tables(gamma, M.left, M.right)
    return CentralBimodule(tcat, dims, left, right)
