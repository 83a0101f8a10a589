"""Finite k-linear categories, bimodules, algebras and functors.

Conventions used throughout the deformation engine:

* ``hom(a, b)`` is a based finite-dimensional space of arrows ``a -> b``;
* ``compose`` takes function order, ``hom(b,c) x hom(a,b) -> hom(a,c)``;
* ``diag`` is the same product in diagram order (``x: a->b`` then
  ``y: b->c``), the order in which Hochschild cochains consume arguments;
* bimodule values ``M(a, b)`` carry a left action by ``hom(a', a)`` and a
  right action by ``hom(b, b')``.  Scalars act through the field on both
  sides by construction, so centrality over the base field is built in.

Identity morphisms are stored as vectors; several constructions (tensoring
with an algebra whose unit is not a basis vector) make that unavoidable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import PreconditionViolation
from .linalg import Vec, solve, vadd


def vclean(vec: Vec) -> Vec:
    return {k: c for k, c in vec.items() if c}


def basis_vec(idx: int, field) -> Vec:
    return {idx: field.one}


class FiniteLinearCategory:
    """A category with finitely many objects and based finite hom spaces."""

    def __init__(self, field, objects, dims, compose, identities):
        self.field = field
        self.objects: Tuple = tuple(objects)
        self.dims: Dict[Tuple, int] = {k: v for k, v in dims.items() if v}
        self.compose = compose  # (a,b,c) -> {(g in hom(b,c), f in hom(a,b)): Vec in hom(a,c)}
        self.identities: Dict[object, Vec] = identities
        self._splits: Optional[Dict] = None

    # -- basic access -------------------------------------------------
    def dim(self, a, b) -> int:
        return self.dims.get((a, b), 0)

    def compose_basis(self, a, b, c, g: int, f: int) -> Vec:
        return self.compose.get((a, b, c), {}).get((g, f), {})

    def diag(self, a, b, c, x: int, y: int) -> Vec:
        """Product of ``x: a->b`` then ``y: b->c`` as a vector in hom(a,c)."""
        return self.compose_basis(a, b, c, y, x)

    def diag_vec(self, a, b, c, xv: Vec, yv: Vec) -> Vec:
        out: Vec = {}
        for x, cx in xv.items():
            for y, cy in yv.items():
                vadd(out, self.diag(a, b, c, x, y), cx * cy)
        return out

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

    def identities_basis_aligned(self) -> bool:
        return all(self.id_basis_index(a) is not None for a in self.objects if self.dim(a, a))

    # -- splits: co-multiplication data for the sparse differential ---
    def splits(self):
        """For each hom basis element, the pairs whose product hits it.

        Returns ``{(a, c): {k: [(b, u, v, coeff), ...]}}`` meaning the
        product of ``u: a->b`` and ``v: b->c`` contains ``coeff * e_k``.
        """
        if self._splits is None:
            table: Dict = {}
            for (a, b, c), pairs in self.compose.items():
                for (g, f), vec in pairs.items():
                    for k, coeff in vec.items():
                        if coeff:
                            table.setdefault((a, c), {}).setdefault(k, []).append((b, f, g, coeff))
            self._splits = table
        return self._splits

    # -- validation ----------------------------------------------------
    def validate(self) -> None:
        """Assert associativity and unit laws on all basis tuples."""
        f = self.field
        for a in self.objects:
            if self.dim(a, a) == 0 and any(
                self.dim(a, b) or self.dim(b, a) for b in self.objects
            ):
                raise PreconditionViolation(f"object {a!r} has arrows but no endomorphisms")
            if self.dim(a, a) and a not in self.identities:
                raise PreconditionViolation(f"object {a!r} has no identity")
        for a in self.objects:
            for b in self.objects:
                for x in range(self.dim(a, b)):
                    left = self.diag_vec(a, a, b, self.identity_vector(a), basis_vec(x, f))
                    right = self.diag_vec(a, b, b, basis_vec(x, f), self.identity_vector(b))
                    if vclean(left) != {x: f.one} or vclean(right) != {x: f.one}:
                        raise PreconditionViolation(
                            f"identity law fails on basis element {x} of hom({a!r},{b!r})"
                        )
        for a in self.objects:
            for b in self.objects:
                if not self.dim(a, b):
                    continue
                for c in self.objects:
                    if not self.dim(b, c):
                        continue
                    for e in self.objects:
                        if not self.dim(c, e):
                            continue
                        for x in range(self.dim(a, b)):
                            for y in range(self.dim(b, c)):
                                xy = self.diag(a, b, c, x, y)
                                for z in range(self.dim(c, e)):
                                    lhs: Vec = {}
                                    for k, coeff in xy.items():
                                        vadd(lhs, self.diag(a, c, e, k, z), coeff)
                                    rhs: Vec = {}
                                    for k, coeff in self.diag(b, c, e, y, z).items():
                                        vadd(rhs, self.diag(a, b, e, x, k), coeff)
                                    if vclean(lhs) != vclean(rhs):
                                        raise PreconditionViolation(
                                            f"associativity fails at ({a!r},{b!r},{c!r},{e!r}) "
                                            f"on basis ({x},{y},{z})"
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

    def product_vec(self, v: Vec, w: Vec) -> Vec:
        out: Vec = {}
        for i, ci in v.items():
            for j, cj in w.items():
                vadd(out, self.product(i, j), ci * cj)
        return out

    def unit_basis_index(self) -> Optional[int]:
        if len(self.unit) == 1:
            ((idx, coeff),) = self.unit.items()
            if coeff == self.field.one:
                return idx
        return None

    def validate(self) -> None:
        f = self.field
        for i in range(self.dim):
            if vclean(self.product_vec(self.unit, basis_vec(i, f))) != {i: f.one}:
                raise PreconditionViolation(f"left unit law fails on basis element {i}")
            if vclean(self.product_vec(basis_vec(i, f), self.unit)) != {i: f.one}:
                raise PreconditionViolation(f"right unit law fails on basis element {i}")
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.product(i, j)
                for k in range(self.dim):
                    lhs: Vec = {}
                    for x, c in ij.items():
                        vadd(lhs, self.product(x, k), c)
                    rhs: Vec = {}
                    for x, c in self.product(j, k).items():
                        vadd(rhs, self.product(i, x), c)
                    if vclean(lhs) != vclean(rhs):
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

    def lact_vec(self, a, b, c, xv: Vec, mv: Vec) -> Vec:
        out: Vec = {}
        for x, cx in xv.items():
            for m, cm in mv.items():
                vadd(out, self.lact(a, b, c, x, m), cx * cm)
        return out

    def ract_vec(self, a, b, c, mv: Vec, xv: Vec) -> Vec:
        out: Vec = {}
        for m, cm in mv.items():
            for x, cx in xv.items():
                vadd(out, self.ract(a, b, c, m, x), cm * cx)
        return out

    @classmethod
    def regular(cls, cat: FiniteLinearCategory) -> "CentralBimodule":
        """The category acting on itself: both actions are composition."""
        left: Dict = {}
        right: Dict = {}
        for a in cat.objects:
            for b in cat.objects:
                for c in cat.objects:
                    dab, dbc = cat.dim(a, b), cat.dim(b, c)
                    if not dab or not dbc:
                        continue
                    for x in range(dab):
                        for m in range(dbc):
                            v = cat.diag(a, b, c, x, m)
                            if v:
                                left.setdefault((a, b, c), {})[(x, m)] = dict(v)
                    for m in range(dab):
                        for x in range(dbc):
                            v = cat.diag(a, b, c, m, x)
                            if v:
                                right.setdefault((a, b, c), {})[(m, x)] = dict(v)
        return cls(cat, dict(cat.dims), left, right)

    def validate(self) -> None:
        cat, f = self.cat, self.field
        for a in cat.objects:
            for b in cat.objects:
                for m in range(self.dim(a, b)):
                    lv = self.lact_vec(a, a, b, cat.identity_vector(a), basis_vec(m, f))
                    rv = self.ract_vec(a, b, b, basis_vec(m, f), cat.identity_vector(b))
                    if vclean(lv) != {m: f.one} or vclean(rv) != {m: f.one}:
                        raise PreconditionViolation(
                            f"unit action fails on M({a!r},{b!r}) basis element {m}"
                        )
        objs = cat.objects
        for a in objs:
            for b in objs:
                if not cat.dim(a, b):
                    continue
                for c in objs:
                    for e in objs:
                        # (x . m) . y = x . (m . y)
                        for x in range(cat.dim(a, b)):
                            for m in range(self.dim(b, c)):
                                for y in range(cat.dim(c, e)):
                                    lhs: Vec = {}
                                    for k, coeff in self.lact(a, b, c, x, m).items():
                                        vadd(lhs, self.ract(a, c, e, k, y), coeff)
                                    rhs: Vec = {}
                                    for k, coeff in self.ract(b, c, e, m, y).items():
                                        vadd(rhs, self.lact(a, b, e, x, k), coeff)
                                    if vclean(lhs) != vclean(rhs):
                                        raise PreconditionViolation(
                                            "bimodule actions do not commute at "
                                            f"({a!r},{b!r},{c!r},{e!r})"
                                        )
                        # (x diag y) . m = x . (y . m)
                        for x in range(cat.dim(a, b)):
                            for y in range(cat.dim(b, c)):
                                xy = cat.diag(a, b, c, x, y)
                                for m in range(self.dim(c, e)):
                                    lhs = {}
                                    for k, coeff in xy.items():
                                        vadd(lhs, self.lact(a, c, e, k, m), coeff)
                                    rhs = {}
                                    for k, coeff in self.lact(b, c, e, y, m).items():
                                        vadd(rhs, self.lact(a, b, e, x, k), coeff)
                                    if vclean(lhs) != vclean(rhs):
                                        raise PreconditionViolation(
                                            "left action is not associative at "
                                            f"({a!r},{b!r},{c!r},{e!r})"
                                        )
                        # m . (x diag y) = (m . x) . y
                        for m in range(self.dim(a, b)):
                            for x in range(cat.dim(b, c)):
                                for y in range(cat.dim(c, e)):
                                    xy = cat.diag(b, c, e, x, y)
                                    lhs = {}
                                    for k, coeff in xy.items():
                                        vadd(lhs, self.ract(a, b, e, m, k), coeff)
                                    rhs = {}
                                    for k, coeff in self.ract(a, b, c, m, x).items():
                                        vadd(rhs, self.ract(a, c, e, k, y), coeff)
                                    if vclean(lhs) != vclean(rhs):
                                        raise PreconditionViolation(
                                            "right action is not associative at "
                                            f"({a!r},{b!r},{c!r},{e!r})"
                                        )


class LinearFunctor:
    """A k-linear functor between finite linear categories."""

    def __init__(self, source: FiniteLinearCategory, target: FiniteLinearCategory, obj_map, maps):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.maps = maps  # (a,b) -> list of Vec, image of each basis arrow

    def apply(self, a, b, idx: int) -> Vec:
        return self.maps.get((a, b), [{}] * self.source.dim(a, b))[idx]

    def apply_vec(self, a, b, vec: Vec) -> Vec:
        out: Vec = {}
        for idx, c in vec.items():
            vadd(out, self.apply(a, b, idx), c)
        return out

    def validate(self) -> None:
        src, tgt = self.source, self.target
        for a in src.objects:
            if src.dim(a, a):
                fa = self.obj_map[a]
                img = self.apply_vec(a, a, src.identity_vector(a))
                if vclean(img) != vclean(tgt.identity_vector(fa)):
                    raise PreconditionViolation(f"functor does not preserve the identity of {a!r}")
        for a in src.objects:
            for b in src.objects:
                for c in src.objects:
                    if not (src.dim(a, b) and src.dim(b, c)):
                        continue
                    fa, fb, fc = self.obj_map[a], self.obj_map[b], self.obj_map[c]
                    for x in range(src.dim(a, b)):
                        for y in range(src.dim(b, c)):
                            lhs = self.apply_vec(a, c, src.diag(a, b, c, x, y))
                            rhs = tgt.diag_vec(fa, fb, fc, self.apply(a, b, x), self.apply(b, c, y))
                            if vclean(lhs) != vclean(rhs):
                                raise PreconditionViolation(
                                    f"functor does not preserve composition on ({x},{y}) "
                                    f"in hom({a!r},{b!r}) x hom({b!r},{c!r})"
                                )


def restricted_bimodule(F: LinearFunctor, M: CentralBimodule) -> CentralBimodule:
    """Pull a bimodule on the target category back along a functor."""
    src = F.source
    dims = {}
    for a in src.objects:
        for b in src.objects:
            d = M.dim(F.obj_map[a], F.obj_map[b])
            if d:
                dims[(a, b)] = d
    left: Dict = {}
    right: Dict = {}
    for a in src.objects:
        for b in src.objects:
            for c in src.objects:
                fa, fb, fc = F.obj_map[a], F.obj_map[b], F.obj_map[c]
                dab = src.dim(a, b)
                if dab and M.dim(fb, fc):
                    for x in range(dab):
                        fx = F.apply(a, b, x)
                        for m in range(M.dim(fb, fc)):
                            v = M.lact_vec(fa, fb, fc, fx, basis_vec(m, src.field))
                            if v:
                                left.setdefault((a, b, c), {})[(x, m)] = v
                dbc = src.dim(b, c)
                if dbc and M.dim(fa, fb):
                    for m in range(M.dim(fa, fb)):
                        for x in range(dbc):
                            v = M.ract_vec(fa, fb, fc, basis_vec(m, src.field), F.apply(b, c, x))
                            if v:
                                right.setdefault((a, b, c), {})[(m, x)] = v
    return CentralBimodule(src, dims, left, right)


def pair_index(h: int, g: int, gdim: int) -> int:
    return h * gdim + g


def tensor_vec(vec: Vec, gvec: Vec, gdim: int) -> Vec:
    out: Vec = {}
    for h, ch in vec.items():
        for g, cg in gvec.items():
            val = ch * cg
            if val:
                out[pair_index(h, g, gdim)] = val
    return out


def tensor_category(cat: FiniteLinearCategory, gamma: Algebra) -> FiniteLinearCategory:
    """Hom spaces tensored with an algebra; products multiply coefficients
    in argument (diagram) order."""
    gd = gamma.dim
    dims = {k: v * gd for k, v in cat.dims.items()}
    compose: Dict = {}
    for (a, b, c), pairs in cat.compose.items():
        table = compose.setdefault((a, b, c), {})
        for (g_idx, f_idx), vec in pairs.items():
            for gf in range(gd):
                for gg in range(gd):
                    # diagram order: the hom(a,b) factor carries gf
                    gprod = gamma.product(gf, gg)
                    if not gprod:
                        continue
                    out = tensor_vec(vec, gprod, gd)
                    if out:
                        table[(pair_index(g_idx, gg, gd), pair_index(f_idx, gf, gd))] = out
    identities = {
        a: tensor_vec(cat.identity_vector(a), gamma.unit, gd)
        for a in cat.objects
        if cat.dim(a, a)
    }
    return FiniteLinearCategory(cat.field, cat.objects, dims, compose, identities)


def tensor_bimodule(M: CentralBimodule, gamma: Algebra, tcat: FiniteLinearCategory) -> CentralBimodule:
    gd = gamma.dim
    dims = {k: v * gd for k, v in M.dims.items()}
    left: Dict = {}
    right: Dict = {}
    for (a, b, c), pairs in M.left.items():
        table = left.setdefault((a, b, c), {})
        for (x, m), vec in pairs.items():
            for gx in range(gd):
                for gm in range(gd):
                    gprod = gamma.product(gx, gm)
                    if gprod:
                        out = tensor_vec(vec, gprod, gd)
                        if out:
                            table[(pair_index(x, gx, gd), pair_index(m, gm, gd))] = out
    for (a, b, c), pairs in M.right.items():
        table = right.setdefault((a, b, c), {})
        for (m, x), vec in pairs.items():
            for gm in range(gd):
                for gx in range(gd):
                    gprod = gamma.product(gm, gx)
                    if gprod:
                        out = tensor_vec(vec, gprod, gd)
                        if out:
                            table[(pair_index(m, gm, gd), pair_index(x, gx, gd))] = out
    return CentralBimodule(tcat, dims, left, right)
