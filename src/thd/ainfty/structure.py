"""A-infinity structures on finite graded hom spaces, and deformations.

An :class:`AInfinityStructure` stores graded based hom spaces and sparse
higher-product tensors ``m_s``; ``m_s`` has degree ``2 - s`` and consumes
arguments in diagram order (``x_1: a_0 -> a_1`` first).  The defining
identities, for every ``k``,

    sum_{r+s+t=k} (-1)^{r+st} m_{r+1+t} (id^r (x) m_s (x) id^t) = 0

are evaluated with the Koszul rule: applying ``id^r (x) m_s (x) id^t`` to
elements picks up ``(-1)^{|m_s| * (|x_1| + .. + |x_r|)}``.

Deforming a linear category along a closed degree-``n`` cochain with
bimodule coefficients yields the structure with hom spaces
``hom(a,b) (+) M(a,b)`` (the bimodule part shifted into degree ``2 - n``),
``m_2`` the square-zero-extension product, ``m_n`` the cochain, and no
other products.  Its defining identities reduce to: associativity (k = 3),
closedness of the cochain (k = n + 1, where the identity evaluates to
minus the differential), and the vanishing of the cochain on bimodule
arguments (k = 2n - 1); everything else is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import NotACocycle, PreconditionViolation
from .budget import Budget
from .category import (
    Algebra,
    CentralBimodule,
    FiniteLinearCategory,
    Vec,
    _gamma_products,
    _lift,
    basis_vec,
    tensor_category,
    tensor_vec,
    vadd,
    vclean,
)
from .cochain import Cochain, hochschild_differential
from .linalg import multilinear

OpsTable = Dict[int, Dict[Tuple[Tuple, Tuple[int, ...]], Vec]]


class AInfinityStructure:
    """Objects, graded based hom spaces, sparse product tensors, units."""

    def __init__(self, field, objects, basis, ops: OpsTable, units):
        self.field = field
        self.objects = tuple(objects)
        self.basis: Dict[Tuple, Tuple[int, ...]] = {k: tuple(v) for k, v in basis.items() if v}
        self.ops: OpsTable = {s: {k: vclean(v) for k, v in tab.items() if vclean(v)}
                              for s, tab in ops.items()}
        self.ops = {s: tab for s, tab in self.ops.items() if tab}
        self.units: Dict[object, Vec] = units  # strict units as vectors

    def dim(self, a, b) -> int:
        return len(self.basis.get((a, b), ()))

    def deg(self, a, b, idx: int) -> int:
        return self.basis[(a, b)][idx]

    def support(self) -> List[int]:
        return sorted(self.ops)

    def apply(self, s: int, chain: Tuple, args: Tuple[int, ...]) -> Vec:
        return self.ops.get(s, {}).get((chain, args), {})

    def apply_vecs(self, s: int, chain: Tuple, arg_vecs: List[Vec]) -> Vec:
        return multilinear(lambda *args: self.apply(s, chain, args), arg_vecs)


def from_linear_category(cat: FiniteLinearCategory) -> AInfinityStructure:
    """A linear category seen as a structure concentrated in ``m_2``."""
    basis = {k: (0,) * d for k, d in cat.dims.items()}
    m2 = {(key, pair): dict(vec) for key, pairs in cat.compose.items() for pair, vec in pairs.items()}
    units = {a: cat.identity_vector(a) for a in cat.objects if cat.dim(a, a)}
    return AInfinityStructure(cat.field, cat.objects, basis, {2: m2}, units)


def deform(
    cat: FiniteLinearCategory,
    mod: CentralBimodule,
    eta: Cochain,
    check: bool = True,
    budget: Optional[Budget] = None,
) -> AInfinityStructure:
    """The category deformed along a closed cochain of degree ``n >= 3``.

    Raises :class:`NotACocycle` when ``d eta != 0`` (the identity at
    ``k = n + 1`` would fail).  ``check=False`` skips the test; it exists so
    that the verifier's failure localization can be demonstrated.
    """
    n = eta.degree
    if n < 3:
        raise PreconditionViolation(f"deformation degree must be >= 3, got {n}")
    if check:
        if not hochschild_differential(eta, budget).is_zero():
            raise NotACocycle(f"the degree-{n} cochain is not closed")
    objects = cat.objects
    basis = {(a, b): (0,) * cat.dim(a, b) + (2 - n,) * mod.dim(a, b)
             for a in objects for b in objects}

    def shifted(a, b, vec: Vec) -> Vec:
        """A vector of ``M(a, b)`` in the bimodule block of ``hom(a,b) (+) M(a,b)``."""
        return {cat.dim(a, b) + m: c for m, c in vec.items()}

    # the arrows keep their indices; a bimodule argument is shifted like a value
    m2 = dict(from_linear_category(cat).ops.get(2, {}))
    for (a, b, c), pairs in mod.left.items():
        for (x, m), vec in pairs.items():
            m2[((a, b, c), (x, cat.dim(b, c) + m))] = shifted(a, c, vec)
    for (a, b, c), pairs in mod.right.items():
        for (m, x), vec in pairs.items():
            m2[((a, b, c), (cat.dim(a, b) + m, x))] = shifted(a, c, vec)
    mn = {(chain, args): shifted(chain[0], chain[-1], vec) for (chain, args), vec in eta.data.items()}
    units = {a: dict(cat.identity_vector(a)) for a in objects if cat.dim(a, a)}
    return AInfinityStructure(cat.field, objects, basis, {2: m2, n: mn}, units)


@dataclass(frozen=True)
class StasheffReport:
    """Outcome of checking the defining identities and strict unitality.

    ``ks_evaluated`` lists the arities whose identity has any term at all
    for the structure's product support; for support ``{2, n}`` these are
    ``{3, n+1, 2n-1}``, and every other identity holds vacuously.
    ``evaluations`` counts the terms evaluated: joins of an inner product
    entry with an outer one, not basis tuples.
    """

    passed: bool
    k_max: int
    evaluations: int
    ks_evaluated: Tuple[int, ...] = ()
    first_failure: Optional[Tuple[int, Tuple, Tuple[int, ...]]] = None
    residual: Optional[Dict] = None
    unital: bool = True
    unital_failure: Optional[str] = None

    def summary(self) -> str:
        ks = ", ".join(map(str, self.ks_evaluated)) or "none"
        if self.passed and self.unital:
            return (
                f"PASS through k={self.k_max} ({self.evaluations} joins; "
                f"identities with terms at k in {{{ks}}}, the rest vacuous)"
            )
        if not self.passed:
            k, chain, args = self.first_failure
            return (
                f"FAIL at k={k} on chain {chain} args {args} "
                f"(residual {self.residual}; {self.evaluations} joins)"
            )
        return f"UNITALITY FAIL: {self.unital_failure}"


def verify_stasheff(A: AInfinityStructure, k_max: int, budget: Optional[Budget] = None) -> StasheffReport:
    """Evaluate the identities for ``k <= k_max`` by joining the product tables.

    Each nonzero term ``m_u(.., m_s(..), ..)`` joins an inner ``m_s`` entry
    with an outer ``m_u`` entry whose slot ``r`` takes the inner output;
    only these joins are evaluated (one budget charge each) and summed per
    ``(chain, args)``.  The first failure is the smallest key with a
    nonzero residual at the smallest failing ``k``: chains ordered by the
    positions of their objects in ``A.objects``, then ``args``.  Also checks
    strict unitality: ``m_1(Id) = 0``, ``m_2`` unit laws, and ``m_s``
    vanishing on any identity argument for ``s != 2``.
    """
    budget = budget or Budget()
    support = A.support()
    one = A.field.one
    position = {a: i for i, a in enumerate(A.objects)}
    entries = {s: [(chain, args, vec) for (chain, args), vec in A.ops[s].items()
                   if _is_basis_key(A, position, s, chain, args)] for s in support}
    outer: Dict[Tuple, List] = {}  # (u, r, chain[r], chain[r + 1], args[r]) -> m_u entries
    for u in support:
        for entry in entries[u]:
            chain, args, _ = entry
            for r in range(u):
                outer.setdefault((u, r, chain[r], chain[r + 1], args[r]), []).append(entry)
    evaluations = 0
    ks_evaluated = []
    for k in range(1, k_max + 1):
        relevant = [(r, s) for s in support for r in range(k - s + 1) if k - s + 1 in support]
        if not relevant:
            continue
        ks_evaluated.append(k)
        totals: Dict[Tuple, Vec] = {}
        for r, s in relevant:
            u = k - s + 1
            for ichain, iargs, inner in entries[s]:
                for y, cy in inner.items():
                    for ochain, oargs, out in outer.get((u, r, ichain[0], ichain[-1], y), ()):
                        budget.charge()
                        evaluations += 1
                        koszul = (2 - s) * sum(A.deg(ochain[l], ochain[l + 1], oargs[l]) for l in range(r))
                        scale = one if (r + s * (u - 1 - r) + koszul) % 2 == 0 else -one
                        # the inner chain and arguments replace slot r of the outer ones
                        key = (ochain[:r] + ichain + ochain[r + 2 :], oargs[:r] + iargs + oargs[r + 1 :])
                        vadd(totals.setdefault(key, {}), out, scale * cy)
        failing = [key for key, total in totals.items() if total]  # vadd drops zeros
        if failing:
            chain, args = min(failing, key=lambda key: ([position[a] for a in key[0]], key[1]))
            return StasheffReport(False, k_max, evaluations, tuple(ks_evaluated),
                                  first_failure=(k, chain, args), residual=totals[(chain, args)])
    ok, msg = _check_unitality(A, budget)
    return StasheffReport(True, k_max, evaluations, tuple(ks_evaluated), unital=ok, unital_failure=msg)


def _is_basis_key(A: AInfinityStructure, position, s: int, chain: Tuple, args: Tuple) -> bool:
    """Whether an ``m_s`` key is a composable chain with basis arguments."""
    return (len(chain) == s + 1 and len(args) == s and all(a in position for a in chain)
            and all(args[l] in range(A.dim(chain[l], chain[l + 1])) for l in range(s)))


def _check_unitality(A: AInfinityStructure, budget: Budget) -> Tuple[bool, Optional[str]]:
    for a, unit in A.units.items():
        if A.apply_vecs(1, (a, a), [unit]):
            return False, f"m_1(Id_{a!r}) != 0"
    for (a, b), degrees in A.basis.items():
        unit_a = A.units.get(a)
        unit_b = A.units.get(b)
        for y in range(len(degrees)):
            budget.charge(2)
            ev = basis_vec(y, A.field)
            if unit_a is not None:
                left = A.apply_vecs(2, (a, a, b), [unit_a, ev])
                if left != {y: A.field.one}:
                    return False, f"m_2(Id_{a!r}, e_{y}) != e_{y} on hom({a!r},{b!r})"
            if unit_b is not None:
                right = A.apply_vecs(2, (a, b, b), [ev, unit_b])
                if right != {y: A.field.one}:
                    return False, f"m_2(e_{y}, Id_{b!r}) != e_{y} on hom({a!r},{b!r})"
    for s in A.support():
        if s == 2:
            continue
        for (chain, args), vec in A.ops[s].items():
            for slot in range(s):
                if chain[slot] != chain[slot + 1]:
                    continue
                unit = A.units.get(chain[slot])
                if unit is None:
                    continue
                budget.charge()
                vecs = [basis_vec(i, A.field) for i in args]
                vecs[slot] = unit
                if A.apply_vecs(s, chain, vecs):
                    return False, f"m_{s} does not vanish on an identity argument at {chain}"
    return True, None


def tensor_with_algebra(obj, gamma: Algebra):
    """Tensor a linear category or an A-infinity structure with an algebra.

    Hom spaces become ``hom (x) gamma``; every product multiplies the
    algebra coefficients in argument order, with no extra signs (the
    algebra sits in degree 0).
    """
    if isinstance(obj, FiniteLinearCategory):
        return tensor_category(obj, gamma)
    if not isinstance(obj, AInfinityStructure):
        raise PreconditionViolation(f"cannot tensor object of type {type(obj).__name__}")
    A = obj
    gd = gamma.dim
    basis = {}
    for key, degrees in A.basis.items():
        basis[key] = tuple(degrees[h] for h in range(len(degrees)) for _ in range(gd))
    ops: OpsTable = {}
    for s, table in A.ops.items():
        products = _gamma_products(gamma, s)
        ops[s] = {(chain, lifted): out for (chain, args), vec in table.items()
                  for lifted, out in _lift(args, vec, products, gd)}
    units = {}
    for a, unit in A.units.items():
        units[a] = tensor_vec(unit, gamma.unit, gd)
    return AInfinityStructure(A.field, A.objects, basis, ops, units)
