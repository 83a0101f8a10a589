"""Bundled small categories, algebras and deformations.

Everything here is small enough for exhaustive identity checking and rich
enough to exercise multi-object chains and noncommutative coefficients.
"""

from __future__ import annotations

import random
from typing import Dict

from ..errors import PreconditionViolation
from .category import Algebra, CentralBimodule, FiniteLinearCategory, LinearFunctor
from .cochain import Cochain, _coboundary, cocycle_space, random_cochain
from .fields import QQ
from .structure import deform, tensor_with_algebra


def trivial_category(field=QQ) -> FiniteLinearCategory:
    """One object with a one-dimensional endomorphism space (the base field)."""
    o = "*"
    compose = {(o, o, o): {(0, 0): {0: field.one}}}
    return FiniteLinearCategory(field, [o], {(o, o): 1}, compose, {o: {0: field.one}})


def dual_numbers(field=QQ) -> FiniteLinearCategory:
    """One object with endomorphisms k[x]/(x^2); basis (1, x)."""
    o = "*"
    one = field.one
    compose = {(o, o, o): {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}}
    return FiniteLinearCategory(field, [o], {(o, o): 2}, compose, {o: {0: one}})


def a2_path_category(field=QQ) -> FiniteLinearCategory:
    """Two objects, one arrow between them: the path category of A2."""
    one = field.one
    dims = {("1", "1"): 1, ("2", "2"): 1, ("1", "2"): 1}
    compose = {
        ("1", "1", "1"): {(0, 0): {0: one}},
        ("2", "2", "2"): {(0, 0): {0: one}},
        ("1", "1", "2"): {(0, 0): {0: one}},  # alpha after id_1
        ("1", "2", "2"): {(0, 0): {0: one}},  # id_2 after alpha
    }
    identities = {"1": {0: one}, "2": {0: one}}
    return FiniteLinearCategory(field, ["1", "2"], dims, compose, identities)


def scalar_algebra(field=QQ) -> Algebra:
    return Algebra(field, 1, {(0, 0): {0: field.one}}, {0: field.one})


def product_algebra(field=QQ) -> Algebra:
    """k x k in the idempotent basis (e1, e2); the unit is e1 + e2."""
    one = field.one
    mult = {(0, 0): {0: one}, (1, 1): {1: one}}
    return Algebra(field, 2, mult, {0: one, 1: one})


def product_algebra_unit_basis(field=QQ) -> Algebra:
    """k x k presented as k[u]/(u^2 - 1), so the unit is a basis vector."""
    one = field.one
    mult = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {0: one}}
    return Algebra(field, 2, mult, {0: one})


def matrix_algebra(field=QQ, size: int = 2) -> Algebra:
    """The algebra of size x size matrices in the elementary basis E_rc."""
    one = field.one
    idx = lambda r, c: r * size + c
    mult: Dict = {}
    for r in range(size):
        for c in range(size):
            for r2 in range(size):
                for c2 in range(size):
                    if c == r2:
                        mult[(idx(r, c), idx(r2, c2))] = {idx(r, c2): one}
    unit = {idx(r, r): one for r in range(size)}
    return Algebra(field, size * size, mult, unit)


def square_zero_cocycle(field=QQ) -> Cochain:
    """The normalized degree-3 cocycle on k[x]/(x^2) with value x on (x,x,x).

    It is closed (both boundary terms contribute ``x * x = 0``) and not a
    coboundary, so the deformation it defines is nontrivial.
    """
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    chain = ("*",) * 4
    return Cochain(cat, mod, 3, {(chain, (1, 1, 1)): {1: field.one}})


def perturbed_noncocycle(field=QQ) -> Cochain:
    """The cocycle above plus a unit-valued term; no longer closed."""
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    chain = ("*",) * 4
    return Cochain(cat, mod, 3, {(chain, (1, 1, 1)): {0: field.one, 1: field.one}})


def a2_to_a1_quotient(field=QQ) -> LinearFunctor:
    """The functor collapsing the A2 path category onto one object, killing
    the connecting arrow."""
    src = a2_path_category(field)
    tgt = trivial_category(field)
    obj_map = {"1": "*", "2": "*"}
    maps = {
        ("1", "1"): [{0: field.one}],
        ("2", "2"): [{0: field.one}],
        ("1", "2"): [{}],
    }
    return LinearFunctor(src, tgt, obj_map, maps)


def _random_cocycle(field, seed: int) -> Cochain:
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    basis = cocycle_space(cat, mod, 3)
    rng = random.Random(seed)
    total = Cochain(cat, mod, 3, {})
    for vec in basis:
        c = rng.randint(-5, 5) or 1
        total = total + vec.scaled(field.of(c))
    return total


def _random_noncocycle(field, seed: int) -> Cochain:
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    rng = random.Random(seed)
    while True:
        candidate = random_cochain(cat, mod, 3, rng)
        if _coboundary(candidate):
            return candidate


def example_names():
    return sorted(_BUILDERS)


def build_example(name: str, field=QQ, seed: int = 0):
    """Materialize a bundled example.

    Returns a dict with ``kind`` in {"category", "structure"} plus the
    matching objects (``category``/``bimodule`` or ``structure``) and a
    one-line ``description``.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise PreconditionViolation(
            f"unknown example {name!r}; available: {', '.join(example_names())}"
        ) from None
    return builder(field, seed)


def _cat_entry(cat, description):
    return {
        "kind": "category",
        "category": cat,
        "bimodule": CentralBimodule.regular(cat),
        "description": description,
    }


def _structure_entry(structure, description):
    return {"kind": "structure", "structure": structure, "description": description}


def _build_k(field, seed):
    return _cat_entry(trivial_category(field), "the base field as a one-object category")


def _build_dual(field, seed):
    return _cat_entry(dual_numbers(field), "dual numbers k[x]/(x^2)")


def _build_a2(field, seed):
    return _cat_entry(a2_path_category(field), "path category of the A2 quiver")


def _build_dual_k2(field, seed):
    cat = tensor_with_algebra(dual_numbers(field), product_algebra(field))
    return _cat_entry(cat, "dual numbers tensored with k x k")


def _build_a2_k2(field, seed):
    cat = tensor_with_algebra(a2_path_category(field), product_algebra(field))
    return _cat_entry(cat, "A2 path category tensored with k x k")


def _build_a2_deformed(field, seed):
    cat = a2_path_category(field)
    mod = CentralBimodule.regular(cat)
    eta = Cochain(cat, mod, 3, {})
    return _structure_entry(
        deform(cat, mod, eta),
        "A2 deformed along the zero degree-3 cocycle (square-zero extension)",
    )


def _build_dual_deformed(field, seed):
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    return _structure_entry(
        deform(cat, mod, square_zero_cocycle(field)),
        "dual numbers deformed along the degree-3 cocycle (x,x,x) -> x",
    )


def _build_dual_perturbed(field, seed):
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    return _structure_entry(
        deform(cat, mod, perturbed_noncocycle(field), check=False),
        "deformation along a non-cocycle; the verifier fails at k = 4",
    )


def _build_random_cocycle(field, seed):
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    eta = _random_cocycle(field, seed)
    return _structure_entry(
        deform(cat, mod, eta),
        f"deformation along a random closed cochain (seed {seed})",
    )


def _build_random_noncocycle(field, seed):
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    eta = _random_noncocycle(field, seed)
    return _structure_entry(
        deform(cat, mod, eta, check=False),
        f"deformation along a random non-closed cochain (seed {seed})",
    )


_BUILDERS = {
    "k": _build_k,
    "dual-numbers": _build_dual,
    "a2": _build_a2,
    "dual-numbers-x-k2": _build_dual_k2,
    "a2-x-k2": _build_a2_k2,
    "a2-deformed": _build_a2_deformed,
    "dual-deformed": _build_dual_deformed,
    "dual-perturbed": _build_dual_perturbed,
    "random-cocycle": _build_random_cocycle,
    "random-noncocycle": _build_random_noncocycle,
}
