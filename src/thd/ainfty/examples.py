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
    return sorted(_EXAMPLES)


def build_example(name: str, field=QQ, seed: int = 0):
    """Materialize a bundled example.

    Returns a dict with ``kind`` in {"category", "structure"} plus the
    matching objects (``category``/``bimodule`` or ``structure``) and a
    one-line ``description``.
    """
    try:
        description, build = _EXAMPLES[name]
    except KeyError:
        raise PreconditionViolation(
            f"unknown example {name!r}; available: {', '.join(example_names())}"
        ) from None
    subject, description = build(field, seed), description.format(seed=seed)
    if isinstance(subject, FiniteLinearCategory):
        return category_entry(subject, description)
    return {"kind": "structure", "structure": subject, "description": description}


def category_entry(cat: FiniteLinearCategory, description: str):
    """The entry of a category with its regular bimodule, as :func:`build_example` returns it."""
    return {"kind": "category", "category": cat, "bimodule": CentralBimodule.regular(cat),
            "description": description}


def _deformed(eta: Cochain, check: bool = True):
    return deform(eta.cat, eta.mod, eta, check=check)


def _zero_cocycle(cat: FiniteLinearCategory) -> Cochain:
    return Cochain(cat, CentralBimodule.regular(cat), 3, {})


# name -> (description, builder(field, seed)); a description may name the {seed}
_EXAMPLES = {
    "k": ("the base field as a one-object category", lambda F, seed: trivial_category(F)),
    "dual-numbers": ("dual numbers k[x]/(x^2)", lambda F, seed: dual_numbers(F)),
    "a2": ("path category of the A2 quiver", lambda F, seed: a2_path_category(F)),
    "dual-numbers-x-k2": ("dual numbers tensored with k x k",
                          lambda F, seed: tensor_with_algebra(dual_numbers(F), product_algebra(F))),
    "a2-x-k2": ("A2 path category tensored with k x k",
                lambda F, seed: tensor_with_algebra(a2_path_category(F), product_algebra(F))),
    "a2-deformed": ("A2 deformed along the zero degree-3 cocycle (square-zero extension)",
                    lambda F, seed: _deformed(_zero_cocycle(a2_path_category(F)))),
    "dual-deformed": ("dual numbers deformed along the degree-3 cocycle (x,x,x) -> x",
                      lambda F, seed: _deformed(square_zero_cocycle(F))),
    "dual-perturbed": ("deformation along a non-cocycle; the verifier fails at k = 4",
                       lambda F, seed: _deformed(perturbed_noncocycle(F), check=False)),
    "random-cocycle": ("deformation along a random closed cochain (seed {seed})",
                       lambda F, seed: _deformed(_random_cocycle(F, seed))),
    "random-noncocycle": ("deformation along a random non-closed cochain (seed {seed})",
                          lambda F, seed: _deformed(_random_noncocycle(F, seed), check=False)),
}
