"""Deforming a finite linear category along a Hochschild cocycle.

A closed degree-n cochain eta with bimodule coefficients turns hom(a,b)
(+) M(a,b)[n-2] into a structure with products in arities {2, n}.  The
defining identities then hold precisely when eta is closed, and the
verifier localizes the first failure when it is not.  Everything below is
exact rational arithmetic on explicit bases.
"""

import random

from thd.ainfty import (
    Budget,
    CentralBimodule,
    cocycle_space,
    cup_with_identity,
    deform,
    hh_dimensions,
    hochschild_differential,
    tensor_bimodule,
    tensor_category,
    tensor_with_algebra,
    verify_stasheff,
)
from thd.ainfty.examples import (
    dual_numbers,
    matrix_algebra,
    perturbed_noncocycle,
    square_zero_cocycle,
)

cat = dual_numbers()
mod = CentralBimodule.regular(cat)

# Hochschild cohomology of the dual numbers in characteristic zero.
print("HH^* of k[x]/(x^2):", hh_dimensions(cat, mod, 5))

# HH is Morita invariant: M_2(k[x]/(x^2)) has the same HH as k[x]/(x^2).
# hh_dimensions splits the identity E11 + E22 into two objects, one per
# summand, so it counts on a far smaller cochain complex.
m2 = tensor_with_algebra(cat, matrix_algebra())
dual, matrices = hh_dimensions(cat, mod, 4), hh_dimensions(m2, CentralBimodule.regular(m2), 4)
print("HH^* of k[x]/(x^2) to degree 4:     ", dual)
print("HH^* of M_2(k[x]/(x^2)) to degree 4:", matrices)
assert matrices == dual

# The degree-3 cocycle space is one-dimensional; its generator sends
# (x, x, x) to x.
(generator,) = cocycle_space(cat, mod, 3)
print("degree-3 cocycle generator components:", dict(generator.data))

eta = square_zero_cocycle()
assert hochschild_differential(eta).is_zero()

A = deform(cat, mod, eta)
print("\ndeformed hom degrees:", A.basis[("*", "*")])
print(verify_stasheff(A, 8).summary())

# Break closedness and the identity at arity n + 1 = 4 fails, nowhere else.
bad = deform(cat, mod, perturbed_noncocycle(), check=False)
print(verify_stasheff(bad, 8).summary())

# Extending coefficients along an algebra commutes with deforming:
# (X tensor Gamma) deformed along (eta cup 1) has, basis element by basis
# element, the same product tensors as (X deformed along eta) tensor Gamma.
gamma = matrix_algebra()
tcat = tensor_category(cat, gamma)
tmod = tensor_bimodule(mod, gamma, tcat)
route1 = tensor_with_algebra(A, gamma)
route2 = deform(tcat, tmod, cup_with_identity(eta, gamma))
assert route1.ops == route2.ops and route1.basis == route2.basis
print("\ncup compatibility over 2x2 matrices: structure tensors agree on the nose")

# Exhaustive checks are budgeted; a tiny budget aborts instead of running away.
try:
    verify_stasheff(A, 8, Budget(25))
except Exception as exc:
    print(f"budget guard: {type(exc).__name__}: {exc}")

# Reproducible randomized demo: random closed cochains always verify.
rng = random.Random(1729)
scale = cat.field.of(rng.randint(1, 9))
print(verify_stasheff(deform(cat, mod, generator.scaled(scale)), 7).summary())
