"""Identities swapped into the basis before the normalized cochains are enumerated.

On a category whose identity is not a basis vector (a tensor with k x k in
its idempotent basis, or with M_2 in its elementary basis), the swapped copy
must be a category with the same bimodule, joined to the given one by
inverse functors; its cocycles, pulled back, are normalized closed cochains
in the given basis.
"""

from functools import partial

import pytest

from oracles import bar_hh_dimensions, identities_are_basis_vectors, is_normalized
from thd.ainfty import (
    QQ,
    CentralBimodule,
    FiniteLinearCategory,
    PrimeField,
    build_example,
    cocycle_space,
    hh_dimensions,
    hochschild_differential,
    tensor_with_algebra,
)
from thd.ainfty.cochain import identity_basis_change
from thd.ainfty.examples import dual_numbers, matrix_algebra
from thd.ainfty.linalg import exact_rank, multilinear
from thd.errors import PreconditionViolation

FIELDS = [QQ, PrimeField(32003), PrimeField(7)]
FIELD_IDS = ["Q", "F32003", "F7"]
# (name, cocycle degrees, HH degrees): dual ⊗ M_2 is larger, so it goes less high
CASES = [("dual-numbers-x-k2", (2, 3), 3), ("a2-x-k2", (2, 3), 4), ("dual-x-m2", (1, 2), 2)]


def _category(name, field):
    if name == "dual-x-m2":
        cat = tensor_with_algebra(dual_numbers(field), matrix_algebra(field))
        return cat, CentralBimodule.regular(cat)
    entry = build_example(name, field)
    return entry["category"], entry["bimodule"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name,degrees,up_to", CASES, ids=[c[0] for c in CASES])
def test_swapped_category_is_isomorphic_with_identities_in_the_basis(name, degrees, up_to, field):
    cat, mod = _category(name, field)
    assert not identities_are_basis_vectors(cat)
    swapped, smod, into, back = identity_basis_change(cat, mod)
    swapped.validate()
    smod.validate()
    assert identities_are_basis_vectors(swapped)
    into.validate()
    back.validate()
    assert into.source is cat and into.target is swapped
    assert back.source is swapped and back.target is cat
    for (a, b), dim in cat.dims.items():
        for x in range(dim):
            assert multilinear(partial(back.apply, a, b), [into.apply(a, b, x)], field.p) == {x: field.one}
            assert multilinear(partial(into.apply, a, b), [back.apply(a, b, x)], field.p) == {x: field.one}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name,degrees,up_to", CASES, ids=[c[0] for c in CASES])
def test_cocycles_come_back_normalized_closed_and_independent(name, degrees, up_to, field):
    cat, mod = _category(name, field)
    dims = hh_dimensions(cat, mod, up_to)
    if name != "dual-x-m2":  # its bar complex is too large for a unit test
        assert dims == bar_hh_dimensions(cat, mod, up_to)
    for degree in degrees:
        cocycles = cocycle_space(cat, mod, degree)
        assert cocycles
        keys = {}
        columns = []
        for z in cocycles:
            assert z.cat is cat and z.mod is mod and z.degree == degree
            assert hochschild_differential(z).is_zero()
            assert is_normalized(z)
            columns.append({keys.setdefault((key, m), len(keys)): c
                            for key, vec in z.data.items() for m, c in vec.items()})
        assert exact_rank(columns, field) == len(cocycles)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_dual_numbers_times_k2_has_fewer_normalized_cocycles_than_bar_ones(field):
    # the bar model had 16 and 50 cocycles in degrees 2 and 3
    cat, mod = _category("dual-numbers-x-k2", field)
    assert [len(cocycle_space(cat, mod, k)) for k in (2, 3)] == [12, 26]


def test_a_category_whose_identities_are_basis_vectors_is_left_alone():
    cat = dual_numbers()
    mod = CentralBimodule.regular(cat)
    swapped, smod, into, back = identity_basis_change(cat, mod)
    assert swapped is cat and smod is mod and into is None and back is None


@pytest.mark.parametrize("identities", [{}, {"*": {}}, {"*": {0: QQ.zero}}],
                         ids=["missing", "empty", "zero"])
def test_endomorphisms_without_an_identity_are_a_precondition_violation(identities):
    base = dual_numbers()
    cat = FiniteLinearCategory(QQ, base.objects, base.dims, base.compose, identities)
    mod = CentralBimodule.regular(base)
    for call in (lambda: hh_dimensions(cat, mod, 2), lambda: cocycle_space(cat, mod, 2)):
        with pytest.raises(PreconditionViolation, match="has endomorphisms but no identity"):
            call()
