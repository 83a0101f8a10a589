"""Every value the deformation half stores over F_p is an int reduced into [0, p).

Over F_p a field has one number type, so a value that escapes reduction would
compare unequal to its reduced twin and read as nonzero when it is zero.  Each
bundled example and the benchmark's pipeline category are built over F_7 and
F_32003, and every table, identity, action, cochain, nullspace vector,
structure and Stasheff residual that comes out is checked.
"""

import random

import pytest

from thd.ainfty import (
    Algebra,
    Budget,
    Cochain,
    PrimeField,
    build_example,
    cocycle_space,
    deform,
    example_names,
    from_linear_category,
    hochschild_differential,
    parse_category,
    parse_cochain,
    random_cochain,
    tensor_with_algebra,
    verify_stasheff,
)
from thd.ainfty.cochain import _differential_columns, cochain_basis, identity_basis_change
from thd.ainfty.examples import category_entry, dual_numbers, product_algebra_unit_basis
from thd.ainfty.linalg import nullspace


def _leaves(table):
    """The coefficients of a table of vectors, nested in dicts or lists to any depth."""
    for value in table.values() if isinstance(table, dict) else table:
        if isinstance(value, (dict, list)):
            yield from _leaves(value)
        else:
            yield value


def _u_squared_is_three(field):
    """k[u]/(u^2 - 3): lifting along it multiplies values by 3, so a product can pass p."""
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: field.of(3)}}
    return Algebra(field, 2, mult, {0: 1})


def _entry(name, field):
    if name == "pipeline":
        cat = tensor_with_algebra(dual_numbers(field), product_algebra_unit_basis(field))
        return category_entry(cat, "the deform-pipeline category")
    return build_example(name, field, seed=3)


def _category_values(cat, mod, field):
    """The values of the tables of ``cat`` and ``mod`` and of what the library computes on them."""
    yield "compose", cat.compose
    yield "tensored compose", tensor_with_algebra(cat, _u_squared_is_three(field)).compose
    yield "identities", cat.identities
    yield "actions", [mod.left, mod.right]
    work_cat, work_mod, into, back = identity_basis_change(cat, mod)
    yield "swapped tables", [work_cat.compose, work_cat.identities, work_mod.left, work_mod.right]
    if into is not None:
        yield "basis change", [into.maps, back.maps]
    for degree in (1, 2, 3):
        basis = cochain_basis(work_cat, work_mod, degree)
        target = cochain_basis(work_cat, work_mod, degree + 1)
        yield f"nullspace {degree}", nullspace(
            _differential_columns(work_cat, work_mod, basis, target, Budget()), field)
        cocycles = cocycle_space(cat, mod, degree)
        yield f"cocycles {degree}", [eta.data for eta in cocycles]
    eta = sum((vec.scaled(c) for c, vec in enumerate(cocycles, start=1)), Cochain(cat, mod, 3, {}))
    yield "sum of cocycles", eta.data
    yield "scaled by -1", eta.scaled(-1).data
    f = random_cochain(work_cat, work_mod, 2, random.Random(5))
    yield "cochain", f.data
    yield "differential", hochschild_differential(f).data
    yield "deformed", deform(cat, mod, eta).ops


@pytest.mark.parametrize("p", [7, 32003], ids=["F7", "F32003"])
@pytest.mark.parametrize("name", example_names() + ["pipeline"])
def test_every_stored_value_over_a_prime_field_is_a_reduced_int(name, p):
    field = PrimeField(p)
    entry = _entry(name, field)
    found = []
    if entry["kind"] == "category":
        found += _category_values(entry["category"], entry["bimodule"], field)
        A = from_linear_category(entry["category"])
    else:
        A = entry["structure"]
    for s in (A, tensor_with_algebra(A, _u_squared_is_three(field))):
        found += [("ops", s.ops), ("units", s.units)]
        if (report := verify_stasheff(s, 7)).residual is not None:
            found.append(("residual", report.residual))
    for what, table in found:
        values = list(_leaves(table))
        assert all(type(v) is int and 0 <= v < p for v in values), (what, values)
    assert name not in ("dual-perturbed", "random-noncocycle") or "residual" in dict(found)


def test_parsed_coefficients_over_a_prime_field_are_reduced_ints():
    # k[x]/(x^2) with x . x written as -1/2 + 1/2 = 0; over F_7, -1 - 1 = 5 and 1/3 = 5
    cat = parse_category("field F7\nobjects a\nhom a a 2\nid a 0\ncompose a a a 0 0 0 1\n"
                         "compose a a a 1 0 1 1\ncompose a a a 1 1 0 1\n"
                         "compose a a a 0 1 1 -1/2\ncompose a a a 0 1 1 1/2\n")
    assert cat.compose == {("a", "a", "a"): {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}}
    eta = parse_cochain("cochain 3\ncomponent a a a a : 1 1 1 : 1 : -1\n"
                        "component a a a a : 1 1 1 : 1 : -1\ncomponent a a a a : 1 1 1 : 0 : 1/3\n", cat)
    assert eta.data == {(("a",) * 4, (1, 1, 1)): {1: 5, 0: 5}}
