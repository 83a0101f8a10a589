"""Objects split along the idempotent summands of their identities before HH is counted.

HH is Morita invariant, so ``hh_dimensions`` counts on a category with one
object per summand ``e_i`` of an identity that is a sum of orthogonal
idempotent basis vectors.  The full bar complex of the given category is the
reference.  An input that cannot be split goes down the unsplit path and
keeps its answers, its ``Budget.spent`` and its refusals; the pinned values
below were read off the library before the split existed, and the
``Budget.spent`` values again once ``hh_dimensions`` cleared the keys that
lead a pivot of the previous differential.
"""

import pytest

from oracles import as_one_algebra, bar_hh_dimensions, beilinson, identities_are_basis_vectors
from thd.ainfty import (
    QQ,
    Algebra,
    Budget,
    CentralBimodule,
    FiniteLinearCategory,
    PrimeField,
    build_example,
    cocycle_space,
    example_names,
    hh_dimensions,
    tensor_with_algebra,
)
from thd.ainfty.category import _split_idempotents
from thd.ainfty.examples import (
    a2_path_category,
    dual_numbers,
    matrix_algebra,
    product_algebra,
    product_algebra_unit_basis,
    trivial_category,
)
from thd.errors import PreconditionViolation

FIELDS = [QQ, PrimeField(7), PrimeField(32003)]
FIELD_IDS = ["Q", "F7", "F32003"]
CATEGORY_EXAMPLES = [n for n in example_names() if build_example(n)["kind"] == "category"]
# the highest degree, at most 7, that the bar oracle reaches in about a second
BUNDLED_DEGREES = {"k": 7, "dual-numbers": 7, "a2": 7, "dual-numbers-x-k2": 6, "a2-x-k2": 7}
BASES = {"k": trivial_category, "dual-numbers": dual_numbers, "a2": a2_path_category}
GAMMAS = {"kxk": product_algebra, "m2": matrix_algebra, "kxk-unit-basis": product_algebra_unit_basis}
GRID_DEGREES = {
    ("k", "kxk"): 7, ("k", "m2"): 6, ("k", "kxk-unit-basis"): 7,
    ("dual-numbers", "kxk"): 6, ("dual-numbers", "m2"): 3, ("dual-numbers", "kxk-unit-basis"): 5,
    ("a2", "kxk"): 7, ("a2", "m2"): 4, ("a2", "kxk-unit-basis"): 7,
}


def _regular(cat):
    return cat, CentralBimodule.regular(cat)


def _spent(cat, mod, up_to):
    budget = Budget()
    dims = hh_dimensions(cat, mod, up_to, budget)
    return dims, budget.spent


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", CATEGORY_EXAMPLES)
def test_bundled_categories_equal_the_bar_oracle(name, field):
    entry = build_example(name, field)
    cat, mod, up_to = entry["category"], entry["bimodule"], BUNDLED_DEGREES[name]
    assert hh_dimensions(cat, mod, up_to) == bar_hh_dimensions(cat, mod, up_to)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("base,gamma", list(GRID_DEGREES), ids=[f"{b}-x-{g}" for b, g in GRID_DEGREES])
def test_tensor_grid_equals_the_bar_oracle(base, gamma, field):
    cat, mod = _regular(tensor_with_algebra(BASES[base](field), GAMMAS[gamma](field)))
    up_to = GRID_DEGREES[(base, gamma)]
    assert hh_dimensions(cat, mod, up_to) == bar_hh_dimensions(cat, mod, up_to)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_the_split_has_one_object_per_summand_and_is_a_category(field):
    cat, mod = _regular(tensor_with_algebra(a2_path_category(field), matrix_algebra(field)))
    split, smod = _split_idempotents(cat, mod)
    # the objects in the order of cat.objects, then of the summands E11 (0) and E22 (3)
    assert split.objects == (("1", 0), ("1", 3), ("2", 0), ("2", 3))
    assert identities_are_basis_vectors(split)
    split.validate()
    smod.validate()
    # e_i hom(a, b) e_j is one-dimensional wherever hom(a, b) is nonzero
    assert set(split.dims.values()) == {1} and len(split.dims) == 12
    assert sum(split.dims.values()) == sum(cat.dims.values())


def test_a_category_whose_identities_do_not_split_is_left_alone():
    for cat in (dual_numbers(), beilinson(2, QQ),
                tensor_with_algebra(dual_numbers(), product_algebra_unit_basis())):
        assert _split_idempotents(*_regular(cat)) is None


def test_budget_is_unchanged_where_no_identity_splits():
    # the deform-pipeline benchmark category; 10040 before the split existed and after it,
    # 8172 since d_k is reduced only off the leads of d_{k-1}
    F = PrimeField(32003)
    cat, mod = _regular(tensor_with_algebra(dual_numbers(F), product_algebra_unit_basis(F)))
    assert _spent(cat, mod, 4) == ([4, 2, 2, 2, 2], 8172)


@pytest.mark.parametrize("name,up_to,before", [("dual-numbers-x-k2", 4, 8504), ("a2-x-k2", 5, 1228)])
def test_budget_drops_where_an_identity_splits(name, up_to, before):
    entry = build_example(name)
    cat, mod = entry["category"], entry["bimodule"]
    dims, spent = _spent(cat, mod, up_to)
    assert spent < before
    # the split category is what gets counted
    assert _spent(*_split_idempotents(cat, mod), up_to) == (dims, spent)


def test_an_empty_target_basis_assembles_no_differential():
    # before, d_k was assembled and charged even when degree k + 1 had no keys: 13 and 789;
    # 465 on beilinson(2) before d_2 was cleared
    assert _spent(*_regular(a2_path_category()), 3) == ([1, 0, 0, 0], 9)
    assert _spent(*_regular(beilinson(2, PrimeField(32003))), 2) == ([1, 8, 10], 453)


# -- inputs the split refuses keep the unsplit answers ---------------------------


def _twisted_m2(field):
    """M_2 in the basis E11, E22, E12 + E21, E12 - E21: E12 + E21 is fixed by no idempotent."""
    one, half = field.one, field.one / field.of(2)
    basis = [{(0, 0): one}, {(1, 1): one}, {(0, 1): one, (1, 0): one}, {(0, 1): one, (1, 0): -one}]

    def coords(mat):
        at = lambda r, c: mat.get((r, c), field.zero)
        vec = {0: at(0, 0), 1: at(1, 1), 2: (at(0, 1) + at(1, 0)) * half, 3: (at(0, 1) - at(1, 0)) * half}
        return {k: c for k, c in vec.items() if c}

    mult = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            prod = {}
            for (r, c), s in u.items():
                for (r2, c2), t in v.items():
                    if c == r2:
                        prod[(r, c2)] = prod.get((r, c2), field.zero) + s * t
            if vec := coords(prod):
                mult[(i, j)] = vec
    return Algebra(field, 4, mult, {0: one, 1: one})


def _edited(base, products=None, identities=None):
    """``base`` and its regular bimodule, with the ``products`` of its one object set (``None``
    removes one) and its identities replaced by ``identities``."""
    compose = {key: {pair: dict(vec) for pair, vec in pairs.items()}
               for key, pairs in base.compose.items()}
    for pair, vec in (products or {}).items():
        compose[("*", "*", "*")][pair] = vec
        if vec is None:
            del compose[("*", "*", "*")][pair]
    return _regular(FiniteLinearCategory(base.field, base.objects, base.dims, compose,
                                         identities or base.identities))


def _dual_x_k2(field):  # basis 1e1, 1e2, xe1, xe2; the identity is e1 + e2
    return build_example("dual-numbers-x-k2", field)["category"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_basis_vector_fixed_by_no_idempotent_keeps_the_unsplit_answer(field):
    gamma = _twisted_m2(field)
    gamma.validate()
    # 3996 and 16256 before d_k was cleared
    for base, up_to, want in ((trivial_category, 3, ([1, 0, 0, 0], 3107)),
                              (dual_numbers, 2, ([2, 1, 1], 14837))):
        cat, mod = _regular(tensor_with_algebra(base(field), gamma))
        assert _split_idempotents(cat, mod) is None
        assert _spent(cat, mod, up_to) == want


PAST_ITS_SPACES = {  # a product that reads or writes past hom(*, *), of dimension 4
    "argument": ((0, 9), {0: 1}, "compose entry (0, 9) -> [0]"),  # once [4, 2, 2] and 12 cocycles
    "output": ((2, 2), {9: 1}, "compose entry (2, 2) -> [9]"),  # once a bare IndexError
}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", list(PAST_ITS_SPACES))
def test_an_entry_past_its_spaces_is_refused_before_the_identity_is_swapped(name, field):
    # the split and the swap rebuild the table over in-range arguments, which would drop
    # the entry or read past it: the caller's tables are checked first, as validate() does
    pair, vec, entry = PAST_ITS_SPACES[name]
    cat, mod = _edited(_dual_x_k2(field), {pair: {k: field.of(c) for k, c in vec.items()}})
    words = f"{entry} at ('*', '*', '*') lies past its spaces (dimensions 4 x 4 -> 4)"
    for call in (cat.validate, lambda: hh_dimensions(cat, mod, 2),
                 lambda: cocycle_space(cat, mod, 2)):
        with pytest.raises(PreconditionViolation) as info:
            call()
        assert str(info.value) == words


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_product_across_blocks_keeps_the_unsplit_answer(field):
    # none of these tables is associative, so d . d != 0 and the numbers are no HH; they pin
    # the unsplit path.  Before d_k was cleared they read [2, -1, -6, -24], [4, 1, -4, -22]
    # and [1, -3, -11, -33] with Budget.spent 2564, 2564 and 2996
    one, m2 = field.one, tensor_with_algebra(trivial_category(field), matrix_algebra(field))
    for base, products, want in (
        (_dual_x_k2(field), {(2, 3): {2: one}}, ([2, 0, 1, 1], 2082)),  # in neither argument's block
        (_dual_x_k2(field), {(2, 2): {3: one}}, ([4, 1, 1, 1], 2113)),  # out of its arguments' block
        (m2, {(1, 1): {1: one}}, ([1, 0, 0, 0], 2362)),  # E12 E12 = E12: in the block of both
    ):
        cat, mod = _edited(base, products)
        assert _split_idempotents(cat, mod) is None
        assert _spent(cat, mod, 3) == want


NOT_UNITAL = {  # name -> (the category and its bimodule, the basis element refused)
    "killed-by-both": (lambda F: _edited(_dual_x_k2(F), {(0, 2): None}), 2),  # e1 . x e1 = 0
    "fixed-by-both": (lambda F: _edited(_dual_x_k2(F), {(1, 2): {2: F.one}}), 2),  # e2 . x e1 = x e1
    "coefficient-two": (lambda F: _edited(_dual_x_k2(F), identities={"*": {0: F.of(2), 1: F.one}}), 0),
}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", list(NOT_UNITAL))
def test_an_identity_that_does_not_act_as_one_keeps_the_unsplit_refusal(name, field):
    build, element = NOT_UNITAL[name]
    cat, mod = build(field)
    assert _split_idempotents(cat, mod) is None
    with pytest.raises(PreconditionViolation) as info:
        hh_dimensions(cat, mod, 3)
    assert str(info.value) == (f"an identity does not act as one on basis element {element} of "
                               "('*', '*'), so d left the normalized subcomplex")


REFUSED = {  # name -> (the identities of a2-x-k2 over F, the unsplit refusal)
    # object "1" splits and "2" stays whole, with an identity that reads past hom("2", "2")
    "identity-past-its-space": (lambda F: {"1": {0: F.one, 1: F.one},
                                           "2": {0: F.one, 1: F.one, 7: F.one}},
                                "compose entry (0, 0) -> [0, 7] at ('2', '2', '2') lies past its "
                                "spaces (dimensions 2 x 2 -> 2)"),
    "missing-identity": (lambda F: {"1": {0: F.one, 1: F.one}},
                         "object '2' has endomorphisms but no identity"),
}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", list(REFUSED))
def test_an_identity_the_split_cannot_place_keeps_the_unsplit_refusal(name, field):
    identities, words = REFUSED[name]
    cat, mod = _edited(build_example("a2-x-k2", field)["category"], identities=identities(field))
    assert _split_idempotents(cat, mod) is None
    with pytest.raises(PreconditionViolation) as info:
        hh_dimensions(cat, mod, 3)
    assert str(info.value) == words


# -- End(T) written as one algebra -------------------------------------------------


@pytest.mark.parametrize("m,want", [(2, [1, 8, 10]), (3, [1, 15, 45, 35])])
def test_beilinson_as_one_algebra_has_the_hh_of_the_category(m, want):
    field = PrimeField(32003)
    cat = beilinson(m, field)
    one = as_one_algebra(cat)
    one.validate()
    assert one.objects == ("*",) and one.dim("*", "*") == sum(cat.dims.values())
    split, _ = _split_idempotents(*_regular(one))
    assert len(split.objects) == m + 1
    # within the default budget, which the unsplit algebra exhausts at m = 3
    assert hh_dimensions(*_regular(one), m) == hh_dimensions(*_regular(cat), m) == want
