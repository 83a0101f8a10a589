import copy
import itertools
import random

import pytest

from oracles import bar_cochain_basis, bar_hh_dimensions, identities_are_basis_vectors, is_normalized
from thd.ainfty import (
    Algebra,
    Budget,
    CentralBimodule,
    Cochain,
    FiniteLinearCategory,
    LinearFunctor,
    PrimeField,
    QQ,
    cochain_basis,
    cocycle_space,
    cup_with_identity,
    deform,
    example_names,
    from_linear_category,
    hh_dimensions,
    hochschild_differential,
    random_cochain,
    restrict_along_functor,
    restricted_bimodule,
    tensor_bimodule,
    tensor_category,
    tensor_with_algebra,
    verify_stasheff,
)
from thd.ainfty.category import vclean
from thd.ainfty.examples import (
    a2_path_category,
    a2_to_a1_quotient,
    build_example,
    dual_numbers,
    matrix_algebra,
    perturbed_noncocycle,
    product_algebra,
    product_algebra_unit_basis,
    scalar_algebra,
    square_zero_cocycle,
    trivial_category,
)
from thd.errors import BudgetExceeded, NotACocycle, PreconditionViolation


def regular(cat):
    return CentralBimodule.regular(cat)


def all_basis_cochains(cat, mod, degree, basis=cochain_basis):
    for chain, args, m in basis(cat, mod, degree):
        yield Cochain(cat, mod, degree, {(chain, args): {m: cat.field.one}})


# ---------------------------------------------------------------- categories
def test_bundled_categories_validate():
    for cat in (trivial_category(), dual_numbers(), a2_path_category()):
        cat.validate()
        regular(cat).validate()
    for alg in (scalar_algebra(), product_algebra(), product_algebra_unit_basis(),
                matrix_algebra()):
        alg.validate()


def test_tensored_categories_validate():
    for gamma in (scalar_algebra(), product_algebra(), matrix_algebra()):
        for base in (dual_numbers(), a2_path_category()):
            cat = tensor_with_algebra(base, gamma)
            cat.validate()
            regular(cat).validate()


def test_identity_basis_alignment():
    assert identities_are_basis_vectors(dual_numbers())
    assert identities_are_basis_vectors(a2_path_category())
    # the idempotent-basis product algebra has unit e1 + e2
    assert not identities_are_basis_vectors(tensor_with_algebra(dual_numbers(), product_algebra()))
    assert identities_are_basis_vectors(tensor_with_algebra(dual_numbers(), product_algebra_unit_basis()))


def _validate_message(obj):
    with pytest.raises(PreconditionViolation) as info:
        obj.validate()
    return str(info.value)


def test_category_validate_reports_the_first_nonassociative_triple():
    cat = tensor_with_algebra(dual_numbers(), matrix_algebra())
    compose = copy.deepcopy(cat.compose)
    # (1 (x) E01) then (1 (x) E10) should be 1 (x) E00; make it zero
    compose[("*", "*", "*")][(1, 2)] = {}
    broken = FiniteLinearCategory(QQ, cat.objects, cat.dims, compose, cat.identities)
    assert _validate_message(broken) == "associativity fails at ('*','*','*','*') on basis (1,2,1)"


def test_algebra_validate_reports_the_first_nonassociative_triple():
    gamma = matrix_algebra()
    mult = dict(gamma.mult)
    del mult[(1, 2)]  # E01 E10 = 0 instead of E00
    assert _validate_message(Algebra(QQ, 4, mult, gamma.unit)) == "associativity fails on (1,2,1)"


def test_bimodule_validate_reports_noncommuting_actions():
    cat = dual_numbers()
    mod = regular(cat)
    right = copy.deepcopy(mod.right)
    right[("*", "*", "*")][(1, 1)] = {0: QQ.one}  # x . x = 1 on the right only
    broken = CentralBimodule(cat, mod.dims, mod.left, right)
    assert _validate_message(broken) == "bimodule actions do not commute at ('*','*','*','*')"


def _augmentation_bimodule(left_extra=None, right_extra=None):
    """k over k[x]/(x^2) with x acting by zero, plus the given extra entries."""
    one, key = QQ.one, ("*", "*", "*")
    left = {key: {(0, 0): {0: one}, **(left_extra or {})}}
    right = {key: {(0, 0): {0: one}, **(right_extra or {})}}
    return CentralBimodule(dual_numbers(), {("*", "*"): 1}, left, right)


def test_bimodule_validate_reports_nonassociative_actions():
    _augmentation_bimodule().validate()
    left = _augmentation_bimodule(left_extra={(1, 0): {0: QQ.one}})  # x . e = e
    assert _validate_message(left) == "left action is not associative at ('*','*','*','*')"
    right = _augmentation_bimodule(right_extra={(0, 1): {0: QQ.one}})  # e . x = e
    assert _validate_message(right) == "right action is not associative at ('*','*','*','*')"


def test_right_action_is_checked_where_there_are_no_arrows_between_objects():
    # End(a) = k, End(b) = k[x]/(x^2), no arrows between a and b;
    # M(a, b) = k with e . x = e, so (e . x) . x = e while x x = 0
    one = QQ.one
    cat = FiniteLinearCategory(
        QQ, ["a", "b"], {("a", "a"): 1, ("b", "b"): 2},
        {("a", "a", "a"): {(0, 0): {0: one}},
         ("b", "b", "b"): {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}},
        {"a": {0: one}, "b": {0: one}},
    )
    cat.validate()
    mod = CentralBimodule(cat, {("a", "b"): 1}, {("a", "a", "b"): {(0, 0): {0: one}}},
                          {("a", "b", "b"): {(0, 0): {0: one}, (0, 1): {0: one}}})
    assert _validate_message(mod) == "right action is not associative at ('a','b','b','b')"


def _a3_times_matrices():
    """The path category 1 -> 2 -> 3 with every hom tensored with M_2 over F_7."""
    F = PrimeField(7)
    objects = (1, 2, 3)
    dims = {(i, j): 1 for i in objects for j in objects if i <= j}
    compose = {(i, j, k): {(0, 0): {0: F.one}}
               for i in objects for j in objects for k in objects if i <= j <= k}
    path = FiniteLinearCategory(F, objects, dims, compose, {i: {0: F.one} for i in objects})
    return tensor_category(path, matrix_algebra(F, 2))


@pytest.mark.parametrize("table, key, pair, value, messages", [
    ("compose", (1, 2, 3), (0, 1), {1: 3}, ("associativity fails at (1,1,2,3) on basis (1,2,1)",
                                             "bimodule actions do not commute at (1,1,2,3)")),
    ("left", (2, 3, 3), (3, 3), {0: 2}, (None, "left action is not associative at (1,2,3,3)")),
    ("right", (1, 3, 3), (1, 2), {2: 5}, (None, "bimodule actions do not commute at (1,1,3,3)")),
    # entries past their spaces are refused before any law, naming table, key and entry
    ("compose", (1, 2, 3), (0, 4), {1: 1}, (
        "compose entry (0, 4) -> [1] at (1, 2, 3) lies past its spaces (dimensions 4 x 4 -> 4)",
        "left entry (0, 4) -> [1] at (1, 2, 3) lies past its spaces (dimensions 4 x 4 -> 4)")),
    ("compose", (1, 2, "?"), (0, 0), {0: 1}, (
        "compose entry (0, 0) -> [0] at (1, 2, '?') lies past its spaces (dimensions 4 x 0 -> 0)",
        "left entry (0, 0) -> [0] at (1, 2, '?') lies past its spaces (dimensions 4 x 0 -> 0)")),
    ("left", (2, 3, 3), (3, 3), {4: 1}, (
        None, "left entry (3, 3) -> [4] at (2, 3, 3) lies past its spaces (dimensions 4 x 4 -> 4)")),
    ("right", (1, 3, 3), (1, 4), {2: 1}, (
        None, "right entry (1, 4) -> [2] at (1, 3, 3) lies past its spaces (dimensions 4 x 4 -> 4)")),
])
def test_validate_on_a_corrupted_three_object_category(table, key, pair, value, messages):
    # Only chains through nonzero homs are checked, and the first failure is
    # the one the walk over all quadruples of objects met first.
    cat = _a3_times_matrices()
    mod = regular(cat)
    tables = {"compose": cat.compose, "left": mod.left, "right": mod.right}
    tables[table].setdefault(key, {})[pair] = {k: cat.field.of(v) for k, v in value.items()}
    if table == "compose":
        mod = regular(cat)
    for obj, message in zip((cat, mod), messages):
        if message is None:
            obj.validate()
        else:
            assert _validate_message(obj) == message


def test_validate_checks_only_chains_through_nonzero_homs(monkeypatch):
    # 15 of the 81 quadruples of objects of 1 -> 2 -> 3 are chains a <= b <= c <= e
    from thd.ainfty import category

    calls = []
    checked = category._first_nonassociative
    monkeypatch.setattr(category, "_first_nonassociative", lambda *a: calls.append(a) or checked(*a))
    cat = _a3_times_matrices()
    cat.validate()
    assert len(calls) == 15
    regular(cat).validate()
    assert len(calls) == 15 + 3 * 15


def test_bimodule_over_an_object_without_identity_is_a_precondition_violation():
    # hom(b, b) = k only, so a has no identity; M(a, b) = k
    one = QQ.one
    cat = FiniteLinearCategory(
        QQ, ["a", "b"], {("b", "b"): 1}, {("b", "b", "b"): {(0, 0): {0: one}}}, {"b": {0: one}},
    )
    cat.validate()
    mod = CentralBimodule(cat, {("a", "b"): 1}, {}, {("a", "b", "b"): {(0, 0): {0: one}}})
    assert _validate_message(mod) == "M('a','b') is nonzero but object 'a' has no identity"


def test_a_repeated_object_is_refused():
    # each object is one block of every table, so a second copy would count its homs twice
    cat = dual_numbers()
    with pytest.raises(PreconditionViolation, match=r"^object '\*' is declared twice$"):
        FiniteLinearCategory(QQ, cat.objects * 2, cat.dims, cat.compose, cat.identities)
    with pytest.raises(PreconditionViolation, match=r"^object 'a' is declared twice$"):
        FiniteLinearCategory(QQ, ["a", "b", "a"], {}, {}, {})


def test_validate_refuses_an_object_without_a_unit():
    one = QQ.one
    # an arrow a -> b, but hom(a, a) = 0
    cat = FiniteLinearCategory(QQ, ["a", "b"], {("a", "b"): 1, ("b", "b"): 1},
                               {("a", "b", "b"): {(0, 0): {0: one}}, ("b", "b", "b"): {(0, 0): {0: one}}},
                               {"b": {0: one}})
    assert _validate_message(cat) == "object 'a' has arrows but no endomorphisms"
    dual = dual_numbers()
    no_identity = FiniteLinearCategory(QQ, dual.objects, dual.dims, dual.compose, {})
    assert _validate_message(no_identity) == "object '*' has no identity"
    # x is no unit of k[x]/(x^2): x . 1 = x != 1
    x_as_unit = FiniteLinearCategory(QQ, dual.objects, dual.dims, dual.compose, {"*": {1: one}})
    assert _validate_message(x_as_unit) == "identity law fails on basis element 0 of hom('*','*')"


def test_bimodule_validate_refuses_a_unit_that_does_not_act():
    broken = _augmentation_bimodule(left_extra={(0, 0): {}})  # 1 . e = 0
    assert _validate_message(broken) == "unit action fails on M('*','*') basis element 0"


def test_functor_validate_refuses_a_lost_identity_and_a_lost_product():
    cat, one = dual_numbers(), QQ.one
    to_x = LinearFunctor(cat, cat, {"*": "*"}, {("*", "*"): [{1: one}, {1: one}]})
    assert _validate_message(to_x) == "functor does not preserve the identity of '*'"
    # x -> 1 keeps the identity, but x x = 0 goes to 0 while 1 1 = 1
    to_one = LinearFunctor(cat, cat, {"*": "*"}, {("*", "*"): [{0: one}, {0: one}]})
    assert _validate_message(to_one) == (
        "functor does not preserve composition on (1,1) in hom('*','*') x hom('*','*')")


# -------------------------------------------------------------- differential
def test_differential_of_central_degree0_cochain_vanishes():
    cat = dual_numbers()
    mod = regular(cat)
    f = Cochain(cat, mod, 0, {(("*",), ()): {1: QQ.one}})  # x is central
    assert hochschild_differential(f).is_zero()


def test_differential_degree0_detects_noncentral():
    cat = a2_path_category()
    mod = regular(cat)
    # the family (id_1, 0) is not central: alpha . id_1 != id_2 . alpha... wait
    f = Cochain(cat, mod, 0, {(("1",), ()): {0: QQ.one}})
    df = hochschild_differential(f)
    assert not df.is_zero()
    assert df.component(("1", "2"), (0,)) == {0: -QQ.one}


def test_differential_square_zero_relation():
    cat = dual_numbers()
    mod = regular(cat)
    f = Cochain(cat, mod, 1, {(("*", "*"), (1,)): {1: QQ.one}})  # f(x) = x
    assert hochschild_differential(f).is_zero()


def test_d_squared_zero_exhaustive():
    for cat in (dual_numbers(), a2_path_category()):
        mod = regular(cat)
        for degree in range(0, 6):
            for f in all_basis_cochains(cat, mod, degree):
                assert hochschild_differential(hochschild_differential(f)).is_zero()


def test_d_squared_zero_tensored_examples():
    for base in (dual_numbers(), a2_path_category()):
        cat = tensor_with_algebra(base, product_algebra())
        mod = regular(cat)
        for degree in range(0, 6):
            for f in all_basis_cochains(cat, mod, degree, bar_cochain_basis):
                assert hochschild_differential(hochschild_differential(f)).is_zero()


def test_d_squared_zero_random_cochains():
    rng = random.Random(7)
    for cat in (dual_numbers(), a2_path_category()):
        mod = regular(cat)
        for degree in range(1, 5):
            f = random_cochain(cat, mod, degree, rng)
            assert hochschild_differential(hochschild_differential(f)).is_zero()


def test_differential_preserves_normalization():
    rng = random.Random(11)
    cat = dual_numbers()
    mod = regular(cat)
    for degree in range(1, 5):
        f = random_cochain(cat, mod, degree, rng)
        assert is_normalized(f)
        assert is_normalized(hochschild_differential(f))


# ---------------------------------------------------------------- dimensions
def test_hh_of_base_field():
    cat = trivial_category()
    dims = hh_dimensions(cat, regular(cat), 4)
    assert dims == [1, 0, 0, 0, 0]


def test_hh_of_dual_numbers():
    # characteristic 0: center has dimension 2, then one dimension forever
    cat = dual_numbers()
    dims = hh_dimensions(cat, regular(cat), 4)
    assert dims == [2, 1, 1, 1, 1]


def test_hh_degree_zero_is_center():
    cat = a2_path_category()
    dims = hh_dimensions(cat, regular(cat), 2)
    assert dims[0] == 1  # the center of the A2 path category is k
    assert dims[1] == 0 and dims[2] == 0  # hereditary and directed


def test_hh_center_of_bundled_examples():
    for name, center in (
        ("k", 1), ("dual-numbers", 2), ("a2", 1),
        ("dual-numbers-x-k2", 4), ("a2-x-k2", 2),
    ):
        entry = build_example(name)
        dims = hh_dimensions(entry["category"], entry["bimodule"], 0)
        assert dims[0] == center, name


def test_normalized_and_full_models_agree():
    cat = dual_numbers()
    mod = regular(cat)
    assert hh_dimensions(cat, mod, 3) == bar_hh_dimensions(cat, mod, 3)


def test_isomorphic_presentations_agree():
    # k x k in the idempotent basis (identity swapped into the basis) vs unit-first basis
    a = tensor_with_algebra(trivial_category(), product_algebra())
    b = tensor_with_algebra(trivial_category(), product_algebra_unit_basis())
    assert hh_dimensions(a, regular(a), 3) == hh_dimensions(b, regular(b), 3) == [2, 0, 0, 0]


def test_hh_over_prime_field():
    cat = dual_numbers(PrimeField())
    dims = hh_dimensions(cat, regular(cat), 3)
    assert dims == [2, 1, 1, 1]


def test_normalized_enumeration_requires_basis_identity():
    cat = tensor_with_algebra(dual_numbers(), product_algebra())
    with pytest.raises(PreconditionViolation, match="not a basis vector"):
        cochain_basis(cat, regular(cat), 2)
    with pytest.raises(PreconditionViolation, match="not a basis vector"):
        random_cochain(cat, regular(cat), 2, random.Random(0))


# --------------------------------------------------------------- deformation
def test_cocycle_space_of_dual_numbers():
    cat = dual_numbers()
    basis = cocycle_space(cat, regular(cat), 3)
    assert len(basis) == 1
    eta = basis[0]
    assert hochschild_differential(eta).is_zero()
    assert eta.component(("*",) * 4, (1, 1, 1))


def test_square_zero_cocycle_is_closed_and_nontrivial():
    eta = square_zero_cocycle()
    assert hochschild_differential(eta).is_zero()
    assert is_normalized(eta)
    bad = perturbed_noncocycle()
    assert not hochschild_differential(bad).is_zero()


def test_deform_rejects_noncocycles():
    cat = dual_numbers()
    with pytest.raises(NotACocycle):
        deform(cat, regular(cat), perturbed_noncocycle())


def test_deform_requires_degree_3():
    cat = dual_numbers()
    mod = regular(cat)
    with pytest.raises(PreconditionViolation):
        deform(cat, mod, Cochain(cat, mod, 2, {}))


def test_deformation_passes_verification():
    cat = dual_numbers()
    mod = regular(cat)
    A = deform(cat, mod, square_zero_cocycle())
    assert A.basis[("*", "*")] == (0, 0, -1, -1)
    report = verify_stasheff(A, 8)
    assert report.passed and report.unital
    assert report.ks_evaluated == (3, 4, 5)  # support {2,3}: the rest vacuous


def test_zero_cocycle_gives_square_zero_extension():
    cat = dual_numbers()
    mod = regular(cat)
    A = deform(cat, mod, Cochain(cat, mod, 3, {}))
    assert A.support() == [2]
    assert verify_stasheff(A, 7).passed


def test_perturbed_structure_fails_at_degree_four():
    cat = dual_numbers()
    mod = regular(cat)
    A = deform(cat, mod, perturbed_noncocycle(), check=False)
    report = verify_stasheff(A, 8)
    assert not report.passed
    assert report.first_failure[0] == 4  # first failing identity: k = n + 1


def test_plain_category_verifies():
    for cat in (dual_numbers(), a2_path_category()):
        report = verify_stasheff(from_linear_category(cat), 7)
        assert report.passed and report.unital
        assert report.ks_evaluated == (3,)


def test_leibniz_violating_differential_fails_at_two():
    A = from_linear_category(dual_numbers())
    A.ops[1] = {(("*", "*"), (1,)): {0: QQ.one}}  # m_1(x) = 1 is not a derivation
    report = verify_stasheff(A, 5)
    assert not report.passed and report.first_failure[0] == 2


def test_random_cocycles_pass_noncocycles_fail():
    cat = dual_numbers()
    mod = regular(cat)
    rng = random.Random(1729)
    (basis_vec,) = cocycle_space(cat, mod, 3)
    for _ in range(3):
        scale = QQ.of(rng.randint(1, 7))
        eta = basis_vec.scaled(scale)
        assert verify_stasheff(deform(cat, mod, eta), 7).passed
    failures = 0
    for _ in range(5):
        eta = random_cochain(cat, mod, 3, rng)
        if hochschild_differential(eta).is_zero():
            continue
        report = verify_stasheff(deform(cat, mod, eta, check=False), 7)
        assert not report.passed and report.first_failure[0] == 4
        failures += 1
    assert failures


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("base", [dual_numbers, a2_path_category], ids=["dual", "a2"])
def test_deformed_m2_is_composition_and_the_actions_block_by_block(base, field):
    cat = tensor_with_algebra(base(field), matrix_algebra(field))
    mod = regular(cat)
    A = deform(cat, mod, Cochain(cat, mod, 3, {}))
    for a, b, c in itertools.product(cat.objects, repeat=3):
        dx_ab, dx_bc, dx_ac = cat.dim(a, b), cat.dim(b, c), cat.dim(a, c)
        for i in range(A.dim(a, b)):
            for j in range(A.dim(b, c)):
                if i < dx_ab and j < dx_bc:
                    want = cat.diag(a, b, c, i, j)
                elif i < dx_ab:
                    want = {dx_ac + m: v for m, v in mod.lact(a, b, c, i, j - dx_bc).items()}
                elif j < dx_bc:
                    want = {dx_ac + m: v for m, v in mod.ract(a, b, c, i - dx_ab, j).items()}
                else:
                    want = {}  # the bimodule squares to zero
                assert A.apply(2, (a, b, c), (i, j)) == vclean(want), (a, b, c, i, j)


def test_strict_unitality_of_deformation():
    A = deform(dual_numbers(), regular(dual_numbers()), square_zero_cocycle())
    report = verify_stasheff(A, 4)
    assert report.unital


# -------------------------------------------------------------------- tensor
def test_tensor_with_scalar_algebra_is_identity_like():
    cat = dual_numbers()
    A = from_linear_category(cat)
    B = tensor_with_algebra(A, scalar_algebra())
    assert A.basis == B.basis and A.ops == B.ops and A.units == B.units


def test_tensor_dims_multiply():
    cat = a2_path_category()
    for gamma in (product_algebra(), matrix_algebra()):
        t = tensor_with_algebra(cat, gamma)
        for key, d in cat.dims.items():
            assert t.dim(*key) == d * gamma.dim


def test_tensor_matrix_algebra_associative():
    t = tensor_with_algebra(a2_path_category(), matrix_algebra())
    t.validate()  # exhaustive associativity + unit laws on bases


def test_cup_with_identity_zero():
    cat = dual_numbers()
    mod = regular(cat)
    zero = Cochain(cat, mod, 3, {})
    assert cup_with_identity(zero, product_algebra()).is_zero()


def test_cup_commutes_with_differential():
    rng = random.Random(5)
    cat = dual_numbers()
    mod = regular(cat)
    for gamma in (scalar_algebra(), product_algebra(), matrix_algebra()):
        for degree in (1, 2, 3):
            eta = random_cochain(cat, mod, degree, rng)
            lhs = hochschild_differential(cup_with_identity(eta, gamma))
            rhs = cup_with_identity(hochschild_differential(eta), gamma)
            assert lhs == rhs


def test_cup_deformation_compatibility():
    # deform-then-tensor equals tensor-then-deform-along-the-cup, on the nose
    cat = dual_numbers()
    mod = regular(cat)
    eta = square_zero_cocycle()
    for gamma in (scalar_algebra(), product_algebra(), matrix_algebra()):
        route1 = tensor_with_algebra(deform(cat, mod, eta), gamma)
        tcat = tensor_category(cat, gamma)
        tmod = tensor_bimodule(mod, gamma, tcat)
        route2 = deform(tcat, tmod, cup_with_identity(eta, gamma))
        assert route1.basis == route2.basis
        assert route1.ops == route2.ops
        assert route1.units == route2.units


def test_deform_refuses_a_cochain_of_another_category():
    # deform builds on the category it is given, so it keys the cochain there:
    # an m_3 on chains of *, an object A2 does not have, is refused
    cat = a2_path_category()
    for check in (True, False):
        with pytest.raises(PreconditionViolation,
                           match=r"^argument index 1 out of range for hom\('\*','\*'\)$"):
            deform(cat, regular(cat), square_zero_cocycle(), check=check)


BUNDLED_ALGEBRAS = (scalar_algebra, product_algebra, product_algebra_unit_basis, matrix_algebra)


def _bundled_categories():
    for name in example_names():
        entry = build_example(name)
        if entry["kind"] == "category":
            yield name, entry["category"]


@pytest.mark.parametrize("make_gamma", BUNDLED_ALGEBRAS)
def test_tensor_routes_agree_on_bundled_categories(make_gamma):
    gamma = make_gamma()
    for name, cat in _bundled_categories():
        tcat = tensor_category(cat, gamma)
        assert (from_linear_category(tcat).ops
                == tensor_with_algebra(from_linear_category(cat), gamma).ops), name
        tmod = tensor_bimodule(regular(cat), gamma, tcat)
        reg = regular(tcat)
        for side in ("left", "right"):
            lifted = {k: t for k, t in getattr(tmod, side).items() if t}
            assert lifted == getattr(reg, side), (name, side)


@pytest.mark.parametrize("make_gamma", BUNDLED_ALGEBRAS)
def test_cup_of_a_degree0_cochain_is_its_tensor_with_the_unit(make_gamma):
    gamma = make_gamma()
    gd = gamma.dim
    for name, cat in _bundled_categories():
        mod = regular(cat)
        data = {((a,), ()): {m: QQ.of(m + 2) for m in range(mod.dim(a, a))} for a in cat.objects}
        eta = Cochain(cat, mod, 0, data)
        want = {key: {h * gd + g: c * cg for h, c in vec.items() for g, cg in gamma.unit.items()}
                for key, vec in eta.data.items()}
        assert cup_with_identity(eta, gamma).data == want, name


# ---------------------------------------------------------------- restriction
def test_restrict_along_identity_functor():
    cat = dual_numbers()
    mod = regular(cat)
    ident = LinearFunctor(cat, cat, {"*": "*"}, {("*", "*"): [{0: QQ.one}, {1: QQ.one}]})
    ident.validate()
    eta = square_zero_cocycle()
    assert restrict_along_functor(ident, eta) == eta


def test_restrict_refuses_a_cochain_of_another_category():
    # the cochain lives on k[x]/(x^2); the quotient lands in k, whose hom(*, *)
    # has no arrow 1, so the cochain is refused instead of evaluated as zero
    with pytest.raises(PreconditionViolation,
                       match=r"^argument index 1 out of range for hom\('\*','\*'\)$"):
        restrict_along_functor(a2_to_a1_quotient(), square_zero_cocycle())


def test_restrict_through_zero_hom_kills_cochains():
    F = a2_to_a1_quotient()
    F.validate()
    # push the quotient functor into the dual numbers to get a nonzero target cochain
    tgt = dual_numbers()
    G = LinearFunctor(a2_path_category(), tgt, {"1": "*", "2": "*"},
                      {("1", "1"): [{0: QQ.one}], ("2", "2"): [{0: QQ.one}], ("1", "2"): [{}]})
    G.validate()
    eta = square_zero_cocycle()
    assert restrict_along_functor(G, eta).is_zero()


def test_restrict_a_degree_zero_cochain_along_the_quotient():
    # a degree-0 cochain is evaluated on no arguments at all
    F = a2_to_a1_quotient()
    k = F.target
    eta = Cochain(k, regular(k), 0, {(("*",), ()): {0: QQ.of(3)}})
    got = restrict_along_functor(F, eta)
    assert got.degree == 0 and got.cat is F.source
    assert got.data == {(("1",), ()): {0: QQ.of(3)}, (("2",), ()): {0: QQ.of(3)}}
    assert hochschild_differential(got) == restrict_along_functor(F, hochschild_differential(eta))


def test_restriction_commutes_with_differential():
    rng = random.Random(23)
    tgt = dual_numbers()
    mod = regular(tgt)
    G = LinearFunctor(a2_path_category(), tgt, {"1": "*", "2": "*"},
                      {("1", "1"): [{0: QQ.one}], ("2", "2"): [{0: QQ.one}],
                       ("1", "2"): [{1: QQ.one}]})  # alpha -> x
    G.validate()
    for degree in (1, 2, 3):
        eta = random_cochain(tgt, mod, degree, rng)
        lhs = hochschild_differential(restrict_along_functor(G, eta))
        rhs = restrict_along_functor(G, hochschild_differential(eta))
        assert lhs == rhs


def test_restricted_bimodule_axioms():
    tgt = dual_numbers()
    G = LinearFunctor(a2_path_category(), tgt, {"1": "*", "2": "*"},
                      {("1", "1"): [{0: QQ.one}], ("2", "2"): [{0: QQ.one}],
                       ("1", "2"): [{1: QQ.one}]})
    restricted_bimodule(G, regular(tgt)).validate()


# --------------------------------------------------------------------- budget
def test_budget_exceeded():
    cat = dual_numbers()
    mod = regular(cat)
    A = deform(cat, mod, square_zero_cocycle())
    with pytest.raises(BudgetExceeded):
        verify_stasheff(A, 8, Budget(50))
    with pytest.raises(BudgetExceeded):
        hh_dimensions(cat, mod, 4, Budget(3))


def test_budget_env_override(monkeypatch):
    from thd.ainfty.budget import resolve_budget

    assert resolve_budget(123) == 123
    monkeypatch.setenv("THD_BUDGET", "777")
    assert resolve_budget() == 777
    monkeypatch.delenv("THD_BUDGET")
    assert resolve_budget() == 10_000_000
