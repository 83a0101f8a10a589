"""The sparse Stasheff verifier against the exhaustive tuple-by-tuple oracle.

Every report field that does not count work must agree: ``passed``,
``ks_evaluated``, ``first_failure``, ``residual`` (including the order of
its terms, which the summary prints), ``unital`` and ``unital_failure``.
"""

import random
from fractions import Fraction

import pytest

from oracles import differential_terms, exhaustive_stasheff, per_key_hochschild_differential
from thd.ainfty import (
    AInfinityStructure,
    Algebra,
    Budget,
    CentralBimodule,
    Cochain,
    PrimeField,
    QQ,
    build_example,
    cocycle_space,
    deform,
    example_names,
    from_linear_category,
    hochschild_differential,
    random_cochain,
    tensor_with_algebra,
    verify_stasheff,
)
from thd.ainfty.cochain import _tables
from thd.ainfty.examples import (
    dual_numbers,
    matrix_algebra,
    perturbed_noncocycle,
    product_algebra,
    product_algebra_unit_basis,
    square_zero_cocycle,
)
from thd.ainfty.structure import _check_unitality
from thd.errors import BudgetExceeded, NotACocycle, PreconditionViolation

FIELDS = {"Q": QQ, "F32003": PrimeField(32003), "F7": PrimeField(7)}


def outcome(report):
    residual = None if report.residual is None else list(report.residual.items())
    return (report.passed, report.ks_evaluated, report.first_failure, residual,
            report.unital, report.unital_failure)


def assert_agrees(A, k_max):
    report = verify_stasheff(A, k_max)
    assert outcome(report) == outcome(exhaustive_stasheff(A, k_max))
    return report


def bundled_structures(field, with_matrices):
    """Every bundled example as a structure: categories through
    ``from_linear_category``, optionally tensored with ``M_2`` first."""
    for name in example_names():
        entry = build_example(name, field, seed=0)
        if entry["kind"] == "structure":
            A = entry["structure"]
            yield tensor_with_algebra(A, matrix_algebra(field, 2)) if with_matrices else A
        else:
            cat = entry["category"]
            if with_matrices:
                cat = tensor_with_algebra(cat, matrix_algebra(field, 2))
            yield from_linear_category(cat)


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_bundled_examples_agree_with_the_oracle(field):
    outcomes = {assert_agrees(A, 7).passed for A in bundled_structures(field, False)}
    assert outcomes == {True, False}


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_bundled_examples_tensor_matrices_agree_with_the_oracle(field):
    # k_max 4 keeps the oracle to 16^4 tuples per chain; the plain test
    # above covers k = 5
    for A in bundled_structures(field, True):
        assert_agrees(A, 4)


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_random_examples_agree_with_the_oracle(seed):
    for name in ("random-cocycle", "random-noncocycle"):
        assert_agrees(build_example(name, FIELDS["F32003"], seed=seed)["structure"], 7)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_deformations_of_dual_numbers_times_k2(seed):
    F = FIELDS["F32003"]
    cat = tensor_with_algebra(dual_numbers(F), product_algebra_unit_basis(F))
    mod = CentralBimodule.regular(cat)
    rng = random.Random(seed)
    eta = Cochain(cat, mod, 3, {})
    for vec in cocycle_space(cat, mod, 3):
        eta = eta + vec.scaled(F.of(rng.randrange(F.p)))
    assert assert_agrees(deform(cat, mod, eta), 5).passed
    while True:
        noncocycle = random_cochain(cat, mod, 3, rng)
        if not hochschild_differential(noncocycle).is_zero():
            break
    report = assert_agrees(deform(cat, mod, noncocycle, check=False), 5)
    assert not report.passed and report.first_failure[0] == 4


def test_leibniz_violating_differential():
    A = from_linear_category(dual_numbers())
    A.ops[1] = {(("*", "*"), (1,)): {0: QQ.one}}  # m_1(x) = 1 is not a derivation
    report = assert_agrees(A, 5)
    assert report.first_failure[0] == 2


def test_koszul_signs_on_a_dg_algebra():
    # The graded-commutative algebra on u (degree -1) and v (degree 0) with
    # u^2 = v^2 = 0 and d u = v.  The Leibniz rule holds only with the sign
    # (-1)^{|u|} on m_2(u, m_1(u)), so a Koszul sign error fails at k = 2.
    one = QQ.one
    degrees = (0, -1, 0, -1)  # 1, u, v, uv
    products = {(0, i): i for i in range(4)}
    products.update({(i, 0): i for i in range(1, 4)})
    products.update({(1, 2): 3, (2, 1): 3})
    m2 = {(("*",) * 3, args): {out: one} for args, out in products.items()}
    m1 = {(("*", "*"), (1,)): {2: one}}
    A = AInfinityStructure(QQ, ("*",), {("*", "*"): degrees}, {1: m1, 2: m2}, {"*": {0: one}})
    report = assert_agrees(A, 4)
    assert report.passed and report.unital and report.ks_evaluated == (1, 2, 3)


def test_first_failure_is_the_minimal_key_in_enumeration_order():
    # Two objects listed as ("b", "a"), each with a two-dimensional
    # non-associative endomorphism product.  The m_2 table lists the "a"
    # entries first and each object's arguments in descending order, so
    # neither insertion order nor sorting the object names finds the
    # failure the enumeration meets first.
    rng = random.Random(3)
    basis = {("a", "a"): (0, 0), ("b", "b"): (0, 0)}
    m2 = {}
    for obj in ("a", "b"):
        for x1 in (1, 0):
            for x2 in (1, 0):
                m2[((obj,) * 3, (x1, x2))] = {0: QQ.of(rng.randint(1, 9)),
                                             1: QQ.of(rng.randint(1, 9))}
    A = AInfinityStructure(QQ, ("b", "a"), basis, {2: m2}, {})
    report = assert_agrees(A, 4)
    assert report.first_failure == (3, ("b",) * 4, (0, 0, 0))
    swapped = AInfinityStructure(QQ, ("a", "b"), basis, {2: m2}, {})
    assert assert_agrees(swapped, 4).first_failure == (3, ("a",) * 4, (0, 0, 0))


def test_keys_outside_the_basis_are_never_evaluated():
    # Table keys that name an unknown object, an argument past the basis or
    # the wrong arity cannot occur in any identity, so they change nothing.
    A = from_linear_category(dual_numbers())
    stray = {(("*", "?", "*"), (0, 0)): {1: QQ.one}, (("*",) * 3, (0, 2)): {1: QQ.one},
             (("*",) * 3, (0,)): {1: QQ.one}}
    A.ops[2].update(stray)
    # the wrong arity, and an argument past the basis beside an identity argument
    A.ops[3] = {(("*",) * 3, (1, 1, 1)): {1: QQ.one}, (("*",) * 4, (0, 5, 1)): {1: QQ.one}}
    report = assert_agrees(A, 5)
    assert report.passed and report.unital


def test_budget_guards_the_joins():
    F = FIELDS["F32003"]
    base = build_example("random-cocycle", F, seed=1)["structure"]
    tensored = tensor_with_algebra(base, matrix_algebra(F, 2))
    assert verify_stasheff(tensored, 7).evaluations == 768
    with pytest.raises(BudgetExceeded):
        verify_stasheff(tensored, 7, Budget(100))


def test_budget_spent_is_joins_plus_unitality_charges():
    A = build_example("dual-deformed")["structure"]
    budget = Budget()
    report = verify_stasheff(A, 7, budget)
    assert report.passed and report.unital
    unitality = Budget()
    assert _check_unitality(A, unitality) == (True, None)
    assert budget.spent == report.evaluations + unitality.spent
    assert unitality.spent > 0


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_a_failing_m2_unit_law_names_its_hom_and_basis_element(field):
    # x is no unit of k[x]/(x^2), though m_2 stays associative: the identities pass
    # and only the unit laws fail, first at e_0 . x = x != e_0
    A = from_linear_category(dual_numbers(field))
    A.units["*"] = {1: field.one}
    budget = Budget()
    report = verify_stasheff(A, 4, budget)
    assert report.passed and not report.unital
    assert report.unital_failure == "m_2 unit law fails on e_0 of hom('*','*')"
    assert outcome(report) == outcome(exhaustive_stasheff(A, 4))
    assert budget.spent == report.evaluations + 2 * 2  # two laws on each basis element


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_a_differential_on_the_unit_fails_unitality(field):
    # m_1(e_0) = e_1 and m_1(e_1) = 0: m_1 m_1 = 0 is the only identity with terms
    A = AInfinityStructure(field, ["*"], {("*", "*"): (0, 1)}, {1: {(("*", "*"), (0,)): {1: field.one}}},
                           {"*": {0: field.one}})
    report = verify_stasheff(A, 4)
    assert report.passed and not report.unital
    assert report.unital_failure == "m_1(Id_'*') != 0"
    assert report.summary() == "UNITALITY FAIL: m_1(Id_'*') != 0"
    assert outcome(report) == outcome(exhaustive_stasheff(A, 4))


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_a_closed_cochain_that_sees_the_unit_fails_unitality(field):
    # d phi on k[x]/(x^2) for phi(1, 1) = 1 is closed, but takes (x, 1, 1) to x
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    eta = hochschild_differential(Cochain(cat, mod, 2, {(("*",) * 3, (0, 0)): {0: field.one}}))
    assert eta.data[(("*",) * 4, (1, 0, 0))] == {1: field.one}
    A = deform(cat, mod, eta)
    report = verify_stasheff(A, 7)
    assert report.passed and not report.unital
    assert report.unital_failure == "m_3 does not vanish on an identity argument at ('*', '*', '*', '*')"
    assert report.summary() == "UNITALITY FAIL: " + report.unital_failure
    assert outcome(report) == outcome(exhaustive_stasheff(A, 7))


@pytest.mark.parametrize("field", FIELDS.values(), ids=FIELDS.keys())
def test_an_algebra_with_a_broken_unit_is_refused(field):
    one = field.one
    product_algebra(field).validate()
    # e_1 is idempotent in k x k, and no unit: e_1 e_2 = 0
    with pytest.raises(PreconditionViolation, match="unit law fails on basis element 1"):
        Algebra(field, 2, {(0, 0): {0: one}, (1, 1): {1: one}}, {0: one}).validate()
    # a left unit only: e_1 e_2 = e_2 but e_2 e_1 = 0
    with pytest.raises(PreconditionViolation, match="unit law fails on basis element 1"):
        Algebra(field, 2, {(0, 0): {0: one}, (0, 1): {1: one}}, {0: one}).validate()


@pytest.mark.parametrize("field", [QQ, FIELDS["F7"]], ids=["Q", "F7"])
def test_deform_refuses_a_noncocycle_that_is_not_normalized(field):
    # The square-zero cocycle plus 2x on (x, 1, x): the identity argument makes
    # it non-closed, and only the full differential tables see that; the
    # normalized ones drop every term of that key.
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    chain = ("*",) * 4
    eta = Cochain(cat, mod, 3, {(chain, (1, 1, 1)): {1: field.one},
                                (chain, (1, 0, 1)): {1: field.of(2)}})
    normalized = _tables(cat, mod, normalized=True)
    assert not any(differential_terms(normalized, chain, (1, 0, 1), 1, Budget()))
    assert not per_key_hochschild_differential(eta).is_zero()
    with pytest.raises(NotACocycle):
        deform(cat, mod, eta)
    assert not verify_stasheff(deform(cat, mod, eta, check=False), 5).passed


def _pipeline_category():
    """The category and bimodule of the benchmark's deform-pipeline workload."""
    F = FIELDS["F32003"]
    cat = tensor_with_algebra(dual_numbers(F), product_algebra_unit_basis(F))
    return cat, CentralBimodule.regular(cat)


def test_deform_check_and_differential_charge_as_before():
    # Budget.spent pinned: it counts terms, so the number type of the values does not move it
    cat, mod = _pipeline_category()
    rng = random.Random(0)
    eta = Cochain(cat, mod, 3, {})
    for vec in cocycle_space(cat, mod, 3):
        eta = eta + vec.scaled(cat.field.of(rng.randrange(1, cat.field.p)))
    budget = Budget()
    deform(cat, mod, eta, budget=budget)
    assert budget.spent == 1360
    budget = Budget()
    assert hochschild_differential(eta, budget).is_zero() and budget.spent == 1360
    noncocycle = random_cochain(cat, mod, 3, rng)
    budget = Budget()
    d = hochschild_differential(noncocycle, budget)
    assert budget.spent == 1550 and d == per_key_hochschild_differential(noncocycle)
    assert all(type(c) is int and 0 < c < cat.field.p for vec in d.data.values() for c in vec.values())
    budget = Budget()
    with pytest.raises(NotACocycle):
        deform(cat, mod, noncocycle, budget=budget)
    assert budget.spent == 1550


@pytest.mark.parametrize("field, kind", [(QQ, Fraction), (FIELDS["F7"], int),
                                         (FIELDS["F32003"], int)], ids=["Q", "F7", "F32003"])
@pytest.mark.parametrize("scale", [Fraction(1, 2), Fraction(1, 3)], ids=["half", "third"])
def test_noncocycle_deformations_with_fractional_coefficients(field, kind, scale):
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    eta = (perturbed_noncocycle(field) + square_zero_cocycle(field)).scaled(field.of(scale))
    report = assert_agrees(deform(cat, mod, eta, check=False), 6)
    # k = 4 evaluates to minus d eta, whose value on (x, x, x, x) is 2 * scale * x
    assert report.first_failure == (4, ("*",) * 5, (1, 1, 1, 1))
    assert report.residual == {3: field.of(-2 * scale)}
    assert {type(c) for c in report.residual.values()} == {kind}
    assert kind is Fraction or all(0 < c < field.p for c in report.residual.values())


def test_pipeline_structures_pass_or_report_a_residual():
    cat, mod = _pipeline_category()
    F = cat.field
    eta = Cochain(cat, mod, 3, {})
    for c, vec in enumerate(cocycle_space(cat, mod, 3), start=1):
        eta = eta + vec.scaled(F.of(c))
    rng = random.Random(1)
    while True:
        noncocycle = random_cochain(cat, mod, 3, rng)
        if not per_key_hochschild_differential(noncocycle).is_zero():
            break
    base = build_example("random-cocycle", F, seed=1)["structure"]
    structures = [deform(cat, mod, eta), deform(cat, mod, noncocycle, check=False),
                  tensor_with_algebra(base, matrix_algebra(F, 2))]
    for A in structures:
        report = verify_stasheff(A, 7)
        assert report.passed or report.residual
    with pytest.raises(NotACocycle):
        deform(cat, mod, noncocycle)
