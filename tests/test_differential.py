"""The Hochschild differential built key by key against the per-key oracle.

The oracle is the assembly the library used before it emitted each basis
key's terms straight from the structure tensors: a one-term cochain per key,
the whole sparse differential of it, and a lookup of every output under its
``(chain, args, m)`` key.  Columns and ``Budget.spent`` must agree exactly.
The normalized tables leave out exactly the terms on identity arguments, and
a broken unit law raises before any column is built.
"""

import random

import pytest

from oracles import (
    bar_cochain_basis,
    bar_hh_dimensions,
    per_key_differential_columns,
    per_key_hochschild_differential,
    random_bar_cochain,
)
from thd import PreconditionViolation
from thd.ainfty import (
    QQ,
    Budget,
    CentralBimodule,
    Cochain,
    FiniteLinearCategory,
    PrimeField,
    build_example,
    cochain_basis,
    cocycle_space,
    from_linear_category,
    hh_dimensions,
    hochschild_differential,
    random_cochain,
    tensor_with_algebra,
)
from thd.ainfty.cochain import (
    _differential_columns,
    _tables,
    differential_tables,
    differential_terms,
    identity_basis_change,
)
from thd.ainfty.examples import dual_numbers, product_algebra_unit_basis
from thd.ainfty.linalg import raw

FIELDS = [QQ, PrimeField(32003), PrimeField(7)]
FIELD_IDS = ["Q", "F32003", "F7"]

# (name, highest source degree): the hh-bar workload takes HH of
# dual-numbers-x-k2 to degree 4 and a2-x-k2 to degree 5, once their
# identities are swapped into the basis; the deform-pipeline category (dual
# numbers over k[u]/(u^2 - 1)) to degree 4, with cocycles in degrees 3 and 4.
# In the basis (1, y = 1 + x) of k[x]/(x^2), y y = 2y - 1 has two entries,
# which no bundled product has.
CASES = [("k", 5), ("dual-numbers", 5), ("a2", 5), ("dual-numbers-x-k2", 4), ("a2-x-k2", 5),
         ("pipeline", 4), ("dual-numbers-y", 4)]


def _category(name, field):
    if name == "pipeline":
        cat = tensor_with_algebra(dual_numbers(field), product_algebra_unit_basis(field))
        return cat, CentralBimodule.regular(cat)
    if name == "dual-numbers-y":
        one = field.one
        compose = {("*", "*", "*"): {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one},
                                     (1, 1): {0: -one, 1: field.of(2)}}}
        cat = FiniteLinearCategory(field, ["*"], {("*", "*"): 2}, compose, {"*": {0: one}})
        cat.validate()
        return cat, CentralBimodule.regular(cat)
    entry = build_example(name, field)
    return entry["category"], entry["bimodule"]


def _models(cat, mod):
    """``(category, bimodule, normalized)``: the bar model of the given category,
    and the normalized model once its identities are swapped into the basis."""
    swapped, smod, _, _ = identity_basis_change(cat, mod)
    return [(cat, mod, False), (swapped, smod, True)]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name,top", CASES, ids=[name for name, _ in CASES])
def test_columns_and_budget_match_the_per_key_oracle(name, top, field):
    for cat, mod, normalized in _models(*_category(name, field)):
        basis = cochain_basis if normalized else bar_cochain_basis
        bases = [basis(cat, mod, k) for k in range(top + 2)]
        tables = None if normalized else differential_tables(cat, mod)
        for k in range(top + 1):
            new, old = Budget(), Budget()
            got = _differential_columns(cat, mod, bases[k], bases[k + 1], new, tables)
            want = per_key_differential_columns(cat, mod, bases[k], bases[k + 1], normalized, old)
            # the columns hold unreduced sums of raw numbers; linalg reduces them
            reduced = [{r: v for r, c in col.items() if (v := raw(field, c))} for col in got]
            assert reduced == want, (normalized, k)
            assert new.spent == old.spent, (normalized, k)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", ["dual-numbers", "a2", "dual-numbers-x-k2", "pipeline",
                                  "dual-numbers-y"])
def test_differential_of_random_cochains_matches_the_oracle(name, field):
    rng = random.Random(11)
    for cat, mod, normalized in _models(*_category(name, field)):
        for degree in range(4):
            f = (random_cochain if normalized else random_bar_cochain)(cat, mod, degree, rng)
            budget = Budget()
            assert hochschild_differential(f, budget) == per_key_hochschild_differential(f)
            # one charge per nonzero term of every basis entry of f
            per_entry = Budget()
            for (chain, args), vec in f.data.items():
                for m in vec:
                    per_key_hochschild_differential(
                        Cochain(cat, mod, degree, {(chain, args): {m: field.one}}), per_entry)
            assert budget.spent == per_entry.spent


def test_terms_leaving_the_normalized_subcomplex_cancel():
    # On k[x]/(x^2), d of the cochain x -> e_m has a prefix term at (id, x)
    # and a merge term at (id, x) of opposite sign, and likewise at (x, id):
    # each term alone leaves the normalized subcomplex, their sums vanish.
    cat = dual_numbers(QQ)
    mod = CentralBimodule.regular(cat)
    chain = ("*", "*")
    identity = cat.id_basis_index("*")
    tables = differential_tables(cat, mod)
    for m in range(2):
        sums = {}
        for dchain, dargs, mm, c in differential_terms(tables, chain, (1,), m, Budget()):
            if identity in dargs:
                sums[(dargs, mm)] = sums.get((dargs, mm), 0) + c
        assert len(sums) == 2 and not any(sums.values())
    source = cochain_basis(cat, mod, 1)
    target = cochain_basis(cat, mod, 2)
    _differential_columns(cat, mod, source, target, Budget())  # does not raise
    assert hh_dimensions(cat, mod, 3) == bar_hh_dimensions(cat, mod, 3)


def test_a_corrupted_action_that_leaves_the_subcomplex_still_raises():
    cat = dual_numbers(QQ)
    mod = CentralBimodule.regular(cat)
    # the identity now acts on x from the left as 2x: the prefix term at
    # (id, x) no longer cancels against the merge term
    mod.left[("*", "*", "*")][(0, 1)] = {1: QQ.of(2)}
    with pytest.raises(PreconditionViolation, match="left the normalized subcomplex"):
        hh_dimensions(cat, mod, 2)
    with pytest.raises(PreconditionViolation, match="left the normalized subcomplex"):
        cocycle_space(cat, mod, 1)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_every_call_reads_the_tensors_as_they_are_then(field):
    # the tables of the differential are compiled per call: a call after the
    # left action is corrupted in place, on the same objects, must see it
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    f = Cochain(cat, mod, 1, {(("*", "*"), (1,)): {1: field.one}})
    assert hh_dimensions(cat, mod, 2) == [2, 1, 1]
    assert len(cocycle_space(cat, mod, 1)) == 1
    before = hochschild_differential(f)
    mod.left[("*", "*", "*")][(0, 1)] = {1: field.of(2)}
    with pytest.raises(PreconditionViolation, match="left the normalized subcomplex"):
        hh_dimensions(cat, mod, 2)
    with pytest.raises(PreconditionViolation, match="left the normalized subcomplex"):
        cocycle_space(cat, mod, 1)
    after = hochschild_differential(f)
    assert after == per_key_hochschild_differential(f) and after != before


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_every_call_reads_the_product_as_it_is_then(field):
    # x x = x turns k[x]/(x^2) into k x k, whose HH is its centre alone: the
    # splits of the product, like the actions, are compiled per call
    one, o = field.one, ("*", "*", "*")
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    assert hh_dimensions(cat, mod, 3) == [2, 1, 1, 1]
    for table in (cat.compose, mod.left, mod.right):
        table[o][(1, 1)] = {1: one}
    compose = {o: {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {1: one}}}
    fresh = FiniteLinearCategory(field, ["*"], {("*", "*"): 2}, compose, {"*": {0: one}})
    assert hh_dimensions(fresh, CentralBimodule.regular(fresh), 3) == [2, 0, 0, 0]
    assert hh_dimensions(cat, mod, 3) == [2, 0, 0, 0]


def test_an_action_entry_past_the_bimodule_never_lands_in_a_column():
    cat = dual_numbers(QQ)
    mod = CentralBimodule.regular(cat)
    mod.left[("*", "*", "*")][(1, 1)] = {2: QQ.one}  # M(*, *) has dimension 2
    # in the bar model, whose keys the library no longer enumerates
    source, target = bar_cochain_basis(cat, mod, 1), bar_cochain_basis(cat, mod, 2)
    with pytest.raises(PreconditionViolation, match="differential left the"):
        _differential_columns(cat, mod, source, target, Budget())
    with pytest.raises(PreconditionViolation, match="differential left the"):
        bar_hh_dimensions(cat, mod, 2)
    with pytest.raises(PreconditionViolation, match="left the normalized subcomplex"):
        hh_dimensions(cat, mod, 2)


# terms the normalized assembly emits and budget units it charges on the
# sources of degree 0..top: the full tables charge the same and emit 7,048,
# 1,116 and 8,584 terms, of which it leaves out 4,376, 728 and 4,376
WORK = {"dual-numbers-x-k2": (2672, 7048), "a2-x-k2": (388, 1116), "pipeline": (4208, 8584)}


def _work(tables, bases, top):
    """``(terms, terms outside the target, budget spent)`` of d on the sources of degree <= top."""
    budget, terms, outside = Budget(), 0, 0
    for k in range(top + 1):
        target = set(bases[k + 1])
        for chain, args, m in bases[k]:
            for dchain, dargs, mm, _ in differential_terms(tables, chain, args, m, budget):
                terms += 1
                outside += (dchain, dargs, mm) not in target
    return terms, outside, budget.spent


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name,top", CASES, ids=[name for name, _ in CASES])
def test_the_normalized_assembly_emits_no_term_outside_its_target(name, top, field):
    cat, mod, _, _ = identity_basis_change(*_category(name, field))
    bases = [cochain_basis(cat, mod, k) for k in range(top + 2)]
    terms, outside, spent = _work(_tables(cat, mod, normalized=True), bases, top)
    full_terms, full_outside, full_spent = _work(differential_tables(cat, mod), bases, top)
    # it leaves out exactly the terms on identity arguments, and still charges for them
    assert outside == 0 and terms == full_terms - full_outside and spent == full_spent
    assert (terms, spent) == WORK.get(name, (terms, spent))


STAR = ("*", "*", "*")
# on k[x]/(x^2) with basis (id, x): the table, the entry, its corrupted value
UNIT_CORRUPTIONS = {
    "right-action": ("right", (1, 0), {1: 2}),  # e_x . id = 2 e_x
    "left-unit": ("compose", (0, 1), {1: 2}),  # id . x = 2x
    "right-unit": ("compose", (1, 0), {0: 1, 1: 1}),  # x . id = x + id
}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("corruption", UNIT_CORRUPTIONS)
def test_every_broken_unit_law_raises_before_any_column_is_built(corruption, field):
    which, entry, value = UNIT_CORRUPTIONS[corruption]
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    table = cat.compose if which == "compose" else getattr(mod, which)
    table[STAR][entry] = {k: field.of(c) for k, c in value.items()}
    with pytest.raises(PreconditionViolation, match="left the normalized subcomplex"):
        hh_dimensions(cat, mod, 2)
    with pytest.raises(PreconditionViolation, match="left the normalized subcomplex"):
        cocycle_space(cat, mod, 1)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_identities_acting_as_two_on_both_sides_are_refused_in_degree_zero(field):
    # id . e_m = 2 e_m = e_m . id: on a degree-0 cochain the prefix and the
    # suffix term on the identity argument still cancel, so summing the terms
    # outside the target apart let this through ([2] and two cocycles)
    cat = dual_numbers(field)
    mod = CentralBimodule.regular(cat)
    for m in range(2):
        mod.left[STAR][(0, m)] = {m: field.of(2)}
        mod.right[STAR][(m, 0)] = {m: field.of(2)}
    with pytest.raises(PreconditionViolation, match="left the normalized subcomplex"):
        hh_dimensions(cat, mod, 0)
    with pytest.raises(PreconditionViolation, match="left the normalized subcomplex"):
        cocycle_space(cat, mod, 0)


def test_cochains_and_structures_evaluate_multilinearly():
    cat = dual_numbers(QQ)
    mod = CentralBimodule.regular(cat)
    f = random_bar_cochain(cat, mod, 2, random.Random(5))
    chain = ("*",) * 3
    u, v = {0: QQ.of(2), 1: QQ.of(-3)}, {0: QQ.of(5), 1: QQ.of(7)}
    want = {}
    for i, ci in u.items():
        for j, cj in v.items():
            for m, c in f.component(chain, (i, j)).items():
                want[m] = want.get(m, 0) + ci * cj * c
    assert f.evaluate(chain, [u, v]) == {m: c for m, c in want.items() if c}
    # in k[x]/(x^2): (2 - 3x)(5 + 7x) = 10 + 14x - 15x = 10 - x
    assert from_linear_category(cat).apply_vecs(2, chain, [u, v]) == {0: QQ.of(10), 1: QQ.of(-1)}
