"""The one walk over chains of objects and basis tuples along them.

``cochain_basis`` must list the bar keys of ``tests/oracles.py`` that have no
identity argument, in the same order, and ``restricted_bimodule`` along an
identity functor must give back the bimodule's own tables, keyed in the
walk's order.  The A3 path category has empty homs for the walk to prune.
"""

import pytest

from oracles import bar_cochain_basis, identities_are_basis_vectors
from thd.ainfty import (
    QQ,
    Budget,
    CentralBimodule,
    FiniteLinearCategory,
    LinearFunctor,
    build_example,
    cochain_basis,
    example_names,
    restricted_bimodule,
)
from thd.ainfty.category import vclean
from thd.ainfty.cochain import identity_basis_change

BUNDLED = [name for name in example_names() if build_example(name)["kind"] == "category"]


def a3_path_category(field=QQ):
    """Three objects, arrows 1->2 and 2->3 and their composite 1->3."""
    one = field.one
    objects = ["1", "2", "3"]
    dims = {(a, b): 1 for i, a in enumerate(objects) for b in objects[i:]}
    compose = {(a, b, c): {(0, 0): {0: one}}
               for i, a in enumerate(objects) for j, b in enumerate(objects[i:], i)
               for c in objects[j:]}
    cat = FiniteLinearCategory(field, objects, dims, compose, {a: {0: one} for a in objects})
    cat.validate()
    return cat


def _cases():
    cases = {}
    for name in BUNDLED:
        entry = build_example(name)
        cat, mod = entry["category"], entry["bimodule"]
        if identities_are_basis_vectors(cat):
            cases[name] = (cat, mod)
        else:
            cases[name + "-swapped"] = identity_basis_change(cat, mod)[:2]
    cat = a3_path_category()
    cases["a3"] = (cat, CentralBimodule.regular(cat))
    return cases


CASES = _cases()


def _has_identity_argument(cat, chain, args):
    return any(a == b and x == cat.id_basis_index(a) for a, b, x in zip(chain, chain[1:], args))


def test_the_cases_are_every_bundled_category_and_a3():
    assert {"k", "dual-numbers", "a2", "dual-numbers-x-k2-swapped", "a2-x-k2-swapped", "a3"} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("degree", range(5))
def test_cochain_basis_is_the_bar_basis_without_identity_arguments(name, degree):
    cat, mod = CASES[name]
    budget = Budget()
    keys = cochain_basis(cat, mod, degree, budget)
    want = [(chain, args, m) for chain, args, m in bar_cochain_basis(cat, mod, degree)
            if not _has_identity_argument(cat, chain, args)]
    assert keys == want
    assert budget.spent == len(keys)


def test_the_a3_walk_prunes_empty_homs():
    cat, mod = CASES["a3"]
    # the only chains of nonidentity arrows: 1->2->3, 1->2, 2->3, 1->3 and the objects
    assert [chain for chain, _, _ in cochain_basis(cat, mod, 2)] == [("1", "2", "3")]
    assert len(cochain_basis(cat, mod, 3)) == 0
    assert len(cochain_basis(cat, mod, 0)) == 3


def _in_walk_order(table, objects):
    """``table`` without zero entries, chains by the positions of their objects, then arguments."""
    position = {a: i for i, a in enumerate(objects)}
    out = []
    for key in sorted(table, key=lambda key: [position[a] for a in key]):
        entries = [(pair, vclean(vec)) for pair, vec in sorted(table[key].items()) if vclean(vec)]
        if entries:
            out.append((key, entries))
    return out


@pytest.mark.parametrize("name", BUNDLED + ["a3"])
def test_restricting_along_the_identity_functor_keeps_the_tables(name):
    if name == "a3":
        cat, mod = CASES["a3"]
    else:
        entry = build_example(name)
        cat, mod = entry["category"], entry["bimodule"]
    one = cat.field.one
    identity = LinearFunctor(cat, cat, {a: a for a in cat.objects},
                             {key: [{i: one} for i in range(d)] for key, d in cat.dims.items()})
    out = restricted_bimodule(identity, mod)
    assert out.dims == mod.dims
    for got, want in ((out.left, mod.left), (out.right, mod.right)):
        assert [(key, list(pairs.items())) for key, pairs in got.items()] == _in_walk_order(
            want, cat.objects)
