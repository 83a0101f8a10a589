"""``hh_dimensions`` reduces d_k only on the keys that lead no pivot of d_{k-1}.

The pivots of d_{k-1} span im d_{k-1}, which d_k kills, so the rank of d_k
on the remaining keys is its full rank.  Two references check it: the same
normalized model with ``exact_rank`` of every column of every d_k, degree by
degree, and the Euler characteristic from the Cartan matrix, which reads no
product at all.
"""

import pytest

from oracles import beilinson, cartan_euler_characteristic, full_rank_hh_dimensions, path_category
from thd.ainfty import QQ, CentralBimodule, PrimeField, build_example, example_names, hh_dimensions
from thd.ainfty.category import _split_idempotents

FIELDS = [QQ, PrimeField(7), PrimeField(32003)]
FIELD_IDS = ["Q", "F7", "F32003"]
CATEGORY_EXAMPLES = [n for n in example_names() if build_example(n)["kind"] == "category"]


def _regular(cat):
    return cat, CentralBimodule.regular(cat)


def _cases(field):
    """``(name, category, bimodule, up_to)``: every bundled category and Beilinson's P^2 and P^3."""
    for name in CATEGORY_EXAMPLES:
        entry = build_example(name, field)
        yield name, entry["category"], entry["bimodule"], 7
    for m in (2, 3):
        yield f"beilinson-{m}", *_regular(beilinson(m, field)), m + 1


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_cleared_ranks_equal_the_full_ranks_at_every_degree(field):
    for name, cat, mod, up_to in _cases(field):
        assert hh_dimensions(cat, mod, up_to) == full_rank_hh_dimensions(cat, mod, up_to), name


def _euler_cases(field):
    """``(name, the category hh_dimensions gets, the one the oracle reads, top degree)``."""
    for name, cat in [*((f"A{n}", path_category(n, field)) for n in range(1, 5)),
                      *((f"beilinson-{m}", beilinson(m, field)) for m in (2, 3))]:
        yield name, cat, cat, len(cat.objects)
    # End = k x k is not local: the oracle reads the split category, one object per summand
    cat = build_example("a2-x-k2", field)["category"]
    split, _ = _split_idempotents(*_regular(cat))
    yield "a2-x-k2", cat, split, len(split.objects)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_alternating_sum_matches_the_cartan_euler_characteristic(field):
    for name, cat, oracle_cat, top in _euler_cases(field):
        dims = hh_dimensions(*_regular(cat), top)
        # a directed category has no normalized cochain of degree >= its number of objects
        assert dims[-1] == 0 and min(dims) >= 0, name
        chi = sum((-1) ** k * dim for k, dim in enumerate(dims))
        assert chi == cartan_euler_characteristic(*_regular(oracle_cat)), name


def test_the_euler_oracle_reads_known_values():
    # HH(A_n) is k in degree 0; HH(P^m) = H^0(Lambda^* T) has Euler characteristic (-1)^m (m + 1)
    for n in range(1, 5):
        assert cartan_euler_characteristic(*_regular(path_category(n, QQ))) == 1
    assert [cartan_euler_characteristic(*_regular(beilinson(m, QQ))) for m in (1, 2, 3)] == [-2, 3, -4]
