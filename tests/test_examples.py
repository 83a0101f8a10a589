"""The table of bundled examples against its documented ingredients and the README."""

import random
import re
from pathlib import Path

import pytest

from thd.ainfty import (
    CentralBimodule,
    Cochain,
    PrimeField,
    QQ,
    build_example,
    cocycle_space,
    deform,
    example_names,
    hochschild_differential,
    random_cochain,
    tensor_with_algebra,
)
from thd.ainfty.examples import (
    a2_path_category,
    dual_numbers,
    perturbed_noncocycle,
    product_algebra,
    square_zero_cocycle,
    trivial_category,
)
from thd.errors import PreconditionViolation

README = Path(__file__).resolve().parent.parent / "README.md"


def _random_cocycle(F, seed):
    """The closed cochains of degree 3 on the dual numbers, summed with seeded coefficients."""
    cat = dual_numbers(F)
    mod = CentralBimodule.regular(cat)
    rng, eta = random.Random(seed), Cochain(cat, mod, 3, {})
    for vec in cocycle_space(cat, mod, 3):
        eta = eta + vec.scaled(F.of(rng.randint(-5, 5) or 1))
    return eta


def _random_noncocycle(F, seed):
    """The first seeded random cochain of degree 3 on the dual numbers that is not closed."""
    cat = dual_numbers(F)
    mod = CentralBimodule.regular(cat)
    rng = random.Random(seed)
    while not hochschild_differential(eta := random_cochain(cat, mod, 3, rng)).data:
        pass
    return eta


def _on_dual_numbers(F, eta, check=True):
    """``deform`` on a fresh copy of the dual numbers and their regular bimodule."""
    cat = dual_numbers(F)
    return deform(cat, CentralBimodule.regular(cat), eta, check=check)


def _a2_deformed(F, seed):
    cat = a2_path_category(F)
    mod = CentralBimodule.regular(cat)
    return deform(cat, mod, Cochain(cat, mod, 3, {}))


# name -> (kind, description, the subject rebuilt from its ingredients)
EXAMPLES = {
    "k": ("category", "the base field as a one-object category", lambda F, s: trivial_category(F)),
    "dual-numbers": ("category", "dual numbers k[x]/(x^2)", lambda F, s: dual_numbers(F)),
    "a2": ("category", "path category of the A2 quiver", lambda F, s: a2_path_category(F)),
    "dual-numbers-x-k2": ("category", "dual numbers tensored with k x k",
                          lambda F, s: tensor_with_algebra(dual_numbers(F), product_algebra(F))),
    "a2-x-k2": ("category", "A2 path category tensored with k x k",
                lambda F, s: tensor_with_algebra(a2_path_category(F), product_algebra(F))),
    "a2-deformed": ("structure",
                    "A2 deformed along the zero degree-3 cocycle (square-zero extension)",
                    _a2_deformed),
    "dual-deformed": ("structure", "dual numbers deformed along the degree-3 cocycle (x,x,x) -> x",
                      lambda F, s: _on_dual_numbers(F, square_zero_cocycle(F))),
    "dual-perturbed": ("structure", "deformation along a non-cocycle; the verifier fails at k = 4",
                       lambda F, s: _on_dual_numbers(F, perturbed_noncocycle(F), check=False)),
    "random-cocycle": ("structure", "deformation along a random closed cochain (seed {})",
                       lambda F, s: _on_dual_numbers(F, _random_cocycle(F, s))),
    "random-noncocycle": ("structure", "deformation along a random non-closed cochain (seed {})",
                          lambda F, s: _on_dual_numbers(F, _random_noncocycle(F, s), check=False)),
}


def test_the_table_names_every_example():
    assert example_names() == sorted(EXAMPLES)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("name", example_names())
def test_every_example_is_its_documented_ingredients(name, field, seed):
    kind, description, rebuild = EXAMPLES[name]
    entry = build_example(name, field, seed)
    assert (entry["kind"], entry["description"]) == (kind, description.format(seed))
    expected = rebuild(field, seed)
    if kind == "category":
        assert sorted(entry) == ["bimodule", "category", "description", "kind"]
        cat, mod = entry["category"], entry["bimodule"]
        assert (cat.objects, cat.dims, cat.compose, cat.identities) == (
            expected.objects, expected.dims, expected.compose, expected.identities)
        regular = CentralBimodule.regular(cat)
        assert mod.cat is cat
        assert (mod.dims, mod.left, mod.right) == (regular.dims, regular.left, regular.right)
    else:
        assert sorted(entry) == ["description", "kind", "structure"]
        A = entry["structure"]
        assert (A.objects, A.basis, A.ops, A.units) == (
            expected.objects, expected.basis, expected.ops, expected.units)


def test_an_unknown_example_lists_the_table():
    with pytest.raises(PreconditionViolation) as info:
        build_example("nope")
    assert str(info.value) == (
        "unknown example 'nope'; available: a2, a2-deformed, a2-x-k2, dual-deformed, dual-numbers, "
        "dual-numbers-x-k2, dual-perturbed, k, random-cocycle, random-noncocycle")


def test_the_readme_lists_exactly_the_bundled_examples():
    text = README.read_text()
    paragraph = text.split("Bundled `--example` names:", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"`([^`]+)`", paragraph.split("(", 1)[0])
    assert len(listed) == len(set(listed))
    assert sorted(listed) == example_names()
