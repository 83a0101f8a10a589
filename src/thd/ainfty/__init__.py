"""Finite-dimensional Hochschild cochain complexes and A-infinity deformations."""

from .budget import Budget, resolve_budget
from .category import (
    Algebra,
    CentralBimodule,
    FiniteLinearCategory,
    LinearFunctor,
    restricted_bimodule,
    tensor_bimodule,
    tensor_category,
)
from .cochain import (
    Cochain,
    cochain_basis,
    cocycle_space,
    cup_with_identity,
    hh_dimensions,
    hochschild_differential,
    random_cochain,
    restrict_along_functor,
)
from .examples import build_example, example_names
from .fields import QQ, PrimeField, Rationals, field_by_name
from .structure import (
    AInfinityStructure,
    StasheffReport,
    deform,
    from_linear_category,
    tensor_with_algebra,
    verify_stasheff,
)
from .textio import FormatError, format_category, format_cochain, parse_category, parse_cochain

__all__ = [
    "AInfinityStructure",
    "Algebra",
    "Budget",
    "CentralBimodule",
    "Cochain",
    "FiniteLinearCategory",
    "FormatError",
    "LinearFunctor",
    "PrimeField",
    "QQ",
    "Rationals",
    "StasheffReport",
    "build_example",
    "cochain_basis",
    "cocycle_space",
    "cup_with_identity",
    "deform",
    "example_names",
    "field_by_name",
    "format_category",
    "format_cochain",
    "from_linear_category",
    "hh_dimensions",
    "hochschild_differential",
    "parse_category",
    "parse_cochain",
    "random_cochain",
    "resolve_budget",
    "restrict_along_functor",
    "restricted_bimodule",
    "tensor_bimodule",
    "tensor_category",
    "tensor_with_algebra",
    "verify_stasheff",
]
