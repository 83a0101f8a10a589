"""Exact twisted Hodge diamonds, Hochschild dimensions and pushforward kernels
for smooth projective hypersurfaces, with an A-infinity deformation engine."""

from .combinatorics import binom
from .errors import BudgetExceeded, ExactnessViolation, NotACocycle, PreconditionViolation
from .hochschild import (
    ExactSequenceLedger,
    HochschildProfile,
    candidate_search,
    guaranteed_kernel_check,
    hh_dim_on_X,
    hh_dim_pushforward,
    hochschild_profile,
    kernel_claims_report,
    kernel_dim,
    kernel_table,
    les_ledger,
    propagate_ranks,
)
from .hodge import (
    Hypersurface,
    TwistedHodgeDiamond,
    diamond,
    euler_characteristic,
    hodge_number,
    projective_space_hodge,
    pullback_cohomology_dim,
    structure_sheaf_h0,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "ExactSequenceLedger",
    "ExactnessViolation",
    "HochschildProfile",
    "Hypersurface",
    "NotACocycle",
    "PreconditionViolation",
    "TwistedHodgeDiamond",
    "binom",
    "candidate_search",
    "diamond",
    "euler_characteristic",
    "guaranteed_kernel_check",
    "hh_dim_on_X",
    "hh_dim_pushforward",
    "hochschild_profile",
    "hodge_number",
    "kernel_claims_report",
    "kernel_dim",
    "kernel_table",
    "les_ledger",
    "propagate_ranks",
    "projective_space_hodge",
    "pullback_cohomology_dim",
    "structure_sheaf_h0",
]
