"""Sparse exact linear algebra over an arbitrary field.

A matrix is a list of sparse columns ``{row: value}`` of field elements.  The
Hochschild differentials handed in here hold a few nonzeros per column among
thousands of rows, so one routine reduces the columns left to right and
touches only the rows that hold a nonzero (in the spirit of Markowitz, 1957).
Rank, a nullspace basis and a particular solution all come out of it.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

Vec = Dict[int, object]


def vadd(target: Vec, vec: Vec, scale) -> None:
    """target += scale * vec, dropping zeros."""
    for k, c in vec.items():
        val = target.get(k)
        val = c * scale if val is None else val + c * scale
        if val:
            target[k] = val
        elif k in target:
            del target[k]


def multilinear(table: Dict, chain, arg_vecs: Sequence[Vec], one) -> Vec:
    """Evaluate the sparse multilinear map ``args -> table[(chain, args)]`` on vectors."""
    out: Vec = {}
    for picks in itertools.product(*(vec.items() for vec in arg_vecs)):
        scale = one
        for _, c in picks:
            scale = scale * c
        if scale:
            vadd(out, table.get((chain, tuple(i for i, _ in picks)), {}), scale)
    return out


class Echelon:
    """Columns reduced left to right into an echelon form keyed by leading row.

    A pivot is stored with its leading entry scaled to one, together with the
    combination of input columns that produces it; only pivot columns occur
    in those.  A column that reduces to zero leaves its combination in
    ``null``: the kernel vector with a one at that free column and zeros at
    the others, the basis reduced row echelon form gives, in the same order.
    """

    def __init__(self, columns: Sequence[Vec], field):
        self.pivots: Dict[int, tuple] = {}
        self.null: List[Vec] = []
        for j, col in enumerate(columns):
            vec, combo = self.reduce(col, {j: field.one})
            if vec:
                lead = min(vec)
                inv = 1 / vec[lead]
                self.pivots[lead] = ({r: inv * c for r, c in vec.items()},
                                     {k: inv * c for k, c in combo.items()})
            else:
                self.null.append(dict(sorted(combo.items())))

    def reduce(self, col: Vec, combo: Vec):
        """Subtract pivots from ``col`` until its leading row is no pivot's.

        Returns the residue, which is zero exactly when ``col`` lies in the
        span of the pivots, and ``combo`` minus the combinations subtracted.
        """
        vec = {r: c for r, c in col.items() if c}
        while vec:
            lead = min(vec)
            pivot = self.pivots.get(lead)
            if pivot is None:
                break
            factor = -vec[lead]
            vadd(vec, pivot[0], factor)
            vadd(combo, pivot[1], factor)
        return vec, combo


def exact_rank(columns: Sequence[Vec], field) -> int:
    """Rank of the matrix with the given sparse columns."""
    return len(Echelon(columns, field).pivots)


def nullspace(columns: Sequence[Vec], field) -> List[Vec]:
    """Reduced-echelon basis of the kernel, one sparse vector per free column."""
    return Echelon(columns, field).null


def solve(columns: Sequence[Vec], rhs: Vec, field) -> Optional[Vec]:
    """One solution of ``A x = rhs`` with every free variable zero, or None."""
    residue, combo = Echelon(columns, field).reduce(rhs, {})
    if residue:
        return None
    return {k: -c for k, c in sorted(combo.items())}
