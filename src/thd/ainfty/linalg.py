"""Sparse exact linear algebra over an arbitrary field.

A matrix is a list of sparse columns ``{row: value}`` of field values or raw
numbers (:func:`raw`), as the Hochschild differential hands in: a few nonzeros
per column among thousands of rows.  One routine, :class:`Echelon`, reduces the
columns left to right and touches only the rows that hold a nonzero; rank, a
nullspace basis and a particular solution all come out of it.  It picks its
pivots in the sparsest rows first, so that elimination writes fewer new
nonzeros (Markowitz, 1957; LaMacchia and Odlyzko, 1991).  That row order is
internal (:meth:`Echelon.lead_rows` gives the leads in the caller's rows):
which columns are free depends only on the column order, and the
reduced-echelon kernel basis and the solution with every free variable zero
are unique once they are fixed, so every output depends only on the order of
the columns.  It reduces raw numbers: over F_p the field's own ints in
``[0, p)``, and over Q an int wherever the value is integral and a
``Fraction`` only otherwise (:func:`raw`).  Values leave in the field's type
(``field.of``), so only Q converts at the boundary.  Its one update,
:func:`axpy`, also sums the Stasheff verifier's joins and every F_p sum of
:func:`vadd`; ``p`` is the characteristic, 0 for Q.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

Vec = Dict[int, object]


def vadd(target: Vec, vec: Vec, scale, p: int) -> None:
    """target += scale * vec in characteristic ``p``, dropping zeros; over Q a value keeps its type."""
    if p:
        axpy(target, vec, scale, p)
        return
    for k, c in vec.items():
        val = target.get(k)
        val = c * scale if val is None else val + c * scale
        if val:
            target[k] = val
        elif k in target:
            del target[k]


def multilinear(product, arg_vecs: Sequence[Vec], p: int) -> Vec:
    """Extend ``product``, basis indices -> Vec, multilinearly to the vectors ``arg_vecs``."""
    if not arg_vecs:
        return {k: c for k, c in product().items() if c}
    out: Vec = {}
    for picks in itertools.product(*(vec.items() for vec in arg_vecs)):
        scale = picks[0][1]
        for _, c in picks[1:]:
            scale = scale * c
        if scale:
            vadd(out, product(*(i for i, _ in picks)), scale, p)
    return out


def raw(field, value):
    """``value`` as a raw number: an int in [0, p) over F_p, else an int or a Fraction."""
    if type(value) is int:
        return value % field.p if field.p else value
    value = field.of(value)
    return value if field.p or value.denominator != 1 else value.numerator


def axpy(target: Vec, vec: Vec, scale, p: int) -> Vec:
    """target += scale * vec on raw values of characteristic ``p``, dropping zeros.

    Tests ``p`` once: over F_p a sum is taken ``% p``, over Q one that is
    integral is kept as an int, and ``scale`` and every value must be nonzero.
    Returns target.
    """
    get = target.get
    if p:
        for k, c in vec.items():
            if val := (get(k, 0) + c * scale) % p:
                target[k] = val
            else:
                target.pop(k, None)
        return target
    for k, c in vec.items():
        if val := get(k, 0) + c * scale:
            target[k] = val.numerator if type(val) is Fraction and val.denominator == 1 else val
        else:  # scale * c is never zero, so k was in target
            del target[k]
    return target


class Echelon:
    """Columns reduced left to right into an echelon form keyed by leading row.

    The rows are relabelled by how many columns hold them, fewest first and
    later rows first among equals; ``labels`` maps a row to its label, and
    ``pivots`` and the residues of :meth:`reduce` are keyed by label
    (:meth:`lead_rows` gives the rows of the leads back).  A row no column
    holds, as in a right-hand side, gets ``len(labels) + row``.  A pivot is
    stored as ``(vec, inv, combo)``: the reduced column as it came, the
    inverse of its leading entry, and the combination of input columns that
    produces it (only pivot columns occur in those); with ``combos`` false, as
    for the rank, none is built.  A column that reduces to zero leaves its
    combination in ``null``: the kernel vector with a one at that free column
    and zeros at the others, the basis reduced row echelon form gives, in the
    same order.
    """

    def __init__(self, columns: Sequence[Vec], field, combos: bool = True):
        self.field, self.p = field, p = field, field.p
        counts = Counter(itertools.chain.from_iterable(columns))
        rows = sorted(counts, reverse=True)
        rows.sort(key=counts.__getitem__)  # stable: later rows stay first among equals
        self.rows = rows
        self.labels = dict(zip(rows, range(len(rows))))
        self.pivots: Dict[int, tuple] = {}
        self.null: List[Vec] = []
        for j, col in enumerate(columns):
            vec, combo = self.reduce(col, {j: 1} if combos else None)
            if vec:
                lead = min(vec)
                inv = pow(vec[lead], -1, p) if p else raw(field, Fraction(1, vec[lead]))
                self.pivots[lead] = (vec, inv, combo)
            elif combos:
                self.null.append(self.export(combo, 1))

    def lead_rows(self) -> set:
        """The rows, as the columns number them, where the pivots lead."""
        return {self.rows[lead] for lead in self.pivots}

    def export(self, vec: Vec, sign) -> Vec:
        """``sign * vec`` read into the field (``field.of``), in order of index."""
        return {k: self.field.of(sign * c) for k, c in sorted(vec.items())}

    def reduce(self, col: Vec, combo: Optional[Vec]):
        """Subtract pivots from ``col`` until its leading row is no pivot's.

        Returns the raw residue, keyed by label and zero exactly when ``col``
        is in the span of the pivots, and ``combo`` (or None) less the
        combinations subtracted.
        """
        p, field, label, spare = self.p, self.field, self.labels.get, len(self.labels)
        vec = {label(r, spare + r): v for r, c in col.items()
               if (v := (c % p if p else c) if type(c) is int else raw(field, c))}
        while vec:
            lead = min(vec)
            pivot = self.pivots.get(lead)
            if pivot is None:
                break
            pivot_vec, inv, pivot_combo = pivot
            factor = -vec[lead] * inv % p if p else -vec[lead] * inv
            axpy(vec, pivot_vec, factor, p)
            if combo is not None:
                axpy(combo, pivot_combo, factor, p)
        return vec, combo


def exact_rank(columns: Sequence[Vec], field) -> int:
    """Rank of the matrix with the given sparse columns; builds no combinations."""
    return len(Echelon(columns, field, combos=False).pivots)


def nullspace(columns: Sequence[Vec], field) -> List[Vec]:
    """Reduced-echelon basis of the kernel, one sparse vector per free column."""
    return Echelon(columns, field).null


def solve(columns: Sequence[Vec], rhs: Vec, field) -> Optional[Vec]:
    """One solution of ``A x = rhs`` with every free variable zero, or None."""
    echelon = Echelon(columns, field)
    residue, combo = echelon.reduce(rhs, {})
    return None if residue else echelon.export(combo, -1)
