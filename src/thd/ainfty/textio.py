"""Plain-text input format for categories and cochains.

Category files are line based; ``#`` starts a comment.  Example::

    field Q
    objects a b
    hom a a 2
    hom a b 1
    id a 0                      # optional; solved for when omitted
    compose a b c 0 0 1 1       # out, in1, in2, coeff

A ``compose a b c OUT IN1 IN2 COEFF`` record contributes
``COEFF * e_OUT`` (in ``hom(a,c)``) to the composition of ``IN1`` (a basis
arrow in ``hom(b,c)``) after ``IN2`` (a basis arrow in ``hom(a,b)``); this
is the function-order composition ``hom(b,c) x hom(a,b) -> hom(a,c)``.
This module is the only place that knows function order: in memory, the
composition table is keyed in diagram order, ``(IN2, IN1)``.
Coefficients are integers or rationals ``p/q``.  Every index must lie in the
range of its hom space and every object must be declared exactly once.

Cochain files carry one degree line and component records::

    cochain 3
    component a a a a : 1 1 1 : 1 : 1   # chain : args : target basis : coeff

Coefficients of a cochain live in the regular bimodule of its category.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import PreconditionViolation
from .category import CentralBimodule, FiniteLinearCategory, solve_identities, vclean
from .cochain import Cochain
from .fields import QQ, field_by_name


class FormatError(PreconditionViolation):
    """A malformed category or cochain file."""


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _require_index(objects, dims, lineno: int, idx: int, a, b) -> None:
    """Refuse an undeclared object or an index outside ``hom(a, b)``."""
    for obj in (a, b):
        if obj not in objects:
            raise FormatError(f"line {lineno}: undeclared object {obj!r}")
    if not 0 <= idx < dims.get((a, b), 0):
        raise FormatError(f"line {lineno}: index {idx} out of range for hom({a!r},{b!r})")


def parse_category(text: str) -> FiniteLinearCategory:
    field = None
    objects: List[str] = []
    dims: Dict = {}
    records: List = []  # (lineno, a, b, c, out, in1, in2, coefficient token)
    explicit_ids: Dict = {}
    for lineno, tok in _tokens(text):
        kind = tok[0]
        try:
            if kind == "field":
                if field is not None:
                    raise ValueError(f"a second field record, after field {field.name}")
                field = field_by_name(" ".join(tok[1:]))
            elif kind in ("object", "objects"):
                for a in tok[1:]:
                    if a in objects:
                        raise ValueError(f"object {a!r} is declared twice")
                    objects.append(a)
            elif kind == "hom":
                a, b, d = tok[1], tok[2], int(tok[3])
                if d < 0:
                    raise ValueError(f"negative dimension {d} for hom({a!r},{b!r})")
                dims[(a, b)] = d
            elif kind == "id":
                explicit_ids[tok[1]] = (lineno, int(tok[2]))
            elif kind == "compose":
                records.append((lineno, *tok[1:4], *map(int, tok[4:7]), tok[7]))
            else:
                raise ValueError(f"unknown record {kind!r}")
        except (IndexError, ValueError) as exc:  # a bad record, named by its line
            raise FormatError(f"line {lineno}: {exc}") from exc
    field = field or QQ
    if not objects:
        raise FormatError("no objects declared")
    for (a, b) in dims:
        if a not in objects or b not in objects:
            raise FormatError(f"hom record references undeclared object in ({a!r}, {b!r})")
    compose: Dict = {}
    for lineno, a, b, c, out, in1, in2, coeff in records:
        for idx, src, tgt in ((in2, a, b), (in1, b, c), (out, a, c)):
            _require_index(objects, dims, lineno, idx, src, tgt)
        try:  # read after the whole file, so the field record applies wherever it stands
            coeff = field.of(coeff)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        vec = compose.setdefault((a, b, c), {}).setdefault((in2, in1), {})
        vec[out] = field.of(vec.get(out, 0) + coeff)
    for a, (lineno, idx) in explicit_ids.items():
        _require_index(objects, dims, lineno, idx, a, a)
    compose = {
        key: {pair: vclean(vec) for pair, vec in table.items() if vclean(vec)}
        for key, table in compose.items()
    }
    compose = {key: table for key, table in compose.items() if table}
    if explicit_ids:
        identities = {a: {idx: field.one} for a, (_, idx) in explicit_ids.items()}
        missing = [a for a in objects if dims.get((a, a)) and a not in identities]
        if missing:
            solved = solve_identities(field, objects, dims, compose)
            identities.update({a: solved[a] for a in missing})
    else:
        identities = solve_identities(field, objects, dims, compose)
    cat = FiniteLinearCategory(field, objects, dims, compose, identities)
    cat.validate()
    return cat


def parse_cochain(text: str, cat: FiniteLinearCategory,
                  mod: Optional[CentralBimodule] = None) -> Cochain:
    mod = mod or CentralBimodule.regular(cat)
    degree: Optional[int] = None
    data: Dict = {}
    for lineno, tok in _tokens(text):
        kind = tok[0]
        try:
            if kind == "cochain":
                degree = int(tok[1])
            elif kind == "component":
                if degree is None:
                    raise ValueError("component before cochain degree")
                rest = " ".join(tok[1:])
                parts = [p.split() for p in rest.split(":")]
                if len(parts) != 4:
                    raise ValueError("expected 'chain : args : target : coeff'")
                chain = tuple(parts[0])
                args = tuple(int(x) for x in parts[1])
                (target,) = (int(x) for x in parts[2])
                (coeff_tok,) = parts[3]
                vec = data.setdefault((chain, args), {})
                vec[target] = vec.get(target, 0) + cat.field.of(coeff_tok)
            else:
                raise ValueError(f"unknown record {kind!r}")
        except (IndexError, ValueError) as exc:  # a bad record, named by its line
            raise FormatError(f"line {lineno}: {exc}") from exc
    if degree is None:
        raise FormatError("no cochain degree declared")
    try:
        return Cochain(cat, mod, degree, data)
    except PreconditionViolation as exc:  # a key or target that does not fit
        raise FormatError(str(exc)) from exc


def format_category(cat: FiniteLinearCategory) -> str:
    lines = [f"field {cat.field.name}"]
    lines.append("objects " + " ".join(str(a) for a in cat.objects))
    for (a, b), d in sorted(cat.dims.items(), key=repr):
        lines.append(f"hom {a} {b} {d}")
    for a in cat.objects:
        idx = cat.id_basis_index(a)
        if idx is not None:
            lines.append(f"id {a} {idx}")
    for (a, b, c), table in sorted(cat.compose.items(), key=repr):
        for (g, f), vec in sorted(((y, x), vec) for (x, y), vec in table.items()):
            for out, coeff in sorted(vec.items()):
                lines.append(f"compose {a} {b} {c} {out} {g} {f} {coeff}")
    return "\n".join(lines) + "\n"


def format_cochain(eta: Cochain) -> str:
    lines = [f"cochain {eta.degree}"]
    for (chain, args), vec in sorted(eta.data.items(), key=repr):
        for target, coeff in sorted(vec.items()):
            chain_s = " ".join(str(a) for a in chain)
            args_s = " ".join(str(i) for i in args)
            lines.append(f"component {chain_s} : {args_s} : {target} : {coeff}")
    return "\n".join(lines) + "\n"
