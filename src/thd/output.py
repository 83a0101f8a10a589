"""Output documents and their pretty/JSON/CSV renderings.

Every numeric field in JSON and CSV payloads is a decimal string: diamond
entries overflow doubles long before they stop being interesting, and
consumers must be able to round-trip values losslessly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Union

from .hodge import TwistedHodgeDiamond

@dataclass
class OutputDocument:
    kind: str
    payload: Dict
    pretty: Union[str, Callable[[], str]] = field(default="", repr=False)  # a callable renders lazily

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, **self.payload}, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        meta = {k: v for k, v in self.payload.items() if not isinstance(v, (list, dict))}
        for key, value in meta.items():
            writer.writerow([key, value])
        table = self.payload.get("entries", [])
        for row in table:
            writer.writerow(row)
        return buf.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        return self.pretty() if callable(self.pretty) else self.pretty


def render_diamond(dd: TwistedHodgeDiamond) -> str:
    """The diamond laid out as in the figures: bottom vertex h^{0,0}, top
    h^{n,n}, left h^{n,0}, right h^{0,n}.

    Every cell of the (n+1) x (n+1) table is printed (zeros included) on a
    staggered grid of 2n+1 columns; the blank slots are the off-parity
    positions that do not hold a cell.  Cell (i, j) sits in row i+j from
    the bottom, column n + j - i.
    """
    n = dd.n
    cells: Dict[tuple, str] = {}
    for i in range(n + 1):
        for j in range(n + 1):
            cells[(i + j, n + j - i)] = str(dd.entry(i, j))
    widths = [0] * (2 * n + 1)
    for (_, col), text in cells.items():
        widths[col] = max(widths[col], len(text))
    lines = []
    for s in range(2 * n, -1, -1):
        row = []
        for col in range(2 * n + 1):
            text = cells.get((s, col), "")
            row.append(text.rjust(widths[col]))
        lines.append("  ".join(row).rstrip())
    return "\n".join(lines)


def diamond_document(dd: TwistedHodgeDiamond) -> OutputDocument:
    X = dd.hypersurface
    entries: List[List[str]] = [["i", "j", "value"]]
    for (i, j, value) in dd.nonzero_entries():
        entries.append([str(i), str(j), str(value)])
    payload = {"n": str(X.n), "d": str(X.d), "twist": str(dd.twist), "entries": entries}
    return OutputDocument("diamond", payload, lambda: render_diamond(dd))


def table_pretty(header: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    fmt_row = lambda row: "  ".join(cell.rjust(widths[k]) for k, cell in enumerate(row))
    return "\n".join([fmt_row(header)] + [fmt_row(r) for r in rows])


def m_dim_document(kind: str, meta: Dict, dims: Dict[int, int], title: str,
                   trailer: Dict) -> OutputDocument:
    """``meta`` fields (as strings), the ``(m, dim)`` table of ``dims``, then ``trailer`` fields.

    The pretty text is ``title`` over the table; a one-row table is not drawn,
    since the title states its value.
    """
    rows = [[str(m), str(dim)] for m, dim in sorted(dims.items())]
    payload = {key: str(value) for key, value in meta.items()}
    payload["entries"] = [["m", "dim"]] + rows
    payload.update(trailer)
    pretty = title if len(rows) == 1 else title + "\n" + table_pretty(["m", "dim"], rows)
    return OutputDocument(kind, payload, pretty)


def search_document(rows) -> OutputDocument:
    table = []
    for r in rows:
        table.append(
            [str(r.n), str(r.d), str(r.p), str(r.m),
             "" if r.dim is None else str(r.dim),
             r.reason if r.skipped else ""]
        )
    payload = {"entries": [["n", "d", "p", "m", "dim", "note"]] + table}
    pretty = table_pretty(["n", "d", "p", "m", "dim", "note"], table)
    return OutputDocument("search_table", payload, pretty)
