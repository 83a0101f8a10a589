"""Command-line front end.

Subcommands: diamond, hh, pushforward, kernel, search, quadric,
ainfty {verify|hhdim|deform}.  Exit codes: 0 success, 2 usage error,
3 precondition failure, 4 internal inconsistency (oracle disagreement),
5 evaluation budget exceeded; ``EXIT_CODES`` maps each error type to its code.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import ainfty as ai
from .ainfty.examples import category_entry
from .errors import (BudgetExceeded, ExactnessViolation, NotACocycle, PreconditionViolation,
                     UsageError)
from .hochschild import (
    TARGETS,
    candidate_search,
    hochschild_profile,
    kernel_dim,
    kernel_table,
    les_ledger,
    quadric_family,
)
from .hodge import Hypersurface, diamond
from .output import OutputDocument, diamond_document, m_dim_document, search_document, table_pretty

DEFAULT_SEED = 1729

EXIT_CODES = {UsageError: 2, PreconditionViolation: 3, NotACocycle: 3, ExactnessViolation: 4,
              BudgetExceeded: 5}


def _parse_range(flag: str, text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        return range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise UsageError(f"{flag} takes a range a..b or a single integer, not {text!r}") from None


def _hypersurface(args, parser) -> Hypersurface:
    if args.n < 1 or args.d < 1:
        parser.error("need n >= 1 and d >= 1")
    return Hypersurface(args.n, args.d)


def cmd_diamond(args, parser) -> OutputDocument:
    X = _hypersurface(args, parser)
    return diamond_document(diamond(X, args.twist))


def _by_degree(args, dims, label: str, where: str, tag: str):
    """``dims`` and its title, or the one degree ``--m`` and a title stating its value."""
    if args.m is None:
        return dims, f"{label}^m, {where}{tag}"
    value = dims.get(args.m, 0)
    return {args.m: value}, f"{label}^{args.m} ({where}) = {value}{tag}"


def cmd_hh(args, parser) -> OutputDocument:
    X = _hypersurface(args, parser)
    profile = hochschild_profile(X, args.p, args.target)
    where = f"target={args.target}, n={X.n} d={X.d} p={args.p}"
    dims, title = _by_degree(args, profile.dims, "dim HH", where, "")
    meta = {"n": X.n, "d": X.d, "p": args.p, "target": args.target}
    return m_dim_document("profile", meta, dims, title, {})


def cmd_kernel(args, parser) -> OutputDocument:
    X = _hypersurface(args, parser)
    table = kernel_table(X, args.p)
    tag, trailer = "", {}
    if args.verify_les:
        ledger = les_ledger(X, args.p)
        mismatches = {
            m: (dim, ledger.kernel_of_fstar.get(m, 0))
            for m, dim in table.items() if dim != ledger.kernel_of_fstar.get(m, 0)
        }
        if mismatches:
            raise ExactnessViolation(
                f"closed form and exact-sequence ledger disagree at {mismatches}"
            )
        tag, trailer = "  [ledger oracle: agrees]", {"verified_against_ledger": "true"}
    dims, title = _by_degree(args, table, "dim ker(f_*) on HH", f"n={X.n} d={X.d} p={args.p}", tag)
    meta = {"n": X.n, "d": X.d, "p": args.p}
    return m_dim_document("kernel_table", meta, dims, title, trailer)


def cmd_search(args, parser) -> OutputDocument:
    ranges = [_parse_range(f"--{flag}", getattr(args, flag)) for flag in "ndp"]
    return search_document(candidate_search(*ranges))


def cmd_quadric(args, parser) -> OutputDocument:
    if args.k < 2 or args.d < 2:
        parser.error("need k >= 2 and d >= 2")
    X, p, m = quadric_family(args.k, args.d)
    dim = kernel_dim(X, p, m)
    title = (
        f"odd quadric-family check: k={args.k} d={args.d} (n={X.n}, p={p})\n"
        f"dim ker(f_*) in degree m={m}: {dim}"
    )
    meta = {"k": args.k, "d": args.d, "n": X.n, "p": p}
    return m_dim_document("kernel_table", meta, {m: dim}, title, {})


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _load_subject(args, parser):
    """The --budget, and the structure or category of --example / --category [--cochain]."""
    budget = ai.Budget(args.budget)
    if args.example and args.category:
        parser.error("give either --example or --category, not both")
    if args.example:
        entry = ai.build_example(args.example, seed=args.seed)
        return dict(entry, source=f"example {args.example}"), budget
    if args.category:
        cat = ai.parse_category(_read(args.category))
        entry = dict(category_entry(cat, f"category from {args.category}"), source=args.category)
        if getattr(args, "cochain", None):
            entry["cochain"] = ai.parse_cochain(_read(args.cochain), cat, entry["bimodule"])
        return entry, budget
    parser.error("one of --example or --category is required")


def _as_structure(entry, budget):
    if entry["kind"] == "structure":
        return entry["structure"]
    if "cochain" in entry:
        return ai.deform(entry["category"], entry["bimodule"], entry["cochain"], budget=budget)
    return ai.from_linear_category(entry["category"])


def _report(entry, fields, pretty: str) -> OutputDocument:
    """An ``ainfty_report`` on ``entry``: its source and description, then ``fields``."""
    payload = {"source": entry["source"], "description": entry["description"], **fields}
    return OutputDocument("ainfty_report", payload, pretty)


def _passed(report) -> str:
    return "true" if report.passed and report.unital else "false"


def _nonnegative(flag: str, value: int) -> None:
    if value < 0:
        raise UsageError(f"{flag} must be >= 0, not {value}")


def cmd_ainfty_verify(args, parser) -> OutputDocument:
    _nonnegative("--k-max", args.k_max)
    entry, budget = _load_subject(args, parser)
    report = ai.verify_stasheff(_as_structure(entry, budget), args.k_max, budget)
    fields = {
        "k_max": str(args.k_max),
        "passed": _passed(report),
        "evaluations": str(report.evaluations),
    }
    if report.first_failure:
        k, chain, tuple_args = report.first_failure
        fields["first_failure_k"] = str(k)
        fields["first_failure_chain"] = " ".join(map(str, chain))
        fields["first_failure_args"] = " ".join(map(str, tuple_args))
    if not report.unital:
        fields["unitality"] = report.unital_failure or "failed"
    return _report(entry, fields, f"{entry['description']}\n{report.summary()}")


def cmd_ainfty_hhdim(args, parser) -> OutputDocument:
    _nonnegative("--up-to", args.up_to)
    entry, budget = _load_subject(args, parser)
    if entry["kind"] != "category":
        parser.error("hhdim needs a linear category (not a deformed structure)")
    dims = ai.hh_dimensions(entry["category"], entry["bimodule"], args.up_to, budget)
    rows = [[str(k), str(v)] for k, v in enumerate(dims)]
    pretty = f"Hochschild cohomology of {entry['description']}\n" + table_pretty(
        ["degree", "dim"], rows
    )
    return _report(entry, {"entries": [["degree", "dim"]] + rows}, pretty)


def cmd_ainfty_deform(args, parser) -> OutputDocument:
    entry, budget = _load_subject(args, parser)
    if entry["kind"] == "category" and "cochain" not in entry:
        parser.error("deform needs --cochain (or a deformed --example)")
    A = _as_structure(entry, budget)
    support = A.support()
    n = max(support) if support else 2
    k_max = max(7, n + 2)
    report = ai.verify_stasheff(A, k_max, budget)
    hom_rows = [
        [f"{a}->{b}", str(len(degs)), " ".join(map(str, degs))]
        for (a, b), degs in sorted(A.basis.items(), key=repr)
    ]
    fields = {
        "support": " ".join(map(str, support)),
        "passed": _passed(report),
        "k_max": str(k_max),
        "entries": [["hom", "dim", "degrees"]] + hom_rows,
    }
    pretty = (
        f"{entry['description']}\nproducts in arities: {support}\n"
        + table_pretty(["hom", "dim", "degrees"], hom_rows)
        + f"\n{report.summary()}"
    )
    return _report(entry, fields, pretty)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thd",
        description="Twisted Hodge diamonds, Hochschild dimensions, pushforward "
        "kernels and A-infinity deformation checks, all in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")

    def add_command(parent, name, help, func, *integers, **defaults):
        """A subcommand of ``parent`` that requires the integer flags ``integers``."""
        p = parent.add_parser(name, help=help)
        for flag in integers:
            p.add_argument(flag, type=int, required=True)
        p.set_defaults(func=func, parser=p, **defaults)
        return p

    def add_degree_command(name, help, func, **defaults):
        """A subcommand on the Hochschild degrees of ``(n, d, p)``, or on only ``--m``."""
        p = add_command(sub, name, help, func, "--n", "--d", "--p", **defaults)
        p.add_argument("--m", type=int, default=None)
        return p

    add_command(sub, "diamond", "twisted Hodge diamond of a hypersurface", cmd_diamond,
                "--n", "--d", "--twist")

    p = add_degree_command("hh", "Hochschild dimension profile", cmd_hh)
    p.add_argument("--target", choices=TARGETS, default="onX")

    add_degree_command("pushforward", "Hochschild dimensions of the direct image", cmd_hh,
                       target="pushforward")

    p = add_degree_command("kernel", "kernel dimensions of the pushforward map", cmd_kernel)
    p.add_argument("--verify-les", action="store_true", dest="verify_les",
                   help="cross-check against the exact-sequence ledger")

    p = add_command(sub, "search", "candidate deformation-class table over a grid", cmd_search)
    # let values like -8..-8 pass for flags taking ranges
    p._negative_number_matcher = re.compile(r"^-\d+(\.\.-?\d+)?$")
    for flag in ("--n", "--d", "--p"):
        p.add_argument(flag, required=True, help="range a..b or single value")

    add_command(sub, "quadric", "guaranteed one-dimensional kernel for odd quadric-family "
                "parameters", cmd_quadric, "--k", "--d")

    # each command above takes --format after its own flags
    for p in sub.choices.values():
        add_format(p)

    p = sub.add_parser("ainfty", help="finite-dimensional deformation engine")
    asub = p.add_subparsers(dest="ainfty_command", required=True)

    def add_subject(sp, with_cochain=True):
        sp.add_argument("--example", default=None,
                        help="bundled example name (see README); e.g. a2-deformed")
        sp.add_argument("--category", default=None, help="category file")
        if with_cochain:
            sp.add_argument("--cochain", default=None, help="cochain file")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--budget", type=int, default=None,
                        help="evaluation cap (overrides THD_BUDGET; default 10^7)")
        add_format(sp)

    sp = add_command(asub, "verify", "check the defining identities and unitality",
                     cmd_ainfty_verify)
    add_subject(sp)
    sp.add_argument("--k-max", type=int, default=7, dest="k_max")

    sp = add_command(asub, "hhdim", "Hochschild cohomology dimensions of a category",
                     cmd_ainfty_hhdim)
    add_subject(sp, with_cochain=False)
    sp.add_argument("--up-to", type=int, default=4, dest="up_to")

    sp = add_command(asub, "deform", "deform a category along a cochain and verify",
                     cmd_ainfty_deform)
    add_subject(sp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args, args.parser).render(args.format)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES.items() if isinstance(exc, error))
    sys.stdout.write(text if args.format == "csv" else text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
