"""Command-line front end.

Subcommands: diamond, hh, pushforward, kernel, search, quadric,
ainfty {verify|hhdim|deform}.  Exit codes: 0 success, 2 usage error,
3 precondition failure, 4 internal inconsistency (oracle disagreement),
5 evaluation budget exceeded; ``EXIT_CODES`` maps each error type to its code.

Each call builds the parser of the one command its words name (:func:`build_parser`), and
imports :mod:`thd.ainfty` only for ``thd ainfty``; what it prints and returns is the same
as with every command built.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

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


def _ainfty():
    """:mod:`thd.ainfty`, imported by the ``ainfty`` commands alone: the others never load it."""
    from . import ainfty

    return ainfty


def _load_subject(args, parser):
    """The --budget, and the structure or category of --example / --category [--cochain]."""
    ai = _ainfty()
    budget = ai.Budget(args.budget)
    if args.example and args.category:
        parser.error("give either --example or --category, not both")
    if args.example:
        entry = ai.build_example(args.example, seed=args.seed)
        return dict(entry, source=f"example {args.example}"), budget
    if args.category:
        cat = ai.parse_category(_read(args.category))
        entry = ai.examples.category_entry(cat, f"category from {args.category}")
        entry["source"] = args.category
        if getattr(args, "cochain", None):
            entry["cochain"] = ai.parse_cochain(_read(args.cochain), cat, entry["bimodule"])
        return entry, budget
    parser.error("one of --example or --category is required")


def _as_structure(entry, budget):
    ai = _ainfty()
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
    report = _ainfty().verify_stasheff(_as_structure(entry, budget), args.k_max, budget)
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
    dims = _ainfty().hh_dimensions(entry["category"], entry["bimodule"], args.up_to, budget)
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
    report = _ainfty().verify_stasheff(A, k_max, budget)
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


def _add_commands(parent, dest, words, commands) -> None:
    """Add to ``parent`` the one of ``commands`` that ``words[0]`` names, or all of them.

    ``commands`` maps a name to ``(help, func, declare)``: ``declare(p)`` adds the flags of a
    command that ``func`` runs, or ``declare`` is the table of a group and ``func`` its ``dest``.
    A lone command keeps the usage line of the whole tree through ``metavar``, which on the
    whole tree would rewrite argparse's words for a missing or unknown command.
    """
    named = words[0] if words and words[0] in commands else None
    sub = parent.add_subparsers(dest=dest, required=True,
                                metavar="{%s}" % ",".join(commands) if named else None)
    for name in [named] if named else commands:
        help, func, declare = commands[name]
        p = sub.add_parser(name, help=help)
        if isinstance(declare, dict):
            _add_commands(p, func, words[1:] if named else (), declare)
        else:
            declare(p)
            p.set_defaults(func=func, parser=p)


def build_parser(words=()) -> argparse.ArgumentParser:
    """The parser of ``thd`` for the words of argv, holding only the command they name.

    ``main`` runs one command per call, so the others are not built.  When the first word
    names no command (``--help``, a typo, no words) the tree holds every command, and after
    ``ainfty`` every subcommand unless the next word names one.
    """
    parser = argparse.ArgumentParser(
        prog="thd",
        description="Twisted Hodge diamonds, Hochschild dimensions, pushforward "
        "kernels and A-infinity deformation checks, all in exact arithmetic.",
    )

    def add_format(p):
        p.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")

    def integers(p, *flags):
        for flag in flags:
            p.add_argument(flag, type=int, required=True)

    def degrees(p):
        """The flags of a command on the Hochschild degrees of ``(n, d, p)``, or on only ``--m``."""
        integers(p, "--n", "--d", "--p")
        p.add_argument("--m", type=int, default=None)
        return p

    # each command of the hypersurface half takes --format after its own flags
    def diamond(p):
        integers(p, "--n", "--d", "--twist")
        add_format(p)

    def hh(p):
        degrees(p).add_argument("--target", choices=TARGETS, default="onX")
        add_format(p)

    def pushforward(p):
        degrees(p).set_defaults(target="pushforward")
        add_format(p)

    def kernel(p):
        degrees(p).add_argument("--verify-les", action="store_true", dest="verify_les",
                                help="cross-check against the exact-sequence ledger")
        add_format(p)

    def search(p):
        # let values like -8..-8 pass for flags taking ranges
        p._negative_number_matcher = re.compile(r"^-\d+(\.\.-?\d+)?$")
        for flag in ("--n", "--d", "--p"):
            p.add_argument(flag, required=True, help="range a..b or single value")
        add_format(p)

    def quadric(p):
        integers(p, "--k", "--d")
        add_format(p)

    def subject(p, with_cochain=True):
        p.add_argument("--example", default=None,
                       help="bundled example name (see README); e.g. a2-deformed")
        p.add_argument("--category", default=None, help="category file")
        if with_cochain:
            p.add_argument("--cochain", default=None, help="cochain file")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--budget", type=int, default=None,
                       help="evaluation cap (overrides THD_BUDGET; default 10^7)")
        add_format(p)
        return p

    def verify(p):
        subject(p).add_argument("--k-max", type=int, default=7, dest="k_max")

    def hhdim(p):
        subject(p, with_cochain=False).add_argument("--up-to", type=int, default=4, dest="up_to")

    _add_commands(parser, "command", words, {
        "diamond": ("twisted Hodge diamond of a hypersurface", cmd_diamond, diamond),
        "hh": ("Hochschild dimension profile", cmd_hh, hh),
        "pushforward": ("Hochschild dimensions of the direct image", cmd_hh, pushforward),
        "kernel": ("kernel dimensions of the pushforward map", cmd_kernel, kernel),
        "search": ("candidate deformation-class table over a grid", cmd_search, search),
        "quadric": ("guaranteed one-dimensional kernel for odd quadric-family parameters",
                    cmd_quadric, quadric),
        "ainfty": ("finite-dimensional deformation engine", "ainfty_command", {
            "verify": ("check the defining identities and unitality", cmd_ainfty_verify, verify),
            "hhdim": ("Hochschild cohomology dimensions of a category", cmd_ainfty_hhdim, hhdim),
            "deform": ("deform a category along a cochain and verify", cmd_ainfty_deform,
                       subject),
        }),
    })
    return parser


def main(argv=None) -> int:
    words = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(words).parse_args(words)
    try:
        text = args.func(args, args.parser).render(args.format)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in EXIT_CODES.items() if isinstance(exc, error))
    sys.stdout.write(text if args.format == "csv" else text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
