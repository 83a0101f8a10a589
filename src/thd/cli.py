"""Command-line front end.

Subcommands: diamond, hh, pushforward, kernel, search, quadric,
ainfty {verify|hhdim|deform}.  Exit codes: 0 success, 2 usage error,
3 precondition failure, 4 internal inconsistency (oracle disagreement),
5 evaluation budget exceeded.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from . import ainfty as ai
from .errors import (BudgetExceeded, ExactnessViolation, NotACocycle, PreconditionViolation,
                     UsageError)
from .hochschild import (
    candidate_search,
    guaranteed_kernel_check,
    hochschild_profile,
    kernel_dim,
    kernel_table,
    les_ledger,
)
from .hodge import Hypersurface, diamond
from .output import (
    ainfty_document,
    diamond_document,
    kernel_document,
    profile_document,
    quadric_document,
    search_document,
    table_pretty,
)

DEFAULT_SEED = 1729

EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INCONSISTENT = 4
EXIT_BUDGET = 5


def _parse_range(text: str):
    lo, sep, hi = text.partition("..")
    if not sep:
        value = int(text)
        return range(value, value + 1)
    return range(int(lo), int(hi) + 1)


def _emit(doc, fmt: str) -> None:
    sys.stdout.write(doc.render(fmt))
    if fmt != "csv":
        sys.stdout.write("\n")


def _hypersurface(args, parser) -> Hypersurface:
    if args.n < 1 or args.d < 1:
        parser.error("need n >= 1 and d >= 1")
    return Hypersurface(args.n, args.d)


def cmd_diamond(args, parser) -> int:
    X = _hypersurface(args, parser)
    _emit(diamond_document(diamond(X, args.twist)), args.format)
    return 0


def cmd_hh(args, parser) -> int:
    X = _hypersurface(args, parser)
    profile = hochschild_profile(X, args.p, args.target)
    if args.m is not None:
        doc = profile_document(profile)
        value = profile.dim(args.m)
        doc.payload["entries"] = [["m", "dim"], [str(args.m), str(value)]]
        doc.pretty = f"dim HH^{args.m} (target={args.target}, n={X.n} d={X.d} p={args.p}) = {value}"
        _emit(doc, args.format)
    else:
        _emit(profile_document(profile), args.format)
    return 0


def cmd_kernel(args, parser) -> int:
    X = _hypersurface(args, parser)
    table = kernel_table(X, args.p)
    verified = None
    if args.verify_les:
        ledger = les_ledger(X, args.p)
        mismatches = {
            m: (table.get(m, 0), ledger.kernel_of_fstar.get(m, 0))
            for m in range(0, 2 * X.n + 1)
            if table.get(m, 0) != ledger.kernel_of_fstar.get(m, 0)
        }
        if mismatches:
            raise ExactnessViolation(
                f"closed form and exact-sequence ledger disagree at {mismatches}"
            )
        verified = True
    if args.m is not None:
        value = kernel_dim(X, args.p, args.m)
        doc = kernel_document(X, args.p, {args.m: value}, verified)
        doc.pretty = f"dim ker(f_*) on HH^{args.m} (n={X.n} d={X.d} p={args.p}) = {value}"
        _emit(doc, args.format)
    else:
        _emit(kernel_document(X, args.p, table, verified), args.format)
    return 0


def cmd_search(args, parser) -> int:
    rows = candidate_search(_parse_range(args.n), _parse_range(args.d), _parse_range(args.p))
    _emit(search_document(rows), args.format)
    return 0


def cmd_quadric(args, parser) -> int:
    if args.k < 2 or args.d < 2:
        parser.error("need k >= 2 and d >= 2")
    n = 2 * args.k - 1
    p = -args.k * args.d - args.d
    dim = guaranteed_kernel_check(args.k, args.d)
    _emit(quadric_document(args.k, args.d, n, p, n + 3, dim), args.format)
    return 0


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _load_subject(args, parser):
    """Resolve --example / --category [--cochain] into a structure or category."""
    if args.example and args.category:
        parser.error("give either --example or --category, not both")
    if args.example:
        entry = ai.build_example(args.example, seed=args.seed)
        entry["source"] = f"example {args.example}"
        return entry
    if args.category:
        cat = ai.parse_category(_read(args.category))
        entry = {
            "kind": "category",
            "category": cat,
            "bimodule": ai.CentralBimodule.regular(cat),
            "description": f"category from {args.category}",
            "source": args.category,
        }
        if getattr(args, "cochain", None):
            eta = ai.parse_cochain(_read(args.cochain), cat, entry["bimodule"])
            entry["cochain"] = eta
        return entry
    parser.error("one of --example or --category is required")


def _as_structure(entry, budget):
    if entry["kind"] == "structure":
        return entry["structure"]
    if "cochain" in entry:
        return ai.deform(entry["category"], entry["bimodule"], entry["cochain"], budget=budget)
    return ai.from_linear_category(entry["category"])


def _nonnegative(flag: str, value: int) -> None:
    if value < 0:
        raise UsageError(f"{flag} must be >= 0, not {value}")


def cmd_ainfty_verify(args, parser) -> int:
    _nonnegative("--k-max", args.k_max)
    budget = ai.Budget(args.budget)
    entry = _load_subject(args, parser)
    A = _as_structure(entry, budget)
    report = ai.verify_stasheff(A, args.k_max, budget)
    payload = {
        "source": entry.get("source", ""),
        "description": entry["description"],
        "k_max": str(args.k_max),
        "passed": "true" if (report.passed and report.unital) else "false",
        "evaluations": str(report.evaluations),
    }
    if report.first_failure:
        k, chain, tuple_args = report.first_failure
        payload["first_failure_k"] = str(k)
        payload["first_failure_chain"] = " ".join(map(str, chain))
        payload["first_failure_args"] = " ".join(map(str, tuple_args))
    if not report.unital:
        payload["unitality"] = report.unital_failure or "failed"
    pretty = f"{entry['description']}\n{report.summary()}"
    _emit(ainfty_document(payload, pretty), args.format)
    return 0


def cmd_ainfty_hhdim(args, parser) -> int:
    _nonnegative("--up-to", args.up_to)
    budget = ai.Budget(args.budget)
    entry = _load_subject(args, parser)
    if entry["kind"] != "category":
        parser.error("hhdim needs a linear category (not a deformed structure)")
    dims = ai.hh_dimensions(entry["category"], entry["bimodule"], args.up_to, budget)
    rows = [[str(k), str(v)] for k, v in enumerate(dims)]
    payload = {
        "source": entry.get("source", ""),
        "description": entry["description"],
        "entries": [["degree", "dim"]] + rows,
    }
    pretty = f"Hochschild cohomology of {entry['description']}\n" + table_pretty(
        ["degree", "dim"], rows
    )
    _emit(ainfty_document(payload, pretty), args.format)
    return 0


def cmd_ainfty_deform(args, parser) -> int:
    budget = ai.Budget(args.budget)
    entry = _load_subject(args, parser)
    if entry["kind"] == "structure":
        A = entry["structure"]
    elif "cochain" in entry:
        A = ai.deform(entry["category"], entry["bimodule"], entry["cochain"], budget=budget)
    else:
        parser.error("deform needs --cochain (or a deformed --example)")
    support = A.support()
    n = max(support) if support else 2
    k_max = max(7, n + 2)
    report = ai.verify_stasheff(A, k_max, budget)
    hom_rows = [
        [f"{a}->{b}", str(len(degs)), " ".join(map(str, degs))]
        for (a, b), degs in sorted(A.basis.items(), key=repr)
    ]
    payload = {
        "source": entry.get("source", ""),
        "description": entry["description"],
        "support": " ".join(map(str, support)),
        "passed": "true" if (report.passed and report.unital) else "false",
        "k_max": str(k_max),
        "entries": [["hom", "dim", "degrees"]] + hom_rows,
    }
    pretty = (
        f"{entry['description']}\nproducts in arities: {support}\n"
        + table_pretty(["hom", "dim", "degrees"], hom_rows)
        + f"\n{report.summary()}"
    )
    _emit(ainfty_document(payload, pretty), args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thd",
        description="Twisted Hodge diamonds, Hochschild dimensions, pushforward "
        "kernels and A-infinity deformation checks, all in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")

    p = sub.add_parser("diamond", help="twisted Hodge diamond of a hypersurface")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--twist", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_diamond)

    p = sub.add_parser("hh", help="Hochschild dimension profile")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--target", choices=("onX", "pushforward", "kernel"), default="onX")
    add_format(p)
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("pushforward", help="Hochschild dimensions of the direct image")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_hh, target="pushforward")

    p = sub.add_parser("kernel", help="kernel dimensions of the pushforward map")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--verify-les", action="store_true", dest="verify_les",
                   help="cross-check against the exact-sequence ledger")
    add_format(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("search", help="candidate deformation-class table over a grid")
    # let values like -8..-8 pass for flags taking ranges
    p._negative_number_matcher = re.compile(r"^-\d+(\.\.-?\d+)?$")
    p.add_argument("--n", required=True, help="range a..b or single value")
    p.add_argument("--d", required=True, help="range a..b or single value")
    p.add_argument("--p", required=True, help="range a..b or single value")
    add_format(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("quadric", help="guaranteed one-dimensional kernel for odd quadric-family parameters")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_quadric)

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
                        help="evaluation cap (default 10^7; THD_BUDGET overrides)")
        add_format(sp)

    sp = asub.add_parser("verify", help="check the defining identities and unitality")
    add_subject(sp)
    sp.add_argument("--k-max", type=int, default=7, dest="k_max")
    sp.set_defaults(func=cmd_ainfty_verify)

    sp = asub.add_parser("hhdim", help="Hochschild cohomology dimensions of a category")
    add_subject(sp, with_cochain=False)
    sp.add_argument("--up-to", type=int, default=4, dest="up_to")
    sp.set_defaults(func=cmd_ainfty_hhdim)

    sp = asub.add_parser("deform", help="deform a category along a cochain and verify")
    add_subject(sp)
    sp.set_defaults(func=cmd_ainfty_deform)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ExactnessViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (PreconditionViolation, NotACocycle) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
