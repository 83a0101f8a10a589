"""The three workloads: their inputs, one timed round, and the output checks.

A workload is an object with

* ``setup(lib, seed)``: build the inputs from the seed (timed as set-up);
* ``run(lib, inputs, ops)``: one round of calls into ``thd``, each made
  through ``ops`` so that it is counted; returns the outputs;
* ``digest(outputs)``: the part of the outputs that must repeat exactly in
  every round;
* ``check(lib, inputs, outputs)``: a list of failures found by comparing
  the outputs with :mod:`oracles`, run outside the timed region;
* ``pace``: the kind of reference unit (``pace.UNITS``) timed during its
  rounds.

``lib`` holds the imported ``thd`` modules.  Every call goes through a
module attribute at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from typing import Dict, List

import oracles

PRIME = 32003


class Ops:
    """Counts the operations a round attempts and the ones that fail.

    A call that raises is counted in ``failed`` and yields None; the checks
    skip such outputs, since ``correct`` speaks of the calls that returned.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.budgets: List = []

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing call is counted, and the round goes on
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None

    def expect_raise(self, exc_type, fn, *args, **kwargs):
        """Count a call that must raise ``exc_type``: True when it did, False
        when it returned, None when it raised something else (a failure)."""
        self.attempted += 1
        try:
            fn(*args, **kwargs)
        except exc_type:
            return True
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None
        return False

    def budget(self, lib):
        """A fresh evaluation budget at the library default, or None if gone."""
        budget_cls = getattr(lib.ai, "Budget", None)
        if budget_cls is None:
            return None
        budget = budget_cls(lib.budget_default)
        self.budgets.append(budget)
        return budget


# -- hh-bar ------------------------------------------------------------------

class HHBar:
    name = "hh-bar"
    # its differentials, up to 4096x1024 dense cells, are far larger than
    # the caches; the round unit alone tracked its rounds badly (README.md)
    pace = "memory"
    cases = (("dual-numbers-x-k2", 4), ("a2-x-k2", 5))

    def setup(self, lib, seed):
        # The bundled examples are the inputs; the seed does not change them.
        out = {}
        for name, up_to in self.cases:
            entry = lib.ai.build_example(name)
            out[name] = (entry["category"], entry["bimodule"], up_to)
        return out

    def run(self, lib, inputs, ops):
        return {name: ops(lib.ai.hh_dimensions, cat, mod, up_to, budget=ops.budget(lib))
                for name, (cat, mod, up_to) in inputs.items()}

    def digest(self, outputs):
        return outputs

    def check(self, lib, inputs, outputs):
        dual = [oracles.hh_dual_numbers(k, 0) for k in range(5)]
        a2 = [oracles.hh_a2_path_algebra(k) for k in range(6)]
        want = {
            # (k[x]/x^2) (x) (k x k) = k[x]/x^2 x k[x]/x^2, and A2 (x) (k x k) = A2 x A2
            "dual-numbers-x-k2": oracles.hh_product([dual, dual]),
            "a2-x-k2": oracles.hh_product([a2, a2]),
        }
        failures = []
        for name, (cat, _, _) in inputs.items():
            if all(len(cat.identity_vector(a)) == 1 for a in cat.objects):
                failures.append(f"{name}: an identity is a basis vector; the bar model is not used")
            if outputs[name] is not None and outputs[name] != want[name]:
                failures.append(f"{name}: hh_dimensions {outputs[name]} != {want[name]}")
        return failures


# -- deform-pipeline ---------------------------------------------------------

def _int_cochain(cochain, p):
    """``{args: {m: int}}`` of a one-object cochain, coefficients as ints mod p."""
    return {args: {m: int(getattr(c, "value", c)) % p for m, c in vec.items()}
            for (_, args), vec in cochain.data.items()}


class DeformPipeline:
    name = "deform-pipeline"
    pace = "round"
    k_max = 7

    def setup(self, lib, seed):
        ai, ex = lib.ai, lib.examples
        F = ai.PrimeField(PRIME)
        cat = ai.tensor_with_algebra(ex.dual_numbers(F), ex.product_algebra_unit_basis(F))
        mod = ai.CentralBimodule.regular(cat)
        (obj,) = cat.objects
        dim = cat.dim(obj, obj)
        mult = {(x, y): {k: int(getattr(c, "value", c)) % PRIME
                         for k, c in cat.diag(obj, obj, obj, x, y).items()}
                for x in range(dim) for y in range(dim)}
        rng = random.Random(seed)
        coeffs = [rng.randrange(1, PRIME) for _ in range(64)]
        while True:  # a degree-3 cochain that is not closed
            noncocycle = ai.random_cochain(cat, mod, 3, rng)
            if oracles.coboundary(mult, dim, _int_cochain(noncocycle, PRIME), 3, PRIME):
                break
        base = ai.build_example("random-cocycle", F, seed=seed)["structure"]
        tensored = ai.tensor_with_algebra(base, ex.matrix_algebra(F, 2))
        return {"F": F, "cat": cat, "mod": mod, "mult": mult, "dim": dim, "coeffs": coeffs,
                "noncocycle": noncocycle, "base": base, "tensored": tensored}

    def run(self, lib, inputs, ops):
        ai = lib.ai
        cat, mod, F = inputs["cat"], inputs["mod"], inputs["F"]
        out = {"dims": ops(ai.hh_dimensions, cat, mod, 4, budget=ops.budget(lib))}
        z3 = ops(ai.cocycle_space, cat, mod, 3, budget=ops.budget(lib))
        z4 = ops(ai.cocycle_space, cat, mod, 4, budget=ops.budget(lib))
        eta = ai.Cochain(cat, mod, 3, {})
        for c, vec in zip(inputs["coeffs"], z3 or []):
            eta = eta + vec.scaled(F.of(c))
        deformed = ops(ai.deform, cat, mod, eta, budget=ops.budget(lib))
        out["raised"] = ops.expect_raise(lib.thd.NotACocycle, ai.deform, cat, mod,
                                         inputs["noncocycle"], budget=ops.budget(lib))
        broken = ops(ai.deform, cat, mod, inputs["noncocycle"], check=False)
        reports = {}
        for label, A in (("cocycle", deformed), ("noncocycle", broken),
                         ("tensored", inputs["tensored"])):
            reports[label] = ops(ai.verify_stasheff, A, self.k_max, budget=ops.budget(lib))
        out.update(z3=z3, z4=z4, eta=eta, reports=reports)
        return out

    def digest(self, outputs):
        reports = {label: None if r is None else (r.passed, r.unital, r.evaluations,
                                                  r.first_failure)
                   for label, r in outputs["reports"].items()}
        counts = [None if z is None else len(z) for z in (outputs["z3"], outputs["z4"])]
        return (outputs["dims"], counts, outputs["raised"], reports)

    def check(self, lib, inputs, outputs):
        failures = []
        mult, dim = inputs["mult"], inputs["dim"]
        dual = [oracles.hh_dual_numbers(k, PRIME) for k in range(6)]
        want_dims = oracles.hh_product([dual, dual])
        if outputs["dims"] is not None and outputs["dims"] != want_dims[:5]:
            failures.append(f"hh_dimensions {outputs['dims']} != {want_dims[:5]}")
        # normalized cochains: dim End(*) - 1 arguments per slot, dim End(*) targets
        sizes = [dim * (dim - 1) ** k for k in range(6)]
        want_z = oracles.cocycle_counts(want_dims, sizes)
        for k in (3, 4):
            got = outputs[f"z{k}"]
            if got is None:
                continue
            if len(got) != want_z[k]:
                failures.append(f"cocycle_space degree {k}: {len(got)} cocycles, want {want_z[k]}")
            for index, z in enumerate(got):
                if oracles.coboundary(mult, dim, _int_cochain(z, PRIME), k, PRIME):
                    failures.append(f"cocycle {index} of degree {k} has nonzero differential")
                    break
        if oracles.coboundary(mult, dim, _int_cochain(outputs["eta"], PRIME), 3, PRIME):
            failures.append("the combination of degree-3 cocycles is not closed")
        reports = outputs["reports"]
        ok = lambda r: r.passed and r.unital
        if reports["cocycle"] is not None and not ok(reports["cocycle"]):
            failures.append("the deformation along the combination of cocycles does not pass")
        if outputs["raised"] is False:
            failures.append("deform(check=True) accepted a cochain that is not closed")
        broken = reports["noncocycle"]
        if broken is not None and (broken.passed or broken.first_failure[0] != 3 + 1):
            failures.append("verifier on the non-closed deformation did not fail first at k = 4")
        if not ok(lib.ai.verify_stasheff(inputs["base"], self.k_max)):
            failures.append("the random-cocycle deformation does not pass before tensoring")
        if reports["tensored"] is not None and not ok(reports["tensored"]):
            failures.append("tensoring with M_2 turned a pass into a failure")
        return failures


# -- hypersurface-sweep ------------------------------------------------------

class HypersurfaceSweep:
    name = "hypersurface-sweep"
    pace = "round"
    grid_n = range(1, 10)
    grid_d = range(1, 9)
    big = ((120, 5), (160, 5), (200, 5))
    ledger_n = range(2, 10)  # curves are left out: their ledger is inconsistent
    ledger_d = range(2, 8)
    search_n = range(3, 31)
    search_d = range(2, 13)
    quadric_k = range(2, 13)
    quadric_d = range(2, 11)

    def setup(self, lib, seed):
        rng = random.Random(seed)
        q = sorted(rng.sample(range(1, 25), 6))
        twists = [0] + q + [-v for v in q]
        grid = [(n, d, p) for n in self.grid_n for d in self.grid_d for p in twists]
        # fixed, so that the costliest part of a round does not depend on the seed
        big = [(n, d, p) for n, d in self.big for p in (7, -7)]
        ledger = []
        for n in self.ledger_n:
            for d in self.ledger_d:
                t = d - n - 2
                choices = [p for p in range(-3 * d - n - 6, 5) if t - p not in (0, d)]
                ledger += [(n, d, p) for p in rng.sample(choices, 3)]
        lo = -40 + rng.randint(-6, 6)
        search_p = range(lo, lo + 38)
        cli = [["diamond", "--n", str(n), "--d", str(d), "--twist", str(p)]
               for n, d, p in rng.sample(grid, 4)]
        cli += [["kernel", "--n", str(n), "--d", str(d), "--p", str(p), "--verify-les"]
                for n, d, p in rng.sample(ledger, 3)]
        cli += [["hh", "--n", str(n), "--d", str(d), "--p", str(p)]
                for n, d, p in rng.sample(ledger, 2)]
        cli += [["search", "--n", "3..9", "--d", "2..6", "--p", f"{lo}..{lo + 10}"]]
        cli += [["quadric", "--k", str(rng.choice(self.quadric_k)), "--d",
                 str(rng.choice(self.quadric_d))] for _ in range(2)]
        return {"grid": grid, "big": big, "ledger": ledger, "search_p": search_p,
                "cli": [argv + ["--format", "json"] for argv in cli]}

    def run(self, lib, inputs, ops):
        thd = lib.thd
        H = thd.Hypersurface
        diamonds = {}
        for n, d, p in inputs["grid"] + inputs["big"]:
            diamonds[(n, d, p)] = ops(thd.diamond, H(n, d), p)
        ledgers = {}
        for n, d, p in inputs["ledger"]:
            ledgers[(n, d, p)] = (ops(thd.les_ledger, H(n, d), p), ops(thd.kernel_table, H(n, d), p))
        search = ops(thd.candidate_search, self.search_n, self.search_d, inputs["search_p"])
        quadric = {(k, d): ops(thd.guaranteed_kernel_check, k, d)
                   for k in self.quadric_k for d in self.quadric_d}
        cli = []
        for argv in inputs["cli"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = ops(lib.cli.main, argv)
            cli.append((code, buf.getvalue()))
        return {"diamonds": diamonds, "ledgers": ledgers, "search": search,
                "quadric": quadric, "cli": cli}

    def digest(self, outputs):
        return (
            {key: hash(dd.entries) if dd else None for key, dd in outputs["diamonds"].items()},
            {key: (L.kernel_of_fstar if L else None, K) for key, (L, K) in outputs["ledgers"].items()},
            [(r.n, r.d, r.p, r.dim, r.skipped) for r in outputs["search"] or ()],
            outputs["quadric"],
            outputs["cli"],
        )

    def check(self, lib, inputs, outputs):
        failures = []
        diamonds = outputs["diamonds"]
        classical = {(2, 4): (1, 1, 20), (2, 3): (1, 1, 7), (3, 3): (2, 1, 5), (3, 5): (2, 1, 101)}
        for (n, d, p), dd in diamonds.items():
            if dd is None:
                continue
            h = dd.entries
            cells = [(i, j) for i in range(n + 1) for j in range(n + 1)]
            if any(h[i][j] < 0 for i, j in cells):
                failures.append(f"diamond({n}, {d}, {p}) has a negative entry")
            dual = diamonds.get((n, d, -p))
            if dual is not None and any(h[i][j] != dual.entries[n - i][n - j] for i, j in cells):
                failures.append(f"diamond({n}, {d}, {p}) breaks Serre duality")
            chi = oracles.chi_forms_row(n, d, p)
            rows = [sum((-1) ** j * h[i][j] for j in range(n + 1)) % oracles.CHI_MODULUS
                    for i in range(n + 1)]
            if rows != chi:
                failures.append(f"diamond({n}, {d}, {p}) row alternating sums differ from chi")
            if p == 0:
                if dd.middle_line() != oracles.griffiths_middle_line(n, d):
                    failures.append(f"diamond({n}, {d}, 0) middle line differs from Griffiths")
                if any(h[i][j] != h[j][i] for i, j in cells):
                    failures.append(f"diamond({n}, {d}, 0) breaks Hodge symmetry")
                if (n, d) in classical:
                    i, j, value = classical[(n, d)]
                    if h[i][j] != value:
                        failures.append(f"h^{{{i},{j}}} of ({n}, {d}) is {h[i][j]}, not {value}")
        for (n, d, p), (ledger, table) in outputs["ledgers"].items():
            if ledger is None or table is None:
                continue
            if {m: ledger.kernel_of_fstar.get(m, 0) for m in table} != table:
                failures.append(f"ledger kernels of ({n}, {d}, {p}) differ from kernel_table")
            if sum((-1) ** k * dim for k, (_, _, dim) in enumerate(ledger.terms)) != 0:
                failures.append(f"ledger terms of ({n}, {d}, {p}) do not sum to 0")
        search = outputs["search"]
        cells = {(n, d, p) for n in self.search_n for d in self.search_d for p in inputs["search_p"]}
        if search is None:
            search = []
        elif {(r.n, r.d, r.p) for r in search} != cells or len(search) != len(cells):
            failures.append("candidate_search rows do not cover the grid once each")
        for r in search:
            degenerate = (r.d - r.n - 2) - r.p in (0, r.d)
            if r.skipped != degenerate:
                failures.append(f"candidate_search skip flag wrong at ({r.n}, {r.d}, {r.p})")
                break
        if any(v not in (1, None) for v in outputs["quadric"].values()):
            failures.append("a quadric-family kernel is not 1")
        failures += self._check_cli(lib, inputs, outputs)
        return failures

    def _check_cli(self, lib, inputs, outputs):
        thd = lib.thd
        failures = []
        for argv, (code, text) in zip(inputs["cli"], outputs["cli"]):
            if code is None:
                continue
            if code != 0:
                failures.append(f"thd {' '.join(argv)} exited {code}")
                continue
            doc = json.loads(text)
            opts = dict(zip(argv[1::2], argv[2::2]))
            cmd = argv[0]
            if cmd == "diamond":
                dd = thd.diamond(thd.Hypersurface(int(opts["--n"]), int(opts["--d"])), int(opts["--twist"]))
                want = [["i", "j", "value"]] + [[str(i), str(j), str(v)] for i, j, v in dd.nonzero_entries()]
            elif cmd == "kernel":
                table = thd.kernel_table(thd.Hypersurface(int(opts["--n"]), int(opts["--d"])), int(opts["--p"]))
                want = [["m", "dim"]] + [[str(m), str(v)] for m, v in sorted(table.items())]
                if doc.get("verified_against_ledger") != "true":
                    failures.append(f"thd {' '.join(argv)} not verified against the ledger")
            elif cmd == "hh":
                X = thd.Hypersurface(int(opts["--n"]), int(opts["--d"]))
                want = [["m", "dim"]] + [[str(m), str(thd.hh_dim_on_X(X, int(opts["--p"]), m))]
                                         for m in range(2 * X.n + 2)]
            elif cmd == "search":
                rows = thd.candidate_search(*(_parse(opts[flag]) for flag in ("--n", "--d", "--p")))
                want = [["n", "d", "p", "m", "dim", "note"]] + [
                    [str(r.n), str(r.d), str(r.p), str(r.m), "" if r.dim is None else str(r.dim),
                     r.reason if r.skipped else ""] for r in rows]
            else:
                k, d = int(opts["--k"]), int(opts["--d"])
                want = [["m", "dim"], [str(2 * k + 2), str(thd.guaranteed_kernel_check(k, d))]]
            if doc.get("entries") != want:
                failures.append(f"thd {' '.join(argv)}: JSON differs from the library")
        return failures


def _parse(text: str) -> range:
    lo, hi = text.split("..")
    return range(int(lo), int(hi) + 1)


WORKLOADS: Dict[str, object] = {w.name: w for w in (HHBar(), DeformPipeline(), HypersurfaceSweep())}
