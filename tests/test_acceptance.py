"""Acceptance criteria, one test per criterion, all tolerances exact.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion with its runtime.
"""

import json
import time

from oracles import bar_cochain_basis, hh_dim_on_X_closed_form
from thd import (
    Hypersurface,
    diamond,
    guaranteed_kernel_check,
    hh_dim_on_X,
    hh_dim_pushforward,
    hodge_number,
    kernel_claims_report,
    kernel_dim,
    les_ledger,
    projective_space_hodge,
)
from thd.ainfty import (
    CentralBimodule,
    Cochain,
    cochain_basis,
    cup_with_identity,
    deform,
    hochschild_differential,
    tensor_bimodule,
    tensor_category,
    tensor_with_algebra,
    verify_stasheff,
)
from thd.ainfty.examples import (
    a2_path_category,
    dual_numbers,
    matrix_algebra,
    perturbed_noncocycle,
    product_algebra,
    scalar_algebra,
    square_zero_cocycle,
)
from thd.cli import main


def report(name, started):
    print(f"{name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_golden_diamond_cli(capsys):
    started = time.perf_counter()
    code = main(["diamond", "--n", "5", "--d", "7", "--twist", "8", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    nonzero = {(int(i), int(j)): int(v) for i, j, v in doc["entries"][1:]}
    middle = {(5, 0): 2996, (4, 1): 20993, (3, 2): 15267, (2, 3): 917, (1, 4): 0, (0, 5): 0}
    lower = {(0, 0): 2996, (1, 0): 9002, (2, 0): 10395, (3, 0): 5775, (4, 0): 1575, (5, 0): 2996}
    expected = {k: v for k, v in {**middle, **lower}.items() if v}
    assert nonzero == expected
    dd = diamond(Hypersurface(5, 7), 8)
    for i in range(6):
        for j in range(6):
            assert dd.entry(i, j) == expected.get((i, j), 0)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        report("criterion 1 (golden diamond, degree 7)", started)


def test_criterion_2_kernels_degree7(capsys):
    started = time.perf_counter()
    X = Hypersurface(5, 7)
    assert kernel_dim(X, -8, 4) == 917
    assert kernel_dim(X, -8, 6) == 15267
    assert kernel_dim(X, -8, 8) == 20993
    assert all(kernel_dim(X, -8, m) == 0 for m in range(1, 11, 2))
    with capsys.disabled():
        report("criterion 2 (kernels of the degree-7 fivefold)", started)


def test_criterion_3_dimension9_spot_checks(capsys):
    started = time.perf_counter()
    dd = diamond(Hypersurface(9, 5), 24)
    assert dd.entry(6, 3) == 1
    assert dd.entry(7, 2) == 2882
    assert dd.entry(8, 1) == 100298
    assert dd.entry(9, 0) == 11979044
    assert kernel_dim(Hypersurface(9, 5), -30, 12) == 1
    with capsys.disabled():
        report("criterion 3 (degree-5 ninefold spot checks)", started)


def test_criterion_4_guaranteed_kernels(capsys):
    started = time.perf_counter()
    for k in range(3, 9):
        for d in range(2, 7):
            assert guaranteed_kernel_check(k, d) == 1, (k, d)
    assert guaranteed_kernel_check(2, 2) == 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    with capsys.disabled():
        report("criterion 4 (guaranteed one-dimensional kernels)", started)


def test_criterion_5_ledger_oracle_equivalence(capsys):
    started = time.perf_counter()
    cells = 0
    for n in range(3, 10):
        for d in range(2, 8):
            X = Hypersurface(n, d)
            for p in range(-40, 0):
                if X.t - p in (0, d):
                    continue
                ledger = les_ledger(X, p)  # raises on any negative rank
                for m in range(0, 2 * n + 1):
                    assert ledger.kernel_of_fstar[m] == kernel_dim(X, p, m), (n, d, p, m)
                cells += 1
    assert cells > 1500
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    with capsys.disabled():
        report(f"criterion 5 (ledger oracle = closed form on {cells} grids)", started)


def test_criterion_6_two_route_and_matchup(capsys):
    started = time.perf_counter()
    for n in range(3, 10):
        for d in range(2, 8):
            X = Hypersurface(n, d)
            t = X.t
            for p in range(-40, 0):
                for m in range(-1, 2 * n + 2):
                    assert hh_dim_on_X(X, p, m) == hh_dim_on_X_closed_form(X, p, m)
                if t - p in (0, d):
                    continue
                for m in range(0, 2 * n + 2):
                    lhs = hh_dim_pushforward(X, p, m)
                    if m == 0:
                        rhs = hh_dim_on_X(X, p, 0)
                    elif m == 1:
                        rhs = (hh_dim_on_X(X, p, 1) + hh_dim_on_X(X, p + d, 0)
                               - hodge_number(X, t - p, 1, n - 1))
                    elif m == 2 * n:
                        rhs = (hh_dim_on_X(X, p, 2 * n) + hh_dim_on_X(X, p + d, 2 * n - 1)
                               - hodge_number(X, t - p - d, n - 1, 1))
                    elif m == 2 * n + 1:
                        rhs = hh_dim_on_X(X, p + d, 2 * n)
                    elif m % 2 == 0:
                        rhs = (hh_dim_on_X(X, p, m) + hh_dim_on_X(X, p + d, m - 1)
                               - hodge_number(X, t - p, m // 2, n - m // 2))
                    else:
                        rhs = (hh_dim_on_X(X, p, m) + hh_dim_on_X(X, p + d, m - 1)
                               - hodge_number(X, t - p - d, (m - 1) // 2, n - (m - 1) // 2))
                    assert lhs == rhs, (n, d, p, m)
    with capsys.disabled():
        report("criterion 6 (two-route equality and pushforward matchup)", started)


def test_criterion_7_duality_and_recurrences(capsys):
    started = time.perf_counter()
    from thd import TwistedHodgeDiamond

    for n in range(2, 10):
        for d in range(2, 8):
            X = Hypersurface(n, d)
            m = n + 1
            for p in range(-40, 41):
                for i in range(n + 1):
                    assert hodge_number(X, p, i, 0) == hodge_number(X, -p, n - i, n)
                    for j in range(n + 1):
                        value = hodge_number(X, p, i, j)
                        assert value == hodge_number(X, -p, n - i, n - j)
                        assert value >= 0
                        if not TwistedHodgeDiamond.on_support(n, i, j):
                            assert value == 0
                for i in range(2, n):
                    if p != 0 and not (p == d and n == 2 * i - 2):
                        assert hodge_number(X, p, i, n - i) == hodge_number(X, p - d, i - 1, n + 1 - i)
                    up = projective_space_hodge(m, p - d, i, m) - projective_space_hodge(m, p, i, m)
                    assert up == hodge_number(X, p, i, n) + hodge_number(X, p - d, i - 1, n)
                    lo = projective_space_hodge(m, p, i, 0) - projective_space_hodge(m, p - d, i, 0)
                    assert lo == hodge_number(X, p, i, 0) + hodge_number(X, p - d, i - 1, 0)
    with capsys.disabled():
        report("criterion 7 (duality and recurrence suite)", started)


def test_criterion_8_adjudication_report(capsys):
    started = time.perf_counter()
    X = Hypersurface(7, 5)
    # the published readings use coefficients O_X(3), i.e. kernel twist
    # t - p = -7; their claims: 8451 at m=2, 15267 at m=4, 13051 at m=6,
    # 486 at m=8
    dd_kernel_twist = diamond(X, -7)
    dd_coefficient_twist = diamond(X, 3)
    report_obj = kernel_claims_report(X, 3, {2: 8451, 4: 15267, 6: 13051, 8: 486})
    assert {r.m: r.computed for r in report_obj.confirmed} == {2: 8451, 6: 13051, 8: 486}
    (disputed,) = report_obj.discrepancies
    assert disputed.m == 4 and disputed.claimed == 15267
    assert disputed.computed == 30276
    # the computed value is the displayed middle-line entry of the kernel-twist diamond
    assert dd_kernel_twist.entry(2, 5) == 30276
    # under the shifted reading p = -7 (kernel twist 3) the same three
    # confirmed values appear four degrees higher
    shifted = kernel_claims_report(X, -7, {6: 8451, 10: 13051, 12: 486, 8: 15267})
    assert {r.m for r in shifted.confirmed} == {6, 10, 12}
    assert shifted.discrepancies[0].computed == dd_coefficient_twist.entry(4, 3) == 30276
    with capsys.disabled():
        report("criterion 8 (published-value adjudication, one flagged conflict)", started)


def test_criterion_9_deformation_suite(capsys):
    started = time.perf_counter()
    # d.d = 0 exhaustively through degree 5 on the bundled examples
    for base in (dual_numbers(), a2_path_category()):
        mod = CentralBimodule.regular(base)
        for degree in range(0, 6):
            for chain, args, m in cochain_basis(base, mod, degree):
                f = Cochain(base, mod, degree, {(chain, args): {m: base.field.one}})
                assert hochschild_differential(hochschild_differential(f)).is_zero()
        tcat = tensor_with_algebra(base, product_algebra())
        tmod = CentralBimodule.regular(tcat)
        for degree in range(0, 6):
            for chain, args, m in bar_cochain_basis(tcat, tmod, degree):
                f = Cochain(tcat, tmod, degree, {(chain, args): {m: tcat.field.one}})
                assert hochschild_differential(hochschild_differential(f)).is_zero()
    # solved degree-3 cocycle deforms and verifies; perturbation fails at k = 4
    cat = dual_numbers()
    mod = CentralBimodule.regular(cat)
    eta = square_zero_cocycle()
    assert verify_stasheff(deform(cat, mod, eta), 7).passed
    bad = verify_stasheff(deform(cat, mod, perturbed_noncocycle(), check=False), 7)
    assert not bad.passed and bad.first_failure[0] == 4
    # cup compatibility: strict equality of both constructions
    for gamma in (scalar_algebra(), product_algebra(), matrix_algebra()):
        route1 = tensor_with_algebra(deform(cat, mod, eta), gamma)
        tcat = tensor_category(cat, gamma)
        tmod = tensor_bimodule(mod, gamma, tcat)
        route2 = deform(tcat, tmod, cup_with_identity(eta, gamma))
        assert route1.basis == route2.basis and route1.ops == route2.ops
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    with capsys.disabled():
        report("criterion 9 (deformation engine suite)", started)
