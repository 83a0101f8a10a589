import collections

import pytest

import thd.hochschild
import thd.hodge
from oracles import (
    beilinson,
    case_table_pullback,
    full_column_hh_on_X,
    full_column_hh_push,
    hh_dim_on_X_closed_form,
    hypersurface_bimodule,
    middle_alt_sum,
    recursive_chi_ambient_forms,
)
from thd import (
    ExactnessViolation,
    Hypersurface,
    PreconditionViolation,
    candidate_search,
    guaranteed_kernel_check,
    hh_dim_on_X,
    hh_dim_pushforward,
    hochschild_profile,
    hodge_number,
    kernel_claims_report,
    kernel_dim,
    kernel_table,
    les_ledger,
    propagate_ranks,
    pullback_cohomology_dim,
)
from thd.ainfty import QQ, PrimeField, hh_dimensions
from thd.hochschild import _hh_push

X57 = Hypersurface(5, 7)


def test_hh_on_X_examples():
    assert hh_dim_on_X(X57, -8, 8) == 26768  # 5775 + 20993
    assert hh_dim_on_X(X57, -8, 0) == 0
    assert hh_dim_on_X(X57, -8, 11) == 0
    assert hh_dim_on_X(X57, -8, -1) == 0


def test_hh_closed_form_examples():
    assert hh_dim_on_X_closed_form(X57, -8, 8) == 26768
    assert hh_dim_on_X_closed_form(X57, -8, 10) == 2996  # h^{5,0}_8


def test_two_route_equality_small_grid():
    for n in range(2, 7):
        for d in range(2, 6):
            X = Hypersurface(n, d)
            for p in range(-15, 16):
                for m in range(-1, 2 * n + 2):
                    assert hh_dim_on_X(X, p, m) == hh_dim_on_X_closed_form(X, p, m)


def test_support_column_sums_match_the_full_columns():
    # curves (n = 1) and degenerate twists included
    for n in range(1, 13):
        for d in range(1, 10):
            X = Hypersurface(n, d)
            for p in range(-40, 21):
                push = _hh_push(n, d, p)
                assert len(push) == 2 * n + 2
                for m in range(-1, 2 * n + 3):
                    assert hh_dim_on_X(X, p, m) == full_column_hh_on_X(X, p, m), (n, d, p, m)
                    pushed = push[m] if 0 <= m < len(push) else 0
                    assert pushed == full_column_hh_push(X, p, m), (n, d, p, m)


def test_canonical_twist_delta_contributions():
    # at p = t and m = n the diagonal entries enter the column sum
    for n, d in ((3, 2), (4, 3), (5, 2)):
        X = Hypersurface(n, d)
        assert hh_dim_on_X(X, X.t, n) == hh_dim_on_X_closed_form(X, X.t, n)
        without_delta = (
            hodge_number(X, 0, 0, 0)
            + hodge_number(X, 0, n, n)
            + (hodge_number(X, 0, n // 2, n - n // 2) if n % 2 == 0 else 0)
        )
        extra = (n - 2) if n % 2 == 0 else (n - 1)
        assert hh_dim_on_X(X, X.t, n) == without_delta + extra


def test_pullback_examples():
    assert pullback_cohomology_dim(X57, 8, 0, 0) == 2996
    assert pullback_cohomology_dim(X57, 0, 2, 2) == 1
    assert pullback_cohomology_dim(X57, 8, 3, 5) == 0
    assert pullback_cohomology_dim(X57, 7, 3, 2) == 1  # delta_{p,d} diagonal
    assert pullback_cohomology_dim(X57, 8, 7, 0) == 0  # out of range


def test_the_pullback_table_is_unchanged_on_a_grid():
    # Bott's table gives the values of the old case table wherever that table is right:
    # n >= 2 and a cell twist outside {0, d}
    for n in range(2, 10):
        for d in range(1, 9):
            X = Hypersurface(n, d)
            for q in range(-40, 15):
                if q in (0, d):
                    continue
                for i in range(n + 2):
                    for j in range(n + 1):
                        assert pullback_cohomology_dim(X, q, i, j) == case_table_pullback(X, q, i, j), (n, d, q, i, j)


def test_the_pushforward_euler_characteristic_is_the_ambient_one():
    # sum_m (-1)^m HH^m(P, f_* O_X(p)) = chi(sum_i (-1)^i Lambda^i T_P (x) (O(p) - O(p-d))),
    # with Lambda^i T_P = Omega^{n+1-i}_P(n+2), on every twist, curves and degenerate ones included
    for n in range(1, 10):
        chi = lambda q: sum((-1) ** i * recursive_chi_ambient_forms(n + 1, n + 1 - i, n + 2 + q)
                            for i in range(n + 2))
        for d in range(1, 9):
            for p in range(-40, 15):
                pushed = sum((-1) ** m * dim for m, dim in enumerate(_hh_push(n, d, p)))
                assert pushed == chi(p) - chi(p - d), (n, d, p)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_the_curve_rows_equal_the_hypersurface_bimodule(field):
    # HH of Beilinson's category of P^{n+1} with coefficients in (S/F)_{b-a+p}; it vanishes
    # past degree n + 1, the global dimension
    rows = {(1, 2, 0): [1, 8, 7], (1, 3, 1): [3, 15, 12], (1, 2, 1): [3, 12, 9],
            (1, 4, 2): [6, 24, 18], (2, 2, 0): [1, 15, 39, 25]}
    for (n, d, p), want in rows.items():
        cat = beilinson(n + 1, field)
        mod = hypersurface_bimodule(cat, d, p)
        mod.validate()
        assert hh_dimensions(cat, mod, n + 1) == want, (n, d, p)
        assert _hh_push(n, d, p) == tuple(want) + (0,) * n, (n, d, p)


def test_pushforward_examples():
    assert hh_dim_pushforward(X57, -8, 0) == hh_dim_on_X(X57, -8, 0)
    assert hh_dim_pushforward(X57, -8, 11) == hh_dim_on_X(X57, -1, 10)
    assert hh_dim_pushforward(X57, -8, -1) == 0
    assert hh_dim_pushforward(X57, -8, 12) == 0


def test_kernel_examples():
    assert kernel_dim(X57, -8, 4) == 917
    assert kernel_dim(X57, -8, 6) == 15267
    assert kernel_dim(X57, -8, 8) == 20993
    assert all(kernel_dim(X57, -8, m) == 0 for m in range(1, 11, 2))
    assert kernel_dim(Hypersurface(9, 5), -30, 12) == 1


def test_kernel_top_degree_uses_shifted_twist():
    # m = 2n reads the middle line of the (t - p - d)-twisted diamond
    assert kernel_dim(X57, -8, 10) == hodge_number(X57, 1, 4, 1) == 2807


def test_kernel_precondition():
    with pytest.raises(PreconditionViolation):
        kernel_dim(X57, 0, 4)  # t - p = 0
    with pytest.raises(PreconditionViolation):
        kernel_dim(X57, -7, 4)  # t - p = d
    # the ledger takes degenerate twists: its three columns carry their deltas
    for p in (0, -7):
        assert les_ledger(X57, p).twist == p


def test_kernel_out_of_range_degrees_vanish():
    assert kernel_dim(X57, -8, 0) == 0
    assert kernel_dim(X57, -8, 12) == 0
    assert kernel_dim(X57, -8, -2) == 0


def test_propagate_ranks():
    assert propagate_ranks([]) == []
    assert propagate_ranks([0, 0, 0]) == [0, 0, 0]
    # 0 -> V -> V -> 0 exact: dims [2, 2] gives ranks [2, 0]... not exact;
    # dims of an exact sequence 0 -> k -> k^2 -> k -> 0:
    assert propagate_ranks([1, 2, 1, 0]) == [1, 1, 0, 0]
    with pytest.raises(ExactnessViolation, match="negative rank -1 after term 2"):
        propagate_ranks([0, 1, 0])
    with pytest.raises(ExactnessViolation, match="negative rank -1 after term 1"):
        propagate_ranks([1, 0, 1])
    # every rank is nonnegative, but the last map does not end in 0
    with pytest.raises(ExactnessViolation, match="^sequence does not terminate: trailing rank 1$"):
        propagate_ranks([1, 2])


def test_ledger_matches_closed_form():
    for n, d, p in ((5, 7, -8), (3, 2, -6), (4, 3, -11), (7, 5, 3)):
        X = Hypersurface(n, d)
        ledger = les_ledger(X, p)
        for m in range(0, 2 * n + 1):
            assert ledger.kernel_of_fstar[m] == kernel_dim(X, p, m)
        assert all(r >= 0 for r in ledger.ranks)
        # exact stretches bounded by zeros have vanishing Euler characteristic
        dims = [dim for (_, _, dim) in ledger.terms]
        assert sum((-1) ** k * dim for k, dim in enumerate(dims)) == 0


def test_ledger_quadric_kernel():
    ledger = les_ledger(Hypersurface(3, 2), -6)
    assert ledger.kernel_of_fstar[6] == 1


def test_matchup_identities_small_grid():
    # pushforward dimensions against the on-X profile, with the odd-degree
    # correction written at twist t - p - d (always in range)
    for n in range(3, 7):
        for d in range(2, 6):
            X = Hypersurface(n, d)
            t = X.t
            for p in range(-15, 16):
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


def test_odd_correction_forms_agree_in_range():
    # for odd 1 < m < 2n - 1 the correction can also be written one step up
    # the middle recurrence, at twist t - p
    for n in range(3, 7):
        for d in range(2, 6):
            X = Hypersurface(n, d)
            t = X.t
            for p in range(-15, 16):
                if t - p in (0, d):
                    continue
                for m in range(3, 2 * n - 1, 2):
                    assert (
                        hodge_number(X, t - p, (m + 1) // 2, n - (m + 1) // 2)
                        == hodge_number(X, t - p - d, (m - 1) // 2, n - (m - 1) // 2)
                    )


def test_profiles():
    onx = hochschild_profile(X57, -8, "onX")
    assert onx.dim(8) == 26768 and onx.dim(-3) == 0 and onx.dim(11) == 0
    push = hochschild_profile(X57, -8, "pushforward")
    assert push.dim(11) == hh_dim_on_X(X57, -1, 10)
    ker = hochschild_profile(X57, -8, "kernel")
    assert ker.dim(4) == 917
    assert ker.dims == {**kernel_table(X57, -8), 11: 0}
    with pytest.raises(PreconditionViolation, match="t - p = 0 lies in"):
        hochschild_profile(X57, 0, "kernel")
    with pytest.raises(PreconditionViolation):
        hochschild_profile(X57, -8, "bogus")


def test_candidate_search():
    rows = candidate_search(range(5, 6), range(7, 8), range(-8, -7))
    assert len(rows) == 1 and rows[0].dim == 20993 and rows[0].m == 8

    rows = candidate_search([9], [5], [-30])
    assert rows[0].dim == 1

    # degenerate twists are flagged, not dropped
    rows = candidate_search([5], [7], range(-8, 1))
    flagged = {r.p for r in rows if r.skipped}
    assert flagged == {0, -7}
    # even n gives odd degree n+3, hence zero kernels
    rows = candidate_search([4], [3], [-9])
    assert rows[0].dim == 0
    # any iterable, iterators included, is read once
    grid = (range(3, 5), range(2, 4), range(-6, -3))
    assert candidate_search(*(iter(r) for r in grid)) == candidate_search(*grid)
    assert len(candidate_search(*grid)) == 12


def test_guaranteed_kernels():
    assert guaranteed_kernel_check(3, 2) == 1
    assert guaranteed_kernel_check(5, 5) == 1
    assert guaranteed_kernel_check(2, 2) == 1
    with pytest.raises(PreconditionViolation):
        guaranteed_kernel_check(1, 2)
    with pytest.raises(PreconditionViolation):
        guaranteed_kernel_check(3, 1)


def test_kernel_claims_report():
    X = Hypersurface(7, 5)
    report = kernel_claims_report(X, 3, {2: 8451, 4: 15267, 6: 13051, 8: 486})
    assert {r.m for r in report.confirmed} == {2, 6, 8}
    (bad,) = report.discrepancies
    assert bad.m == 4 and bad.claimed == 15267 and bad.computed == 30276


def test_kernel_table_is_full_range():
    table = kernel_table(X57, -8)
    assert set(table) == set(range(0, 11))
    assert table[4] == 917 and table[10] == 2807


def _clear_thd_caches():
    for module in (thd.hodge, thd.hochschild):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_the_integer_core_builds_no_hypersurface(monkeypatch):
    built = []
    validate = Hypersurface.__post_init__

    def counted(self):
        built.append((self.n, self.d))
        validate(self)

    X = Hypersurface(5, 7)
    _clear_thd_caches()
    monkeypatch.setattr(Hypersurface, "__post_init__", counted)
    rows = candidate_search(range(3, 31), range(2, 13), range(-40, -2))
    assert max(collections.Counter(built).values()) == 1  # one per (n, d) pair, checking its inputs
    built.clear()
    ledger, table = les_ledger(X, -8), kernel_table(X, -8)
    assert built == []

    # the values the library gave before the integer core, degenerate cells and skip reasons
    # included; m = n + 3 is an interior middle-line degree for odd n > 3 and m = 2n for n = 3
    assert len(rows) == 11704 and sum(r.skipped for r in rows) == 561
    for r in rows:
        tp = r.d - r.n - 2 - r.p
        assert (r.m, r.skipped) == (r.n + 3, tp in (0, r.d)), r
        assert r.reason == (f"t-p = {tp} degenerate" if r.skipped else ""), r
        if r.skipped:
            expected = None
        elif r.n == 3:
            expected = middle_alt_sum(3, r.d, tp - r.d, 2)
        else:
            expected = middle_alt_sum(r.n, r.d, tp, r.m // 2) if r.n % 2 else 0
        assert r.dim == expected, r
    by_cell = {(r.n, r.d, r.p): tuple(r) for r in rows}
    assert [by_cell[cell] for cell in ((3, 2, -6), (3, 2, -5), (5, 7, -8), (29, 12, -37), (30, 12, -3))] == [
        (3, 2, -6, 6, 1, False, ""),
        (3, 2, -5, 6, None, True, "t-p = 2 degenerate"),
        (5, 7, -8, 8, 20993, False, ""),
        (29, 12, -37, 32, 4327688274657489895954304104257, False, ""),
        (30, 12, -3, 33, 0, False, ""),
    ]
    assert sum(1 for r in rows if r.dim) == 4467
    assert sum(r.dim for r in rows if r.dim) == 106200672861827437100362093977236
    kernels = {0: 0, 1: 0, 2: 0, 3: 0, 4: 917, 5: 0, 6: 15267, 7: 0, 8: 20993, 9: 0, 10: 2807}
    assert table == kernels
    assert ledger.kernel_of_fstar == {**kernels, 11: 0, 12: 0}
    assert [dim for (_, _, dim) in ledger.terms] == [
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 917, 917, 0, 0, 2996, 2996, 15267, 24269, 9009, 7,
        10395, 10395, 20993, 26768, 5775, 0, 1575, 1575, 2807, 2996, 189, 0, 0, 7, 7, 0, 0,
    ]


def test_the_twist_is_checked_once_per_table(monkeypatch):
    checks = []
    require = thd.hochschild._require_nondegenerate_twist
    monkeypatch.setattr(thd.hochschild, "_require_nondegenerate_twist",
                        lambda X, p: checks.append(p) or require(X, p))
    kernel_table(X57, -8)
    assert checks == [-8]
    for target, expected in (("onX", []), ("pushforward", []), ("kernel", [-8])):
        checks.clear()
        hochschild_profile(X57, -8, target)
        assert checks == expected, target
    for table in (lambda: kernel_table(X57, 0), lambda: hochschild_profile(X57, -7, "kernel")):
        with pytest.raises(PreconditionViolation, match=r"^t - p = (0|7) lies in \{0, d\} for"):
            table()


def test_the_ledger_makes_one_pass_per_twist(monkeypatch):
    # one walk over each support cell, not one column sum per degree; the pushforward
    # column reads Bott's table, so every diamond cell is read once, by its own walk
    X = Hypersurface(5, 7)
    _clear_thd_caches()
    hodge_calls, pullback_calls = collections.Counter(), collections.Counter()
    hodge, pullback = thd.hochschild._hodge, thd.hochschild._pullback

    def counted_hodge(n, d, p, i, j):
        hodge_calls[p, i, j] += 1
        return hodge(n, d, p, i, j)

    def counted_pullback(n, d, p, i, j):
        pullback_calls[p, i, j] += 1
        return pullback(n, d, p, i, j)

    monkeypatch.setattr(thd.hochschild, "_hodge", counted_hodge)
    monkeypatch.setattr(thd.hodge, "_hodge", counted_hodge)
    monkeypatch.setattr(thd.hochschild, "_pullback", counted_pullback)
    _hh_push(5, 7, -8)
    assert hodge_calls == {}
    ledger = les_ledger(X, -8)
    n, tp = 5, X.t + 8  # the (t-p)-diamond is twist 8, the (t-p-d)-diamond twist 1
    diamond_support = {(i, j) for i in range(n + 1) for j in (0, n, n - i, i)}
    pullback_support = {(i, j) for i in range(n + 2) for j in (0, n, i, i - 1) if 0 <= j <= n}
    assert len(diamond_support) == 20 and len(pullback_support) == 22
    assert hodge_calls == collections.Counter((q, i, j) for q in (tp, tp - X.d) for i, j in diamond_support)
    assert pullback_calls == collections.Counter((tp, i, j) for i, j in pullback_support)
    assert thd.hochschild._hh_on_X.cache_info().misses == 2
    assert thd.hochschild._hh_push.cache_info().misses == 1
    assert ledger.kernel_of_fstar[8] == 20993


def test_the_ledger_is_exact_at_every_twist():
    # 3,960 points, curves and the degenerate twists t - p in {0, d} included
    for n in range(1, 10):
        for d in range(1, 9):
            for p in range(-40, 15):
                les_ledger(Hypersurface(n, d), p)
    ledger = les_ledger(Hypersurface(1, 3), -5)  # H^1(X, O_X(-5)) = 15 is a summand of HH^1(P^2, f_* O_X(-5))
    assert [dim for (label, _, dim) in ledger.terms if label == "C"] == [0, 15, 21, 6, 0]
