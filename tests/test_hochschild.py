import collections
import hashlib
from pathlib import Path

import pytest

import thd.hochschild
import thd.hodge
from oracles import full_column_hh_on_X, full_column_hh_push, hh_dim_on_X_closed_form, middle_alt_sum
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
    # curves (n = 1) included: their values are wrong (ROADMAP item 6), but must not move;
    # _hh_push is the ledger's route, which takes degenerate twists too
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


# SHA-256 of every pullback_cohomology_dim on n 1..9, d 1..8, p -40..14, one list of the
# (i, j) cells per twist, computed at 4616fd6: the corners (0, 0), (0, n), (n+1, 0) and
# (n+1, n) must follow the edge rules
PULLBACK_DIGEST = "ff36972cb545c12dad09ee7e9cceb2611d11702759bc9ef594e4779c0d12d4bc"


def test_the_pullback_table_is_unchanged_on_a_grid():
    digest = hashlib.sha256()
    for n in range(1, 10):
        for d in range(1, 9):
            X = Hypersurface(n, d)
            for p in range(-40, 15):
                cells = [pullback_cohomology_dim(X, p, i, j) for i in range(n + 2) for j in range(n + 1)]
                digest.update(str(cells).encode("ascii"))
    assert digest.hexdigest() == PULLBACK_DIGEST


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
    with pytest.raises(PreconditionViolation):
        les_ledger(X57, 0)


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
    with pytest.raises(ExactnessViolation):
        propagate_ranks([0, 1, 0])
    with pytest.raises(ExactnessViolation):
        propagate_ranks([1, 0, 1])


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
    for target, expected in (("onX", []), ("pushforward", [-8]), ("kernel", [-8])):
        checks.clear()
        hochschild_profile(X57, -8, target)
        assert checks == expected, target
    for table in (lambda: kernel_table(X57, 0), lambda: hochschild_profile(X57, -7, "pushforward")):
        with pytest.raises(PreconditionViolation, match=r"^t - p = (0|7) lies in \{0, d\} for"):
            table()


def test_the_ledger_makes_one_pass_per_twist(monkeypatch):
    # one walk over each support cell, not one column sum per degree
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
    monkeypatch.setattr(thd.hochschild, "_pullback", counted_pullback)
    ledger = les_ledger(X, -8)
    n, tp = 5, X.t + 8  # the (t-p)-diamond is twist 8, the (t-p-d)-diamond twist 1
    diamond_support = {(i, j) for i in range(n + 1) for j in (0, n, n - i, i)}
    pullback_support = {(i, j) for i in range(n + 2) for j in (0, n, i, i - 1) if 0 <= j <= n}
    assert len(diamond_support) == 20 and len(pullback_support) == 22
    # the edge rules of the pullback table also read cells off the diamond, which are 0
    inside = {(q, i, j): c for (q, i, j), c in hodge_calls.items() if 0 <= i <= n and 0 <= j <= n}
    assert set(inside) == {(q, i, j) for q in (tp, tp - X.d) for i, j in diamond_support}
    # once from the walk of the diamond, and once more where a pullback entry reads the cell
    assert sum(inside.values()) == 66 and set(inside.values()) == {1, 2}
    assert pullback_calls == collections.Counter((tp, i, j) for i, j in pullback_support)
    assert thd.hochschild._hh_on_X.cache_info().misses == 2
    assert thd.hochschild._hh_push.cache_info().misses == 1
    assert ledger.kernel_of_fstar[8] == 20993


def test_the_curve_ledger_failures_do_not_move():
    # ROADMAP item 6: the ledger is inconsistent on curves; which twists fail, and how, is pinned
    pinned = {}
    for line in (Path(__file__).parent / "data" / "curve_ledger_failures.txt").read_text().splitlines():
        if not line.startswith("#"):
            d, p, message = line.split(" ", 2)
            pinned[int(d), int(p)] = message
    failures, passed = {}, []
    for d in range(1, 9):
        X = Hypersurface(1, d)
        for p in range(-40, 15):
            if X.t - p in (0, d):
                continue
            try:
                les_ledger(X, p)
            except ExactnessViolation as e:
                failures[d, p] = str(e)
            else:
                passed.append((d, p))
    assert len(failures) == 420 and passed == [(2, -2), (4, -1), (6, 0), (8, 1)]
    assert failures[3, -5] == "negative rank -15 after term 5 (dims [0, 0, 0, 0, 15, 0])"
    assert failures == pinned
