import ast
from pathlib import Path

import pytest

from oracles import (brute_projective_hodge, middle_alt_sum, miller_jacobian_series, recursive_chi_forms,
                     recursive_edge_h0)
from thd import (
    Hypersurface,
    PreconditionViolation,
    TwistedHodgeDiamond,
    diamond,
    euler_characteristic,
    hodge_number,
    projective_space_hodge,
    structure_sheaf_h0,
)
from thd import hodge
from thd.combinatorics import binom
from thd.hodge import _jacobian_series

X57 = Hypersurface(5, 7)

# grid used by the property suites
GRID = [
    (n, d) for n in range(2, 10) for d in range(2, 8)
]
TWISTS = range(-40, 41)


def test_hypersurface_invariants():
    assert Hypersurface(5, 7).t == 0
    assert Hypersurface(3, 2).t == -3
    with pytest.raises(PreconditionViolation):
        Hypersurface(0, 3)
    with pytest.raises(PreconditionViolation):
        Hypersurface(3, 0)


def test_structure_sheaf_sections():
    assert structure_sheaf_h0(X57, 8) == 2996  # binom(14,6) - binom(7,6)
    assert structure_sheaf_h0(X57, -1) == 0
    assert structure_sheaf_h0(X57, 0) == 1


def test_hodge_number_examples():
    assert hodge_number(X57, 8, 2, 3) == 917
    assert hodge_number(X57, 8, 4, 0) == 1575
    assert hodge_number(X57, 8, 5, 5) == 0
    assert hodge_number(X57, 0, 2, 2) == 1
    assert hodge_number(Hypersurface(3, 2), 1, 2, 1) == 1


def test_out_of_range_indices_are_zero():
    assert hodge_number(X57, 8, -1, 3) == 0
    assert hodge_number(X57, 8, 6, 0) == 0
    assert hodge_number(X57, 8, 0, 6) == 0


def test_golden_diamond_degree7():
    dd = diamond(X57, 8)
    assert dd.middle_line() == [2996, 20993, 15267, 917, 0, 0]
    assert [dd.entry(i, 0) for i in range(6)] == [2996, 9002, 10395, 5775, 1575, 2996]
    support = {(i, j) for i in range(6) for j in range(6) if dd.entry(i, j)}
    assert support == {(5, 0), (4, 1), (3, 2), (2, 3), (0, 0), (1, 0), (2, 0), (3, 0), (4, 0)}


def test_golden_diamond_dimension9():
    X = Hypersurface(9, 5)
    dd = diamond(X, 24)
    assert dd.entry(6, 3) == 1
    assert dd.entry(7, 2) == 2882
    assert dd.entry(8, 1) == 100298
    assert dd.entry(9, 0) == 11979044
    # the lower edge, corroborated by the Euler-characteristic oracle
    assert [dd.entry(i, 0) for i in range(10)] == [
        111098130, 744650346, 2209626573, 3815626243, 4236318471,
        3149538513, 1580020794, 523445109, 107439618, 11979044,
    ]


def test_golden_diamond_dimension7():
    X = Hypersurface(7, 5)
    dd = diamond(X, -7)
    assert dd.middle_line() == [0, 0, 0, 486, 13051, 30276, 8451, 165]
    assert [dd.entry(i, 0) for i in range(8)] == [0] * 8
    # the upper edge; the value 15840 at i = 4 satisfies every duality,
    # recurrence and Euler-characteristic identity
    assert [dd.entry(i, 7) for i in range(8)] == [165, 36, 720, 4950, 15840, 25704, 20511, 6390]


def test_shape_law():
    for n, d in GRID:
        X = Hypersurface(n, d)
        for p in range(-40, 41, 7):
            for i in range(n + 1):
                for j in range(n + 1):
                    if not TwistedHodgeDiamond.on_support(n, i, j):
                        assert hodge_number(X, p, i, j) == 0


def test_corner_edge_duality():
    for n, d in GRID:
        X = Hypersurface(n, d)
        for p in TWISTS:
            for i in range(n + 1):
                assert hodge_number(X, p, i, 0) == hodge_number(X, -p, n - i, n)


def test_full_serre_duality():
    for n, d in GRID:
        X = Hypersurface(n, d)
        for p in TWISTS:
            for i in range(n + 1):
                for j in range(n + 1):
                    assert hodge_number(X, p, i, j) == hodge_number(X, -p, n - i, n - j)


def test_middle_line_recurrence():
    # h^{i,n-i}_p = h^{i-1,n+1-i}_{p-d} for i not in {0,1,n} and p != 0,
    # except at p = d with n = 2i - 2 where the delta on the right adds 1.
    for n, d in GRID:
        X = Hypersurface(n, d)
        for p in TWISTS:
            if p == 0:
                continue
            for i in range(2, n):
                lhs = hodge_number(X, p, i, n - i)
                rhs = hodge_number(X, p - d, i - 1, n + 1 - i)
                if p == d and n == 2 * i - 2:
                    assert rhs == lhs + 1
                else:
                    assert lhs == rhs


def test_edge_recurrences_against_projective_space():
    for n, d in GRID:
        X = Hypersurface(n, d)
        m = n + 1
        for p in TWISTS:
            for i in range(2, n):
                upper = projective_space_hodge(m, p - d, i, m) - projective_space_hodge(m, p, i, m)
                assert upper == hodge_number(X, p, i, n) + hodge_number(X, p - d, i - 1, n)
                lower = projective_space_hodge(m, p, i, 0) - projective_space_hodge(m, p - d, i, 0)
                assert lower == hodge_number(X, p, i, 0) + hodge_number(X, p - d, i - 1, 0)


def test_nonnegativity():
    for n, d in GRID:
        X = Hypersurface(n, d)
        for p in range(-40, 41, 3):
            for i in range(n + 1):
                for j in range(n + 1):
                    assert hodge_number(X, p, i, j) >= 0


def test_alternating_column_sums_match_euler_characteristic():
    # the independent oracle for the edge recursion: chi is computed from
    # sequence additivity alone, never from per-entry formulas
    for n, d in GRID:
        X = Hypersurface(n, d)
        for p in TWISTS:
            for i in range(n + 1):
                chi = sum((-1) ** j * hodge_number(X, p, i, j) for j in range(n + 1))
                assert chi == euler_characteristic(X, i, p)


def test_no_cell_formula_reads_the_euler_characteristic():
    # chi checks every cell only while no cell is computed from it: the chi
    # routines are read by euler_characteristic and by one another, nowhere else
    chi = {"_chi_forms", "_chi_ambient_forms", "_chi_line"}
    readers = {
        getattr(stmt, "name", None)
        for stmt in ast.parse(Path(hodge.__file__).read_text()).body
        for node in ast.walk(stmt)
        if (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) in chi
    }
    assert "euler_characteristic" in readers
    assert readers <= chi | {"euler_characteristic"}, readers - chi


def test_upper_edge_vanishes_for_positive_twists():
    for n, d in GRID:
        X = Hypersurface(n, d)
        for p in range(max(X.t, 0) + 1, max(X.t, 0) + 20):
            assert all(hodge_number(X, p, i, n) == 0 for i in range(n + 1))


def test_diagonal_rule():
    for n, d in GRID:
        X = Hypersurface(n, d)
        for i in range(1, n):
            if 2 * i == n:
                continue
            assert hodge_number(X, 0, i, i) == 1
            assert hodge_number(X, 5, i, i) == 0


def test_central_entry_uses_middle_formula():
    # untwisted central Hodge numbers of classical surfaces
    assert hodge_number(Hypersurface(2, 3), 0, 1, 1) == 7   # cubic surface
    assert hodge_number(Hypersurface(2, 4), 0, 1, 1) == 20  # quartic surface


def test_projective_space_examples():
    assert projective_space_hodge(4, 0, 2, 2) == 1
    assert projective_space_hodge(4, 1, 0, 0) == 5
    assert projective_space_hodge(3, 2, 1, 0) == 6
    assert projective_space_hodge(4, 0, 0, 0) == 1
    assert projective_space_hodge(4, 0, 4, 4) == 1


def test_projective_space_against_brute_force():
    for m in range(1, 5):
        for p in range(-6, 7):
            for i in range(m + 1):
                for j in range(m + 1):
                    assert projective_space_hodge(m, p, i, j) == brute_projective_hodge(m, p, i, j)


def test_diamond_object():
    dd = diamond(X57, 8)
    assert dd.hypersurface == X57 and dd.twist == 8
    assert dd.entry(-1, 0) == 0 and dd.entry(0, 17) == 0
    nz = dd.nonzero_entries()
    assert (2, 3, 917) in nz and all(v > 0 for (_, _, v) in nz)


def test_nonzero_entries_match_a_scan_of_every_cell():
    for n, d in [(1, 1), (1, 3), (1, 5)] + GRID:
        for p in (-9, -1, 0, 2, 8):
            dd = diamond(Hypersurface(n, d), p)
            every = [(i, j, v) for i, row in enumerate(dd.entries) for j, v in enumerate(row) if v]
            assert dd.nonzero_entries() == every, (n, d, p)


def test_degree_one_hypersurface_is_projective_space():
    # a hyperplane in P^{n+1} is P^n; compare against the Bott values
    for n in range(1, 5):
        X = Hypersurface(n, 1)
        for p in range(-5, 6):
            for i in range(n + 1):
                for j in range(n + 1):
                    assert hodge_number(X, p, i, j) == projective_space_hodge(n, p, i, j)


# The grid on which the series and loops are checked against the recursions
# and the alternating sum they replaced: every small (n, d), including curves,
# d = 1 and d = 2, over a wide twist window, and a few large (n, d).
ORACLE_GRID = [(n, d, range(-70, 60)) for n in range(1, 16) for d in range(1, 11)] + [
    (n, d, (7, -7, 0, 3, -60, 200))
    for n, d in [(40, 3), (120, 5), (160, 5), (200, 5), (201, 2), (150, 9), (300, 1)]
]


def test_middle_line_matches_the_alternating_binomial_sum():
    for n, d, twists in ORACLE_GRID:
        X = Hypersurface(n, d)
        for p in twists:
            for i in range(1, n):
                assert hodge_number(X, p, i, n - i) == middle_alt_sum(n, d, p, i), (n, d, p, i)


def test_jacobian_series_matches_millers_recurrence():
    for n in range(1, 41):
        for d in range(1, 14):
            assert _jacobian_series(n, d) == miller_jacobian_series(n, d), (n, d)


def test_jacobian_series_mirror_boundaries():
    # the recurrence fills a_0 .. a_{L//2} and the Gorenstein symmetry a_k = a_{L-k} the rest
    for n in range(1, 6):
        assert _jacobian_series(n, 1) == ()
        assert _jacobian_series(n, 2) == (1,)
    assert _jacobian_series(1, 3) == (1, 3, 3, 1)  # L = 3, odd
    assert _jacobian_series(2, 3) == (1, 4, 6, 4, 1)  # L = 4, even
    assert _jacobian_series(1, 4) == (1, 3, 6, 7, 6, 3, 1)  # L = 6, q = 3
    parities = set()
    for n in range(1, 16):
        for d in range(2, 12):
            series, L = _jacobian_series(n, d), (n + 2) * (d - 2)
            parities.add(L % 2)
            assert len(series) == L + 1, (n, d)
            assert all(series[k] == series[L - k] for k in range(L + 1)), (n, d)
    assert parities == {0, 1}
    assert _jacobian_series(200, 5) == miller_jacobian_series(200, 5)


def test_diamond_matches_hodge_number_cell_by_cell():
    # diamond fills each locus from its own helper; hodge_number goes through the per-cell case table
    cases = [(n, d, range(-40, 21)) for n in range(1, 13) for d in range(1, 10)]
    cases += [(120, 5, (-7, 7)), (200, 5, (-7, 7))]
    for n, d, twists in cases:
        X = Hypersurface(n, d)
        for p in twists:
            cells = tuple(tuple(hodge_number(X, p, i, j) for j in range(n + 1)) for i in range(n + 1))
            assert diamond(X, p).entries == cells, (n, d, p)
    # the center of an even n carries the middle-line value, delta included at p = 0
    assert diamond(Hypersurface(2, 4), 0).entries[1][1] == 20
    assert diamond(Hypersurface(4, 3), 0).entries[2][2] == _jacobian_series(4, 3)[3] + 1 == 21
    # the n = 3 edge at (i, q) = (2, d), which the recursion pins by chi, and its
    # Serre dual at (1, 3) for p = -d: both are h^0(Omega^2_{P^4}(d))
    for d in range(1, 61):
        X = Hypersurface(3, d)
        row, want = diamond(X, d).entries[2], binom(d - 1, 2) * binom(d + 2, 2)
        assert row[0] == recursive_edge_h0(3, d, 2, d) == want, d
        assert diamond(X, -d).entries[1][3] == want, d
        assert sum((-1) ** j * h for j, h in enumerate(row)) == euler_characteristic(X, 2, d), d


def test_edges_match_the_recursion():
    for n, d, twists in ORACLE_GRID:
        X = Hypersurface(n, d)
        for p in twists:
            for i in range(1, n):
                assert hodge_number(X, p, i, 0) == recursive_edge_h0(n, d, i, p), (n, d, p, i)
                assert hodge_number(X, p, i, n) == recursive_edge_h0(n, d, n - i, -p), (n, d, p, i)


def test_euler_characteristic_matches_the_recursion():
    for n, d, twists in ORACLE_GRID:
        X = Hypersurface(n, d)
        degrees = range(-1, n + 2) if n < 16 else (0, 1, 2, n // 2, n - 1, n)
        for p in twists:
            for i in degrees:
                assert euler_characteristic(X, i, p) == recursive_chi_forms(n, d, i, p), (n, d, p, i)


def test_large_diamond_is_nonnegative_and_serre_dual():
    # the edges once recursed about n frames deep: RecursionError here
    n = 500
    X = Hypersurface(n, 5)
    low, high = diamond(X, -7), diamond(X, 7)
    for i in range(n + 1):
        for j in range(n + 1):
            assert low.entries[i][j] >= 0
            assert low.entries[i][j] == high.entries[n - i][n - j]
    assert low.nonzero_entries()


def test_euler_characteristic_in_dimension_1500():
    # chi once recursed about i frames deep: RecursionError here
    X = Hypersurface(1500, 3)
    chi = euler_characteristic(X, 750, 4)
    assert chi == euler_characteristic(X, 750, -4)  # Serre duality, n even
    row = diamond(X, 4).entries[750]
    assert chi == sum((-1) ** j * h for j, h in enumerate(row))
