"""The sparse elimination core against dense oracles, and the fields it runs on."""

import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    PRIME,
    bar_hh_dimensions,
    dense_nullspace,
    dense_rank,
    dense_solve,
    identities_are_basis_vectors,
    rank_mod_p,
)
from thd.ainfty import QQ, PrimeField, build_example, example_names, field_by_name, hh_dimensions
from thd.ainfty.fields import is_prime
from thd.ainfty.linalg import Echelon, axpy, exact_rank, nullspace, solve
from thd.errors import PreconditionViolation

FIELDS = (QQ, PrimeField(PRIME), PrimeField(7))


def _sparse(rng, nrows, ncols, density):
    return [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]


def known_rank_matrix(rng, nrows, ncols, rank, density=0.3):
    """An integer matrix ``L U`` of rank exactly ``rank`` over every field.

    ``L`` (nrows x rank) holds an identity on ``rank`` of its rows and ``U``
    (rank x ncols) one on ``rank`` of its columns, so ``L`` is injective and
    ``U`` surjective whatever the characteristic.
    """
    L = _sparse(rng, nrows, rank, density)
    U = _sparse(rng, rank, ncols, density)
    for t, r in enumerate(rng.sample(range(nrows), rank)):
        L[r] = [int(t == s) for s in range(rank)]
    for t, c in enumerate(rng.sample(range(ncols), rank)):
        for s in range(rank):
            U[s][c] = int(t == s)
    return [[sum(L[i][s] * U[s][j] for s in range(rank)) for j in range(ncols)]
            for i in range(nrows)]


def cases(seeds=range(60)):
    """Seeded (field, integer matrix, known rank or None) triples."""
    for seed in seeds:
        rng = random.Random(seed)
        field = FIELDS[seed % len(FIELDS)]
        nrows, ncols = rng.randint(0, 12), rng.randint(0, 12)
        if seed % 2:
            rank = rng.randint(0, min(nrows, ncols))
            yield field, known_rank_matrix(rng, nrows, ncols, rank), rank
        else:
            yield field, _sparse(rng, nrows, ncols, rng.choice((0.1, 0.3, 0.6))), None


def as_field(field, ints):
    return [[field.of(v) for v in row] for row in ints]


def columns_of(rows, ncols):
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def dense_vec(vec, n, field):
    return [vec.get(j, field.zero) for j in range(n)]


@pytest.mark.parametrize("field,ints,known", list(cases()))
def test_rank_matches_dense_and_modular_oracles(field, ints, known):
    ncols = len(ints[0]) if ints else 0
    rows = as_field(field, ints)
    rank = exact_rank(columns_of(rows, ncols), field)
    assert rank == dense_rank(rows, field)
    if known is not None:
        assert rank == known
    if ints and ncols:
        modular = rank_mod_p(np.array(ints, dtype=np.int64))
        if field == PrimeField(PRIME) or known is not None:
            assert modular == rank
        elif field == QQ:
            assert modular <= rank  # reducing mod p can only lose rank


@pytest.mark.parametrize("field,ints,known", list(cases()))
def test_nullspace_matches_dense_oracle_vector_for_vector(field, ints, known):
    ncols = len(ints[0]) if ints else 0
    rows = as_field(field, ints)
    basis = nullspace(columns_of(rows, ncols), field)
    assert [dense_vec(v, ncols, field) for v in basis] == dense_nullspace(rows, ncols, field)
    assert all(list(v) == sorted(v) and all(v.values()) for v in basis)
    if known is not None:
        assert len(basis) == ncols - known


@pytest.mark.parametrize("field,ints,known", list(cases()))
def test_solve_matches_dense_oracle(field, ints, known):
    ncols = len(ints[0]) if ints else 0
    rows = as_field(field, ints)
    rng = random.Random(len(ints) * 31 + ncols)
    x0 = [field.of(rng.randint(-2, 2)) for _ in range(ncols)]
    image = [field.of(sum(r[j] * x0[j] for j in range(ncols))) for r in rows]
    other = [field.of(rng.randint(-2, 2)) for _ in rows]
    columns = columns_of(rows, ncols)
    for rhs in (image, other):
        got = solve(columns, {i: c for i, c in enumerate(rhs) if c}, field)
        want = dense_solve(rows, rhs, ncols, field)
        assert (got is None) == (want is None)
        if got is not None:
            assert dense_vec(got, ncols, field) == want
    assert solve(columns, {i: c for i, c in enumerate(image) if c}, field) is not None


@pytest.mark.parametrize("field", FIELDS)
def test_solve_reports_no_solution(field):
    rng = random.Random(5)
    ints = known_rank_matrix(rng, 6, 5, 3)
    ints[2] = [0] * 5  # row 2 of A x can never reach a nonzero value
    rows = as_field(field, ints)
    rhs = {2: field.one}
    assert solve(columns_of(rows, 5), rhs, field) is None
    assert dense_solve(rows, [rhs.get(i, field.zero) for i in range(6)], 5, field) is None


def test_echelon_on_empty_and_zero_matrices():
    assert exact_rank([], QQ) == 0
    assert exact_rank([{}, {}], QQ) == 0
    assert nullspace([{}, {}], QQ) == [{0: QQ.one}, {1: QQ.one}]
    assert solve([], {}, QQ) == {} and solve([], {0: QQ.one}, QQ) is None
    # explicit zeros in the input are ignored
    assert exact_rank([{0: QQ.zero, 3: Fraction(2)}], QQ) == 1


# ------------------------------------------------- raw values, wider fields
WIDE_FIELDS = (QQ, PrimeField(2), PrimeField(2 ** 61 - 1), PrimeField(PRIME), PrimeField(7))


def wide_cases(seeds=range(200, 260)):
    """Seeded (field, rows, ncols): integer matrices over every field in
    ``WIDE_FIELDS``, and over Q also rational ones whose pivots are not one."""
    for seed in seeds:
        rng = random.Random(seed)
        field = WIDE_FIELDS[seed % len(WIDE_FIELDS)]
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        if field == QQ and seed % 3:
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.5
                     else QQ.zero for _ in range(ncols)] for _ in range(nrows)]
            if ncols > 2:  # a column that depends on earlier ones, with rational weights
                a, b = Fraction(rng.randint(1, 7), 3), Fraction(-5, rng.randint(2, 4))
                for row in rows:
                    row[ncols - 1] = a * row[0] + b * row[1]
        else:
            ints = known_rank_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
            rows = as_field(field, ints)
        yield field, rows, ncols


def in_field(field, value):
    """Whether ``value`` has the field's own type: a Fraction over Q, an int in [0, p) over F_p."""
    return type(value) is Fraction if field == QQ else type(value) is int and 0 <= value < field.p


def assert_raw(field, echelon):
    """Raw values are ints in [0, p) over F_p; over Q a Fraction only when not integral."""
    for vec, inv, combo in echelon.pivots.values():
        for value in [*vec.values(), inv, *(combo or {}).values()]:
            if field == QQ:
                assert type(value) is int or (type(value) is Fraction and value.denominator > 1)
            else:
                assert type(value) is int and 0 < value < field.p


@pytest.mark.parametrize("field,rows,ncols", list(wide_cases()))
def test_raw_elimination_matches_dense_oracles_on_wider_fields(field, rows, ncols):
    columns = columns_of(rows, ncols)
    before = [dict(col) for col in columns]
    rng = random.Random(ncols * 131 + len(rows))
    x0 = [field.of(rng.randint(-2, 2)) for _ in range(ncols)]
    image = {i: v for i, v in enumerate(field.of(sum(r[j] * x0[j] for j in range(ncols)))
                                        for r in rows) if v}
    other = {i: field.of(rng.randint(-2, 2)) for i in range(len(rows))}
    rhs_before = (dict(image), dict(other))

    echelon = Echelon(columns, field)
    assert_raw(field, echelon)
    rank = exact_rank(columns, field)
    assert rank == len(echelon.pivots) == dense_rank(rows, field)
    # the column space meets the rows of the leads in full rank, so the pivots and the unit
    # vectors off their leads form a basis
    leads = echelon.lead_rows()
    assert len(leads) == rank and dense_rank([rows[i] for i in sorted(leads)], field) == rank
    basis = nullspace(columns, field)
    assert [dense_vec(v, ncols, field) for v in basis] == dense_nullspace(rows, ncols, field)
    assert len(basis) == ncols - rank
    for rhs in (image, other):
        got = solve(columns, rhs, field)
        want = dense_solve(rows, [rhs.get(i, field.zero) for i in range(len(rows))], ncols, field)
        assert (got is None) == (want is None)
        if got is not None:
            assert dense_vec(got, ncols, field) == want
            basis.append(got)
    assert solve(columns, image, field) is not None
    # values leave in the field's type, and the caller's columns and rhs are untouched
    assert all(in_field(field, c) for vec in basis for c in vec.values())
    assert columns == before and (image, other) == rhs_before


def test_rational_pivots_mix_ints_and_fractions():
    cols = [{0: QQ.of(2), 1: QQ.of(3)}, {0: QQ.of(4), 1: QQ.of(1)}, {0: QQ.of("1/2"), 1: QQ.of(5)}]
    echelon = Echelon(cols, QQ)
    assert_raw(QQ, echelon)
    raw = [v for vec, inv, combo in echelon.pivots.values()
           for v in (*vec.values(), inv, *combo.values())]
    assert {type(v) for v in raw} == {int, Fraction}
    # a pivot is stored as it came, with the inverse of its leading entry
    assert [(vec[lead], inv) for lead, (vec, inv, _) in sorted(echelon.pivots.items())] == [
        (3, Fraction(1, 3)), (Fraction(10, 3), Fraction(3, 10))]
    (kernel,) = nullspace(cols, QQ)
    assert kernel == {0: Fraction(-39, 20), 1: Fraction(17, 20), 2: QQ.one}
    assert all(type(c) is Fraction for c in kernel.values())
    # a Fraction whose denominator becomes one is an int again: 3 * 1/3 = 1, 1/2 + 1/2 = 1
    for target, vec, scale in (({}, {1: 3}, Fraction(1, 3)), ({1: Fraction(1, 2)}, {1: 1}, Fraction(1, 2))):
        (value,) = axpy(target, vec, scale, 0).values()
        assert value == 1 and type(value) is int


def test_rank_builds_no_combinations_and_reads_plain_ints():
    F = PrimeField(7)
    cols = [{0: F.of(3), 2: F.one}, {0: F.of(6), 2: F.of(2)}, {1: F.of(5)}]
    assert all(combo is None for _, _, combo in Echelon(cols, F, combos=False).pivots.values())
    assert exact_rank(cols, F) == len(Echelon(cols, F).pivots) == 2
    # ints are read as field elements: 7 is zero in F_7, 1/2 is 4
    assert exact_rank([{0: 7, 1: 0}], F) == 0
    assert solve([{0: 2}], {0: 1}, F) == {0: F.of(4)}
    assert solve([{0: 2}], {0: 1}, QQ) == {0: Fraction(1, 2)}


RAW_FIELDS = (PrimeField(7), PrimeField(32003), QQ)


def raw_cases(seeds=range(400, 436)):
    """Seeded (field, raw columns, the same columns as field elements, nrows).

    A raw value is an int that may be negative or at least p, and over Q
    also an integral or a proper ``Fraction``; some entries are explicit
    zeros (``0``, or a multiple of p).
    """
    for seed in seeds:
        rng = random.Random(seed)
        field = RAW_FIELDS[seed % len(RAW_FIELDS)]
        p = field.p
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        ints = known_rank_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        raw_cols = [{} for _ in range(ncols)]
        for i, row in enumerate(ints):
            for j, c in enumerate(row):
                if c and p:
                    raw_cols[j][i] = c + p * rng.randint(-2, 2)
                elif c:
                    k = rng.randint(1, 4)
                    raw_cols[j][i] = rng.choice((c, Fraction(c * k, k), Fraction(c, k + 1)))
                elif rng.random() < 0.2:
                    raw_cols[j][i] = p * rng.randint(-2, 2)
        yield field, raw_cols, [{i: field.of(c) for i, c in col.items() if field.of(c)}
                                for col in raw_cols], nrows


@pytest.mark.parametrize("field,raw_cols,field_cols,nrows", list(raw_cases()))
def test_raw_columns_reduce_as_their_field_elements_do(field, raw_cols, field_cols, nrows):
    ncols = len(raw_cols)
    before = [dict(col) for col in raw_cols]
    rows = [[col.get(i, field.zero) for col in field_cols] for i in range(nrows)]
    assert exact_rank(raw_cols, field) == exact_rank(field_cols, field) == dense_rank(rows, field)
    basis = nullspace(raw_cols, field)
    assert basis == nullspace(field_cols, field)
    assert [dense_vec(v, ncols, field) for v in basis] == dense_nullspace(rows, ncols, field)
    rng = random.Random(nrows * 17 + ncols)
    raw_rhs = {i: rng.randint(-40, 40) for i in range(nrows)}
    image = {}
    for col in raw_cols:  # a rhs in the column span, as raw values
        scale = rng.randint(-3, 3)
        for i, c in col.items():
            image[i] = image.get(i, 0) + scale * c
    for rhs in (raw_rhs, image):
        got = solve(raw_cols, rhs, field)
        assert got == solve(field_cols, {i: field.of(c) for i, c in rhs.items()}, field)
        want = dense_solve(rows, [field.of(rhs.get(i, 0)) for i in range(nrows)], ncols, field)
        assert (got is None) == (want is None)
        if got is not None:
            assert dense_vec(got, ncols, field) == want
            basis.append(got)
    assert solve(raw_cols, image, field) is not None
    assert all(in_field(field, c) for vec in basis for c in vec.values())
    assert raw_cols == before


# ---------------------------------------------------------------- row order
def assert_row_order_free(field, columns, rhs_list, nrows, ncols, seed):
    """Rank, nullspace and solve on the rows in a seeded random order equal
    those on the rows as given, value for value and type for type, and the
    dense oracles."""
    perm = list(range(nrows))  # row i moves to perm[i]
    random.Random(seed).shuffle(perm)
    moved = [{perm[i]: c for i, c in col.items()} for col in columns]
    moved_rhs = [{perm[i]: c for i, c in rhs.items()} for rhs in rhs_list]
    moved_rows = [None] * nrows
    for i in range(nrows):
        moved_rows[perm[i]] = [field.of(col.get(i, 0)) for col in columns]
    assert exact_rank(moved, field) == exact_rank(columns, field) == dense_rank(moved_rows, field)
    basis, moved_basis = nullspace(columns, field), nullspace(moved, field)
    assert moved_basis == basis
    assert [[type(c) for c in v.values()] for v in moved_basis] == \
        [[type(c) for c in v.values()] for v in basis]
    assert [dense_vec(v, ncols, field) for v in moved_basis] == \
        dense_nullspace(moved_rows, ncols, field)
    for rhs, moved_b in zip(rhs_list, moved_rhs):
        x = solve(moved, moved_b, field)
        assert x == solve(columns, rhs, field)
        want = dense_solve(moved_rows, [field.of(moved_b.get(i, 0)) for i in range(nrows)],
                           ncols, field)
        assert (x is None) == (want is None)
        if x is not None:
            assert dense_vec(x, ncols, field) == want
            assert all(in_field(field, c) for c in x.values())


@pytest.mark.parametrize("field,rows,ncols", list(wide_cases()))
def test_row_order_does_not_change_any_output_on_wide_cases(field, rows, ncols):
    rng = random.Random(ncols * 7 + len(rows))
    x0 = [field.of(rng.randint(-2, 2)) for _ in range(ncols)]
    image = {i: v for i, r in enumerate(rows)
             if (v := field.of(sum(r[j] * x0[j] for j in range(ncols))))}
    other = {i: field.of(rng.randint(-2, 2)) for i in range(len(rows))}
    assert_row_order_free(field, columns_of(rows, ncols), [image, other], len(rows), ncols,
                          seed=len(rows) * 13 + ncols)


@pytest.mark.parametrize("field,raw_cols,field_cols,nrows", list(raw_cases()))
def test_row_order_does_not_change_any_output_on_raw_columns(field, raw_cols, field_cols, nrows):
    rng = random.Random(nrows * 5 + len(raw_cols))
    image = {}
    for col in raw_cols:
        scale = rng.randint(-3, 3)
        for i, c in col.items():
            image[i] = image.get(i, 0) + scale * c
    other = {i: rng.randint(-40, 40) for i in range(nrows)}
    for columns in (raw_cols, field_cols):
        assert_row_order_free(field, columns, [image, other], nrows, len(raw_cols),
                              seed=nrows * 11 + len(raw_cols))


# ------------------------------------------------------------------- fields
def test_field_of_reads_ints_fractions_and_strings_into_the_field_type():
    F = PrimeField(7)
    assert [F.of(v) for v in (3, -1, 7, Fraction(1, 3), "4/2", "-1/3", Fraction(14, 7))] == [
        3, 6, 0, 5, 2, 2, 2]
    assert all(type(F.of(v)) is int for v in (3, Fraction(1, 3), "2/3"))
    assert (F.zero, F.one, F.p, QQ.p) == (0, 1, 7, 0)
    assert [QQ.of(v) for v in (3, Fraction(1, 3), "-4/6")] == [3, Fraction(1, 3), Fraction(-2, 3)]
    assert all(type(QQ.of(v)) is Fraction for v in (3, Fraction(1, 3), "2/3"))
    for field, value in ((QQ, "1/0"), (F, "1/0"), (F, "1/7"), (F, Fraction(3, 14))):
        with pytest.raises(ValueError, match="denominator"):
            field.of(value)
    for field in (QQ, F):
        with pytest.raises(TypeError):
            field.of(0.5)


def test_is_prime_against_trial_division():
    def trial(n):
        return n > 1 and all(n % k for k in range(2, int(n ** 0.5) + 1))
    assert all(is_prime(n) == trial(n) for n in range(-3, 20_000))
    # strong pseudoprimes to the first few prime bases, and Carmichael numbers
    for n in (561, 2047, 1_373_653, 25_326_001, 3_215_031_751, 3_825_123_056_546_413_051,
              318_665_857_834_031_151_167_461):
        assert not is_prime(n)
    assert is_prime(32003) and is_prime(PRIME) and is_prime(2 ** 61 - 1)
    assert not is_prime((2 ** 31 - 1) * (2 ** 61 - 1))


@pytest.mark.parametrize("p", [0, 1, 4, 9, 561, 32001])
def test_prime_field_rejects_composite_moduli(p):
    with pytest.raises(PreconditionViolation, match="not prime"):
        PrimeField(p)


def test_field_by_name_rejects_composite_modulus():
    assert field_by_name("F 5") == PrimeField(5)
    with pytest.raises(PreconditionViolation):
        field_by_name("F 4")


# ---------------------------------------------------------------- cross-field
@pytest.mark.parametrize("name", [n for n in example_names()
                                  if build_example(n)["kind"] == "category"])
def test_hh_dimensions_agree_over_q_and_a_large_prime(name):
    q = build_example(name, QQ)
    f = build_example(name, PrimeField(1_000_003))
    assert identities_are_basis_vectors(q["category"]) == identities_are_basis_vectors(f["category"])
    for hh in (hh_dimensions, bar_hh_dimensions):
        want = hh(q["category"], q["bimodule"], 4)
        got = hh(f["category"], f["bimodule"], 4)
        assert got == want


def test_identity_solve_on_an_idempotent_basis():
    from thd.ainfty import parse_category

    text = ("objects a\nhom a a 2\n"
            "compose a a a 0 0 0 1\ncompose a a a 1 1 1 1\n")  # k x k, basis e1, e2
    cat = parse_category(text)
    assert cat.identity_vector("a") == {0: QQ.one, 1: QQ.one}
    with pytest.raises(PreconditionViolation, match="no identity"):
        parse_category("objects a\nhom a a 2\ncompose a a a 0 0 0 1\n")
