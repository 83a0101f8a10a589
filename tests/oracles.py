"""Independent brute-force oracles used to validate the closed forms.

The projective-space oracle computes ``h^{i,j}_p(P^m)`` from the exact
contraction complex ``... -> Lambda^l V (x) O(p-l) -> ... -> O(p) -> 0``
whose syzygy sheaves are the twisted differential forms: kernels of the
explicit contraction matrices give the ``j = 0`` values, Serre duality the
``j = m`` values, and dimension shifting along the short exact pieces
reduces every intermediate ``j`` to an explicit rank computation.  The only
inputs are monomial bases and integer matrices, so the route shares nothing
with the product formula it checks.

Ranks are taken modulo a large prime with numpy for speed; a modular rank
can only ever drop below the rational rank, which would surface as a test
failure, never as a silent pass.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, product
from math import comb, factorial

import numpy as np

from thd import (
    Hypersurface,
    PreconditionViolation,
    hodge_number,
    projective_space_hodge,
    pullback_cohomology_dim,
    structure_sheaf_h0,
)
from thd.ainfty import Budget, CentralBimodule, Cochain, FiniteLinearCategory, StasheffReport
from thd.ainfty.category import _split_idempotents, basis_vec, vclean
from thd.ainfty.cochain import (
    _differential_columns,
    cochain_basis,
    differential_tables,
    identity_basis_change,
)
from thd.ainfty.linalg import exact_rank, multilinear, vadd
from thd.ainfty.structure import _check_unitality
from thd.combinatorics import binom

PRIME = 1_000_003


def rank_mod_p(matrix: np.ndarray, p: int = PRIME) -> int:
    m = matrix.astype(np.int64) % p
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        inv = pow(int(m[rank, col]), -1, p)
        m[rank] = (m[rank] * inv) % p
        below = m[rank + 1 :, col] % p
        nz = np.nonzero(below)[0]
        if nz.size:
            m[rank + 1 + nz] = (m[rank + 1 + nz] - np.outer(below[nz], m[rank])) % p
        rank += 1
        if rank == rows:
            break
    return rank


@lru_cache(maxsize=None)
def _monomials(nvars: int, deg: int):
    if deg < 0:
        return ()
    if nvars == 1:
        return ((deg,),)
    out = []
    for first in range(deg + 1):
        for rest in _monomials(nvars - 1, deg - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _syzygy_h0(m: int, l: int, p: int) -> int:
    """dim H^0 of the l-th syzygy sheaf of the contraction complex, twist p.

    For l = 0 this is dim S_p; for l >= 1 it is the kernel of the
    contraction Lambda^l V (x) S_{p-l} -> Lambda^{l-1} V (x) S_{p-l+1}.
    """
    nv = m + 1
    if l == 0:
        return len(_monomials(nv, p))
    if l > nv:
        return 0
    src_mon = _monomials(nv, p - l)
    if not src_mon:
        return 0
    tgt_mon = _monomials(nv, p - l + 1)
    src_sets = list(combinations(range(nv), l))
    tgt_sets = list(combinations(range(nv), l - 1))
    tgt_index = {
        (T, mon): k
        for k, (T, mon) in enumerate((T, mon) for T in tgt_sets for mon in tgt_mon)
    }
    src = [(T, mon) for T in src_sets for mon in src_mon]
    matrix = np.zeros((len(tgt_index), len(src)), dtype=np.int64)
    for col, (T, mon) in enumerate(src):
        for pos, var in enumerate(T):
            rest = T[:pos] + T[pos + 1 :]
            bumped = list(mon)
            bumped[var] += 1
            row = tgt_index[(rest, tuple(bumped))]
            matrix[row, col] += (-1) ** pos
    return len(src) - rank_mod_p(matrix)


def brute_projective_hodge(m: int, p: int, i: int, j: int) -> int:
    """``h^{i,j}_p(P^m)`` by explicit contraction-complex linear algebra."""
    if i < 0 or i > m or j < 0 or j > m:
        return 0
    if j == 0:
        return _syzygy_h0(m, i, p)
    if j == m:
        return brute_projective_hodge(m, -p, m - i, 0)
    # dimension shifting: H^j(Z_i) = H^1(Z_{i-j+1}); hits zero if the
    # descent reaches the structure sheaf first.
    l = i - j + 1
    if l <= 0:
        return 0
    nv = m + 1
    free_dim = comb(nv, l) * len(_monomials(nv, p - l))
    return _syzygy_h0(m, l - 1, p) + _syzygy_h0(m, l, p) - free_dim


# Dense Gaussian elimination over any field: the routines the library used
# before its sparse elimination core, kept as oracles for it.  Matrices are
# lists of row lists of field elements.


def dense_rank(rows):
    """Rank by row reduction; the input is not modified."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                factor = m[r][col] / pv
                row = m[r]
                prow = m[rank]
                for c in range(col, ncols):
                    row[c] = row[c] - factor * prow[c]
        rank += 1
        if rank == len(m):
            break
    return rank


def dense_nullspace(rows, ncols, field):
    """Basis of the kernel from the reduced row echelon form, one vector per
    free column in increasing order."""
    m = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] / pv
                for c in range(col, ncols):
                    m[r][c] = m[r][c] - factor * m[rank][c]
        pivots.append(col)
        rank += 1
        if rank == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            if m[r][fc]:
                vec[pc] = -(m[r][fc] / m[r][pc])
        basis.append(vec)
    return basis


def dense_solve(rows, rhs, ncols, field):
    """One solution of ``rows * x = rhs`` with the free variables zero, or None."""
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(aug)) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        pv = aug[rank][col]
        for r in range(len(aug)):
            if r != rank and aug[r][col]:
                factor = aug[r][col] / pv
                for c in range(col, ncols + 1):
                    aug[r][c] = aug[r][c] - factor * aug[rank][c]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(aug)):
        if aug[r][ncols]:
            return None
    sol = [field.zero] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols] / aug[r][col]
    return sol


# The exhaustive Stasheff check: the verifier the library used before it
# joined the sparse product tables, kept as the oracle for it.  It
# evaluates the identity at every composable chain and every basis tuple,
# in the order chains (by the positions of their objects), then arguments,
# and stops at the first tuple with a nonzero residual.


def _composable_chains(A, length):
    def rec(chain):
        if len(chain) == length + 1:
            yield tuple(chain)
            return
        for b in A.objects:
            if A.dim(chain[-1], b):
                chain.append(b)
                yield from rec(chain)
                chain.pop()

    for a in A.objects:
        if length == 0:
            yield (a,)
        else:
            yield from rec([a])


def exhaustive_stasheff(A, k_max, budget=None):
    """``verify_stasheff`` by evaluating every basis tuple; ``evaluations``
    counts tuples."""
    budget = budget or Budget()
    support = A.support()
    evaluations = 0
    ks_evaluated = []
    for k in range(1, k_max + 1):
        relevant = [
            (r, s) for s in support for r in range(0, k - s + 1) if (r + 1 + (k - r - s)) in support
        ]
        if not relevant:
            continue
        ks_evaluated.append(k)
        for chain in _composable_chains(A, k):
            dims = [A.dim(chain[l], chain[l + 1]) for l in range(k)]
            for args in product(*[range(dd) for dd in dims]):
                budget.charge()
                evaluations += 1
                total = {}
                for s in support:
                    for r in range(0, k - s + 1):
                        t = k - r - s
                        u = r + 1 + t
                        if u not in support:
                            continue
                        inner = A.apply(s, chain[r : r + s + 1], args[r : r + s])
                        if not inner:
                            continue
                        koszul = (2 - s) * sum(
                            A.deg(chain[l], chain[l + 1], args[l]) for l in range(r)
                        )
                        sign_pos = (r + s * t + koszul) % 2 == 0
                        scale = A.field.one if sign_pos else -A.field.one
                        outer_chain = chain[: r + 1] + chain[r + s :]
                        for y, cy in inner.items():
                            outer_args = args[:r] + (y,) + args[r + s :]
                            out = A.apply(u, outer_chain, outer_args)
                            if out:
                                vadd(total, out, scale * cy)
                residual = {i: c for i, c in total.items() if c}
                if residual:
                    return StasheffReport(
                        False, k_max, evaluations, tuple(ks_evaluated),
                        first_failure=(k, chain, args), residual=residual,
                    )
    ok, msg = _check_unitality(A, budget)
    return StasheffReport(True, k_max, evaluations, tuple(ks_evaluated), unital=ok, unital_failure=msg)


# The Hochschild differential as the library assembled it before it emitted
# each basis key's terms straight from the structure tensors: the whole
# sparse differential of a cochain, built component by component, and the
# matrix of d built by running it on one one-term cochain per basis key and
# looking every output up under its (chain, args, m) key.


def per_key_hochschild_differential(f, budget=None):
    """``df`` charging one unit per nonzero output vector of each term."""
    cat, mod, n = f.cat, f.mod, f.degree
    budget = budget or Budget()
    out = {}

    def add(chain, args, vec, scale):
        if not vec:
            return
        budget.charge()
        vadd(out.setdefault((chain, args), {}), vec, scale)

    one = cat.field.one
    minus = -one
    if n == 0:
        for (chain0, _), vec in f.data.items():
            (b,) = chain0
            for a in cat.objects:
                for x in range(cat.dim(a, b)):
                    add((a, b), (x,),
                        multilinear(partial(mod.lact, a, b, b), [basis_vec(x, cat.field), vec]), one)
            for c in cat.objects:
                for x in range(cat.dim(b, c)):
                    add((b, c), (x,),
                        multilinear(partial(mod.ract, b, b, c), [vec, basis_vec(x, cat.field)]), minus)
        return Cochain(cat, mod, 1, out)

    # for each (a, c) and hom basis element k, the pairs u: a->b, v: b->c whose product hits it
    splits = {}
    for (a, b, c), pairs in cat.compose.items():
        for (u, v), vec in pairs.items():
            for k, coeff in vec.items():
                if coeff:
                    splits.setdefault((a, c), {}).setdefault(k, []).append((b, u, v, coeff))
    for (chain, args), vec in f.data.items():
        x0, xn = chain[0], chain[-1]
        for a in cat.objects:
            for x in range(cat.dim(a, x0)):
                add((a,) + chain, (x,) + args,
                    multilinear(partial(mod.lact, a, x0, xn), [basis_vec(x, cat.field), vec]), one)
        for i in range(n):
            a, c = chain[i], chain[i + 1]
            for (b, u, v, coeff) in splits.get((a, c), {}).get(args[i], ()):
                new_chain = chain[: i + 1] + (b,) + chain[i + 1 :]
                new_args = args[:i] + (u, v) + args[i + 1 :]
                sign = one if (i + 1) % 2 == 0 else minus
                add(new_chain, new_args, vec, sign * coeff)
        s_sign = one if (n + 1) % 2 == 0 else minus
        for c in cat.objects:
            for x in range(cat.dim(xn, c)):
                add(chain + (c,), args + (x,),
                    multilinear(partial(mod.ract, x0, xn, c), [vec, basis_vec(x, cat.field)]), s_sign)
    return Cochain(cat, mod, n + 1, out)


def differential_terms(tables, chain, args, m, budget):
    """The terms of ``d`` on the basis cochain with value ``e_m`` at ``(chain, args)``, key by key.

    Yields ``(chain', args', m', c)`` with ``c`` raw, read from the library's
    tables (``_tables``): prefix terms ``x . e_m`` from the left action, merge
    terms ``(-1)^{i+1} coeff e_m`` from the splits, suffix terms
    ``(-1)^{n+1} e_m . x`` from the right action.  A key can occur more than
    once; its terms are to be summed.  Charges ``budget`` once, one unit per
    nonzero term (an action entry or a split), counted as the tables count.
    The library's per-block walk must charge and emit the same.
    """
    left, splits, right = tables
    n = len(args)
    prefix, suffix = left.get((chain[0], chain[-1], m), ()), right.get((chain[0], chain[-1], m), ())
    merges = [splits.get((chain[i], chain[i + 1], args[i]), (0, ())) for i in range(n)]
    budget.charge(len(prefix) + len(suffix) + sum(count for count, _ in merges))
    for a, x, vec in prefix:
        dchain, dargs = (a,) + chain, (x,) + args
        for mm, c in vec:
            yield dchain, dargs, mm, c
    for i, (_, pairs) in enumerate(merges):
        for b, u, v, coeff in pairs:
            yield (chain[: i + 1] + (b,) + chain[i + 1 :], args[:i] + (u, v) + args[i + 1 :],
                   m, coeff if i % 2 else -coeff)
    negate = n % 2 == 0
    for c, x, vec in suffix:
        dchain, dargs = chain + (c,), args + (x,)
        for mm, t in vec:
            yield dchain, dargs, mm, -t if negate else t


def per_key_differential_columns(cat, mod, source, target, normalized, budget):
    """Sparse columns of ``d`` with one ``per_key_hochschild_differential`` per key."""
    index = {key: pos for pos, key in enumerate(target)}
    columns = []
    for chain, args, m in source:
        f = Cochain(cat, mod, len(args), {(chain, args): {m: cat.field.one}})
        col = {}
        for (dchain, dargs), vec in per_key_hochschild_differential(f, budget).data.items():
            for mm, c in vec.items():
                pos = index.get((dchain, dargs, mm))
                if pos is None:
                    if normalized:
                        raise PreconditionViolation("differential left the normalized subcomplex")
                    continue
                col[pos] = c
        columns.append(col)
    return columns


# The full bar model, which the library enumerated when an identity was not a
# basis vector, kept as the reference for its normalized model.


def identities_are_basis_vectors(cat):
    return all(cat.id_basis_index(a) is not None for a in cat.objects if cat.dim(a, a))


def is_normalized(f):
    """True when every evaluation of the cochain ``f`` with an identity inserted vanishes."""
    cat = f.cat
    for chain, args in f.data:
        for slot in range(f.degree):
            # inserting Id at a slot only type-checks on a repeated object
            if chain[slot] != chain[slot + 1]:
                continue
            vecs = [basis_vec(i, cat.field) for i in args]
            vecs[slot] = cat.identity_vector(chain[slot])
            if vclean(f.evaluate(chain, vecs)):
                return False
    return True


def bar_cochain_basis(cat, mod, degree, budget=None):
    """Keys ``(chain, args, target)`` of the full bar cochain space, every basis arrow in every slot.

    In the order of ``cochain_basis``, one budget unit per key.
    """
    budget = budget or Budget()
    keys = []
    for chain in product(cat.objects, repeat=degree + 1):
        homs = list(zip(chain, chain[1:]))
        if not all(cat.dim(a, b) for a, b in homs):
            continue
        for args in product(*(range(cat.dim(a, b)) for a, b in homs)):
            for m in range(mod.dim(chain[0], chain[-1])):
                budget.charge()
                keys.append((chain, args, m))
    return keys


def random_bar_cochain(cat, mod, degree, rng):
    """A random cochain on the bar keys, coefficients in -3..3."""
    data = {}
    for chain, args, m in bar_cochain_basis(cat, mod, degree):
        c = rng.randint(-3, 3)
        if c:
            data.setdefault((chain, args), {})[m] = cat.field.of(c)
    return Cochain(cat, mod, degree, data)


def bar_hh_dimensions(cat, mod, up_to):
    """``dim HH^k`` for ``k <= up_to`` by rank-nullity on the full bar complex."""
    bases = [bar_cochain_basis(cat, mod, k) for k in range(up_to + 2)]
    tables = differential_tables(cat, mod)
    ranks = [exact_rank(_differential_columns(cat, mod, bases[k], bases[k + 1], Budget(), tables),
                        cat.field)
             for k in range(up_to + 1)]
    return [len(bases[k]) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(up_to + 1)]


def full_rank_hh_dimensions(cat, mod, up_to):
    """``dim HH^k`` for ``k <= up_to`` in the normalized model of ``hh_dimensions``, split and
    with identities swapped in as it does, but with ``exact_rank`` of every column of every d_k."""
    cat, mod = _split_idempotents(cat, mod) or (cat, mod)
    cat, mod, _, _ = identity_basis_change(cat, mod)
    bases = [cochain_basis(cat, mod, k) for k in range(up_to + 2)]
    ranks = [exact_rank(_differential_columns(cat, mod, bases[k], bases[k + 1], Budget()), cat.field)
             for k in range(up_to + 1)]
    return [len(bases[k]) - ranks[k] - (ranks[k - 1] if k else 0) for k in range(up_to + 1)]


# The Euler characteristic of HH(A, M) from the Cartan matrix alone: for a
# category whose every End is one-dimensional and whose Cartan matrix
# C_ab = dim hom(a, b) is invertible, sum_k (-1)^k dim HH^k(A, M) =
# sum_{a,b} (C^-1)_ab dim M(a, b) (Happel, LNM 1404, 1989).  It reads only
# dimensions of hom spaces, no product.  The alternating sum of rank-nullity
# dimensions telescopes to that of the cochain spaces, so it checks the
# cochain counts and that the complex has ended, not the individual ranks.


def _inverse(matrix):
    """The inverse of a square matrix of integers, over Q by Gauss-Jordan."""
    n = len(matrix)
    rows = [[Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [c / rows[col][col] for c in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [c - rows[r][col] * t for c, t in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def cartan_euler_characteristic(cat, mod):
    """``sum_k (-1)^k dim HH^k(cat, mod)`` as ``sum_{a,b} (C^-1)_ab dim mod(a, b)``."""
    objects = cat.objects
    assert all(cat.dim(a, a) == 1 for a in objects), "an End is not one-dimensional"
    inverse = _inverse([[cat.dim(a, b) for b in objects] for a in objects])
    chi = sum(inverse[i][j] * mod.dim(a, b)
              for i, a in enumerate(objects) for j, b in enumerate(objects))
    assert chi.denominator == 1
    return int(chi)


def path_category(n, field):
    """The path category of the linearly oriented quiver A_n: objects 0..n-1, hom(i, j) = k for i <= j."""
    one, objects = field.one, range(n)
    compose = {(a, b, c): {(0, 0): {0: one}}
               for a, b, c in product(objects, repeat=3) if a <= b <= c}
    dims = {(a, b): 1 for a in objects for b in objects if a <= b}
    return FiniteLinearCategory(field, objects, dims, compose, {a: {0: one} for a in objects})


# Beilinson's tilting bundle O + O(1) + .. + O(m) on P^m, kept test-side as a
# directed category with several objects: objects 0..m, hom(i, j) = S^{j-i} V
# with the monomial basis, composition the product of monomials.


def beilinson(m, field):
    """The endomorphism category of Beilinson's bundle on P^m; identities are the monomial 1."""
    one, objects = field.one, range(m + 1)
    basis = {(i, j): _monomials(m + 1, j - i) for i in objects for j in objects if i <= j}
    index = {key: {mono: k for k, mono in enumerate(monos)} for key, monos in basis.items()}
    compose = {}
    for a, b, c in product(objects, repeat=3):
        if a <= b <= c:
            compose[(a, b, c)] = {
                (x, y): {index[(a, c)][tuple(s + t for s, t in zip(u, v))]: one}
                for x, u in enumerate(basis[(a, b)]) for y, v in enumerate(basis[(b, c)])}
    dims = {key: len(monos) for key, monos in basis.items()}
    return FiniteLinearCategory(field, objects, dims, compose, {i: {0: one} for i in objects})


def as_one_algebra(cat):
    """``cat`` as one algebra on the object ``"*"``: the direct sum of its hom spaces.

    The hom spaces are concatenated in the order of ``cat.dims``; a product of
    arrows that do not compose is zero, and the identity is the sum of the
    identities of the objects.
    """
    offset, total = {}, 0
    for key, dim in cat.dims.items():
        offset[key], total = total, total + dim
    table = {(offset[(a, b)] + x, offset[(b, c)] + y): {offset[(a, c)] + k: coeff
                                                        for k, coeff in vec.items()}
             for (a, b, c), pairs in cat.compose.items() for (x, y), vec in pairs.items() if vec}
    unit = {offset[(a, a)] + k: coeff for a, vec in cat.identities.items() for k, coeff in vec.items()}
    o = "*"
    return FiniteLinearCategory(cat.field, [o], {(o, o): total}, {(o, o, o): table}, {o: unit})


def hypersurface_bimodule(cat, d, p):
    """The bimodule ``M(a, b) = (S/F)_{b-a+p}`` over ``beilinson(m, field)``, F the Fermat form of degree d.

    Over ``P^m`` it is ``RHom(T, T (x) f_* O_X(p))`` for the hypersurface ``X = {F = 0}``, as long
    as ``p > d - m - 1``.  Basis: the monomials whose ``x_0``-exponent is below ``d``; both actions
    multiply monomials and reduce ``x_0^d -> -(x_1^d + ... + x_m^d)``.
    """
    field, objects = cat.field, cat.objects
    m = len(objects) - 1
    basis = {(a, b): [u for u in _monomials(m + 1, b - a + p) if u[0] < d] for a in objects for b in objects}
    index = {key: {u: k for k, u in enumerate(us)} for key, us in basis.items()}

    def reduced(u):
        if u[0] < d:
            return Counter({u: 1})
        out = Counter()
        for v in range(1, m + 1):
            w = list(u)
            w[0], w[v] = w[0] - d, w[v] + d
            out.subtract(reduced(tuple(w)))
        return out

    def product_vec(u, v, a, c):
        w = tuple(s + t for s, t in zip(u, v))
        return {index[(a, c)][z]: field.of(k) for z, k in reduced(w).items() if k}

    homs = {key: _monomials(m + 1, key[1] - key[0]) for key in cat.dims}
    left, right = {}, {}
    for a, b, c in product(objects, repeat=3):
        if (a, b) in homs and basis[(b, c)]:
            left[(a, b, c)] = {(x, y): product_vec(u, v, a, c) for x, u in enumerate(homs[(a, b)])
                               for y, v in enumerate(basis[(b, c)])}
        if (b, c) in homs and basis[(a, b)]:
            right[(a, b, c)] = {(y, x): product_vec(v, u, a, c) for y, v in enumerate(basis[(a, b)])
                                for x, u in enumerate(homs[(b, c)])}
    return CentralBimodule(cat, {key: len(us) for key, us in basis.items()}, left, right)


# Second routes on the hypersurface side, kept as oracles for the closed
# forms the library computes.


def case_table_pullback(X, q, i, j):
    """``dim H^j(X, f^* Omega^i_{P^{n+1}}(q))`` by the case table the library used before Bott's table.

    It reads the diamonds of ``X`` itself.  Right for ``n >= 2`` and ``q`` outside ``{0, d}``;
    wrong on curves and at those two twists, where it drops Kronecker deltas.
    """
    n, d = X.n, X.d
    h = partial(hodge_number, X)
    if i < 0 or i > n + 1 or j < 0 or j > n:
        return 0
    if (i, j) == (n, 0):
        return h(q, n, 0) + h(q - d, n - 1, 0) - h(q - d, n - 1, 1)
    if (i, j) == (1, n):
        return h(q, 1, n) + h(q - d, 0, n) - h(q, 1, n - 1)
    if j == 0:
        return h(q, i, 0) + h(q - d, i - 1, 0)
    if j == n:
        return h(q, i, n) + h(q - d, i - 1, n)
    if i == j:
        return 1 if q == 0 else 0
    if i - 1 == j:
        return 1 if q == d else 0
    return 0


def hh_dim_on_X_closed_form(X, p, m):
    """``dim HH^m(X, O_X(p))`` by the support-loci case formula.

    Must agree with ``hh_dim_on_X`` (the anti-diagonal sum) everywhere.
    """
    n, t = X.n, X.t
    tp = t - p
    h = lambda i, j: hodge_number(X, tp, i, j)
    if m == 0:
        return h(0, n)
    if m == 2 * n:
        return h(n, 0)
    if 0 < m < 2 * n:
        total = h(m - n, 0) + h(m, n)
        if m % 2 == 0:
            total += h(m // 2, n - m // 2)
            if p == t and m == n:
                total += n - 2
        else:
            if p == t and m == n:
                total += n - 1
        return total
    return 0


# The full column sums and the power recurrence the library used before it
# summed only the support cells of a column and took the Jacobian-ring series
# by a four-term recurrence.


@lru_cache(maxsize=2)
def _column_sums(cell, n, d, q, rows):
    """Sums of ``cell(X, q, i, j)`` over every ``0 <= i < rows``, ``0 <= j <= n``, keyed by ``i - j``.

    Each column ``i - j = m - n`` is summed over all of its cells, on the
    support or not.
    """
    X = Hypersurface(n, d)
    sums = Counter()
    for i in range(rows):
        for j in range(n + 1):
            sums[i - j] += cell(X, q, i, j)
    return sums


def full_column_hh_on_X(X, p, m):
    """``dim HH^m(X, O_X(p))`` summed over every cell of the column ``j = i - m + n``."""
    n = X.n
    if m < 0 or m > 2 * n:
        return 0
    return _column_sums(hodge_number, n, X.d, X.t - p, n + 1)[m - n]


def full_column_hh_push(X, p, m):
    """``dim HH^m(P^{n+1}, f_* O_X(p))`` summed over every cell of the column ``j = n - m + i``.

    Degenerate twists are not refused, as in the exact-sequence ledger.
    """
    n = X.n
    if m < 0 or m > 2 * n + 1:
        return 0
    return _column_sums(pullback_cohomology_dim, n, X.d, X.t - p, n + 2)[m - n]


def miller_jacobian_series(n, d):
    """Coefficients of ``(1 + z + ... + z^{d-2})^{n+2}`` by Miller's power recurrence.

    ``a_0 = 1`` and ``k a_k = sum_{j=1}^{min(d-2, k)} ((n+3) j - k) a_{k-j}``,
    ``O(d)`` terms per coefficient; ``()`` for ``d = 1``.
    """
    if d == 1:
        return ()
    a = [1]
    for k in range(1, (n + 2) * (d - 2) + 1):
        a.append(sum(((n + 3) * j - k) * a[k - j] for j in range(1, min(d - 2, k) + 1)) // k)
    return tuple(a)


def alt_binom_sum(terms):
    """Evaluate sum of sign * binom(*outer) * binom(*inner) exactly.

    ``terms`` is a finite iterable of ``(sign, (a, b), (c, e))`` triples with
    ``sign`` in {+1, -1}, the shape of the alternating sums behind the
    middle lines of twisted Hodge diamonds.
    """
    total = 0
    for sign, outer, inner in terms:
        value = binom(*inner)
        if value:
            total += sign * binom(*outer) * value
    return total


# The evaluations the library used before the Jacobian-ring series and the
# edge and Euler-characteristic loops, kept as oracles for them.  The edge
# and chi recursions go about ``i`` frames deep.


def middle_alt_sum(n, d, p, i):
    """``h^{i,n-i}_p`` for ``0 < i < n`` as an alternating binomial sum."""
    total = alt_binom_sum(
        ((-1) ** mu, (n + 2, mu), (-p + i * d - (mu - 1) * (d - 1), n + 1))
        for mu in range(n + 3)
    )
    if p == 0 and i == n - i:
        total += 1
    return total


@lru_cache(maxsize=None)
def recursive_chi_ambient_forms(m, i, q):
    """``chi(Omega^i_{P^m}(q))`` by the Euler sequence, descending in ``i``."""
    if i < 0 or i > m:
        return 0
    if i == 0:
        num = 1
        for k in range(1, m + 1):
            num *= q + k
        return num // factorial(m)
    return comb(m + 1, i) * recursive_chi_ambient_forms(m, 0, q - i) - recursive_chi_ambient_forms(m, i - 1, q)


@lru_cache(maxsize=None)
def recursive_chi_forms(n, d, i, p):
    """``chi(Omega^i_X(p))`` by restriction and the conormal sequence."""
    if i < 0 or i > n:
        return 0
    m = n + 1
    restricted = recursive_chi_ambient_forms(m, i, p) - recursive_chi_ambient_forms(m, i, p - d)
    return restricted - recursive_chi_forms(n, d, i - 1, p - d)


@lru_cache(maxsize=None)
def recursive_edge_h0(n, d, i, q):
    """``h^{i,0}_q`` for ``0 <= i < n`` by the descending edge recursion."""
    if i == 0:
        return structure_sheaf_h0(Hypersurface(n, d), q)
    if n == 3 and i == 2 and q == d:
        return recursive_chi_forms(3, d, 2, d) + middle_alt_sum(3, d, d, 2) + recursive_edge_h0(3, d, 1, -d)
    m = n + 1
    restricted = projective_space_hodge(m, q, i, 0) - projective_space_hodge(m, q - d, i, 0)
    if i == 1 and q == d:
        restricted += 1
    return restricted - recursive_edge_h0(n, d, i - 1, q - d)
