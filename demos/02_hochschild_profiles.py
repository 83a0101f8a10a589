"""Hochschild cohomology dimensions on a hypersurface and its pushforward.

dim HH^m(X, O_X(p)) is a column sum over the (t-p)-twisted diamond; the
pushforward to the ambient projective space has its own column-sum formula
through restricted ambient forms.  A long exact sequence ties the two
together, and propagating ranks through it recovers the kernel of the
pushforward map degree by degree.
"""

from thd import (
    Hypersurface,
    hochschild_profile,
    kernel_dim,
    kernel_table,
    les_ledger,
)

X = Hypersurface(5, 7)
p = -8

print(f"X: n = {X.n}, d = {X.d}, coefficients O_X({p}); t - p = {X.t - p}")
onx = hochschild_profile(X, p, "onX")
push = hochschild_profile(X, p, "pushforward")
print("m    on X    pushforward")
for m in range(0, 2 * X.n + 2):
    print(f"{m:>2}  {onx.dim(m):>6}  {push.dim(m):>6}")

# The kernels of the pushforward map are exactly the interior middle line
# of the (t-p)-twisted diamond, in doubled degrees.
print("\nkernel of the pushforward map on HH^m:")
print({m: v for m, v in kernel_table(X, p).items() if v})

# The exact-sequence ledger recomputes them with no middle-line input:
# term dimensions force every rank, and the rank entering HH^m(X) is the
# kernel in degree m.
ledger = les_ledger(X, p)
assert all(ledger.kernel_of_fstar[m] == kernel_dim(X, p, m) for m in range(0, 11))
print("rank-propagation ledger agrees with the closed form")

# A taste of the ledger itself: the first dozen terms and ranks.
for (label, i, dim), rank in list(zip(ledger.terms, ledger.ranks))[:12]:
    names = {"A": f"HH^{i-2}(X, p+d)", "B": f"HH^{i}(X, p)", "C": f"HH^{i}(ambient)"}
    print(f"{names[label]:>18}  dim {dim:>6}  outgoing rank {rank}")
