"""The indecomposability table f(i, N) for prime moduli.

f(i, N) compares the wedge of the forms (1, i) and (1, 2i): it is the
imaginary part of the mixed regulator scaled by 2 N^2.  When the wedge is
not a Hodge class, a nonzero f(i, N) certifies that the underlying cycle
is indecomposable.  The Hodge wedges in this family are exactly i = 1
(degenerate) and 3i + 1 = N.  ``f_indec`` returns the value with its err,
and ``is_hodge`` of the wedge gives the flag.
"""

from fermatreg import EvalConfig, FormIndex, WedgeIndex, f_indec, im_reg_mixed, is_hodge

cfg = EvalConfig()


def hodge(i, N):
    """Whether the wedge of the forms (1, i) and (1, 2i) is a Hodge class."""
    return is_hodge(WedgeIndex(FormIndex(N, 1, i), FormIndex(N, 1, 2 * i)))


print("  i   N        f(i, N)      err       hodge")
for N in (11, 13, 17, 19, 23):
    for i in range(2, N // 4 + 1):
        r = f_indec(i, N, cfg)
        print(f"{i:3d} {N:3d}   {r.value:12.6f}   {r.err:.1e}   {hodge(i, N)}")
print()

# every value above is nonzero with a non-Hodge wedge: each row certifies
# an indecomposable cycle on the corresponding Jacobian

# the Hodge member of the family sits outside the tabulated range: at
# i = 4, N = 13 the wedge is a Hodge class and f may be nonzero without
# implying anything
r = f_indec(4, 13, cfg)
print(f"i=4, N=13: f = {r.value:.6f}, hodge = {hodge(4, 13)} (no conclusion)")
print()

# underneath, f is a two-term combination of script-F values; labels that
# share no residue give an exact structural zero
z = im_reg_mixed(1, 2, 2, 4, 13, cfg)
print(f"im_reg_mixed(1,2,2,4) mod 13 = {z.value!r} (err {z.err!r})")
