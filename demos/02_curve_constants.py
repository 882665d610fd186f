"""Constants attached to the degree-N Fermat curve x^N + y^N = 1.

Differential forms on the curve are indexed by residue pairs (a, b) with
a, b, a+b all nonzero mod N; the form is holomorphic when a + b < N after
reduction to 1..N.  The building blocks here are the period integrals
B(a/N, b/N)/N, the root-of-unity coefficient mu_half, and the Hodge test
for wedge pairs.
"""

import math

from fermatreg import FormIndex, WedgeIndex, genus, is_hodge, mu_half, period

N = 13
print(f"genus of the degree-{N} curve: {genus(N)}")

holo = [
    FormIndex(N, a, b)
    for a in range(1, N)
    for b in range(1, N)
    if (a + b) % N != 0 and a + b < N
]
print(f"{len(holo)} holomorphic labels (half of {2 * genus(N)} total)")
print()

idx = FormIndex(N, 1, 2)
print(f"period of {idx}: {period(idx):.15f}")
print(f"period of (1,1) mod 3: {period(FormIndex(3, 1, 1)):.15f}")
print()

# mu_half(a, b) = N^2 (1-z^a)(1-z^b)/(1-z^(a+b)) with z = exp(pi i/N), a
# 2N-th root of unity, weights the mixed regulator; it is always purely
# imaginary
z = mu_half(1, 1, 3)
print(f"mu_half(1,1) mod 3  = {z:.6f}   (equals -3 sqrt(3) i: {-3 * math.sqrt(3):.6f})")
zh = mu_half(1, 2, 13)
print(f"mu_half(1,2) mod 13 = {zh:.6f}")
print()

# a wedge of two holomorphic forms spans a Hodge class exactly when every
# unit t mod N makes both t(a, b) and t(c, d) holomorphic or neither; for
# prime N, such as 13 here, that is when the triples {a, b, N-a-b} agree as
# multisets
pairs = [
    ((1, 4), (1, 8)),   # 1 + 4 + 8 = 13: shifted copy of itself
    ((1, 3), (1, 9)),
    ((1, 2), (1, 4)),
]
for (ab, cd) in pairs:
    w = WedgeIndex(FormIndex(N, *ab), FormIndex(N, *cd))
    print(f"wedge {ab} ^ {cd} mod {N}: hodge = {is_hodge(w)}")
