"""The regulator pairing against holomorphic forms, three ways.

The closed form is a finite sum of script-F values (normalized 3F2s).
Two independent oracles cross-check it: a direct singular quadrature of
the log-ratio kernel, and a regrouped series of beta quotients.  All
three agree within their combined certified errors.
"""

import math

from fermatreg import (
    EvalConfig,
    FormIndex,
    log_integral,
    oracle_series_sum,
    period,
    reg_holomorphic,
    script_F,
)
from fermatreg.verify import de_quadrature, one_minus_root

cfg = EvalConfig()
a, b, N = 1, 2, 5

r = reg_holomorphic(a, b, N, cfg)
print(f"reg({a},{b}) mod {N} = {r.value:.15f}  err {r.err:.1e}")

# oracle 1: quadrature of log[(1 - t^(1/N)) / (1 - (1-t)^(1/N))] with the
# period weight; the two-argument integrand protocol keeps full precision
# at both endpoints
per = period(FormIndex(N, a, b))
q = de_quadrature(
    lambda x, xc: (math.log(one_minus_root(x, xc, N))
                   - math.log(one_minus_root(xc, x, N)))
    * x ** (a / N - 1.0) * xc ** (b / N - 1.0),
    EvalConfig(tol=1e-10),
)
oracle_quad = 2.0 * q.value / (N * per)
print(f"quadrature oracle   = {oracle_quad:.15f}  gap {abs(r.value - oracle_quad):.1e}")

# oracle 2: the log integrals regroup into sums of beta quotients
sx = oracle_series_sum(a, b, N, cfg)
sy = oracle_series_sum(b, a, N, cfg)
oracle_series = 2.0 * (sy.value - sx.value) / per
print(f"series oracle       = {oracle_series:.15f}  gap {abs(r.value - oracle_series):.1e}")
print()

# the underlying log integrals are negative; the y side of the label is
# the x side of the swapped label
lx = log_integral(a, b, N, cfg)
ly = log_integral(b, a, N, cfg)
print(f"L_x = {lx.value:.12f}, L_y = {ly.value:.12f}")
print(f"2 (L_x - L_y) / period = {2.0 * (lx.value - ly.value) / per:.15f}")
print()

# structural zeros are exact in floating point, not merely small: the
# two finite sums cancel term by term
print("diagonal and swap behaviour")
print(f"  reg(1,1) mod 3      = {reg_holomorphic(1, 1, 3, cfg).value!r}")
r12 = reg_holomorphic(1, 2, 5, cfg)
r21 = reg_holomorphic(2, 1, 5, cfg)
print(f"  reg(1,2) + reg(2,1) = {r12.value + r21.value!r}")
print()

# script-F is the building block: F(a, j, b) for one fixed j
f = script_F(4, 11, 1, 13, cfg)
print(f"script_F(4, 11, 1) mod 13 = {f.value:.15f}  err {f.err:.1e}")
