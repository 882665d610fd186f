"""Evaluating 3F2 at unit argument with certified error bounds.

Every evaluation returns an EvalResult(value, err, effort).  err is an
absolute bound the library stands behind; effort counts elementary
operations (series terms summed), a machine-independent measure of work.
"""

import math
from fractions import Fraction

from fermatreg import (
    BudgetExceededError,
    DomainError,
    EvalConfig,
    Hyp3F2Params,
    hyp3f2_unit,
)

# 3F2(1, 1, 1; 2, 2; 1) is the Basel sum pi^2/6
p = Hyp3F2Params(1, 1, 1, 2, 2)
r = hyp3f2_unit(p, EvalConfig(tol=1e-12))
print("Basel check")
print(f"  value  {r.value!r}")
print(f"  exact  {math.pi ** 2 / 6!r}")
print(f"  err    {r.err:.2e}   effort {r.effort}")
print()

# parameters are exact rationals; strings and Fractions both work
p = Hyp3F2Params("3/13", "1/13", 1, "4/13", "14/13")
print(f"slowly convergent case, excess = {p.excess} (sum of lowers minus uppers)")
r = hyp3f2_unit(p, EvalConfig())
print(f"  value  {r.value:.15f}  err {r.err:.1e}  effort {r.effort}")
print()

# the terms decay like k^(-1-excess), far too slowly to sum to the end.
# The series is summed to a checkpoint and the remaining tail is closed
# from the term's exact large-k expansion (Stirling's series of its Gamma
# ratio), summed by Hurwitz zetas.  err covers the first order the
# expansion omits and the rounding of every term and sum; the tests hold
# it against 30-digit references down to excess 1/97.

# divergent parameter sets are rejected up front
try:
    hyp3f2_unit(Hyp3F2Params(1, 1, 1, 1, 2), EvalConfig())
except DomainError as exc:
    print(f"rejected: {exc}")
print()

# an unreachable tolerance raises, carrying the best result found
try:
    hyp3f2_unit(p, EvalConfig(tol=1e-30))
except BudgetExceededError as exc:
    best = exc.result
    print(f"budget exhausted; best value {best.value:.15f} with err {best.err:.1e}")
