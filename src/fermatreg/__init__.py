"""Regulator pairings of cycles on Fermat Jacobians via 3F2 values at z = 1.

The package has three layers:

* :mod:`fermatreg.specialfn` -- beta, Gamma ratios and a certified
  3F2-at-unit-argument evaluator (an accelerated series whose algebraic
  tail is closed from its exact large-k expansion);
* :mod:`fermatreg.fermat` -- eigenform indexing on the curve x^N + y^N = 1,
  period constants, the root-of-unity coefficient mu_half, and the
  Hodge-class predicate (by type, for every N >= 3);
* :mod:`fermatreg.regulator` -- the script-F building block, the holomorphic
  and mixed regulator pairings, the f(i, N) indecomposability statistic, and
  the regrouped series oracle that checks the closed forms.

:mod:`fermatreg.verify`, which ``import fermatreg`` does not load, holds the
self-check suites and the check-only evaluators: the tanh-sinh quadrature
``de_quadrature``, ``one_minus_root`` and the projector oracle
``oracle_projector_integral``.

Everything is deterministic: fixed summation orders and seeded self-checks.
The package keeps no state between calls: every function's result depends
on its arguments alone.
"""

__version__ = "0.1.0"

from .specialfn import (
    BudgetExceededError,
    DomainError,
    EvalConfig,
    EvalResult,
    Hyp3F2Params,
    beta,
    hyp3f2_unit,
)
from .fermat import (
    FormIndex,
    WedgeIndex,
    bracket,
    genus,
    is_hodge,
    is_in_IN,
    is_prime,
    mu_half,
    period,
)
from .regulator import (
    f_indec,
    im_reg_mixed,
    log_integral,
    oracle_series_sum,
    reg_holomorphic,
    script_F,
)

__all__ = [
    "__version__",
    # specialfn
    "BudgetExceededError", "DomainError", "EvalConfig", "EvalResult",
    "Hyp3F2Params", "beta", "hyp3f2_unit",
    # fermat
    "FormIndex", "WedgeIndex", "bracket", "genus", "is_hodge", "is_in_IN",
    "is_prime", "mu_half", "period",
    # regulator
    "f_indec", "im_reg_mixed", "log_integral", "oracle_series_sum",
    "reg_holomorphic", "script_F",
]
