"""Property tests of hyp3f2_unit's one exit rule: a result has err <= tol,
and anything else raises BudgetExceededError, or DomainError for
parameters outside its domain."""

from fractions import Fraction as Fr
from math import inf, prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from test_specialfn import (  # noqa: E402
    DRIFT_SETS,
    EARLY_TAIL_SETS,
    TAIL_FIT_SETS,
    summation_theorem,
    theorem_params,
)

from fermatreg.specialfn import (  # noqa: E402
    BudgetExceededError,
    DomainError,
    EvalConfig,
    Hyp3F2Params,
    hyp3f2_unit,
)

TOLS = st.floats(-13.0, -8.0).map(lambda e: 10.0 ** e)


def certified_or_raises(p: Hyp3F2Params, tol: float):
    """hyp3f2_unit's result, or the best one its failure carries, each
    checked against tol."""
    try:
        r = hyp3f2_unit(p, EvalConfig(tol))
    except BudgetExceededError as exc:
        # a checkpoint within tol would have been returned
        assert exc.result.err > tol
        return exc.result
    assert r.err <= tol
    return r


@st.composite
def script_f_sets(draw):
    """3F2 parameters of a script-F term (a, j, b; N), N <= 101."""
    N = draw(st.integers(3, 101))
    a = draw(st.integers(1, N - 1))
    b = draw(st.integers(1, N - 2))
    b += b >= N - a  # every b in 1..N-1 but N - a
    j = draw(st.integers(1, N))
    return Hyp3F2Params(Fr(a + j, N), Fr(j, N), 1, Fr(a + b + j, N), Fr(j, N) + 1)


# lower parameters that are positive, negative non-integers, or within 1/d
# of a non-positive integer, where float factors b + k would cancel
LOWERS = st.one_of(
    st.fractions(0, 60, max_denominator=101).filter(lambda q: q > 0),
    st.fractions(-60, 0, max_denominator=101).filter(lambda q: q.denominator > 1),
    st.builds(lambda n, sign, d: Fr(sign, d) - n,
              st.integers(0, 60), st.sampled_from((-1, 1)), st.integers(2, 101)),
)


@st.composite
def terminating_sets(draw):
    """3F2 parameters with the upper parameter -m, m <= 60, so that the
    series ends by term m whatever its excess."""
    m = draw(st.integers(0, 60))
    uppers = st.fractions(-60, 60, max_denominator=101)
    a2, a3, b1, b2 = draw(uppers), draw(uppers), draw(LOWERS), draw(LOWERS)
    return Hyp3F2Params(-m, a2, a3, b1, b2)


def rising(q: Fr, k: int) -> Fr:
    return prod((q + i for i in range(k)), start=Fr(1))


def exact_sum(p: Hyp3F2Params) -> Fr:
    m = int(-p.a1)
    return sum(rising(p.a1, k) * rising(p.a2, k) * rising(p.a3, k)
               / (rising(p.b1, k) * rising(p.b2, k) * rising(1, k))
               for k in range(m + 1))


@settings(max_examples=200)
@given(script_f_sets(), TOLS)
def test_script_f_sets_certify_or_raise(p, tol):
    certified_or_raises(p, tol)


@settings(max_examples=150)
@given(terminating_sets(), TOLS)
# a2 lies 1/89 above -5: float term ratios put this 2.2 errs from its sum
@example(Hyp3F2Params(-55, Fr(-444, 89), Fr(-5389, 92), Fr(2995, 87), Fr(186, 41)), 1e-8)
@example(Hyp3F2Params(-55, Fr(-444, 89), Fr(-5389, 92), Fr(2995, 87), Fr(186, 41)), 1e-12)
def test_terminating_sets_certify_or_raise_and_bound_the_exact_sum(p, tol):
    r = certified_or_raises(p, tol)
    assert abs(Fr(r.value) - exact_sum(p)) <= Fr(r.err)


# --- the classical summation theorems: sums whose values are known --------

# rationals in [-6, 12] and in [-180, 360] with denominators up to 30,
# where large parameters put the tail's first checkpoint far out, and
# within 1/D of a non-positive integer, where a term ratio's factors
# nearly vanish
FREE = st.one_of(
    st.fractions(-6, 12, max_denominator=30),
    st.fractions(-180, 360, max_denominator=30),
    st.builds(lambda n, sign, d: Fr(sign, d) - n,
              st.integers(0, 6), st.sampled_from((-1, 1)), st.integers(2, 30)),
)


def lies_within_err_or_raises(p: Hyp3F2Params, ref: Fr):
    """At tol 1e-2, 1e-8 and 1e-12, hyp3f2_unit's value lies within its err
    of ``ref``, and so does the best result that a BudgetExceededError
    carries."""
    for tol in (1e-2, 1e-8, 1e-12):
        try:
            r = hyp3f2_unit(p, EvalConfig(tol))
        except BudgetExceededError as exc:
            r = exc.result
            if r.err == inf:  # a tail with no bound: nothing to check
                continue
        assert abs(Fr(r.value) - ref) <= Fr(r.err), tol


@st.composite
def theorem_sets(draw):
    """Free parameters of a convergent Dixon, Watson or Whipple set that
    does not end, with its lower parameters off the poles."""
    family = draw(st.sampled_from(("dixon", "watson", "whipple")))
    x, y, z = draw(FREE), draw(FREE), draw(FREE)
    a1, a2, a3, b1, b2 = params = theorem_params(family, x, y, z)
    assume(b1 + b2 - a1 - a2 - a3 > 0)
    assume(not any(q <= 0 and q.denominator == 1 for q in params))
    return family, x, y, z


def pin_theorem_sets(test):
    """The sets each certified outside its err by an earlier tail or term
    ratio, as explicit examples."""
    for case in DRIFT_SETS + TAIL_FIT_SETS + EARLY_TAIL_SETS:
        test = example(case)(test)
    return test


@settings(max_examples=200)
@given(theorem_sets())
@pin_theorem_sets
def test_summation_theorem_sets_lie_within_err(case):
    # the reference is the theorem's Gamma product in mpmath at 40 digits
    lies_within_err_or_raises(*summation_theorem(*case))


@st.composite
def saalschutz_sets(draw):
    """(n, a, b, c) of Pfaff-Saalschutz's balanced 3F2(-n, a, b; c,
    1+a+b-c-n; 1), n <= 60, with its lower parameters off the poles."""
    n = draw(st.integers(0, 60))
    a, b, c = draw(FREE), draw(FREE), draw(FREE)
    assume(not any(q <= 0 and q.denominator == 1 for q in (c, 1 + a + b - c - n)))
    return n, a, b, c


@settings(max_examples=100)
@given(saalschutz_sets())
def test_saalschutz_sets_lie_within_err(case):
    n, a, b, c = case
    p = Hyp3F2Params(-n, a, b, c, 1 + a + b - c - n)
    exact = rising(c - a, n) * rising(c - b, n) / (rising(c, n) * rising(c - a - b, n))
    lies_within_err_or_raises(p, exact)


# parameters of either sign from 1e-400 to 10^6 in size, some within
# 1e-400 of an integer, where floats round to poles or leave their range
WIDE = st.one_of(
    st.fractions(-60, 60, max_denominator=101),
    st.integers(-10 ** 6, 10 ** 6),
    st.builds(lambda m, e: Fr(m, 1000) * Fr(10) ** e,
              st.integers(-999, 999), st.integers(-400, 6)),
    st.builds(lambda n, m, e: n + Fr(m, 10 ** e),
              st.integers(-5, 5), st.integers(-9, 9), st.integers(1, 400)),
)


@settings(max_examples=200)
@given(st.tuples(WIDE, WIDE, WIDE, WIDE, WIDE), TOLS)
def test_wide_sets_certify_or_raise_domain_or_budget_errors(params, tol):
    try:
        p = Hyp3F2Params(*params)
    except DomainError:
        return
    try:
        certified_or_raises(p, tol)
    except DomainError:
        pass
