"""Special-function layer: frozen references, identities, error contracts.

Frozen constants were computed independently with 30+ digit arbitrary
precision arithmetic and rounded to the printed digits.
"""

import math
import random
import tracemalloc
from fractions import Fraction as Fr

import pytest

from fermatreg import specialfn
from fermatreg.specialfn import (
    BudgetExceededError,
    DomainError,
    EvalConfig,
    EvalResult,
    Hyp3F2Params,
    _LGAMMA_ULPS,
    _hurwitz_zeta,
    algebraic_tail_sum,
    beta,
    de_quadrature,
    gamma_ratio,
    gauss_2f1_unit,
    hyp3f2_unit,
    one_minus_root,
)

CFG = EvalConfig()

# 3F2((a+j)/N, j/N, 1; (a+b+j)/N, j/N + 1; 1) of script-F terms (a, j, b; N),
# computed with mpmath 1.3.0 at 40 and 60 digits and rounded to 30
SCRIPT_F_3F2_REFS = {
    (1, 1, 2, 5): "1.29521520694121400612061529881",
    (3, 2, 4, 13): "1.31678783230207646662837988403",
    (1, 23, 21, 23): "1.73842836504399633062384869995",
    (5, 7, 11, 23): "1.40235353667079277379952956569",
    (4, 14, 2, 23): "7.40325865026575940046941996784",
}


# excess 1/9973.  Its err is smallest at the first checkpoint, ~9.1e-15,
# and then grows with the rounding charged on its slowly decaying tail
SLOW_3F2 = Hyp3F2Params(Fr(1, 9973), Fr(1, 9973), Fr(1, 9973), Fr(2, 9973), Fr(2, 9973))
SLOW_TOL = EvalConfig(tol=2e-15)

# excess 1/2 and a first checkpoint at 32 768 terms.  At tol 1e-12 its err
# is smallest at 65 536 terms, 2.6e-11, and it runs until the rounding of
# the 131 073 terms summed passes tol
LONG_3F2 = Hyp3F2Params(3000, 1, 1, 2, Fr(6001, 2))
LONG_TOL = EvalConfig(tol=1e-12)


def script_f_params(a, j, b, N):
    return Hyp3F2Params(Fr(a + j, N), Fr(j, N), 1, Fr(a + b + j, N), Fr(j, N) + 1)


def shrink_budget(monkeypatch, budget):
    """Make ``budget`` the series' last checkpoint, and so its term budget."""
    monkeypatch.setattr(specialfn, "_CHECKPOINTS",
                        tuple(K for K in specialfn._CHECKPOINTS if K <= budget))


def eval_or_best(p, cfg):
    """The certified result, or the best one a budget failure carries."""
    try:
        return hyp3f2_unit(p, cfg), True
    except BudgetExceededError as exc:
        return exc.result, False


class TestBeta:
    def test_spot_values(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
        # B(2, 3) = 1!2!/4! = 1/12
        assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_symmetry_and_recurrence(self):
        rng = random.Random(11)
        for _ in range(100):
            m = math.exp(rng.uniform(math.log(0.02), math.log(30.0)))
            n = math.exp(rng.uniform(math.log(0.02), math.log(30.0)))
            b = beta(m, n)
            assert abs(b - beta(n, m)) <= 1e-13 * b
            assert abs(b - (beta(m + 1, n) + beta(m, n + 1))) <= 1e-12 * b

    def test_domain(self):
        with pytest.raises(DomainError):
            beta(0.0, 1.0)
        with pytest.raises(DomainError):
            beta(1.0, -2.0)

    @pytest.mark.parametrize("m, n", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_argument_is_a_domain_error(self, m, n):
        with pytest.raises(DomainError, match="finite"):
            beta(m, n)

    @pytest.mark.parametrize("m, n", [(1e308, 1e308), (1e-320, 1.0)])
    def test_leaving_the_float_range_is_a_domain_error(self, m, n):
        # a log-gamma, or the value itself, overflows
        with pytest.raises(DomainError, match="float range"):
            beta(m, n)

    def test_uncertified_value_is_a_domain_error(self):
        # B(1e15, 1) = 1e-15, but the Gamma ratio's bound is 9.8e206: a bare
        # float must certify half its digits
        with pytest.raises(DomainError, match=r"9\.8e\+206 .* exceeds 2\^-26"):
            beta(1e15, 1.0)


class TestGammaRatio:
    def test_lgamma_allowance_covers_measured_error(self):
        # math.lgamma at every k/N, N prime below 100 and k <= 3N, against
        # 30 digits at the exact rational: the worst case must use at most
        # a quarter of the allowance gamma_ratio charges per lgamma
        mpmath = pytest.importorskip("mpmath")
        eps = math.ulp(1.0)
        worst = 0.0
        with mpmath.workdps(30):
            for N in (n for n in range(2, 100) if all(n % q for q in range(2, n))):
                for k in range(1, 3 * N + 1):
                    want = mpmath.loggamma(mpmath.mpf(k) / N)
                    got = math.lgamma(k / N)
                    err = abs(mpmath.mpf(got) - want) / max(1.0, abs(got))
                    worst = max(worst, float(err) / eps)
        assert worst <= _LGAMMA_ULPS / 4.0, worst

    def test_value_and_bound(self):
        # Gamma(1/3) Gamma(2/3) / (Gamma(1/2) Gamma(1/2)) = (2 pi / sqrt 3) / pi
        value, rel = gamma_ratio((1 / 3, 2 / 3), (1 / 2, 1 / 2))
        want = 2.0 / math.sqrt(3.0)
        assert abs(value - want) <= rel * want + 1e-16
        assert 0.0 < rel < 1e-13
        with pytest.raises(DomainError):
            gamma_ratio((1.0,), (0.0,))

    @pytest.mark.parametrize("num, den", [((math.inf,), ()), ((1.0,), (math.inf,)),
                                          ((math.nan,), (1.0,))])
    def test_non_finite_argument_is_a_domain_error(self, num, den):
        with pytest.raises(DomainError, match="finite"):
            gamma_ratio(num, den)


class TestParams:
    def test_lower_validation(self):
        with pytest.raises(DomainError):
            Hyp3F2Params(1, 1, 1, 0, 2)
        with pytest.raises(DomainError):
            Hyp3F2Params(1, 1, 1, 2, -3)
        # negative non-integer lowers are allowed
        Hyp3F2Params(1, 1, 1, Fr(-1, 2), 4)

    def test_excess_and_parsing(self):
        p = Hyp3F2Params("3/13", "1/13", 1, "4/13", "14/13")
        assert p.excess == Fr(1, 13)
        assert p.a1 == Fr(3, 13)

    def test_malformed_text_is_a_domain_error_naming_it(self):
        for text in ("abc", "1/0", ""):
            with pytest.raises(DomainError, match=repr(text)):
                Hyp3F2Params(1, 1, text, 2, 2)

    def test_float_is_a_domain_error(self):
        with pytest.raises(DomainError, match="exact rational"):
            Hyp3F2Params(0.5, 1, 1, 2, 2)

    def test_lower_that_rounds_to_a_pole(self):
        # as floats these are 0 and -1, and the series would divide by zero
        tiny = Fr(1, 10 ** 400)
        for b in (tiny, "1e-400", tiny - 1):
            with pytest.raises(DomainError, match="rounds to"):
                Hyp3F2Params(1, 1, 1, b, 5)


class TestHyp3F2:
    def test_basel(self):
        r = hyp3f2_unit(Hyp3F2Params(1, 1, 1, 2, 2), EvalConfig(tol=1e-12))
        assert abs(r.value - math.pi ** 2 / 6.0) <= 1e-10

    def test_zero_upper_parameter(self):
        r = hyp3f2_unit(Hyp3F2Params(Fr(1, 2), 0, 5, Fr(1, 7), 3), CFG)
        assert r.value == 1.0
        assert r.err == 0.0

    def test_divergent(self):
        with pytest.raises(DomainError, match="^excess 0 is not positive; the unit-argument "
                                              "series diverges$"):
            hyp3f2_unit(Hyp3F2Params(1, 1, 1, 1, 2), CFG)
        with pytest.raises(DomainError, match="^excess -1 is not positive"):
            hyp3f2_unit(Hyp3F2Params(2, 1, 1, 1, 2), CFG)

    def test_frozen_small_excess(self):
        # 3F2(3/13, 1/13, 1; 4/13, 14/13; 1), excess 1/13
        want = 1.766233869657059933008
        p = Hyp3F2Params(Fr(3, 13), Fr(1, 13), 1, Fr(4, 13), Fr(14, 13))
        r = hyp3f2_unit(p, CFG)
        assert abs(r.value - want) <= 1e-9
        assert abs(r.value - want) <= r.err + 1e-15

    def test_terminating_series_is_exact(self):
        # a1 = -3 truncates the sum at k = 3; compare with the exact
        # rational partial sum
        def rising(q, k):
            return math.prod((q + i for i in range(k)), start=Fr(1))

        p = Hyp3F2Params(-3, Fr(1, 2), 1, 2, Fr(3, 2))
        want = sum(
            rising(Fr(-3), k) * rising(Fr(1, 2), k) * rising(Fr(1), k)
            / (rising(Fr(2), k) * rising(Fr(3, 2), k) * math.factorial(k))
            for k in range(4)
        )
        r = hyp3f2_unit(p, CFG)
        assert abs(r.value - float(want)) <= 1e-14

    def test_terminating_end_is_held_to_tol(self):
        # the series ends at term 10, but its terms alternate and reach
        # 1.2e5 in size while they cancel to 0.048, so the rounding at that
        # end is 1.68e-9: within the default tol, not within 1e-12
        p = Hyp3F2Params(-10, Fr(21, 2), Fr(1, 2), 1, Fr(3, 2))
        r = hyp3f2_unit(p, CFG)
        assert r.effort == 11
        with pytest.raises(BudgetExceededError, match="not reached") as ei:
            hyp3f2_unit(p, EvalConfig(tol=1e-12))
        assert ei.value.result == r
        assert 1.6e-9 < r.err < 1.7e-9
        term = total = Fr(1)
        for k in range(10):
            term *= (k - 10) * (k + Fr(21, 2)) * (k + Fr(1, 2)) \
                / ((k + 1) * (k + Fr(3, 2)) * (k + 1))
            total += term
        assert abs(Fr(r.value) - total) <= Fr(r.err)

    def test_degenerate_gauss_draws(self):
        rng = random.Random(20260819)
        for _ in range(20):
            a = Fr(rng.randrange(1, 40), rng.randrange(37, 60))
            b = Fr(rng.randrange(1, 40), rng.randrange(37, 60))
            c = a + b + Fr(rng.randrange(5, 40), rng.randrange(5, 40))
            x = Fr(rng.randrange(1, 30), rng.randrange(7, 30))
            r = hyp3f2_unit(Hyp3F2Params(a, b, x, c, x), EvalConfig(tol=1e-12))
            want = gauss_2f1_unit(float(a), float(b), float(c))
            assert abs(r.value - want) <= 1e-10

    def test_degenerate_gauss_sets_lie_within_err(self):
        # 3F2(a, b, x; a+b+e, x; 1) = G(c) G(e) / (G(c-a) G(c-b)), c = a+b+e,
        # at excess e down to 1/(10^6+3), where the tail is ~1/e of the
        # value.  x is a negative non-integer; its factors cancel exactly in
        # each int term ratio
        mpmath = pytest.importorskip("mpmath")
        ups = [Fr(1, 3), Fr(1, 2), Fr(3, 4), Fr(-2, 5), Fr(7, 3)]
        pairs = [(a, b) for i, a in enumerate(ups) for b in ups[i:]]
        xs = [Fr(-1, 2), Fr(-7, 3), Fr(-40, 9)]
        for n, (a, b) in enumerate(pairs):
            x = xs[n % len(xs)]
            for e in (Fr(1, 7), Fr(1, 97), Fr(1, 1009), Fr(1, 10007), Fr(1, 99991),
                      Fr(1, 1000003)):
                c = a + b + e
                with mpmath.workdps(40):
                    ma, mb, mc = (mpmath.mpf(q.numerator) / q.denominator for q in (a, b, c))
                    ref = mpmath.gammaprod([mc, mc - ma - mb], [mc - ma, mc - mb])
                    ref = Fr(mpmath.nstr(ref, 40))
                for tol in (1e-8, 1e-12):
                    r, certified = eval_or_best(Hyp3F2Params(a, b, x, c, x),
                                                EvalConfig(tol=tol))
                    assert abs(Fr(r.value) - ref) <= Fr(r.err), (a, b, e, tol)
                    assert r.err <= tol or not certified

    def test_err_honored_against_references(self):
        # (4, 14, 2; 23) once came back with err 2.2e-14 at 2.3e-14 from
        # the reference; the comparison is exact, in rationals
        for tol in (1e-8, 1e-10, 1e-12):
            for key, ref in SCRIPT_F_3F2_REFS.items():
                r, certified = eval_or_best(script_f_params(*key), EvalConfig(tol=tol))
                assert abs(Fr(r.value) - Fr(ref)) <= Fr(r.err), (key, tol)
                assert certified and r.err <= tol, (key, tol)

    def test_err_honored_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261018)
        cases = [(1, 1, 1, 97), (95, 97, 1, 97)]  # the smallest excess, 1/97
        for _ in range(28):
            N = rng.randrange(5, 98)
            a = rng.randrange(1, N)
            b = rng.choice([v for v in range(1, N) if (a + v) % N])
            cases.append((a, rng.randrange(1, N + 1), b, N))
        for (a, j, b, N) in cases:
            p = script_f_params(a, j, b, N)
            with mpmath.workdps(30):
                want = mpmath.hyp3f2(*(mpmath.mpf(q.numerator) / q.denominator
                                       for q in (p.a1, p.a2, p.a3, p.b1, p.b2)), 1)
                want = Fr(mpmath.nstr(want, 30))
            for tol in (1e-8, 1e-10):
                r, certified = eval_or_best(p, EvalConfig(tol=tol))
                assert abs(Fr(r.value) - want) <= Fr(r.err), (a, j, b, N, tol)
                if certified:
                    assert r.err <= tol

    def test_err_honored_against_tighter_run(self):
        # 3F2(m, 1, 1; 2, m + 3/2; 1) certifies 1e-8 at an earlier checkpoint
        # than 1e-12, from 129 against 257 terms up to 4097 against 16 385,
        # so the runs are different sums: they lie 0.45 of their errs'
        # sum apart
        for m in (10, 20, 30, 60, 100, 150, 250, 400):
            p = Hyp3F2Params(m, 1, 1, 2, m + Fr(3, 2))
            loose = hyp3f2_unit(p, EvalConfig(tol=1e-8))
            tight = hyp3f2_unit(p, EvalConfig(tol=1e-12))
            assert loose.effort < tight.effort, m
            assert abs(loose.value - tight.value) <= loose.err + tight.err, m

    def test_budget_exceeded_carries_best(self):
        p = Hyp3F2Params(Fr(3, 13), Fr(1, 13), 1, Fr(4, 13), Fr(14, 13))
        with pytest.raises(BudgetExceededError) as ei:
            hyp3f2_unit(p, EvalConfig(tol=1e-30))
        best = ei.value.result
        assert isinstance(best, EvalResult)
        assert abs(best.value - 1.766233869657059933008) <= best.err

    def test_budget_failure_reports_terms_summed(self, monkeypatch):
        # the best err is the 65 536-term checkpoint's, but the effort is
        # all 131 073 terms (k = 0..131 072) summed until the rounding
        # floor passed tol
        with pytest.raises(BudgetExceededError) as ei:
            hyp3f2_unit(LONG_3F2, LONG_TOL)
        assert ei.value.result.effort == 131_073
        shrink_budget(monkeypatch, 65_536)
        with pytest.raises(BudgetExceededError) as early:
            hyp3f2_unit(LONG_3F2, LONG_TOL)
        assert early.value.result == (*ei.value.result[:2], 65_537)

    @pytest.mark.parametrize("p, cfg", [
        (Hyp3F2Params("1/3", "-2/5", "-1/2", "-999988/15000045", "-1/2"), CFG),
        (SLOW_3F2, SLOW_TOL)], ids=["value-1.6e6", "excess-1/9973"])
    def test_failing_series_stops_when_its_anchor_drift_passes_tol(self, monkeypatch,
                                                                    p, cfg):
        # the best err is the 64-term checkpoint's.  The drift charged on the
        # tail through its anchor, 2 eps K |tail|, grows about linearly in K,
        # so a floor that counts it passes tol at the next checkpoint, and
        # the series stops after 129 terms, not 524 289 or 131 073
        with pytest.raises(BudgetExceededError, match="series' rounding") as ei:
            hyp3f2_unit(p, cfg)
        assert ei.value.result.effort == 129
        shrink_budget(monkeypatch, 64)
        with pytest.raises(BudgetExceededError) as first:
            hyp3f2_unit(p, cfg)
        assert ei.value.result == (*first.value.result[:2], 129)

    def test_budget_failure_memory_stays_flat(self, monkeypatch):
        # the series keeps only its last term and the sums of its blocks;
        # keeping all 65 537 terms would take about 2.1 MB.
        # tracemalloc slows every float the loop makes, so the budget is
        # the smallest that the bound still tells apart from keeping them
        shrink_budget(monkeypatch, 65_536)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                hyp3f2_unit(LONG_3F2, LONG_TOL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_script_f_sets_need_few_terms(self):
        # the first checkpoint certifies the default tol, at excess down to
        # 2/23: the tail is closed from its exact expansion
        for key in SCRIPT_F_3F2_REFS:
            assert hyp3f2_unit(script_f_params(*key), CFG).effort == 65, key

    def test_target_that_ends_past_term_zero_is_summed_directly(self):
        # Thomae's relation through 600 gives the upper parameter 2 - 600,
        # whose terms alternate and cancel under a prefactor of about e^655
        # and end at term 598; the series as given certifies.  Reference:
        # mpmath 1.3.0 summing term by term at 40 and 60 digits
        p = Hyp3F2Params(600, 1, 1, 2, 1000)
        r = hyp3f2_unit(p, CFG)
        assert r.err <= CFG.tol
        assert abs(Fr(r.value) - Fr("1.52775313556671793116814064035")) <= Fr(r.err)

    def test_refusal_writes_a_huge_parameter_briefly(self):
        # sign, six leading digits and the power of ten, not all 401 or 5001
        # digits (past 4300 digits, str() of the integer raises)
        for params, short in (((1, 1, 1, 2, "1e400"), "1.00000e+400"),
                              ((1, 1, "-7e5000", 2, 2), "-7.00000e+5000")):
            with pytest.raises(DomainError, match="term budget") as ei:
                hyp3f2_unit(Hyp3F2Params(*params), CFG)
            assert short in str(ei.value) and len(str(ei.value)) < 100

    def test_non_script_f_sets_honor_err(self):
        # excess 1, 197 and 359/2; the second's and the third's first
        # checkpoints wait for 1024 and 2048 terms.  References: mpmath
        # 1.3.0 at 40 and 60 digits (the last two summed term by term)
        for p, ref in (
                (Hyp3F2Params(60, Fr(1, 2), Fr(1, 2), Fr(121, 2), Fr(3, 2)),
                 "1.50390938137695886112254140250"),
                (Hyp3F2Params(1, 1, 1, 100, 100), "1.00010003924581353041983411532"),
                (Hyp3F2Params(180, Fr(3, 4), Fr(3, 4), Fr(361, 2), Fr(361, 2)),
                 "1.00313422458783462119495220536")):
            r = hyp3f2_unit(p, CFG)
            assert r.err <= CFG.tol
            assert abs(Fr(r.value) - Fr(ref)) <= Fr(r.err)

    # series with parameters far above the 64-term first
    # checkpoint, whose tail model expands in parameter / k; made with
    # mpmath 1.3.0 by summing term by term,
    #     with mpmath.workdps(60):
    #         a1, a2, a3, b1, b2 = map(mpmath.mpf, params)
    #         t = want = mpmath.mpf(1)
    #         k = 0
    #         while k <= 10 or abs(t) >= mpmath.mpf(10) ** -65 * abs(want):
    #             t *= (a1 + k) * (a2 + k) * (a3 + k) / ((b1 + k) * (b2 + k) * (k + 1))
    #             k += 1
    #             want += t
    #         ref = mpmath.nstr(want, 30)
    # and equal to the same sum at 40 digits
    LARGE_PARAMETER_REFS = {
        (83, 81, 45, 187, 191): "28561.9652605542875081831474802",
        (13, 106, 116, 158, 193): "1095.45994359148154532180905096",
        (8, 65, 55, 75, 129): "47.1578469689717737292106295745",
    }

    def test_large_parameters_honor_err(self):
        for params, ref in self.LARGE_PARAMETER_REFS.items():
            r = hyp3f2_unit(Hyp3F2Params(*params), CFG)
            assert abs(Fr(r.value) - Fr(ref)) <= Fr(r.err), params

    def test_tol_below_series_rounding_stops_early(self):
        # err is smallest, 2.0e-14, at the 64-term checkpoint, and the
        # rounding of the terms summed passes 1e-14 by 1024 terms: the
        # series stops once its err stops falling
        p = Hyp3F2Params(Fr(3, 13), Fr(1, 13), 1, Fr(4, 13), Fr(14, 13))
        with pytest.raises(BudgetExceededError) as ei:
            hyp3f2_unit(p, EvalConfig(tol=1e-14))
        best = ei.value.result
        assert best.effort < 500_001
        assert best.err <= 2e-13
        assert abs(Fr(best.value) - Fr("1.766233869657059933008")) <= Fr(best.err)

    def test_bitwise_deterministic(self):
        p = Hyp3F2Params(Fr(7, 13), Fr(4, 13), 1, Fr(12, 13), Fr(17, 13))
        r1 = hyp3f2_unit(p, CFG)
        r2 = hyp3f2_unit(p, CFG)
        assert repr(r1.value) == repr(r2.value)
        assert r1.err == r2.err and r1.effort == r2.effort


def theorem_params(family, x, y, z):
    """The 3F2 parameters of Dixon's, Watson's or Whipple's sum with free
    parameters x, y, z, as Fractions."""
    return {"dixon": (x, y, z, 1 + x - y, 1 + x - z),
            "watson": (x, y, z, (x + y + 1) / 2, 2 * z),
            "whipple": (x, 1 - x, y, z, 1 + 2 * y - z)}[family]


def summation_theorem(family, x, y, z):
    """The 3F2 parameters of Dixon's, Watson's or Whipple's sum with free
    parameters x, y, z, and the theorem's Gamma product in mpmath at 40
    digits as a Fraction (Bailey 1935, 3.1-3.4; DLMF 16.4.4, 16.4.6, 16.4.7)."""
    mpmath = pytest.importorskip("mpmath")
    x, y, z = Fr(x), Fr(y), Fr(z)
    params = theorem_params(family, x, y, z)
    with mpmath.workdps(40):
        a, b, c = (mpmath.mpf(q.numerator) / q.denominator for q in (x, y, z))
        if family == "dixon":
            ref = mpmath.gammaprod([a / 2 + 1, a - b + 1, a - c + 1, a / 2 - b - c + 1],
                                   [a + 1, a / 2 - b + 1, a / 2 - c + 1, a - b - c + 1])
        elif family == "watson":
            ref = mpmath.sqrt(mpmath.pi) * mpmath.gammaprod(
                [c + 0.5, (a + b + 1) / 2, c - (a + b - 1) / 2],
                [(a + 1) / 2, (b + 1) / 2, c - (a - 1) / 2, c - (b - 1) / 2])
        else:  # Whipple's, with y and z the theorem's c and e
            ref = mpmath.pi * 2 ** (1 - 2 * b) * mpmath.gammaprod(
                [c, 1 + 2 * b - c],
                [(a + c) / 2, (a + 1 + 2 * b - c) / 2, (1 - a + c) / 2, (2 - a + 2 * b - c) / 2])
        return Hyp3F2Params(*params), Fr(mpmath.nstr(ref, 40))


# summed directly, each with a parameter just off a non-positive integer;
# each lay 1.7 to 3.6 errs from its sum while a term ratio was five float
# factors, which cancel there
DRIFT_SETS = [
    ("watson", "-23/8", "-37/9", "23/2"),
    ("watson", "-105/29", "8/13", "8"),
    ("dixon", "-49/11", "-21/5", "-7/15"),
    ("dixon", "-45/14", "-1/5", "-11/2"),
]

# summed directly; each was certified at its first checkpoint by a fitted
# tail whose model_err fell 1.02 to 106 times short of its true error
TAIL_FIT_SETS = [
    ("watson", "-1/2", "-31/19", "-6/7"),
    ("dixon", "1/2", "4", "-11/3"),
    ("whipple", "-17/4", "57/16", "8"),
    ("whipple", "14/3", "27/8", "2/3"),
    ("watson", "-51/13", "76/7", "49/8"),
]

# summed directly; each was certified by an exact tail expansion closed at
# a first checkpoint where its first log-coefficient c_1 was still large
# (-3.9 for the first set): three lay 7 to 150 errs from the sum at tol
# 1e-8, and the last lay 1.16 off with err 4.4e-3 at tol 1e-2
EARLY_TAIL_SETS = [
    ("whipple", "7/10", "317/18", "306/5"),
    ("whipple", "-51/10", "64/3", "-149/8"),
    ("whipple", "233/13", "162/7", "247/2"),
    ("whipple", "-49/8", "73/13", "328/3"),
]


class TestSummationTheoremSets:
    @pytest.mark.parametrize("family, x, y, z", DRIFT_SETS + TAIL_FIT_SETS + EARLY_TAIL_SETS,
                             ids=str)
    def test_value_lies_within_err(self, family, x, y, z):
        p, ref = summation_theorem(family, x, y, z)
        r = hyp3f2_unit(p, CFG)
        assert abs(Fr(r.value) - ref) <= Fr(r.err)


class TestQuadrature:
    def test_constant(self):
        q = de_quadrature(lambda x, xc: 1.0, CFG)
        assert abs(q.value - 1.0) <= 1e-12

    def test_endpoint_singularities(self):
        q = de_quadrature(lambda x, xc: x ** (-0.5) * xc ** (-0.5), CFG)
        assert abs(q.value - math.pi) <= 1e-10
        assert abs(q.value - math.pi) <= q.err
        # B(1/5, 4/5) = pi / sin(pi/5)
        q = de_quadrature(lambda x, xc: x ** (-0.8) * xc ** (-0.2), CFG)
        want = math.pi / math.sin(math.pi / 5.0)
        assert abs(q.value - want) <= 1e-9
        assert abs(q.value - want) <= q.err

    def test_log_endpoint(self):
        # log(1 - x) through the complement: log1p(-x) would reach log(0)
        q = de_quadrature(lambda x, xc: math.log(xc), CFG)
        assert abs(q.value + 1.0) <= 1e-8
        assert abs(q.value + 1.0) <= q.err

    def test_non_finite_sample(self):
        with pytest.raises(DomainError, match="^integrand not finite at x=0.5"):
            de_quadrature(lambda x, xc: math.inf if abs(x - 0.5) < 0.01 else 1.0, CFG)
        with pytest.raises(DomainError, match="^integrand not finite at x="):
            de_quadrature(lambda x, xc: math.nan, CFG)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError) as ei:
            de_quadrature(lambda x, xc: x ** (-0.5) * xc ** (-0.5),
                          EvalConfig(tol=1e-300))
        assert abs(ei.value.result.value - math.pi) <= 1e-6

    def test_budget_failure_carries_the_smallest_err(self):
        # the last level's err, 5.81e-14, is not the smallest; the failure
        # carries no larger an err than the 97-node result certified at 1e-10
        def f(x, xc):
            return x ** -0.9 * xc ** -0.9

        loose = de_quadrature(f, EvalConfig(tol=1e-10))
        with pytest.raises(BudgetExceededError) as ei:
            de_quadrature(f, EvalConfig(tol=1e-14))
        best = ei.value.result
        assert best.err <= loose.err
        assert abs(best.value - loose.value) <= best.err + loose.err
        assert best.effort == 24781

    def test_complex_integrand(self):
        q = de_quadrature(lambda x, xc: complex(1.0, 2.0 * x), CFG)
        assert abs(q.value - complex(1.0, 1.0)) <= 1e-10


class TestOneMinusRoot:
    def test_matches_direct_form_midrange(self):
        for x in (0.1, 0.3, 0.5, 0.7, 0.9):
            for n in (2, 5, 13):
                want = 1.0 - x ** (1.0 / n)
                got = one_minus_root(x, 1.0 - x, n)
                assert abs(got - want) <= 4e-15 * abs(want) + 1e-18

    def test_near_one_keeps_precision(self):
        # 1 - (1-e)^(1/n) = e/n + (n-1)/(2n^2) e^2 + O(e^3)
        e = 1e-12
        got = one_minus_root(1.0 - e, e, 5)
        want = e / 5.0 + 4.0 / 50.0 * e * e
        assert abs(got - want) <= 1e-15 * want

    def test_complement_exactly_one(self):
        got = one_minus_root(1e-300, 1.0, 7)
        assert got == 1.0 - (1e-300) ** (1.0 / 7.0)


class TestTailModel:
    @staticmethod
    def assert_recovers(ups, downs, den, t_top, want, K):
        """The tail lies within model_err, and model_err within 1e-13 of it."""
        tail, model_err = algebraic_tail_sum(float(t_top), K, ups, downs, den)
        assert abs(Fr(tail) - Fr(str(want))) <= Fr(model_err), K
        assert model_err <= 1e-13 * tail, K

    def test_recovers_hurwitz_zeta(self):
        # Basel's terms G(k+1)^2 / G(k+2)^2 = 1/(k+1)^2: the tail past K is
        # the Hurwitz zeta(2, K+2)
        mpmath = pytest.importorskip("mpmath")
        for K in (64, 1024, 16384):
            with mpmath.workdps(40):
                self.assert_recovers((1, 1), (2, 2), 1, mpmath.mpf(K + 1) ** -2,
                                     mpmath.zeta(2, K + 2), K)

    def test_recovers_gauss_sum_tail(self):
        # terms G(k+a) G(k+b) / (G(k+c) G(k+1)) at a, b, c = 1/3, 1/2, 5/4,
        # excess 5/12: Gauss's sum G(a) G(b) G(c-a-b) / (G(c-a) G(c-b))
        # less the first terms
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a, b, c = mpmath.mpf(1) / 3, mpmath.mpf(1) / 2, mpmath.mpf(5) / 4
            rest = mpmath.gammaprod([a, b, c - a - b], [c - a, c - b])
            t = mpmath.gammaprod([a, b], [c])
            for k in range(16385):
                rest -= t
                if k in (64, 1024, 16384):
                    self.assert_recovers((4, 6), (15, 12), 12, t, rest, k)
                t *= (k + a) * (k + b) / ((k + c) * (k + 1))

    def test_bounds_the_tail_where_c1_is_large(self):
        # Gauss's terms at a = b = 60, closed at their first checkpoint, the
        # first K at least 8 c, where the first log-coefficient c_1 is -3.6
        # and -3.0: there the expansion's tail lay 9.5 and 1.1 model_errs off.
        # The tail is bounded instead, by exp(sum |c_n|) at excess 1/2 and
        # by (k/K)^(sum n |c_n|) at excess 20
        mpmath = pytest.importorskip("mpmath")
        for c_num, K in ((241, 1024), (280, 2048)):  # c = 241/2 and 140, shifts over 2
            with mpmath.workdps(60):
                a, c = mpmath.mpf(60), mpmath.mpf(c_num) / 2
                rest = mpmath.gammaprod([a, a, c - 2 * a], [c - a, c - a])
                t = mpmath.gammaprod([a, a], [c])
                for k in range(K):
                    rest -= t
                    t *= (k + a) ** 2 / ((k + c) * (k + 1))
                rest -= t
            tail, model_err = algebraic_tail_sum(float(t), K, (120, 120), (c_num, 2), 2)
            assert abs(Fr(tail) - Fr(mpmath.nstr(rest, 50))) <= Fr(model_err), c_num

    @pytest.mark.parametrize("args, want", [
        # the script-F term (a, j, b; N) = (4, 11, 1; 13) at its first checkpoint
        ((3.1e-4, 64, (15, 11, 13), (16, 24, 13), 13),
         "(0.2611312842595135, 1.4668719350689294e-15)"),
        # Gauss's 3F2(20, 20, 1/3; 81/2, 1/3): c_1 is -0.82, so the tail is bounded
        ((2.7e-2, 512, (120, 120, 2), (243, 2, 6), 6),
         "(32.418585269888496, 32.41858526988872)"),
        # the series oracle's form at (a, b; N) = (1, 2; 13), unit N
        ((5.9e-8, 1024, (1, 0), (3, 13), 13, 13),
         "(0.0003924443056724258, 1.394435323271026e-18)"),
        # 3F2(1/3, 1/3, -1/2; 199985/299973, -1/2): negative shifts over 599946
        ((-1.3e-7, 64, (199982, 199982, -299973), (399970, -299973, 599946), 599946),
         "(-0.8333743859081453, 2.9704062809717808e-15)"),
        # 3F2(1, 1, 1; 30, 30), excess 57: bounded, on _hurwitz_zeta's head
        ((4.4e-60, 64, (1, 1, 1), (30, 30, 1), 1),
         "(2.822695884714992e-60, 2.8226958847150117e-60)"),
        # 3F2(1, 1, 1; 5, 5), excess 7: expanded, its high orders on the head
        ((3.0e-11, 40, (1, 1, 1), (5, 5, 1), 1),
         "(1.6750166155614215e-10, 8.481210848293313e-16)"),
        ((1 / 65 ** 2, 64, (1, 1), (2, 2), 1),
         "(0.015266879048806829, 9.595748730791628e-16)"),
        ((2.2e-3, 1024, (4, 6), (15, 12), 12),
         "(5.40708269799524, 1.9214144762381545e-14)"),
        ((1.9e-2, 1024, (120, 120), (241, 2), 2),
         "(866.9740765391095, 866.9740765391157)"),
        # neither bound is finite
        ((1.0e-30, 64, (1, 1, 1), (300, 300, 1), 1), "(0.0, inf)"),
    ], ids=["script-F", "gauss-bounded", "oracle", "negative-shifts", "excess-57",
            "excess-7", "basel", "gauss-sum", "gauss-60", "no-bound"])
    def test_bits_are_frozen(self, args, want):
        # the log-coefficients are exact ints until one rounding per order,
        # so however they are formed, the tail and model_err keep their bits
        assert repr(algebraic_tail_sum(*args)) == want

    def test_hurwitz_zeta_against_mpmath(self):
        # the zeta orders 1 + excess + p, p = 0..8, from the first term past
        # each checkpoint K, scaled by K^order as the tail sums use them;
        # each order is passed as its excess e over 1, and the reference
        # takes the order 1 + e exactly.  mpmath's own error reaches 6e-11
        # at order 30 and 80 digits, so the reference takes 120
        mpmath = pytest.importorskip("mpmath")
        for s in (1 / 1000003, 1 / 97, 1 / 13, 1 / 2, 1.0, 2 + 1 / 7, 3 + 96 / 97, 12.0):
            for K in (64, 1024, 16384, 524288):
                for p in range(specialfn._TAIL_ORDERS + 1):
                    e = s + p
                    with mpmath.workdps(120):
                        order = 1 + mpmath.mpf(e)
                        want = mpmath.zeta(order, K + 1) * mpmath.mpf(K) ** order
                    got = _hurwitz_zeta(e, K + 1, K)
                    assert abs(got - want) <= 1e-15 * want, (e, K)
        # and unscaled
        for e in (1 / 97, 1 / 13, 0.5, 1.0, 2 + 1 / 7, 3 + 96 / 97, 7.0, 11.0):
            for a in (1, 7, 33, 2049, 16385, 524289):
                with mpmath.workdps(80):
                    want = mpmath.zeta(1 + mpmath.mpf(e), a)
                assert abs(_hurwitz_zeta(e, a) - want) <= 1e-15 * want, (e, a)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            EvalConfig(tol=0.0)

    def test_result_validation(self):
        with pytest.raises(DomainError):
            EvalResult(1.0, -1e-3, 5)


class TestGauss2F1:
    def test_value(self):
        # 2F1(1/2, 1/2; 3/2; 1) must be pi/2 by the arcsine series
        assert gauss_2f1_unit(0.5, 0.5, 1.5) == pytest.approx(math.pi / 2.0, rel=1e-13)

    def test_divergent(self):
        with pytest.raises(DomainError, match=r"^2F1 at unit argument needs c - a - b > 0$"):
            gauss_2f1_unit(1.0, 1.0, 2.0)

    def test_uncertified_value_is_a_domain_error(self):
        # the value is 1.000000000025, but the Gamma ratio's bound is 6.3e-3
        with pytest.raises(DomainError, match=r"0\.00628 .* exceeds 2\^-26"):
            gauss_2f1_unit(0.5, 0.5, 1e10)

    def test_leaving_the_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="float range"):
            gauss_2f1_unit(0.5, 0.5, 1e15)
