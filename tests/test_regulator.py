"""Regulator building blocks against frozen references and oracles.

Frozen constants were computed independently with 30+ digit arbitrary
precision arithmetic and rounded to the printed digits.
"""

import math

import pytest

from fermatreg import regulator
from fermatreg.fermat import FormIndex, WedgeIndex, bracket, is_hodge, period
from fermatreg.regulator import (
    f_indec,
    im_reg_mixed,
    log_integral,
    oracle_series_sum,
    reg_holomorphic,
    script_F,
)
from fermatreg.specialfn import Hyp3F2Params, hyp3f2_unit
from fermatreg.specialfn import BudgetExceededError, DomainError, EvalConfig, EvalResult, beta
from fermatreg.verify import de_quadrature, one_minus_root, oracle_projector_integral

CFG = EvalConfig()

SCRIPT_F_FROZEN = [
    # (a, j, b, N, value)
    (1, 1, 1, 3, 1.209199576156145233727),
    (1, 3, 1, 3, 0.6045997880780726165754),
    (1, 5, 1, 5, 0.5455310704014144290535),
    (4, 11, 1, 13, 0.8476504169154773228066),
    (2, 2, 1, 13, 1.081385469000316964849),
    (6, 20, 1, 23, 0.8811801957364871771957),
    (5, 5, 1, 23, 1.016142461912100380173),
]


class TestScriptF:
    def test_frozen_values(self):
        for a, j, b, N, want in SCRIPT_F_FROZEN:
            r = script_F(a, j, b, N, CFG)
            assert abs(r.value - want) <= 1e-9, (a, j, b, N)
            assert abs(r.value - want) <= r.err + 1e-15, (a, j, b, N)

    def test_matches_prefactor_times_3f2(self):
        from fractions import Fraction as Fr

        a, j, b, N = 4, 11, 1, 13
        hyp = hyp3f2_unit(
            Hyp3F2Params(Fr(a + j, N), Fr(j, N), 1, Fr(a + b + j, N), Fr(j + N, N)),
            CFG,
        )
        pref = beta((a + j) / N, b / N) / (j * beta(a / N, b / N))
        got = script_F(a, j, b, N, CFG)
        assert abs(got.value - pref * hyp.value) <= 1e-14 * abs(got.value)

    def test_err_honored_against_mpmath(self):
        # at tol 1e-11 the Beta-ratio prefactor's rounding is no longer
        # swamped by the series err; the comparison is exact, in rationals
        from fractions import Fraction as Fr

        mpmath = pytest.importorskip("mpmath")
        for (a, j, b, N) in ((4, 14, 2, 23), (1, 1, 1, 97), (95, 97, 1, 97),
                             (1, 23, 21, 23), (3, 2, 4, 13)):
            with mpmath.workdps(30):
                q = [mpmath.mpf(v) / N for v in (a + j, j, N, a + b + j, j + N)]
                want = (mpmath.beta(q[0], mpmath.mpf(b) / N)
                        / (j * mpmath.beta(mpmath.mpf(a) / N, mpmath.mpf(b) / N))
                        * mpmath.hyp3f2(*q, 1))
                want = Fr(mpmath.nstr(want, 30))
            r = script_F(a, j, b, N, EvalConfig(tol=1e-11))
            assert abs(Fr(r.value) - want) <= Fr(r.err), (a, j, b, N)

    def test_j_equal_N_term_against_digamma(self):
        # F(a, N, b; N) = (psi((a+b)/N) - psi(b/N)) / N: every holomorphic
        # label for N <= 23, and the labels next to the boundary at large
        # moduli, where the excess b/N is smallest.  Each call certifies
        # within err or raises, and a failure's best result lies within err
        from fractions import Fraction as Fr

        mpmath = pytest.importorskip("mpmath")
        labels = [(a, b, N) for N in range(3, 24) for a in range(1, N - 1)
                  for b in range(1, N - a)]
        for N in (97, 211, 1009, 2003, 10007, 20011):
            labels += [(N - 1 - b, b, N) for b in range(1, 6)]
            labels += [(1, 1, N), (N // 2, 1, N)]
        for a, b, N in labels:
            with mpmath.workdps(30):
                want = (mpmath.digamma(mpmath.mpf(a + b) / N)
                        - mpmath.digamma(mpmath.mpf(b) / N)) / N
                want = Fr(mpmath.nstr(want, 30))
            for tol in (1e-8, 1e-12):
                try:
                    r = script_F(a, N, b, N, EvalConfig(tol=tol))
                    assert r.err <= tol, (a, b, N, tol)
                except BudgetExceededError as exc:
                    r = exc.result
                assert abs(Fr(r.value) - want) <= Fr(r.err), (a, b, N, tol)

    def test_domain(self):
        with pytest.raises(DomainError):
            script_F(1, 0, 1, 3, CFG)  # j must be >= 1
        with pytest.raises(DomainError):
            script_F(3, 1, 1, 3, CFG)  # a = 0 mod N

    def test_budget_failure_names_the_term(self, monkeypatch):
        # the term asks its series for tol / (2 * prefactor), and fails with
        # the series' own message at that share
        shares = []

        def recorded(params, cfg):
            shares.append(cfg)
            return hyp3f2_unit(params, cfg)

        monkeypatch.setattr(regulator, "hyp3f2_unit", recorded)
        a, j, b, N = 4, 11, 1, 13
        pref = beta((a + j) / N, b / N) / (j * beta(a / N, b / N))
        with pytest.raises(BudgetExceededError) as ei:
            script_F(17, 11, 1, 13, EvalConfig(tol=1e-14))
        (share,) = shares
        assert share.tol == pytest.approx(1e-14 / (2 * pref), rel=1e-12, abs=0.0)
        with pytest.raises(BudgetExceededError) as inner:
            hyp3f2_unit(Hyp3F2Params("15/13", "11/13", 1, "16/13", "24/13"), share)
        assert str(ei.value) == f"script-F term (4, 11, 1; 13): {inner.value}"
        # the attached result is a script-F value: the Beta-ratio prefactor
        # times the series' best result, its err scaled with it
        got, raw = ei.value.result, inner.value.result
        assert abs(got.value - pref * raw.value) <= 1e-14 * abs(got.value)
        assert got.err >= pref * raw.err
        assert got.effort == raw.effort


class TestLogIntegral:
    def test_frozen_values(self):
        # the x side of (1, 2), and its y side: the x side of the swapped label
        rx = log_integral(1, 2, 5, CFG)
        ry = log_integral(2, 1, 5, CFG)
        assert abs(rx.value + 2.655269323666501413924) <= 1e-9
        assert abs(ry.value + 6.9623134996564950831) <= 1e-9
        assert rx.value < 0.0 and ry.value < 0.0

    def test_against_direct_quadrature(self):
        # (1/N) * int_0^1 log(1 - t^(1/N)) t^(a/N-1) (1-t)^(b/N-1) dt
        a, b, N = 1, 2, 5
        q = de_quadrature(
            lambda x, xc: math.log(one_minus_root(x, xc, N))
            * x ** (a / N - 1.0) * xc ** (b / N - 1.0),
            EvalConfig(tol=1e-11),
        )
        want = q.value / N
        r = log_integral(a, b, N, CFG)
        assert abs(r.value - want) <= r.err + q.err / N

    def test_domain(self):
        with pytest.raises(DomainError):
            log_integral(2, 4, 5, CFG)  # not holomorphic


class TestRegHolomorphic:
    def test_frozen_value(self):
        r = reg_holomorphic(1, 2, 5, CFG)
        assert abs(r.value - 6.298611257238236098715) <= 1e-8
        assert r.err <= 2 * 5 * CFG.tol

    def test_diagonal_vanishes_exactly(self):
        for (a, N) in ((1, 3), (1, 5), (2, 5), (3, 7)):
            assert reg_holomorphic(a, a, N, CFG).value == 0.0

    def test_antisymmetry_is_exact(self):
        for (a, b, N) in ((1, 2, 5), (2, 3, 7), (1, 4, 7), (2, 9, 13)):
            r1 = reg_holomorphic(a, b, N, CFG)
            r2 = reg_holomorphic(b, a, N, CFG)
            assert r1.value == -r2.value

    def test_normalization_identity(self):
        # reg = 2 (L_x - L_y) / period
        for (a, b, N) in ((1, 2, 5), (2, 3, 7), (1, 1, 3)):
            r = reg_holomorphic(a, b, N, CFG)
            lx = log_integral(a, b, N, CFG)
            ly = log_integral(b, a, N, CFG)
            per = period(FormIndex(N, a, b))
            want = 2.0 * (lx.value - ly.value) / per
            scale = max(1.0, abs(r.value))
            assert abs(r.value - want) <= 1e-12 * scale + (lx.err + ly.err) / per

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_holomorphic(2, 4, 5, CFG)


class TestImRegMixed:
    def test_frozen_value(self):
        r = im_reg_mixed(1, 2, 1, 4, 13, CFG)
        assert abs(r.value - 25.47145364258486721259) <= 1e-8
        assert abs(r.value - 25.47145364258486721259) <= r.err + 1e-12

    def test_diagonal_vanishes_exactly(self):
        for (a, b, N) in ((1, 2, 13), (1, 4, 13), (2, 3, 17)):
            assert im_reg_mixed(a, b, a, b, N, CFG).value == 0.0

    def test_swap_negates_exactly(self):
        for (a, b, c, d, N) in (
            (1, 2, 1, 4, 13),   # first-kind delta
            (1, 2, 3, 2, 13),   # second-kind delta
            (1, 2, 1, 2, 13),   # both deltas
        ):
            r1 = im_reg_mixed(a, b, c, d, N, CFG)
            r2 = im_reg_mixed(c, d, a, b, N, CFG)
            assert r1.value == -r2.value

    def test_disjoint_labels_give_exact_zero(self):
        # neither a = c nor b = d: every term carries a vanishing delta
        r = im_reg_mixed(1, 2, 2, 4, 13, CFG)
        assert r.value == 0.0 and r.err == 0.0

    def test_label_reduction(self):
        r1 = im_reg_mixed(1, 2, 1, 4, 13, CFG)
        r2 = im_reg_mixed(14, 15, 1, 17, 13, CFG)
        assert r1.value == r2.value

    def test_domain(self):
        with pytest.raises(DomainError):
            im_reg_mixed(2, 4, 1, 2, 5, CFG)  # (2, 4) not holomorphic mod 5


class TestDistinctTerms:
    """A pairing evaluates each distinct script-F term once per call."""

    @staticmethod
    def counted_script_F(monkeypatch):
        calls = []
        inner = regulator.script_F

        def wrapper(a, j, b, N, cfg):
            calls.append((a, j, b, N))
            return inner(a, j, b, N, cfg)

        monkeypatch.setattr(regulator, "script_F", wrapper)
        return calls

    def test_holomorphic_diagonal(self, monkeypatch):
        # the two sums name the same N terms: value, err bits and half the work
        calls = self.counted_script_F(monkeypatch)
        r = reg_holomorphic(2, 2, 7, CFG)
        assert len(calls) == 7 == len(set(calls))
        assert r.value == 0.0
        assert r.err == 6.274318846758462e-13
        assert r.effort == 455

    def test_mixed_diagonal(self, monkeypatch):
        calls = self.counted_script_F(monkeypatch)
        r = im_reg_mixed(1, 2, 1, 2, 13, CFG)
        assert sorted(calls) == [(1, 13, 2, 13), (2, 13, 1, 13)]
        assert r.value == 0.0
        assert r.err == 6.98487312699301e-12

    def test_off_diagonal_labels_keep_every_term(self, monkeypatch):
        calls = self.counted_script_F(monkeypatch)
        r = reg_holomorphic(1, 2, 13, CFG)
        assert len(calls) == 26
        assert (r.value, r.err, r.effort) == (14.622432385257119, 1.9152300389896438e-12, 1690)
        calls.clear()
        r = im_reg_mixed(1, 2, 1, 4, 13, CFG)
        assert len(calls) == 2
        assert (r.value, r.err, r.effort) == (25.471453642584862, 7.314889792063921e-12, 130)


F_TABLE_FROZEN = [
    # (i, N, value)
    (2, 13, 0.075359330303505524298),
    (3, 13, 0.05108320513361574),
    (2, 17, 0.059196721586418304242),
    (3, 17, 0.041906735858942224519),
    (4, 17, 0.030688281369130834137),
    (3, 19, 0.038225053849938705126),
    (4, 19, 0.02853174960036119678),
    (3, 23, 0.03235880061691466437),
    (4, 23, 0.024713653194557154154),
    (5, 23, 0.019332253450778757498),
]


class TestFIndec:
    def test_frozen_values(self):
        for i, N, want in F_TABLE_FROZEN:
            r = f_indec(i, N, CFG)
            assert abs(r.value - want) <= 1e-8, (i, N)
            assert abs(r.value - want) <= r.err + 1e-12, (i, N)
            assert not is_hodge(WedgeIndex(FormIndex(N, 1, i), FormIndex(N, 1, 2 * i)))

    def test_scaling_against_mixed_regulator(self):
        i, N = 3, 13
        r = f_indec(i, N, CFG)
        m = im_reg_mixed(1, i, 1, 2 * i, N, CFG)
        assert abs(r.value - m.value / (2.0 * N * N)) <= 1e-15

    def test_err_stays_below_tol(self):
        cfg = EvalConfig(tol=1e-10)
        for N in (13, 29, 97):
            for i in range(2, N // 4 + 1):
                assert f_indec(i, N, cfg).err <= cfg.tol, (i, N)

    @pytest.mark.parametrize("tol", [1e-12, 1e-13])
    def test_table_certifies_at_tight_tol(self, tol):
        # all 228 rows of primes 13-97; the direct series stops near 1e-10
        cfg = EvalConfig(tol=tol)
        rows = 0
        for N in (n for n in range(13, 98) if all(n % q for q in range(2, n))):
            for i in range(2, N // 4 + 1):
                assert f_indec(i, N, cfg).err <= cfg.tol, (i, N)
                rows += 1
        assert rows == 228

    def test_hodge_flag_positive_case(self):
        # at i = 4, N = 13 the wedge (1,4)^(1,8) satisfies 3i + 1 = N
        assert is_hodge(WedgeIndex(FormIndex(13, 1, 4), FormIndex(13, 1, 8)))

    def test_non_prime_rejected(self):
        for N in (9, 15, 21):
            with pytest.raises(DomainError, match=f"defined for prime N, got {N}$"):
                f_indec(2, N, CFG)

    def test_degenerate_i_rejected(self):
        with pytest.raises(DomainError):
            f_indec(13, 13, CFG)
        with pytest.raises(DomainError):
            f_indec(0, 13, CFG)


class TestOracleSeriesSum:
    def test_frozen_values(self):
        r = oracle_series_sum(1, 2, 5, CFG)
        assert abs(r.value - 2.655269323666501413652) <= 1e-9
        assert abs(r.value - 2.655269323666501413652) <= r.err
        r = oracle_series_sum(1, 1, 3, CFG)
        assert abs(r.value - 4.541582246357619653326) <= 1e-9

    def test_negates_log_integral(self):
        for (a, b, N) in ((1, 2, 5), (2, 3, 7)):
            s = oracle_series_sum(a, b, N, CFG)
            l = log_integral(a, b, N, CFG)
            assert abs(s.value + l.value) <= s.err + l.err

    # oracle_series_sum(a, b, N) for every holomorphic label with N <= 7,
    # verify's three among them: the sum regrouped by shift j,
    # (1/N) sum_{j=1..N} B((a+j)/N, b/N)
    #     3F2((a+j)/N, j/N, 1; (a+b+j)/N, j/N + 1; 1) / j,
    # made with mpmath 1.3.0 by
    #     with mpmath.workdps(30):
    #         n = mpmath.mpf(b) / N
    #         want = 0
    #         for j in range(1, N + 1):
    #             x, y, c = (mpmath.mpf(v) / N for v in (a + j, j, a + b + j))
    #             want += mpmath.beta(x, n) * mpmath.hyp3f2(x, y, 1, c, y + 1, 1) / j
    #         ref = mpmath.nstr(want / N, 30)
    # and within 3.6e-30 relative of the same sum at 60 digits
    SERIES_REFS = {
        (1, 1, 3): "4.54158224635761965353963849893",
        (1, 1, 4): "5.96657205388369423566831852341",
        (1, 2, 4): "2.19321070424270064259690121796",
        (2, 1, 4): "5.63526000283314063126850783873",
        (1, 1, 5): "7.27953073544802808964261058512",
        (1, 2, 5): "2.65526932366650141401471743293",
        (1, 3, 5): "1.64137592505860282210910502483",
        (2, 1, 5): "6.96231349965649508309957489689",
        (2, 2, 5): "2.36152951613933243674869549108",
        (3, 1, 5): "6.76475320547386587726950025729",
        (1, 1, 6): "8.52360356197658735834067867909",
        (1, 2, 6): "3.06813977197941025695576846499",
        (1, 3, 6): "1.89036590115980894780575710655",
        (1, 4, 6): "1.41283571091843091863852954294",
        (2, 1, 6): "8.21767223765909689879905947194",
        (2, 2, 6): "2.77837872132477533324945187554",
        (2, 3, 6): "1.61342186972213454911093950049",
        (3, 1, 6): "8.02920335858247356657841135118",
        (3, 2, 6): "2.60458712938753720939928613103",
        (4, 1, 6): "7.89436363101576383431810998346",
        (1, 1, 7): "9.72214673303991567171285160398",
        (1, 2, 7): "3.44803929435050973857835900972",
        (1, 3, 7): "2.11087326598427202232240816169",
        (1, 4, 7): "1.57521117943913055932563311757",
        (1, 5, 7): "1.29260438216484821531038072401",
        (2, 1, 7): "9.42504870717564691372641165222",
        (2, 2, 7): "3.1625568538408847280004146551",
        (2, 3, 7): "1.83487979015140254710554172727",
        (2, 4, 7): "1.30718086359195078496014192832",
        (3, 1, 7): "9.24390398665442907586520413177",
        (3, 2, 7): "2.99207532831022159918906143912",
        (3, 3, 7): "1.67300420639483289592759455379",
        (4, 1, 7): "9.11528008260670396902740684032",
        (4, 2, 7): "2.87333135251581859937411568236",
        (5, 1, 7): "9.01599157860204919297242275127",
    }

    def test_err_honored_against_mpmath(self):
        from fractions import Fraction as Fr

        labels = [(a, b, N) for N in range(3, 8) for a in range(1, N)
                  for b in range(1, N - a)]
        assert sorted(self.SERIES_REFS) == sorted(labels)
        assert {(1, 2, 5), (1, 1, 3), (2, 3, 7)} <= set(labels)
        for (a, b, N), ref in self.SERIES_REFS.items():
            r = oracle_series_sum(a, b, N, CFG)
            assert abs(Fr(r.value) - Fr(ref)) <= Fr(r.err), (a, b, N)

    def test_b1_labels_certify_at_default_tol(self):
        # a fixed 32768 terms charged each of them 2 eps (32768//N + 2) of
        # rounding, and from N = 19 on that charge alone broke 1e-8 at b = 1;
        # a fitted tail then failed it from N = 55 on, with smallest errs
        # 1.00e-8 and 1.62e-8 at (1, 1; 55) and (1, 1; 101)
        for (a, b, N) in ((1, 1, 19), (9, 1, 19), (1, 1, 23), (15, 1, 23),
                          (1, 1, 55), (1, 1, 101)):
            s = oracle_series_sum(a, b, N, CFG)
            l = log_integral(a, b, N, CFG)
            assert s.err <= CFG.tol, (a, b, N)
            assert abs(s.value + l.value) <= s.err + l.err, (a, b, N)

    def test_stops_where_err_stops_falling(self):
        # verify's three labels, with each err at the fixed 32768 terms
        # the oracle used to build: the search stops by K = 2048 (so it
        # builds at most 4096 terms) and returns a smaller err
        for (a, b, N), err_at_32768 in (((1, 2, 5), 1.481628031403141e-10),
                                        ((1, 1, 3), 8.341218889193838e-10),
                                        ((2, 3, 7), 6.115797096418186e-11)):
            r = oracle_series_sum(a, b, N, CFG)
            assert r.effort <= 4096, (a, b, N)
            assert r.err <= err_at_32768, (a, b, N)

    def test_budget_failure_names_the_label(self):
        with pytest.raises(BudgetExceededError) as ei:
            oracle_series_sum(1, 1, 13, EvalConfig(tol=1e-12))
        best = ei.value.result
        msg = str(ei.value)
        assert msg.startswith("series oracle (1, 1; 13): tolerance 1e-12 not reached")
        assert f"smallest err {best.err:.3g} at K = " in msg
        assert 1e-12 < best.err < 1e-8
        # the best K is a checkpoint, and every term built counts
        K = int(msg.split("at K = ")[1].split()[0])
        assert K in (1024, 2048, 4096, 8192, 16384) and best.effort == 2 * K
        assert f"of {best.effort} terms" in msg

    def test_first_tail_past_the_budget_is_a_domain_error(self):
        # the first tail needs K >= 8 max(a+b, N), past 32768 terms here
        with pytest.raises(DomainError, match="32768-term budget"):
            oracle_series_sum(1, 1, 4099, CFG)

    def test_terms_positive_and_increasing_partials(self):
        a, b, N = 1, 2, 5
        terms = [beta((a + j) / N, b / N) / (j * N) for j in range(1, 200)]
        assert all(t > 0.0 for t in terms)
        r = oracle_series_sum(a, b, N, CFG)
        assert sum(terms) < r.value


class TestProjectorOracles:
    # the composite moduli 9 and 12 are ones where `reg mixed` prints a
    # Hodge flag
    def test_x_variable_against_closed_form(self):
        # second labels matching in b picks out -F(a, <c-a>, b)
        for (a, b, c, d, N) in ((1, 2, 3, 2, 7), (1, 2, 3, 2, 9), (1, 2, 5, 2, 12)):
            o = oracle_projector_integral(a, b, c, d, N, CFG)
            closed = script_F(a, bracket(c - a, N), b, N, CFG)
            assert abs(o.value.real + closed.value) <= o.err + closed.err, N
            assert abs(o.value.imag) <= o.err, N

    def test_y_variable_against_closed_form(self):
        # the y side of (a, b), (c, d) is the x side of the swapped labels:
        # first labels matching in a picks out -F(b, <d-b>, a)
        for (a, b, c, d, N) in ((1, 2, 1, 1, 5), (1, 3, 1, 5, 9), (5, 2, 5, 4, 12)):
            o = oracle_projector_integral(b, a, d, c, N, CFG)
            closed = script_F(b, bracket(d - b, N), a, N, CFG)
            assert abs(o.value.real + closed.value) <= o.err + closed.err, N

    def test_miss_gives_zero(self):
        o = oracle_projector_integral(1, 2, 3, 1, 7, CFG)  # d != b
        assert abs(o.value) <= o.err
        o = oracle_projector_integral(2, 1, 1, 3, 7, CFG)  # y side: c != a
        assert abs(o.value) <= o.err


class TestPairingSurface:
    @pytest.mark.parametrize("call", [
        lambda: hyp3f2_unit(Hyp3F2Params(1, 1, 1, 2, 2), CFG),
        lambda: de_quadrature(lambda x, xc: x, CFG),
        lambda: script_F(1, 2, 3, 13, CFG),
        lambda: log_integral(1, 2, 5, CFG),
        lambda: reg_holomorphic(1, 2, 5, CFG),
        lambda: im_reg_mixed(1, 2, 1, 4, 13, CFG),
        lambda: f_indec(2, 13, CFG),
        lambda: oracle_series_sum(1, 2, 5, CFG),
        lambda: oracle_projector_integral(1, 2, 1, 1, 5, CFG),
    ], ids=["hyp3f2_unit", "de_quadrature", "script_F", "log_integral",
            "reg_holomorphic", "im_reg_mixed", "f_indec", "oracle_series_sum",
            "oracle_projector_integral"])
    def test_every_evaluator_returns_an_eval_result(self, call):
        assert type(call()) is EvalResult

    # (2, 4) mod 5 is an eigenform label, but not a holomorphic one
    @pytest.mark.parametrize("call", [
        lambda: log_integral(2, 4, 5, CFG),
        lambda: reg_holomorphic(7, 4, 5, CFG),
        lambda: im_reg_mixed(1, 2, 2, 4, 5, CFG),
        lambda: oracle_projector_integral(1, 2, 2, 4, 5, CFG),
    ], ids=["log_integral", "reg_holomorphic", "im_reg_mixed",
            "oracle_projector_integral"])
    def test_non_holomorphic_label_raises_domain_error(self, call):
        with pytest.raises(DomainError, match="not a holomorphic label"):
            call()

    def test_err_honored_against_mpmath(self):
        # each pairing against its closed form at 30 digits, with the exact
        # Beta and mu_half weights; the comparison is exact, in rationals
        from fractions import Fraction as Fr
        from functools import cache

        mpmath = pytest.importorskip("mpmath")
        mpf = mpmath.mpf
        cfg = EvalConfig(tol=1e-10)

        @cache
        def F(a, j, b, N):
            q = [mpf(v) / N for v in (a + j, j, N, a + b + j, j + N)]
            return (mpmath.beta(q[0], mpf(b) / N)
                    / (j * mpmath.beta(mpf(a) / N, mpf(b) / N))
                    * mpmath.hyp3f2(*q, 1))

        def im_mu_half(a, b, N):
            s = [mpmath.sin(mpmath.pi * x / (2 * N)) for x in (a, b, a + b)]
            return -2 * N * N * s[0] * s[1] / s[2]

        def check(r, want, case):
            assert abs(Fr(r.value) - Fr(mpmath.nstr(want, 30))) <= Fr(r.err), case

        with mpmath.workdps(30):
            for (a, b, N) in ((1, 2, 5), (2, 3, 7)):
                js = range(1, N + 1)
                check(reg_holomorphic(a, b, N, cfg),
                      2 * mpmath.fsum(F(b, j, a, N) - F(a, j, b, N) for j in js),
                      (a, b, N))
                for (x, y) in ((a, b), (b, a)):  # the x side and the y side
                    want = (-mpmath.beta(mpf(x) / N, mpf(y) / N) / N
                            * mpmath.fsum(F(x, j, y, N) for j in js))
                    check(log_integral(x, y, N, cfg), want, (x, y, N))
            # a == c, b == d, and the f(2, 13) wedge
            for (a, b, c, d, N) in ((2, 3, 2, 1, 7), (1, 2, 3, 2, 7), (1, 2, 1, 4, 13)):
                m_ab, m_cd = im_mu_half(a, b, N), im_mu_half(c, d, N)
                want = 0
                if a == c:
                    want += (m_ab * F(d, bracket(b - d, N), c, N)
                             - m_cd * F(b, bracket(d - b, N), a, N))
                if b == d:
                    want += (m_cd * F(a, bracket(c - a, N), b, N)
                             - m_ab * F(c, bracket(a - c, N), d, N))
                check(im_reg_mixed(a, b, c, d, N, cfg), 2 * want, (a, b, c, d, N))


class TestTolContract:
    """Each pairing layer returns err <= tol or raises BudgetExceededError."""

    @staticmethod
    def calls(N):
        labels = [(a, b) for a in range(1, N) for b in range(1, N - a)]
        for a, b in labels:
            yield script_F, (a, N, b, N)
            yield log_integral, (a, b, N)
            if a <= b:  # the swapped label negates the value, err bit for bit
                yield reg_holomorphic, (a, b, N)
        # unordered pairs that share one residue: swapping the pairs
        # negates the value, err bit for bit
        for k, (a, b) in enumerate(labels):
            for (c, d) in labels[k + 1:]:
                if (a == c) != (b == d):
                    yield im_reg_mixed, (a, b, c, d, N)
        for i in range(2, N // 4 + 1):
            yield f_indec, (i, N)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12, 1e-13])
    def test_err_within_tol_or_budget_error(self, tol):
        cfg = EvalConfig(tol=tol)
        for N in (5, 7, 11, 13):
            for fn, args in self.calls(N):
                try:
                    r = fn(*args, cfg)
                except BudgetExceededError:
                    continue
                assert r.err <= tol, (fn.__name__, args)

    # label pairs sharing b (a hit on the x side, a miss on the y side) and
    # sharing a (the reverse); 9 and 12 are composite moduli
    PROJECTOR_PAIRS = [((2, 1), (1, 1), 5), ((1, 1), (1, 2), 5),
                       ((1, 2), (3, 2), 7), ((1, 2), (1, 4), 7),
                       ((1, 2), (3, 2), 9), ((1, 3), (1, 5), 9),
                       ((1, 2), (5, 2), 12), ((5, 2), (5, 4), 12)]

    @pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-13, 1e-14])
    def test_projector_oracle_within_tol_or_carries_its_value(self, tol):
        cfg = EvalConfig(tol=tol)
        for (a, b), (c, d), N in self.PROJECTOR_PAIRS:
            # the x side, then the y side: the x side of the swapped labels
            for args in ((a, b, c, d), (b, a, d, c)):
                x, y, u, v = args
                want = script_F(x, bracket(u - x, N), y, N) if y == v else EvalResult(0.0, 0.0, 0)
                try:
                    o = oracle_projector_integral(*args, N, cfg)
                    assert o.err <= tol, (args, N)
                except BudgetExceededError as exc:
                    assert str(exc).startswith(f"projector oracle ({x}, {y}; {u}, {v}; {N}): ")
                    o = exc.result
                assert abs(o.value + want.value) <= o.err + want.err, (args, N)
