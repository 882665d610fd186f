"""Curve-level combinatorics and constants: residues, labels, periods, mu_half.

Frozen constants were computed independently with 30+ digit arbitrary
precision arithmetic and rounded to the printed digits.
"""

import cmath
import math
from itertools import permutations

import pytest

from fermatreg.fermat import (
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
from fermatreg.specialfn import DomainError, EvalConfig
from fermatreg.verify import de_quadrature


class TestBracket:
    def test_exhaustive_small_moduli(self):
        for N in range(1, 24):
            for a in range(-3 * N, 3 * N + 1):
                got = bracket(a, N)
                assert 1 <= got <= N
                assert (got - a) % N == 0

    def test_multiples_map_to_N(self):
        for N in (1, 2, 5, 13):
            assert bracket(0, N) == N
            assert bracket(N, N) == N
            assert bracket(-N, N) == N

    def test_domain(self):
        with pytest.raises(DomainError):
            bracket(1, 0)


class TestIndexSet:
    def test_membership(self):
        assert is_in_IN(1, 1, 3)
        assert not is_in_IN(1, 2, 3)  # a + b = 0 mod 3
        assert not is_in_IN(3, 1, 3)  # a = 0 mod 3
        assert is_in_IN(1, 2, 5)
        assert not is_in_IN(5, 2, 5)

    def test_count_matches_twice_genus(self):
        # the labels come in (a, b) ordered pairs; there are (N-1)(N-2)
        # of them, twice the genus
        for N in range(3, 51):
            count = sum(
                1 for a in range(1, N) for b in range(1, N) if is_in_IN(a, b, N)
            )
            assert count == 2 * genus(N)

    def test_genus_values(self):
        assert genus(3) == 1
        assert genus(4) == 3
        assert genus(5) == 6
        assert genus(23) == 231

    def test_domain(self):
        with pytest.raises(DomainError):
            genus(2)
        with pytest.raises(DomainError):
            is_in_IN(1, 1, 2)


class TestFormIndex:
    def test_reduction(self):
        idx = FormIndex(13, 14, -2)
        assert (idx.a, idx.b) == (1, 11)

    def test_validation(self):
        with pytest.raises(DomainError):
            FormIndex(5, 1, 4)  # a + b = 0 mod 5
        with pytest.raises(DomainError):
            FormIndex(5, 5, 1)

    def test_holomorphic_flag(self):
        assert FormIndex(5, 1, 2).holomorphic
        assert FormIndex(5, 1, 3).holomorphic
        assert not FormIndex(5, 2, 4).holomorphic
        # holomorphic labels of N are exactly the genus-many a+b < N ones
        for N in (3, 5, 7, 13):
            holo = [
                (a, b)
                for a in range(1, N)
                for b in range(1, N)
                if is_in_IN(a, b, N) and FormIndex(N, a, b).holomorphic
            ]
            assert len(holo) == genus(N)


class TestWedgeIndex:
    def test_validation(self):
        WedgeIndex(FormIndex(13, 1, 2), FormIndex(13, 1, 4))
        with pytest.raises(DomainError):
            WedgeIndex(FormIndex(13, 1, 2), FormIndex(11, 1, 4))
        with pytest.raises(DomainError):
            WedgeIndex(FormIndex(5, 1, 2), FormIndex(5, 2, 4))

    def test_modulus_property(self):
        w = WedgeIndex(FormIndex(13, 1, 2), FormIndex(13, 1, 4))
        assert w.N == 13


class TestPeriod:
    def test_frozen_values(self):
        assert abs(period(FormIndex(3, 1, 1)) - 1.766638750285449957314) <= 1e-12
        assert abs(period(FormIndex(5, 1, 2)) - 1.367617082587983501276) <= 1e-12

    def test_against_euler_integral(self):
        # B(a/N, b/N)/N as a direct singular quadrature
        for (N, a, b) in ((5, 1, 2), (7, 2, 3), (13, 1, 11)):
            q = de_quadrature(
                lambda x, xc, _p=(a / N - 1.0, b / N - 1.0): x ** _p[0] * xc ** _p[1],
                EvalConfig(tol=1e-12),
            )
            want = q.value / N
            assert abs(period(FormIndex(N, a, b)) - want) <= q.err / N + 1e-13


_EPS = 2.0 ** -52


class TestMu:
    """The contract of the root-of-unity coefficient mu_half: its domain,
    its symmetry, its exact zero real part and its cost."""

    def test_frozen_value(self):
        # mu_half(1, 1) at N = 3 is -3 sqrt(3) i
        got = mu_half(1, 1, 3)
        assert got.real == 0.0
        assert abs(got.imag + 3.0 * math.sqrt(3.0)) <= 1e-12

    def test_symmetry(self):
        for N in range(3, 61):
            for a in range(1, N):
                for b in range(a, N):
                    if a + b != N:
                        assert mu_half(a, b, N) == mu_half(b, a, N), (a, b, N)

    def test_purely_imaginary_sweep(self):
        for N in (3, 4, 5, 7, 11, 23, 50, 101):
            for a in range(1, N):
                for b in range(a, N):
                    if not is_in_IN(a, b, N):
                        continue
                    assert mu_half(a, b, N).real == 0.0, (a, b, N)

    def test_magnitude_trig_form(self):
        # past a + b = N the closed form takes sin(pi (a+b)/(2N)) from the
        # far end of [0, pi]; the formula itself holds on every label
        for (a, b, N) in ((2, 2, 3), (3, 4, 5), (7, 9, 11), (20, 22, 23)):
            z = mu_half(a, b, N)
            want = (
                -2.0 * N * N
                * math.sin(math.pi * a / (2 * N))
                * math.sin(math.pi * b / (2 * N))
                / math.sin(math.pi * (a + b) / (2 * N))
            )
            assert abs(z.imag - want) <= 1e-12 * abs(want)

    def test_domain(self):
        with pytest.raises(DomainError):
            mu_half(3, 1, 3)
        with pytest.raises(DomainError):
            mu_half(1, 2, 3)  # a + b = 0 mod 3

    def test_reduction_keeps_the_bits(self):
        # shifting a, b by multiples of N, of either sign and of any size,
        # gives the same value bit for bit
        for N in range(3, 61):
            for a in range(1, N):
                for b in range(1, N):
                    if a + b != N:
                        want = repr(mu_half(a, b, N))
                        for (i, j) in ((-1, 3), (5, -7), (-10 ** 6, 10 ** 9)):
                            got = repr(mu_half(a + i * N, b + j * N, N))
                            assert got == want, (a, b, N, i, j)

    def test_within_4_eps_of_mpmath(self):
        # the 4-eps bound of TestMuHalf, past its N <= 40 sweep: every label
        # of two larger moduli, and a few labels at the 10^6 of the no-table
        # test
        mpmath = pytest.importorskip("mpmath")
        big = 10 ** 6
        cases = [(N, range(1, N), range(1, N)) for N in (41, 97)]
        cases.append((big, (1, 2, big // 3, big - 1), (1, big // 2, big - 2)))
        with mpmath.workdps(40):
            for (N, As, Bs) in cases:
                for a in As:
                    for b in Bs:
                        if (a + b) % N == 0:
                            continue
                        s = [mpmath.sinpi(mpmath.mpf(k) / (2 * N)) for k in (a, b, a + b)]
                        want = -2 * N * N * s[0] * s[1] / s[2]
                        got = mu_half(a, b, N).imag
                        assert abs(got - want) <= 4 * _EPS * abs(want), (a, b, N)

    def test_modulus_below_3_is_a_domain_error(self):
        for N in (-4, 0, 1, 2):
            with pytest.raises(DomainError, match="at least 3"):
                mu_half(1, 1, N)

    def test_large_modulus_builds_no_table(self):
        # nothing of size N is built: a table of the 2N roots would take
        # ~80 MB here
        import tracemalloc

        N = 10 ** 6
        tracemalloc.start()
        try:
            got = mu_half(1, 2, N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        want = (-2.0 * N * N * math.sin(math.pi / (2 * N)) * math.sin(math.pi / N)
                / math.sin(3 * math.pi / (2 * N)))
        assert abs(got.imag - want) <= 1e-12 * abs(want)


class TestMuHalf:
    """The value of mu_half: its defining root product, frozen digits and
    its error against mpmath."""

    def test_relation_to_doubled_modulus(self):
        # N^2 (1-z^a)(1-z^b)/(1-z^(a+b)) with z = exp(pi i/N), the 2N-th root
        for (a, b, N) in ((1, 2, 13), (1, 4, 13), (2, 3, 7), (1, 1, 3), (5, 6, 7)):
            z = cmath.exp(complex(0.0, math.pi / N))
            want = N * N * (1 - z ** a) * (1 - z ** b) / (1 - z ** (a + b))
            assert abs(mu_half(a, b, N) - want) <= 1e-12 * abs(want)

    def test_frozen_value(self):
        got = mu_half(1, 2, 13)
        assert abs(got.imag + 27.49554522514654287456) <= 1e-11
        assert abs(got.real) <= 1e-10 * abs(got)

    def test_trig_form(self):
        # Im mu_half(a, b) = -2 N^2 sin(pi a/2N) sin(pi b/2N) / sin(pi (a+b)/2N)
        for (a, b, N) in ((1, 2, 13), (3, 5, 17), (1, 1, 3)):
            want = (
                -2.0 * N * N
                * math.sin(math.pi * a / (2 * N))
                * math.sin(math.pi * b / (2 * N))
                / math.sin(math.pi * (a + b) / (2 * N))
            )
            assert abs(mu_half(a, b, N).imag - want) <= 1e-12 * abs(want)

    def test_exact_real_part_and_reduction(self):
        # on every label: the real part is exactly 0, and shifting a, b by
        # multiples of N keeps every bit
        for N in range(3, 61):
            for a in range(1, N):
                for b in range(1, N):
                    if a + b == N:
                        continue
                    got = mu_half(a, b, N)
                    assert got.real == 0.0, (a, b, N)
                    assert repr(mu_half(a + N, b - 2 * N, N)) == repr(got), (a, b, N)

    def test_within_4_eps_of_mpmath(self):
        # against -2 N^2 sin(pi a/2N) sin(pi b/2N) / sin(pi (a+b)/2N) at 40
        # digits, on every label with N <= 40
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for N in range(3, 41):
                s = [mpmath.sinpi(mpmath.mpf(k) / (2 * N)) for k in range(2 * N)]
                for a in range(1, N):
                    for b in range(1, N):
                        if a + b == N:
                            continue
                        want = -2 * N * N * s[a] * s[b] / s[a + b]
                        got = mu_half(a, b, N).imag
                        assert abs(got - want) <= 4 * _EPS * abs(want), (a, b, N)


class TestHodge:
    def test_spot_examples(self):
        w = WedgeIndex(FormIndex(13, 1, 4), FormIndex(13, 1, 8))
        assert is_hodge(w)  # 3i + 1 = 13 at i = 4
        w = WedgeIndex(FormIndex(13, 1, 2), FormIndex(13, 1, 4))
        assert not is_hodge(w)
        w = WedgeIndex(FormIndex(13, 1, 3), FormIndex(13, 1, 9))
        assert is_hodge(w)  # j = N - 1 - i

    def test_reflexive_and_symmetric(self):
        for N in (5, 7, 13):
            labels = [
                FormIndex(N, a, b)
                for a in range(1, N)
                for b in range(1, N)
                if is_in_IN(a, b, N) and a + b < N
            ]
            for i1 in labels:
                assert is_hodge(WedgeIndex(i1, i1))
                for i2 in labels:
                    lhs = is_hodge(WedgeIndex(i1, i2))
                    assert lhs == is_hodge(WedgeIndex(i2, i1))
                    # the defining triple multiset ignores the (a, b) order
                    swapped = FormIndex(N, i1.b, i1.a)
                    assert lhs == is_hodge(WedgeIndex(swapped, i2))

    def test_matches_multiset_definition(self):
        # every prime <= 101: true within each class of labels sharing the
        # multiset {a, b, N-a-b}, false between the classes' representatives
        for N in (n for n in range(5, 102) if is_prime(n)):
            classes = [[FormIndex(N, a, b) for (a, b, _) in
                        sorted(set(permutations((x, y, N - x - y))))]
                       for x in range(1, N // 3 + 1)
                       for y in range(x, (N - x) // 2 + 1)]
            assert sum(map(len, classes)) == genus(N)
            for cls in classes:
                for i1 in cls:
                    for i2 in cls:
                        assert is_hodge(WedgeIndex(i1, i2)), (i1, i2)
            reps = [cls[0] for cls in classes]
            for k, r1 in enumerate(reps):
                for r2 in reps[k + 1:]:
                    assert not is_hodge(WedgeIndex(r1, r2)), (r1, r2)

    def test_prime_moduli_match_the_unit_criterion(self):
        # for prime N is_hodge compares the multisets; here every pair of
        # labels is held to the criterion itself, unit by unit
        def unit_criterion(w):
            N, (a, b), (c, d) = w.N, w.first[1:], w.second[1:]
            return all((t * a % N + t * b % N < N) == (t * c % N + t * d % N < N)
                       for t in range(1, N))

        for N in (5, 7, 11, 13, 17, 19, 23):
            labels = [FormIndex(N, a, b) for a in range(1, N) for b in range(1, N - a)]
            for i1 in labels:
                for i2 in labels:
                    w = WedgeIndex(i1, i2)
                    assert is_hodge(w) == unit_criterion(w), (i1, i2)

    def test_one_i_family_characterization(self):
        # (1, i) pairs with (1, j) exactly when j = i or j = N - 1 - i
        for N in (13, 17, 19, 23):
            for i in range(1, N - 1):
                for j in range(1, N - 1):
                    w = WedgeIndex(FormIndex(N, 1, i), FormIndex(N, 1, j))
                    assert is_hodge(w) == (j == i or j == N - 1 - i)

    def test_composite_modulus_beyond_the_multisets(self):
        # {1, 1, 4} and {1, 2, 3} differ, but the units mod 6 are 1 and 5,
        # and t = 5 makes both labels antiholomorphic
        assert is_hodge(WedgeIndex(FormIndex(6, 1, 1), FormIndex(6, 1, 2)))
        assert not is_hodge(WedgeIndex(FormIndex(7, 1, 1), FormIndex(7, 1, 2)))

    def test_cover_invariance(self):
        # a label (ga, gb) mod gN comes from (a, b) on the degree-N curve
        for g in (2, 3):
            for N in range(3, 12):
                labels = [(a, b) for a in range(1, N) for b in range(1, N - a)]
                for (a, b) in labels:
                    for (c, d) in labels:
                        w = WedgeIndex(FormIndex(N, a, b), FormIndex(N, c, d))
                        wg = WedgeIndex(FormIndex(g * N, g * a, g * b),
                                        FormIndex(g * N, g * c, g * d))
                        assert is_hodge(wg) == is_hodge(w), (g, N, a, b, c, d)


class TestPrime:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(-2, 50):
            assert is_prime(n) == (n in primes)
