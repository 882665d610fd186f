"""Self-check suites: invariants with measured discrepancies.

Each check returns its name, whether it passed, the measured discrepancy and
the threshold it was held to, so the CLI can print one line per property.
Every suite runs at the default ``EvalConfig()`` and takes no argument.
The random draws are seeded, making every suite deterministic.
"""

import math
import random
from collections import namedtuple
from fractions import Fraction

from . import fermat, regulator, specialfn
from .specialfn import EvalConfig, Hyp3F2Params

__all__ = ["CheckResult", "run_suite", "SUITES"]


class CheckResult(namedtuple("CheckResult", "name passed discrepancy threshold")):
    """One property's outcome: the measured discrepancy against its threshold."""

    __slots__ = ()

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} {self.name}: discrepancy {self.discrepancy:.3e}"
                f" (allowed {self.threshold:.3e})")


def _check(name: str, discrepancy: float, threshold: float) -> CheckResult:
    return CheckResult(name, discrepancy <= threshold, discrepancy, threshold)


# --- special-function checks ------------------------------------------------

# 3F2((a+j)/N, j/N, 1; (a+b+j)/N, j/N + 1; 1) of script-F terms (a, j, b; N),
# computed with mpmath 1.3.0 at 40 and 60 digits and rounded to 30
_SCRIPT_F_3F2_REFS = {
    (1, 1, 2, 5): "1.29521520694121400612061529881",
    (3, 2, 4, 13): "1.31678783230207646662837988403",
    (1, 23, 21, 23): "1.73842836504399633062384869995",
    (5, 7, 11, 23): "1.40235353667079277379952956569",
    (4, 14, 2, 23): "7.40325865026575940046941996784",
    (95, 97, 1, 97): "97.9867770560039963598182783808",  # excess 1/97
}


def _special_checks() -> list[CheckResult]:
    rng = random.Random(20260819)
    out = []

    worst = 0.0
    for _ in range(60):
        m = math.exp(rng.uniform(math.log(0.05), math.log(10.0)))
        n = math.exp(rng.uniform(math.log(0.05), math.log(10.0)))
        lhs = specialfn.beta(m, n)
        rhs = specialfn.beta(m + 1.0, n) + specialfn.beta(m, n + 1.0)
        worst = max(worst, abs(lhs - rhs) / lhs)
    out.append(_check("beta contiguous recurrence (relative)", worst, 1e-12))

    basel = specialfn.hyp3f2_unit(Hyp3F2Params(1, 1, 1, 2, 2))
    out.append(_check("unit-argument series vs pi^2/6",
                      abs(basel.value - math.pi ** 2 / 6.0), 1e-10))

    trunc = specialfn.hyp3f2_unit(Hyp3F2Params(Fraction(1, 2), 0, 3, Fraction(1, 5), 7))
    out.append(_check("zero upper parameter gives exactly 1",
                      abs(trunc.value - 1.0), 0.0))

    worst = 0.0
    for _ in range(20):
        a = Fraction(rng.randrange(1, 40), rng.randrange(37, 60))
        b = Fraction(rng.randrange(1, 40), rng.randrange(37, 60))
        c = a + b + Fraction(rng.randrange(5, 40), rng.randrange(5, 40))
        x = Fraction(rng.randrange(1, 30), rng.randrange(7, 30))
        got = specialfn.hyp3f2_unit(Hyp3F2Params(a, b, x, c, x))
        want = specialfn.gauss_2f1_unit(float(a), float(b), float(c))
        worst = max(worst, abs(got.value - want))
    out.append(_check("degenerate (cancelling-parameter) Gauss closed form",
                      worst, EvalConfig().tol + 1e-12))

    worst = 0.0
    for key, ref in _SCRIPT_F_3F2_REFS.items():
        r = specialfn.hyp3f2_unit(regulator._script_F_params(*key))
        worst = max(worst, float(abs(Fraction(r.value) - Fraction(ref)) - Fraction(r.err)))
    out.append(_check("3F2 err honored against 30-digit references",
                      max(worst, 0.0), 0.0))

    q = specialfn.de_quadrature(lambda x, xc: x ** (-0.5) * xc ** (-0.5), EvalConfig())
    out.append(_check("endpoint-singular quadrature vs pi",
                      abs(q.value - math.pi), 1e-10))
    q = specialfn.de_quadrature(lambda x, xc: math.log(xc), EvalConfig())
    out.append(_check("log-endpoint quadrature vs -1", abs(q.value + 1.0), 1e-8))

    return out


# --- curve-constant checks --------------------------------------------------

def _one_minus_roots(N: int) -> list[complex]:
    """The N values 1 - z^k, k = 0..N-1, z = exp(2 pi i/N)."""
    th = 2.0 * math.pi / N
    return [1.0 - complex(math.cos(th * k), math.sin(th * k)) for k in range(N)]


def _root_product(w: list[complex], a: int, b: int) -> complex:
    """The product N^2 (1-z^a)(1-z^b)/(1-z^(a+b)), z = exp(2 pi i/N), from
    ``w = _one_minus_roots(N)``; at the doubled modulus 2N, over 4, it is
    fermat.mu_half's defining product at N."""
    N = len(w)
    return N * N * (w[a] * w[b]) / w[(a + b) % N]


def _fermat_checks() -> list[CheckResult]:
    out = []

    ok = True
    for N in range(3, 24):
        for a in range(-2 * N, 2 * N + 1):
            r = fermat.bracket(a, N)
            if not (1 <= r <= N) or fermat.bracket(a + N, N) != r:
                ok = False
        if fermat.bracket(N, N) != N or fermat.bracket(0, N) != N:
            ok = False
    out.append(_check("bracket lands in {1..N} with period N", 0.0 if ok else 1.0, 0.0))

    ok = True
    for N in range(3, 51):
        holo = sum(1 for a in range(1, N) for b in range(1, N - a)
                   if fermat.is_in_IN(a, b, N))
        if holo != fermat.genus(N):
            ok = False
    out.append(_check("genus equals count of holomorphic eigenform labels",
                      0.0 if ok else 1.0, 0.0))

    # 12 854 labels in all
    worst_re = 0.0
    worst_im = 0.0
    for N in (3, 4, 5, 7, 11, 23, 50, 101):
        w = _one_minus_roots(2 * N)
        for a in range(1, N):
            for b in range(1, N):
                if a + b == N:
                    continue
                p = _root_product(w, a, b) / 4
                m = fermat.mu_half(a, b, N)
                worst_re = max(worst_re, abs(m.real - p.real) / abs(p))
                worst_im = max(worst_im, abs(m.imag - p.imag) / abs(p.imag))
    out.append(_check("Re mu_half matches the doubled-modulus root product's real part "
                      "(relative to |mu_half|)", worst_re, 1e-10))
    out.append(_check("Im mu_half matches the doubled-modulus root product over 4 (relative)",
                      worst_im, 1e-12))

    # each FormIndex is built once per loop that uses it
    ok = True
    for N in (5, 7, 11, 13, 17, 19, 23):
        for a in range(1, N):
            for b in range(1, N - a):
                idx = fermat.FormIndex(N, a, b)
                if not fermat.is_hodge(fermat.WedgeIndex(idx, idx)):
                    ok = False
        ones = [fermat.FormIndex(N, 1, i) for i in range(2, N - 2)]
        for i, first in enumerate(ones, 2):
            for j, second in enumerate(ones, 2):
                expected = (j == i) or (j == N - 1 - i)
                if fermat.is_hodge(fermat.WedgeIndex(first, second)) != expected:
                    ok = False
    out.append(_check("Hodge predicate: reflexive, and (1,i)~(1,j) iff j=i or j=N-1-i",
                      0.0 if ok else 1.0, 0.0))

    got = fermat.period(fermat.FormIndex(3, 1, 1))
    out.append(_check("period of the (1,1) form on the cubic",
                      abs(got - 1.766638750285449957), 1e-12))

    return out


# --- regulator checks --------------------------------------------------------

def _regulator_checks() -> list[CheckResult]:
    out = []

    f113 = regulator.script_F(1, 1, 1, 3)
    out.append(_check("script-F(1,1,1;3) frozen value",
                      abs(f113.value - 1.2091995761561452), EvalConfig().tol + 1e-12))

    # each pairing and log integral is computed once and shared by the checks
    holo = {}
    worst = 0.0
    exact_zero = True
    for (a, b, N) in ((1, 2, 5), (2, 3, 7), (1, 4, 7)):
        r1 = holo[a, b, N] = regulator.reg_holomorphic(a, b, N)
        r2 = regulator.reg_holomorphic(b, a, N)
        worst = max(worst, abs(r1.value + r2.value))
        if regulator.reg_holomorphic(a, a, N).value != 0.0:
            exact_zero = False
    out.append(_check("holomorphic pairing antisymmetry (exact)", worst, 0.0))
    out.append(_check("holomorphic pairing diagonal vanishing (exact)",
                      0.0 if exact_zero else 1.0, 0.0))

    log_x = {}
    worst = 0.0
    for (a, b, N) in ((1, 2, 5), (2, 3, 7)):
        reg = holo[a, b, N]
        lx = log_x[a, b, N] = regulator.log_integral(a, b, N)
        ly = regulator.log_integral(b, a, N)
        per = fermat.period(fermat.FormIndex(N, a, b))
        worst = max(worst, abs(reg.value - 2.0 * (lx.value - ly.value) / per)
                    - (reg.err + 2.0 * (lx.err + ly.err) / per))
    out.append(_check("normalization identity reg = 2(Lx - Ly)/period",
                      max(worst, 0.0), 0.0))

    worst = 0.0
    for (a, b, N) in ((1, 2, 5), (1, 1, 3), (2, 3, 7)):
        s = regulator.oracle_series_sum(a, b, N)
        lx = log_x.get((a, b, N)) or regulator.log_integral(a, b, N)
        worst = max(worst, abs(s.value + lx.value) - (s.err + lx.err))
    out.append(_check("regrouped series equals -log integral within errs",
                      max(worst, 0.0), 0.0))

    swap_ok = True
    diag_ok = True
    for (a, b, c, d, N) in ((1, 2, 1, 4, 13), (1, 3, 1, 6, 17)):
        v1 = regulator.im_reg_mixed(a, b, c, d, N).value
        v2 = regulator.im_reg_mixed(c, d, a, b, N).value
        if v1 != -v2:
            swap_ok = False
        if regulator.im_reg_mixed(a, b, a, b, N).value != 0.0:
            diag_ok = False
    out.append(_check("mixed pairing swap antisymmetry (exact)",
                      0.0 if swap_ok else 1.0, 0.0))
    out.append(_check("mixed pairing diagonal vanishing (exact)",
                      0.0 if diag_ok else 1.0, 0.0))

    # the pairing's formula with mu_half's root product, real part and all
    worst = 0.0
    for (i, N) in ((2, 13), (3, 17)):
        w = _one_minus_roots(2 * N)
        g1 = regulator.script_F(2 * i, N - i, 1, N).value
        g2 = regulator.script_F(i, i, 1, N).value
        m1 = fermat.mu_half(1, i, N)
        m2 = fermat.mu_half(1, 2 * i, N)
        closed = (2.0 * (m1 * g1 - m2 * g2)).imag
        p1 = _root_product(w, 1, i) / 4.0
        p2 = _root_product(w, 1, 2 * i) / 4.0
        product = (2.0 * (p1 * g1 - p2 * g2)).imag
        worst = max(worst, abs(closed - product) / abs(product))
    out.append(_check("mixed pairing agrees with the root-product mu_half (relative)",
                      worst, 1e-9))

    f = regulator.f_indec(2, 13)
    out.append(_check("f(2,13) against its printed reference",
                      abs(f.value - 0.0753593), 2e-6))
    w = fermat.WedgeIndex(fermat.FormIndex(13, 1, 2), fermat.FormIndex(13, 1, 4))
    out.append(_check("wedge ((1,2),(1,4)) mod 13 is not Hodge",
                      0.0 if not fermat.is_hodge(w) else 1.0, 0.0))

    br = regulator.oracle_projector_integral(2, 1, 1, 1, 5)
    closed = regulator.script_F(2, fermat.bracket(1 - 2, 5), 1, 5)
    out.append(_check("projector integral vs script-F closed form",
                      abs(br.value + closed.value), br.err + closed.err))

    return out


SUITES = {
    "special": _special_checks,
    "fermat": _fermat_checks,
    "regulator": _regulator_checks,
}


def run_suite() -> list[CheckResult]:
    """The results of every suite of ``SUITES``, in order, at ``EvalConfig()``."""
    return [r for suite in SUITES.values() for r in suite()]
