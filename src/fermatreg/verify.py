"""Self-check suites, and the check-only evaluators they call.

The evaluators are a tanh-sinh quadrature on (0, 1) and the projector
oracle built on it, an independent check of the paper's projection and
normalization.  No other command needs them, so they live here, off the
import path of every command but ``verify``.

Each check returns its name, whether it passed, the measured discrepancy and
the threshold it was held to, so the CLI can print one line per property.
Every suite runs at the default ``EvalConfig()`` and takes no argument.
The random draws are seeded, making every suite deterministic.
"""

import cmath
import math
import random
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

from . import fermat, regulator, specialfn
from .regulator import _held, _holomorphic
from .specialfn import (
    BudgetExceededError,
    DomainError,
    EvalConfig,
    EvalResult,
    Hyp3F2Params,
    _scaled,
    gamma_ratio,
)

__all__ = ["CheckResult", "run_suite", "SUITES",
           "de_quadrature", "one_minus_root", "oracle_projector_integral"]

_EPS = math.ulp(1.0)


class CheckResult(namedtuple("CheckResult", "name passed discrepancy threshold")):
    """One property's outcome: the measured discrepancy against its threshold."""

    __slots__ = ()

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} {self.name}: discrepancy {self.discrepancy:.3e}"
                f" (allowed {self.threshold:.3e})")


def _check(name: str, discrepancy: float, threshold: float) -> CheckResult:
    return CheckResult(name, discrepancy <= threshold, discrepancy, threshold)


# --- tanh-sinh quadrature on (0, 1) ---------------------------------------
#
# Nodes x = (1 + tanh((pi/2) sinh u)) / 2.  Integrands receive (x, 1-x), the
# complement computed directly from the transform, so algebraic
# singularities at either endpoint can be resolved to full double precision.

_U_MAX = 6.05        # keeps exp(-2v) above the subnormal floor
_H0 = 0.5
_QUAD_LEVELS = 10    # halvings of _H0 before BudgetExceededError


def _ts_point(u: float) -> tuple[float, float, float]:
    """Node, complement and weight of the tanh-sinh map at parameter u."""
    v = 0.5 * math.pi * math.sinh(u)
    ev = math.exp(-2.0 * abs(v))
    small = ev / (1.0 + ev)          # min(x, 1-x), computed without overflow
    big = 1.0 / (1.0 + ev)
    w = math.pi * math.cosh(u) * ev / ((1.0 + ev) * (1.0 + ev))
    if v >= 0.0:
        return big, small, w
    return small, big, w


def _fsum(terms: list) -> float | complex:
    """The correctly rounded sum of real terms, or of complex ones part by part."""
    try:
        return math.fsum(terms)
    except TypeError:  # a complex term
        return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def de_quadrature(f: Callable, cfg: EvalConfig) -> EvalResult:
    """Integrate f(x, 1 - x) over (0, 1) with the tanh-sinh rule.

    The callback receives each node x together with its complement
    ``xc = 1 - x`` computed without cancellation, so it can resolve strong
    singularities at both endpoints exactly: write log(1 - x) as
    ``log(xc)``, not ``log1p(-x)``, which reaches log(0) near x = 1.
    Never samples the endpoints.  Each level's new nodes are summed with
    ``math.fsum``, so a level's sum rounds once however many nodes it has.
    The error estimate combines the last inter-level difference with a
    tail allowance for the truncated ends of the transformed axis, sized
    from the measured decay across the two outermost node rings, and
    ``8 eps (1 + |estimate|)`` for rounding; the discretization part is an
    estimate, not a proved bound.  Halving levels stop as soon as the
    estimate reaches ``cfg.tol`` and raise :class:`BudgetExceededError`
    when 10 levels are exhausted first, carrying the smallest-err estimate
    of the levels from 2 on and the effort of every node.  An integrand
    value that is NaN or infinite raises :class:`DomainError`.
    """
    effort = 0
    estimate = 0.0
    best = None
    for level in range(_QUAD_LEVELS + 1):
        h = _H0 * 0.5 ** level
        n = int(_U_MAX / h)
        # level 0 visits every node; each later level only the odd multiples
        # of its h, the nodes the levels before it did not visit
        step = 2 if level else 1
        first = n - (n + 1) % step  # the outermost node visited
        terms = []
        g_out = 0.0
        g_in = 0.0
        for k in range(-first, n + 1, step):
            x, xc, w = _ts_point(k * h)
            fv = f(x, xc)
            if not cmath.isfinite(fv):  # real or complex
                raise DomainError(f"integrand not finite at x={x!r}")
            term = w * fv
            terms.append(term)
            ak = abs(k)
            if ak == first:
                g_out = max(g_out, abs(term))
            elif ak == first - 2:
                g_in = max(g_in, abs(term))
        effort += len(terms)
        prev = estimate
        estimate = 0.5 * estimate + h * _fsum(terms)
        diff = abs(estimate - prev)
        # mass beyond the outermost ring: the rings at |u| ~ u_max decay by
        # rho per 2h step, so the omitted sum is a geometric tail; a flat or
        # growing edge cannot be certified and gets a coarse O(u_max) charge
        if g_out == 0.0:
            trunc = 0.0
        elif g_out < g_in:
            trunc = 8.0 * h * g_out / (1.0 - g_out / g_in)
        else:
            trunc = 2.0 * _U_MAX * g_out
        err = diff + trunc + 8.0 * _EPS * (1.0 + abs(estimate))
        if level >= 2:
            if err <= cfg.tol:
                return EvalResult(estimate, err, effort)
            if best is None or err < best[1]:
                best = estimate, err
    raise BudgetExceededError(
        f"tolerance {cfg.tol:g} not reached in {_QUAD_LEVELS} halving levels",
        EvalResult(*best, effort))


def one_minus_root(x: float, xc: float, n: int) -> float:
    """1 - x^(1/n) given both x and its complement xc = 1 - x.

    Near x = 1 the naive form loses all digits; routing through the
    complement (expm1/log1p) keeps full precision, while for x <= 1/2 the
    direct power is already exact enough and avoids log1p(-1) at xc = 1.
    """
    if xc > 0.5:
        return 1.0 - x ** (1.0 / n)
    return -math.expm1(math.log1p(-xc) / n)


# --- the projector oracle ----------------------------------------------------

def _log_kernel(zr: complex, a: int, b: int, N: int) -> Callable:
    """The integrand Log(1 - zr t^(1/N)) t^(a/N - 1) (1-t)^(b/N - 1) of N K_r,
    zr = z^r, as the f(x, xc) of :func:`de_quadrature`."""
    e1 = a / N - 1.0
    e2 = b / N - 1.0
    if zr == 1.0:  # Log(1 - t^(1/N)) is real, and loses digits near t = 1
        return lambda x, xc: math.log(one_minus_root(x, xc, N)) * x ** e1 * xc ** e2
    return lambda x, xc: cmath.log(1.0 - zr * x ** (1.0 / N)) * x ** e1 * xc ** e2


def oracle_projector_integral(a: int, b: int, c: int, d: int, N: int,
                              cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Brute-force projection of the twisted log-kernel integrals.

    Computes the N integrals
        K_r = (1/N) * int_0^1 Log(1 - z^r t^(1/N)) t^(a/N - 1) (1-t)^(b/N - 1) dt,
    z = exp(2 pi i/N), by quadrature (no series acceleration anywhere).
    Their (a, b)-twisted translates J(r, s) = z^(a r + b s) K_r, projected
    onto the (c, d) component, give the O(N^2) sum over r, s in Z/N of
    z^((a-c) r + (b-d) s) K_r, normalized by N^2 times the (a, b) period.
    Averaging out J's translate means first would change nothing: each mean
    carries a factor sum_r z^(-c r) or sum_s z^(-d s), which is 0 because
    c, d are nonzero mod N for every holomorphic label.  Matches the
    script-F closed form

        result = -[b==d] * F(a, <c-a>, b)

    up to the certified error bounds; on the swapped labels (b, a, d, c),
    the y side of the curve, that reads -[a==c] * F(b, <d-b>, a).  A wrong
    normalization or projection misses the closed form, or leaves a
    nonzero value on mismatched labels.  Each integral is a term of
    :func:`fermatreg.regulator._held` of weight 1/|norm|, the most its err
    moves the value, so ``err`` stays at or below cfg.tol, and a failure
    names the labels.
    The result is complex; ``effort`` is the nodes of all N quadratures.
    """
    a, b = _holomorphic(a, b, N)
    c, d = _holomorphic(c, d, N)
    # N^2 times the period B(a/N, b/N)/N; N B, 1/norm, the product with it
    # and the sum it multiplies round once each
    B, rel = gamma_ratio((a / N, b / N), ((a + b) / N,))
    norm, rel = N * B, rel + 4.0 * _EPS
    z = [cmath.exp(complex(0.0, 2.0 * math.pi * k / N)) for k in range(N)]

    def combine(qs: list[EvalResult]) -> EvalResult:
        products = [z[((a - c) * r + (b - d) * s) % N] * (qs[r].value / N)
                    for r in range(N) for s in range(N)]
        # a root errs by 11 eps: its argument by 3 pi eps, its cos and sin
        # by an ulp each; with the division by N (eps/2) and the complex
        # product (sqrt(5) eps/2) each product errs by 13 eps of its size
        total = complex(math.fsum(p.real for p in products), math.fsum(p.imag for p in products))
        err = math.fsum(q.err for q in qs) + 13.0 * _EPS * math.fsum(map(abs, products))
        return _scaled(EvalResult(total, err, sum(q.effort for q in qs)), 1.0 / norm, rel)

    return _held(cfg.tol, [((1.0 + rel) / norm,
                            lambda t, zr=zr: de_quadrature(_log_kernel(zr, a, b, N), t))
                           for zr in z], combine, f"projector oracle ({a}, {b}; {c}, {d}; {N}): ")


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

    worst = 0.0
    for _ in range(20):
        a = Fraction(rng.randrange(1, 40), rng.randrange(37, 60))
        b = Fraction(rng.randrange(1, 40), rng.randrange(37, 60))
        c = a + b + Fraction(rng.randrange(5, 40), rng.randrange(5, 40))
        x = Fraction(rng.randrange(1, 30), rng.randrange(7, 30))
        got = specialfn.hyp3f2_unit(Hyp3F2Params(a, b, x, c, x))
        # Gauss: 2F1(a, b; c; 1) = G(c) G(c-a-b) / (G(c-a) G(c-b))
        fa, fb, fc = float(a), float(b), float(c)
        want, _ = gamma_ratio((fc, fc - fa - fb), (fc - fa, fc - fb))
        worst = max(worst, abs(got.value - want))
    out.append(_check("degenerate (cancelling-parameter) Gauss closed form",
                      worst, EvalConfig().tol + 1e-12))

    worst = 0.0
    for key, ref in _SCRIPT_F_3F2_REFS.items():
        r = specialfn.hyp3f2_unit(regulator._script_F_params(*key))
        worst = max(worst, float(abs(Fraction(r.value) - Fraction(ref)) - Fraction(r.err)))
    out.append(_check("3F2 err honored against 30-digit references",
                      max(worst, 0.0), 0.0))

    q = de_quadrature(lambda x, xc: x ** (-0.5) * xc ** (-0.5), EvalConfig())
    out.append(_check("endpoint-singular quadrature vs pi",
                      abs(q.value - math.pi), 1e-10))
    q = de_quadrature(lambda x, xc: math.log(xc), EvalConfig())
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

    # mu_half and _root_product are symmetric in (a, b) bit for bit, so the
    # 6 524 unordered labels give the worst of the 12 854 ordered ones
    worst_re = 0.0
    worst_im = 0.0
    for N in (3, 4, 5, 7, 11, 23, 50, 101):
        w = _one_minus_roots(2 * N)
        for a in range(1, N):
            for b in range(a, N):
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

    br = oracle_projector_integral(2, 1, 1, 1, 5)
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
