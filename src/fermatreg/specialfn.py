"""Special functions with exact-rational parameters and certified error bounds.

Log-gamma, beta, Pochhammer, 3F2 at unit argument, and a tanh-sinh quadrature
rule for integrands with endpoint singularities.

The 3F2 evaluator sums the series directly and closes the algebraic tail
with a fitted Hurwitz-zeta model (the accelerated series).
Parameters are carried as exact rationals; floats appear only inside kernels.
All operations are pure, stateless and thread-safe, and summation order is
fixed (ascending k) so results are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "DomainError",
    "DivergentParametersError",
    "BudgetExceededError",
    "NonFiniteSampleError",
    "EvalResult",
    "EvalConfig",
    "Hyp3F2Params",
    "log_gamma",
    "beta",
    "pochhammer",
    "gauss_2f1_unit",
    "hyp3f2_unit",
    "de_quadrature",
    "one_minus_root",
    "algebraic_tail_sum",
]

_EPS = math.ulp(1.0)

Rational = Union[int, Fraction, str]
Number = Union[float, complex]


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


class DivergentParametersError(DomainError):
    """Unit-argument series parameters with nonpositive excess."""


class BudgetExceededError(RuntimeError):
    """Requested tolerance not reached within the configured budget.

    The best available estimate is attached as ``result``.
    """

    def __init__(self, message: str, result: "EvalResult"):
        super().__init__(message)
        self.result = result


class NonFiniteSampleError(ArithmeticError):
    """An integrand returned NaN or infinity at an interior node."""


@dataclass(frozen=True)
class EvalResult:
    """A numeric value with a certified absolute error bound.

    ``err`` is an upper bound on ``|value - true value|`` under the evaluation
    model of the producing routine; ``effort`` counts series terms summed or
    quadrature nodes evaluated.
    """

    value: Number
    err: float
    effort: int

    def __post_init__(self):
        if not (self.err >= 0.0):
            raise DomainError("error bound must be nonnegative")


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs: tolerance and series term budget."""

    tol: float = 1e-8
    max_terms: int = 500_000

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise DomainError("tol must be positive")
        if self.max_terms < 4:
            # the algebraic tail fit samples four distinct terms k >= 1
            raise DomainError("max_terms must be at least 4")


def _as_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError("parameters must be finite")
        return Fraction(x)
    raise DomainError(f"cannot interpret {x!r} as an exact rational")


def _is_nonpositive_integer(q: Fraction) -> bool:
    return q.denominator == 1 and q.numerator <= 0


@dataclass(frozen=True)
class Hyp3F2Params:
    """Exact-rational parameters (a1,a2,a3;b1,b2) of a 3F2 series at z=1.

    Lower parameters must avoid zero and the negative integers (series poles).
    Convergence at unit argument additionally requires positive excess
    ``b1+b2-a1-a2-a3``; that is checked by :func:`hyp3f2_unit`, not here, so
    divergent parameter sets remain representable.
    """

    a1: Fraction
    a2: Fraction
    a3: Fraction
    b1: Fraction
    b2: Fraction

    def __init__(self, a1: Rational, a2: Rational, a3: Rational,
                 b1: Rational, b2: Rational):
        for name, v in (("a1", a1), ("a2", a2), ("a3", a3), ("b1", b1), ("b2", b2)):
            object.__setattr__(self, name, _as_fraction(v))
        for name in ("b1", "b2"):
            if _is_nonpositive_integer(getattr(self, name)):
                raise DomainError(f"{name} must not be zero or a negative integer")

    @property
    def excess(self) -> Fraction:
        return self.b1 + self.b2 - self.a1 - self.a2 - self.a3

    def uppers(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a1, self.a2, self.a3)


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    Absolute error at most 1e-13 on (0, 100] (measured against a 30-digit
    reference on a dense grid; the platform lgamma stays below 6e-14 there).
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError("log_gamma requires a positive argument")
    return math.lgamma(x)


def beta(m: float, n: float) -> float:
    """Euler beta function Gamma(m)Gamma(n)/Gamma(m+n) for m, n > 0."""
    m = float(m)
    n = float(n)
    if not (m > 0.0 and n > 0.0):
        raise DomainError("beta requires positive arguments")
    return math.exp(log_gamma(m) + log_gamma(n) - log_gamma(m + n))


def pochhammer(alpha, k: int):
    """Rising factorial (alpha)_k = alpha (alpha+1) ... (alpha+k-1).

    Exact when ``alpha`` is a Fraction or int; floating-point otherwise.
    (alpha)_0 is the empty product 1.
    """
    if k < 0 or k != int(k):
        raise DomainError("pochhammer index must be a nonnegative integer")
    if isinstance(alpha, (Fraction, int)):
        out = Fraction(1)
        for i in range(int(k)):
            out *= alpha + i
        return out
    out = 1.0
    a = float(alpha)
    for i in range(int(k)):
        out *= a + i
        if math.isinf(out):
            raise OverflowError(f"pochhammer({alpha}, {k}) exceeds float range")
    return out


def gauss_2f1_unit(a: float, b: float, c: float) -> float:
    """Closed form of 2F1(a,b;c;1) = G(c)G(c-a-b) / (G(c-a)G(c-b)).

    Requires c-a-b > 0 (convergence) and positive Gamma arguments.
    """
    a, b, c = float(a), float(b), float(c)
    if not c - a - b > 0.0:
        raise DivergentParametersError("2F1 at unit argument needs c - a - b > 0")
    return math.exp(log_gamma(c) + log_gamma(c - a - b)
                    - log_gamma(c - a) - log_gamma(c - b))


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


def _call_integrand(f: Callable, x: float, xc: float):
    fv = f(x, xc)
    if isinstance(fv, complex):
        if not (math.isfinite(fv.real) and math.isfinite(fv.imag)):
            raise NonFiniteSampleError(f"integrand not finite at x={x!r}")
    elif not math.isfinite(fv):
        raise NonFiniteSampleError(f"integrand not finite at x={x!r}")
    return fv


def de_quadrature(f: Callable, cfg: EvalConfig) -> EvalResult:
    """Integrate f(x, 1 - x) over (0, 1) with the tanh-sinh rule.

    The callback receives each node x together with its complement
    ``xc = 1 - x`` computed without cancellation, so it can resolve strong
    singularities at both endpoints exactly: write log(1 - x) as
    ``log(xc)``, not ``log1p(-x)``, which reaches log(0) near x = 1.
    Never samples the endpoints.  The error estimate combines the last
    inter-level difference with a tail allowance for the truncated ends of
    the transformed axis, sized from the measured decay across the two
    outermost node rings; halving levels stop as soon as the estimate
    reaches ``cfg.tol`` and raise :class:`BudgetExceededError` (carrying the
    best result) when 10 levels are exhausted first.
    """
    effort = 0
    h = _H0
    n0 = int(_U_MAX / h)
    total = 0.0
    for k in range(-n0, n0 + 1):
        x, xc, w = _ts_point(k * h)
        total = total + w * _call_integrand(f, x, xc)
        effort += 1
    estimate = h * total
    prev = None
    err = abs(estimate) + 1.0

    for level in range(1, _QUAD_LEVELS + 1):
        h *= 0.5
        n = int(_U_MAX / h)
        add = 0.0
        g_out = 0.0
        g_in = 0.0
        first_odd = n if n % 2 == 1 else n - 1
        for k in range(-first_odd, n + 1, 2):  # odd multiples only: k*h is new
            x, xc, w = _ts_point(k * h)
            fv = _call_integrand(f, x, xc)
            term = w * fv
            add = add + term
            ak = abs(k)
            if ak == first_odd:
                g_out = max(g_out, abs(term))
            elif ak == first_odd - 2:
                g_in = max(g_in, abs(term))
            effort += 1
        prev = estimate
        estimate = 0.5 * estimate + h * add
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
        if err <= cfg.tol and level >= 2:
            return EvalResult(estimate, err, effort)

    best = EvalResult(estimate, err, effort)
    raise BudgetExceededError(
        f"tolerance {cfg.tol:g} not reached in {_QUAD_LEVELS} halving levels", best)


def one_minus_root(x: float, xc: float, n: int) -> float:
    """1 - x^(1/n) given both x and its complement xc = 1 - x.

    Near x = 1 the naive form loses all digits; routing through the
    complement (expm1/log1p) keeps full precision, while for x <= 1/2 the
    direct power is already exact enough and avoids log1p(-1) at xc = 1.
    """
    if xc > 0.5:
        return 1.0 - x ** (1.0 / n)
    return -math.expm1(math.log1p(-xc) / n)


# --- algebraic-tail series summation ---------------------------------------

# B_2j / (2j)! for j = 1..6, the Euler-Maclaurin coefficients
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000)


def _hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta sum_{k>=0} (a+k)^(-s) for s > 1 and a > 0.

    Sums the terms below A = 32 + s directly and closes the rest with the
    Euler-Maclaurin formula A^(1-s)/(s-1) + A^(-s)/2 + sum_j B_2j/(2j)!
    (s)_(2j-1) A^(1-s-2j), whose terms shrink by about
    ((s+2j)/(2 pi A))^2 each; six terms keep the relative error near
    1e-16 for s <= 12 (tested against mpmath), and larger orders only
    weigh negligible tails.
    """
    a = float(a)
    head = 0.0
    while a < 32.0 + s:
        t = a ** -s
        head += t
        if t <= 1e-17 * head:
            # terms below A fall by at least exp(-s/(33+s)) per step, so at
            # large s the rest is negligible long before A is reached
            return head
        a += 1.0
    term = s * a ** (-s - 1.0)
    inv_a2 = 1.0 / (a * a)
    em = 0.0
    for j, c in enumerate(_EM_COEFFS):
        em += c * term
        term *= (s + 2 * j + 1) * (s + 2 * j + 2) * inv_a2
    return head + a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** -s + em


def _tail_nodes(k_top: int) -> list[int]:
    """The four term indices the tail fit samples, k_top first."""
    step = max(1, k_top // 8)
    return [k_top, k_top - step, k_top - 2 * step, k_top - 3 * step]


def algebraic_tail_sum(term: Callable[[int], float], k_top: int, s: float,
                       rel_noise: float = 4e-16) -> tuple[float, float]:
    """Close sum_{k > k_top} t_k for terms behaving like k^(-1-s) at large k.

    ``term(k)`` returns t_k and is called at four nodes,
    ``k_top - i * max(1, k_top // 8)`` for i = 0..3, so ``k_top`` must be
    at least 4.  Fits t_k ~ k^(-1-s) (d0 + d1/k + d2/k^2 + d3/k^3) through
    them and sums the model exactly from ``k_top + 1`` with Hurwitz zetas.
    Returns (tail, model_err); model_err is twice the difference between
    the 4- and 3-coefficient fits plus the fit's amplification of
    ``rel_noise``, the relative rounding noise of the supplied terms.
    """
    ks = _tail_nodes(k_top)
    if ks[-1] < 1:
        raise DomainError("tail fit needs k_top >= 4")
    K = float(k_top)
    # scaled variables z = K/k keep the Vandermonde well conditioned
    A = np.array([[(K / k) ** p for p in range(4)] for k in ks], dtype=float)
    y = np.array([term(k) * float(k) ** (1.0 + s) for k in ks], dtype=float)
    coef4 = np.linalg.solve(A, y)
    coef3 = np.linalg.solve(A[:3, :3], y[:3])
    z = [_hurwitz_zeta(1.0 + s + p, k_top + 1) for p in range(4)]
    tail4 = sum(coef4[p] * K ** p * z[p] for p in range(4))
    tail3 = sum(coef3[p] * K ** p * z[p] for p in range(3))
    # term noise enters the solved coefficients scaled by the inverse row
    # sums and lands on the tail through the (positive) zeta weights
    amp = float(np.abs(np.linalg.inv(A)).sum(axis=1).max())
    noise = amp * rel_noise * float(np.abs(y).max()) * sum(
        K ** p * z[p] for p in range(4))
    return float(tail4), 2.0 * abs(float(tail4) - float(tail3)) + noise


# --- 3F2 at unit argument ---------------------------------------------------

_CHECKPOINTS = (2048, 8192, 32768, 131072, 524288)


def hyp3f2_unit(p: Hyp3F2Params, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Evaluate 3F2(a1,a2,a3; b1,b2; 1) with a certified error bound.

    Raises :class:`DivergentParametersError` unless the parameter excess is
    positive (or an upper parameter is zero, which truncates the series to 1).
    Sums the series in ascending order and closes the tail with the fitted
    algebraic model, so it stays accurate at small excess: the script-F
    parameters with excess down to 1/97 are certified at the default ``tol``,
    and their ``err`` is tested against 30-digit references.  The tail is
    fitted at checkpoints up to ``cfg.max_terms``; on a budget failure the
    result with the smallest ``err`` is attached, with ``effort`` counting
    every term summed.
    """
    if any(a == 0 for a in p.uppers()):
        return EvalResult(1.0, 0.0, 1)
    if p.excess <= 0:
        raise DivergentParametersError(
            f"excess {p.excess} is not positive; the unit-argument series diverges")
    a1, a2, a3 = (float(p.a1), float(p.a2), float(p.a3))
    b1, b2 = (float(p.b1), float(p.b2))
    s = float(p.excess)

    checkpoints = [c for c in _CHECKPOINTS if c < cfg.max_terms] + [cfg.max_terms]
    # only the tail-fit terms are kept as the blocks go by.  A grid
    # checkpoint's nodes lie above 5/8 of it, past the checkpoint before
    # it; an off-grid budget's can lie further back, so they are wanted
    # from the first block
    wanted = set(_tail_nodes(cfg.max_terms))
    nodes: dict[int, float] = {}
    block = 4096
    block_sums: list[float] = []
    abs_sum = 1.0
    drift = 0.0   # sum of k*|t_k|: the recurrence loses ~k ulps by term k
    t_prev = 1.0  # term at k = 0
    count = 1     # terms summed so far (k = 0 included)

    best: Optional[EvalResult] = None
    for K in checkpoints:
        wanted.update(_tail_nodes(K))
        while count <= K:
            n = min(block, K + 1 - count)
            ks = np.arange(count - 1, count - 1 + n, dtype=np.float64)
            r = ((a1 + ks) * (a2 + ks) * (a3 + ks)) \
                / ((b1 + ks) * (b2 + ks) * (1.0 + ks))
            terms = t_prev * np.cumprod(r)  # terms[i] is t_(count + i)
            for k in wanted:
                if count <= k < count + n:
                    nodes[k] = float(terms[k - count])
            block_sums.append(float(np.sum(terms)))
            abs_terms = np.abs(terms)
            abs_sum += float(np.sum(abs_terms))
            drift += float(np.sum(abs_terms * (ks + 1.0)))
            t_prev = float(terms[-1])
            count += n
            if t_prev == 0.0:
                # a nonpositive-integer upper parameter truncated the series
                partial = 1.0 + math.fsum(block_sums)
                err = 4.0 * _EPS * abs_sum
                return EvalResult(partial, err, count)

        tail, model_err = algebraic_tail_sum(nodes.__getitem__, K, s)
        partial = 1.0 + math.fsum(block_sums)
        value = partial + tail
        err = model_err + 2.0 * _EPS * drift \
            + 2.0 * _EPS * K * abs(tail) \
            + 4.0 * _EPS * (abs_sum + abs(tail)) + 1e-18
        result = EvalResult(value, err, count)
        if best is None or err < best.err:
            best = result
        if err <= cfg.tol:
            return result

    raise BudgetExceededError(
        f"series tolerance {cfg.tol:g} not reached within {cfg.max_terms} terms",
        EvalResult(best.value, best.err, count))
