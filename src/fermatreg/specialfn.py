"""Special functions with exact-rational parameters and certified error bounds.

Beta, Gamma ratios and 3F2 at unit argument.  The tanh-sinh quadrature
that only the self-checks use lives in :mod:`fermatreg.verify`.

The 3F2 evaluator sums the series as given in a plain Python loop and
closes the algebraic tail from the term's exact large-k expansion, summed
with Hurwitz zetas (the accelerated series).
3F2 parameters are carried as exact rationals, and each term ratio is one
correctly rounded quotient of ints.
The module needs nothing beyond the standard library.  All operations are
pure, stateless and thread-safe.  Summation order is fixed (ascending k) and
every float sum of a list is a correctly rounded ``math.fsum``, never the
built-in ``sum``, whose rounding changed in Python 3.12; so results are
bitwise reproducible, across Python versions too.
"""

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from operator import mul

__all__ = [
    "DomainError",
    "BudgetExceededError",
    "EvalResult",
    "EvalConfig",
    "Hyp3F2Params",
    "beta",
    "gamma_ratio",
    "hyp3f2_unit",
    "algebraic_tail_sum",
]

_EPS = math.ulp(1.0)


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain.

    This covers divergent series parameters, a modulus that is not prime
    where one must be, and an integrand value that is NaN or infinite.
    """


class BudgetExceededError(RuntimeError):
    """Requested tolerance not reached within the evaluation budget.

    The best available estimate is attached as ``result``.
    """

    def __init__(self, message: str, result: "EvalResult"):
        super().__init__(message)
        self.result = result


# namedtuple's own `_make`, which `_replace` and `copy.replace` call, builds
# the tuple without `__new__`; the validating types construct through it
_validated_make = classmethod(lambda cls, fields: cls(*fields))


class EvalResult(namedtuple("EvalResult", "value err effort")):
    """A numeric value with a certified absolute error bound.

    ``err`` is an upper bound on ``|value - true value|`` under the evaluation
    model of the producing routine; ``effort`` counts series terms summed or
    quadrature nodes evaluated.
    """

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, value: float | complex, err: float, effort: int):
        if not (err >= 0.0):
            raise DomainError("error bound must be nonnegative")
        return super().__new__(cls, value, err, effort)


class EvalConfig(namedtuple("EvalConfig", "tol")):
    """The evaluation knob: the absolute tolerance ``tol``.

    The series term budget is fixed (see :func:`hyp3f2_unit`), and so is
    the quadrature's number of halving levels (see
    :func:`fermatreg.verify.de_quadrature`).
    """

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, tol: float = 1e-8):
        if not (tol > 0.0):
            raise DomainError("tol must be positive")
        return super().__new__(cls, tol)


def _as_fraction(x: int | Fraction | str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational number: {x!r} ({exc})") from None
    raise DomainError(f"cannot interpret {x!r} as an exact rational")


class Hyp3F2Params(namedtuple("Hyp3F2Params", "a1 a2 a3 b1 b2")):
    """Exact-rational parameters (a1,a2,a3;b1,b2) of a 3F2 series at z=1.

    Each parameter may be an int, a Fraction or a string such as ``"3/13"``
    or ``"1e-5"`` (not a float), and is stored as a Fraction.  Lower
    parameters must avoid zero and the negative integers (series poles).
    Convergence at unit argument additionally requires positive excess
    ``b1+b2-a1-a2-a3`` or an end to the series; :func:`hyp3f2_unit` checks
    that, not this type, so divergent parameter sets remain representable.
    """

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, a1, a2, a3, b1, b2):
        self = super().__new__(cls, *map(_as_fraction, (a1, a2, a3, b1, b2)))
        for name in ("b1", "b2"):
            n, d = getattr(self, name).as_integer_ratio()
            if n <= 0 and d == 1:
                raise DomainError(f"{name} is 0 or a negative integer")
        return self

    @property
    def excess(self) -> Fraction:
        return self.b1 + self.b2 - self.a1 - self.a2 - self.a3


def beta(m: float, n: float) -> float:
    """Euler beta function Gamma(m)Gamma(n)/Gamma(m+n) for finite m, n > 0;
    DomainError where that is not certified to half its digits, as at m = 1e15."""
    m = float(m)
    n = float(n)
    if not (0.0 < m < math.inf and 0.0 < n < math.inf):
        raise DomainError("beta requires positive finite arguments")
    return _half_certified("beta", (m, n), (m, n), (m + n,))


# math.lgamma at every k/N with N prime below 400 and k <= 3N errs by at
# most 7 eps * max(1, |lgamma|) against a 30-digit reference at the exact
# rational, argument rounding included; the allowance per lgamma is 32 of
# those units, which also covers rounding the sum of up to six of them
_LGAMMA_ULPS = 32.0


def gamma_ratio(num: Sequence[float], den: Sequence[float]) -> tuple[float, float]:
    """prod Gamma(x) over ``num`` divided by prod Gamma(y) over ``den``.

    Every argument must be positive and finite, and should be a correctly
    rounded rational such as ``p / q`` of two ints, the case the error model
    was measured on.  Returns (value, rel_err): each log-gamma is allowed
    ``32 eps max(1, |lgamma|)``, and ``exp`` one more rounding.
    """
    lg = 0.0
    lg_err = 0.0
    for sign, args in ((1.0, num), (-1.0, den)):
        for x in args:
            if not 0.0 < x < math.inf:
                raise DomainError("gamma_ratio requires positive finite arguments")
            v = math.lgamma(x)
            lg += sign * v
            lg_err += max(1.0, abs(v))
    return math.exp(lg), math.expm1(_LGAMMA_ULPS * _EPS * lg_err) + 2.0 * _EPS


def _half_certified(name: str, args: tuple, num, den) -> float:
    """gamma_ratio(num, den)'s value, returned as a bare float by ``name``(*args):
    DomainError unless it is finite and its error bound certifies half its digits."""
    try:
        value, rel = gamma_ratio(num, den)
    except OverflowError:
        raise DomainError(f"{name}{args}: the value, a log-gamma or its "
                          "error bound leaves the float range") from None
    if not rel <= 2.0 ** -26:
        raise DomainError(f"{name}{args}: the relative error bound {rel:.3g} of the "
                          "Gamma ratio exceeds 2^-26")
    return value


def _scaled(res: EvalResult, factor: float, rel: float) -> EvalResult:
    """``factor`` times a certified ``res``, where ``rel`` bounds the relative
    error of ``factor`` and of the product's own rounding."""
    value = factor * res.value
    return EvalResult(value, abs(factor) * res.err * (1.0 + rel) + rel * abs(value),
                      res.effort)


def _search(tol: float, checkpoints, prefix: str) -> EvalResult:
    """The stop rule of every checkpointed evaluator: the first result of
    the (result, floor) ``checkpoints`` whose err is at most ``tol``, each
    floor a lower bound on every later checkpoint's err.

    Otherwise a BudgetExceededError, its message led by ``prefix``, carries
    the smallest-err result with the last checkpoint's effort, all the
    work: after the last checkpoint, or once err has stopped falling and
    the floor passes ``tol``, where no later checkpoint can certify.
    """
    best = None
    why = "not reached"
    for result, floor in checkpoints:
        if result.err <= tol:
            return result
        if best is None or result.err < best.err:
            best = result
        elif floor > tol:
            why = f"lies below the series' rounding ({floor:.3g})"
            break
    raise BudgetExceededError(f"{prefix}tolerance {tol:g} {why}; "
                              f"stopped after {result.effort} terms",
                              EvalResult(best.value, best.err, result.effort))


# --- algebraic-tail series summation ---------------------------------------

# B_2j / (2j)! for j = 1..6, the Euler-Maclaurin coefficients
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000)


def _hurwitz_zeta(e: float, a: float, scale: float = 1.0) -> float:
    """``scale^s`` times the Hurwitz zeta sum_{k>=0} (a+k)^(-s) of order
    s = 1 + e, for e > 0 and a > 0.

    Sums the terms below A = 32 + s directly and closes the rest with the
    Euler-Maclaurin formula A^(1-s)/(s-1) + A^(-s)/2 + sum_j B_2j/(2j)!
    (s)_(2j-1) A^(1-s-2j), whose terms shrink by about
    ((s+2j)/(2 pi A))^2 each; six terms keep the relative error near
    1e-16 for s <= 12 (tested against mpmath), and larger orders only
    weigh negligible tails.  The order is passed as its excess e over 1,
    which the leading term divides by: ``(1 + e) - 1`` would err by
    eps / e relative.  Every power is taken of ``(a+k)/scale``, so a
    ``scale`` near ``a`` keeps large orders clear of overflow and
    underflow.
    """
    s = 1.0 + e
    a = float(a)
    head = 0.0
    while a < 32.0 + s:
        t = (a / scale) ** -s
        head += t
        if t <= 1e-17 * head:
            # terms below A fall by at least exp(-s/(33+s)) per step, so at
            # large s the rest is negligible long before A is reached
            return head
        a += 1.0
    lead = (a / scale) ** -s          # scale^s A^(-s)
    term = s * lead / a
    inv_a2 = 1.0 / (a * a)
    em = 0.0
    for j, c in enumerate(_EM_COEFFS):
        em += c * term
        term *= (s + 2 * j + 1) * (s + 2 * j + 2) * inv_a2
    return head + a * lead / e + 0.5 * lead + em


# Stirling's series (DLMF 5.11.8): for each shift h, as z -> infinity,
#     log Gamma(z + h) = (z + h - 1/2) log z - z + log(2 pi) / 2
#                        + sum_{n>=1} (-1)^(n+1) B_(n+1)(h) / (n (n+1) z^n),
# where B_m(h) = sum_k C(m, k) B_k h^(m-k) (DLMF 24.2.5).  Row n holds that
# polynomial's coefficients times 210 (-1)^(n+1), highest power first: 210 is
# the lcm of the denominators of B_0 .. B_9 (B_1 = -1/2), so every entry is an
# int.  Over shifts h = m/den, entry k multiplies den^k P_(n+1-k), where P_q
# is the up shifts' sum of m^q less the down shifts'
_TAIL_ORDERS = 8  # orders z^-p, p < 8, close the tail; order 8 sizes model_err
_BERNOULLI_210 = (210, -105, 35, 0, -7, 0, 5, 0, -7, 0)
_STIRLING = tuple(tuple((-1) ** (n + 1) * math.comb(n + 1, k) * _BERNOULLI_210[k]
                        for k in range(n + 2))
                  for n in range(1, _TAIL_ORDERS + 1))


def algebraic_tail_sum(t_top: float, k_top: int, ups: Sequence[int], downs: Sequence[int],
                       den: int, unit: int = 1) -> tuple[float, float]:
    """Close sum_{k > k_top} t_k, given t_top = t_(k_top), for terms

        t_k = C prod_(m in ups) Gamma(z + m/den) / prod_(m in downs) Gamma(z + m/den),

    z = k / unit, with int shift numerators, as many ``downs`` as ``ups``,
    and excess s = (sum(downs) - sum(ups)) / den - 1 > 0, so that
    t_k ~ k^(-1-s).

    Nothing is fitted.  Stirling's series of each log Gamma gives the exact
    expansion t_k = A k^(-1-s) sum_p e_p (unit/k)^p.  Its log-coefficient
    of order n is one int dot product of _STIRLING's row n with
    den^k P_(n+1-k), P_q the ups' sum of m^q less the downs', rounded once.
    A is anchored on t_top, and the orders p < 8 are summed from k_top + 1
    with Hurwitz zetas.  The expansion is in shift / z, so z = k_top / unit
    should be at least 8 times the largest shift in size.  Returns (tail,
    model_err): twice the first omitted order, its pull on the anchored A
    included, plus 16 eps of the orders' magnitudes for the rounding.

    Where the first log-coefficient c_1 = (sum B_2(up) - sum B_2(down))
    unit / (2 k_top) exceeds 1/2 in size, the orders kept no longer sum
    exp's power series, so the tail is bounded instead, between 0 and a
    sum B built from the log-coefficients alone: it returns B/2, with
    model_err B/2 and its rounding, or inf where B is not finite.
    """
    P = [sum(m ** q for m in ups) - sum(m ** q for m in downs) for q in range(_TAIL_ORDERS + 2)]
    s = (-P[1] - den) / den
    c = []  # c_n (unit/k_top)^n: the log expansion of t_k / (A k^(-1-s)) at k_top
    for n, row in enumerate(_STIRLING, 1):
        # 210 (-1)^(n+1) den^(n+1) (sum B_(n+1)(up/den) - sum B_(n+1)(down/den))
        total = sum(coef * den ** k * P[n + 1 - k] for k, coef in enumerate(row))
        c.append(total * unit ** n / (210 * n * (n + 1) * den ** (n + 1) * k_top ** n))
    if abs(c[0]) > 0.5:
        # with x = k_top/k < 1, t_k / t_top = x^(1+s) exp(sum c_n (x^n - 1)),
        # and |x^n - 1| <= min(1, n (1 - x)) <= min(1, -n log x), so
        # t_k / t_top <= x^(1+s) min(e^S, x^-C), S = sum |c_n|, C = sum n |c_n|,
        # each counting the last order twice for those omitted and shaded by
        # its rounding; every t_k has t_top's sign
        S = (math.fsum(map(abs, c)) + abs(c[-1])) * (1.0 + 4.0 * _EPS)
        C = math.fsum(n * abs(cn) for n, cn in enumerate(c, 1)) + _TAIL_ORDERS * abs(c[-1])
        e = s - C - 8.0 * _EPS * (s + C)
        sums = [math.exp(S) * _hurwitz_zeta(s, k_top + 1, k_top)] if S < 709.0 else []
        if e > 0.0:
            sums.append(_hurwitz_zeta(e, k_top + 1, k_top))
        half = abs(t_top) * min(sums, default=math.inf) / 2
        if not half < math.inf:  # neither sum is finite: no bound
            return 0.0, math.inf
        return math.copysign(half, t_top), half + 32.0 * _EPS * half
    # e_p (unit/k_top)^p, by the power series of exp: p e_p = sum_n n c_n e_(p-n)
    w = [1.0]
    for p in range(1, _TAIL_ORDERS + 1):
        w.append(math.fsum(n * c[n - 1] * w[p - n] for n in range(1, p + 1)) / p)
    # t_k = t_top sum_p w_p (k_top/k)^(1+s+p) / sum_p w_p, summed over k > k_top
    z = [_hurwitz_zeta(s + p, k_top + 1, k_top) for p in range(_TAIL_ORDERS + 1)]
    w_sum = math.fsum(w[:-1])
    ratio = math.fsum(map(mul, w[:-1], z)) / w_sum
    # the first omitted order adds w[-1] z[-1] to the sum and w[-1] to the norm of A
    omitted = abs(t_top * w[-1] * (z[-1] - ratio) / w_sum)
    rounding = 16.0 * _EPS * abs(t_top) * math.fsum(map(mul, map(abs, w[:-1]), z)) / abs(w_sum)
    return t_top * ratio, 2.0 * omitted + rounding


# --- 3F2 at unit argument ---------------------------------------------------

# tails closed at 64 * 2^m terms; the last, 524 288, is the term budget
_CHECKPOINTS = tuple(64 * 2 ** m for m in range(14))
_BLOCK = 256            # terms per fsum block; only the block sums are kept


def _short(q: Fraction) -> str:
    """``q`` as written while its numerator and denominator fit in 64 bits,
    else its sign, six leading digits and power of ten, found in exact
    arithmetic (a float would overflow, and str() of a long int raises)."""
    x = abs(q)
    if max(x.numerator, x.denominator).bit_length() <= 64:
        return str(q)
    # the bit lengths put log10(x) within 1 of this
    e = math.floor((x.numerator.bit_length() - x.denominator.bit_length()) * math.log10(2))
    while x >= Fraction(10) ** (e + 1):
        e += 1
    while x < Fraction(10) ** e:
        e -= 1
    lead = int(x * 10 ** 5 / Fraction(10) ** e)
    return f"{'-' if q < 0 else ''}{lead // 10 ** 5}.{lead % 10 ** 5:05d}e{e:+d}"


def hyp3f2_unit(p: Hyp3F2Params, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Evaluate 3F2(a1,a2,a3; b1,b2; 1) with a certified error bound.

    Raises :class:`DomainError` when the series diverges, since the
    parameter excess ``s = b1+b2-a1-a2-a3`` is not positive and no upper
    parameter -m, m <= 524 288, ends the series at term m; when a series'
    first tail lies past the budget; and when its terms or sums leave the
    float range.

    Summation.  The series is summed as given.  Terms are streamed in
    ascending order in blocks, each summed with ``math.fsum``; at
    checkpoints of 64, 128, 256, ... terms, up to a fixed budget of
    524 288 = 64 * 2^13 terms, the tail past the last term t_K is closed by
    :func:`algebraic_tail_sum` from the term's exact large-k expansion,
    anchored on t_K: the term is a ratio of Gammas with shifts a1, a2, a3
    over b1, b2, 1.  The expansion is in parameter / k, so the first
    checkpoint is the first that is at least 8 times the largest parameter
    in size.  While the expansion's first log-coefficient, about the upper
    parameters' squares less the lower ones' over 2K, exceeds 1/2 in size,
    the tail is bounded, not estimated (see :func:`algebraic_tail_sum`).
    The expansion closes a slowly decaying tail as well as a fast one,
    whatever the excess, so the budget binds only at a tight tol, where
    the rounding of a slowly decaying series adds up.  A series with
    the upper parameter -m, m within the budget, ends at term m; that end
    is its one checkpoint, with no tail.

    Error.  ``err`` adds the tail's ``model_err``, the recurrence drift
    ``2 eps sum k|t_k|`` (a proved bound: each term ratio is one correctly
    rounded int quotient, so t_k rounds 2k times), the same drift on the
    tail through its anchor t_K (``2 eps K |tail|``) and the rounding of
    the sums.  The checkpoints are searched by :func:`_search`, the floor
    no later ``err`` can go below being the drift and sum rounding so far,
    plus ``eps K max(0, |tail| - model_err)`` for the true tail's drift,
    which every later checkpoint charges again through its terms and its
    anchor.
    """
    if 0 in (p.a1, p.a2, p.a3):
        return EvalResult(1.0, 0.0, 1)
    try:
        return _search(cfg.tol, _sum_series(p), "series ")
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"the series leaves the float range ({exc})") from None


def _sum_series(p: Hyp3F2Params):
    """The (result, floor) checkpoints of 3F2(p; 1), its parameters taken
    over their least common denominator D so that every term ratio is a
    ratio of ints."""
    fr = (p.a1, p.a2, p.a3, p.b1, p.b2)
    D = math.lcm(*(q.denominator for q in fr))
    n1, n2, n3, b1, b2 = (q.numerator * (D // q.denominator) for q in fr)
    ups = (n1, n2, n3)
    # an upper parameter -m, m within the budget, ends the series at term m:
    # that end is its one checkpoint, where nothing is left for a tail to close
    last = min((-n // D for n in ups if n <= 0 and n % D == 0 and -n // D <= _CHECKPOINTS[-1]),
               default=None)
    if last is not None:
        checkpoints = [last]
    else:
        s = b1 + b2 - n1 - n2 - n3
        if s <= 0:
            raise DomainError(f"excess {_short(Fraction(s, D))} is not positive; "
                              "the unit-argument series diverges")
        # the tail expands in parameter / k: its first checkpoint waits for
        # k >= 8 |parameter|, and a huge one is refused before it is a float
        big = max(ups + (b1, b2), key=abs)
        checkpoints = [K for K in _CHECKPOINTS if 8 * abs(big) <= K * D]
        if not checkpoints:
            raise DomainError(f"series parameter {_short(Fraction(big, D))} needs a first tail "
                              f"checkpoint past the {_CHECKPOINTS[-1]}-term budget")

    block_sums: list[float] = []
    abs_sum = 1.0
    drift = 0.0   # sum of k*|t_k|: t_k errs by at most k eps relative
    t = 1.0       # term at k = 0
    count = 1     # terms summed so far (k = 0 included)
    for K in checkpoints:
        while count <= K:
            n = min(_BLOCK, K + 1 - count)
            block = []
            # term k's ratio, at x = (k-1) D, is one correctly rounded int
            # quotient, and the product rounds once more: two roundings a term
            for x in range((count - 1) * D, (count + n - 1) * D, D):
                t *= (n1 + x) * (n2 + x) * (n3 + x) / ((b1 + x) * (b2 + x) * (x + D))
                block.append(t)
            if not math.isfinite(t):  # inf and nan persist to the block's end
                raise DomainError(f"terms leave the float range by term {count + n - 1}")
            block_sums.append(math.fsum(block))
            abs_sum += math.fsum(map(abs, block))
            drift += math.fsum(map(mul, map(abs, block), range(count, count + n)))
            count += n
        if K == last:  # the series has ended: no tail to close or allow for
            tail = model_err = 0.0
        else:  # t is t_K, of Gamma shifts a1, a2, a3 over b1, b2, 1 in k
            tail, model_err = algebraic_tail_sum(t, K, ups, (b1, b2, D), D)
        err = model_err + 2.0 * _EPS * drift \
            + 2.0 * _EPS * K * abs(tail) \
            + 4.0 * _EPS * (abs_sum + abs(tail))
        # drift and abs_sum never fall, and past K every term keeps t_K's
        # sign (K D >= 8 |parameter|), so a later checkpoint's drift on the
        # terms past K plus its anchor charge is about 2 eps K times the
        # true tail, at least |tail| - model_err
        floor = 2.0 * _EPS * drift + 4.0 * _EPS * abs_sum \
            + _EPS * K * max(0.0, abs(tail) - model_err)
        yield EvalResult(1.0 + math.fsum(block_sums) + tail, err, count), floor
