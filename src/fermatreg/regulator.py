"""Regulator pairings on Fermat Jacobians as finite sums of 3F2 values.

The central object is the script-F combination

    F(a, j, b; N) = (1/j) * (B((a+j)/N, b/N) / B(a/N, b/N))
                        * 3F2((a+j)/N, j/N, 1; (a+b+j)/N, j/N + 1; 1),

a positive number for every eigenform pair (a, b) and shift j >= 1.  Sums of
these give closed forms for two pairing flavors:

* ``reg_holomorphic``: the pairing of the canonical cycle against the real
  part of a normalized holomorphic form, 2 * sum_j (F(b,j,a) - F(a,j,b));
* ``im_reg_mixed``: the imaginary part of the pairing against a wedge of two
  normalized holomorphic eigenforms, a four-term combination of script-F
  values weighted by the half-angle coefficient ``mu_half``.

Each closed form ships with independent oracles so agreement can be
checked instance by instance: the regrouped series here, and the direct
quadratures of the log-kernel integrals projected onto one eigenform
component, which only the self-checks load (:mod:`fermatreg.verify`).
"""

import math
from fractions import Fraction

from .fermat import FormIndex, bracket, is_prime, mu_half
from .specialfn import (
    BudgetExceededError,
    DomainError,
    EvalConfig,
    EvalResult,
    Hyp3F2Params,
    _scaled,
    _search,
    algebraic_tail_sum,
    gamma_ratio,
    hyp3f2_unit,
)

__all__ = [
    "script_F",
    "log_integral",
    "reg_holomorphic",
    "im_reg_mixed",
    "f_indec",
    "oracle_series_sum",
]

_EPS = math.ulp(1.0)


def _holomorphic(a: int, b: int, N: int) -> tuple[int, int]:
    """The holomorphic label (a, b) reduced into {1, ..., N-1}, or DomainError."""
    idx = FormIndex(N, a, b)
    if not idx.holomorphic:
        raise DomainError(f"({a}, {b}) is not a holomorphic label mod {N}")
    return idx.a, idx.b


def _script_F_params(a: int, j: int, b: int, N: int) -> Hyp3F2Params:
    """The 3F2 parameters ((a+j)/N, j/N, 1; (a+b+j)/N, j/N + 1) of F(a, j, b; N)."""
    return Hyp3F2Params(Fraction(a + j, N), Fraction(j, N), 1,
                        Fraction(a + b + j, N), Fraction(j, N) + 1)


def _held(tol: float, terms: list, combine, prefix: str = "") -> EvalResult:
    """combine(results) for a call's value sum c_i v_i, held to ``tol``.

    ``terms`` lists (weight, call, name): |c_i| with its relative error
    folded in, the call that evaluates v_i at an EvalConfig, and the name
    that leads its failure message.  Each call is asked for tol / (2 sum
    weight), or the least positive float where that underflows; a
    BudgetExceededError gives the result it carries.  A combined err above
    tol raises one with the combined result, ``prefix`` and the first
    failing call's name and message, or else the err left over from sum
    weight * err_i: the call's own rounding."""
    share = EvalConfig(max(tol / (2.0 * math.fsum(w for w, _, _ in terms)), math.ulp(0.0)))
    results, failure = [], None
    for _, call, name in terms:
        try:
            results.append(call(share))
        except BudgetExceededError as exc:
            results.append(exc.result)
            failure = failure or name + str(exc)
    res = combine(results)
    if res.err <= tol:
        return res
    if failure is None:
        own = res.err - math.fsum(w * r.err for (w, _, _), r in zip(terms, results))
        failure = f"tolerance {tol:g} lies below the weighting's own rounding ({own:.3g})"
    raise BudgetExceededError(prefix + failure, res)


def _script_F_sum(terms: list[tuple[float, int, int, int]], N: int, tol: float,
                  factor: float = 1.0, rel: float = 0.0) -> EvalResult:
    """factor * sum c F(a, j, b; N) over the ``terms`` (c, a, j, b), held to
    ``tol`` by one :func:`_held` call whose terms are the distinct 3F2 series.

    A series, named ``script-F term (a, j, b; N): ``, is evaluated once and
    weighs |factor| (1 + rel) sum |c| ratio/j (1 + rel_ratio): ``rel`` bounds
    the error of ``factor`` and of the product with it, and the Beta-ratio
    prefactor ratio/j (see :func:`gamma_ratio`) makes the series an F.  The
    products c F are summed by one ``math.fsum``, so a term list that negates
    under a swap of labels negates the value bit for bit, terms that cancel in
    pairs give exactly 0.0, and no terms exact 0 with err 0.  ``err`` adds
    32 eps sum |c F| to sum |c| err_F, for the rounding of the products, of
    the sum and of a computed c (``mu_half``'s imaginary part errs by at most
    3.3 eps for every label with N <= 200, measured against mpmath).
    """
    if not terms:
        return EvalResult(0.0, 0.0, 0)
    series = {}  # (a, j, b) -> [sum |c|, ratio/j, its relative error]
    for (c, a, j, b) in terms:
        if (a, j, b) not in series:
            # B((a+j)/N, b/N) / B(a/N, b/N), the common Gamma(b/N) cancelled;
            # the division by j and the product with the series round once each
            ratio, r = gamma_ratio(((a + j) / N, (a + b) / N), ((a + b + j) / N, a / N))
            series[a, j, b] = [0.0, ratio / j, r + 2.0 * _EPS]
        series[a, j, b][0] += abs(c)

    def combine(results: list[EvalResult]) -> EvalResult:
        fs = {k: _scaled(r, *series[k][1:]) for k, r in zip(series, results)}
        cfs = [(c, fs[a, j, b]) for (c, a, j, b) in terms]
        products = [c * f.value for c, f in cfs]
        err = math.fsum(abs(c) * f.err for c, f in cfs) \
            + 32.0 * _EPS * math.fsum(map(abs, products))
        return _scaled(EvalResult(math.fsum(products), err, sum(r.effort for r in results)),
                       factor, rel)

    return _held(tol, [(abs(factor) * (1.0 + rel) * s * pref * (1.0 + pref_rel),
                        lambda t, p=_script_F_params(a, j, b, N): hyp3f2_unit(p, t),
                        f"script-F term ({a}, {j}, {b}; {N}): ")
                       for (a, j, b), (s, pref, pref_rel) in series.items()], combine)


def script_F(a: int, j: int, b: int, N: int,
             cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """The positive script-F building block; see the module docstring.

    Requires (a, b) in the index set and j >= 1.  Always convergent: the
    series excess is b/N regardless of j, and :func:`hyp3f2_unit` sums it
    directly, closing its slowly decaying tail from the term's exact
    large-k expansion.  ``err`` includes the rounding of the Gamma-ratio
    prefactor and stays at or below cfg.tol (see :func:`_script_F_sum`).  A
    :class:`BudgetExceededError` names the term and carries the best
    script-F value, the prefactor times the series' best."""
    _, a_r, b_r = FormIndex(N, a, b)
    if j < 1:
        raise DomainError("shift j must be at least 1")
    return _script_F_sum([(1.0, a_r, j, b_r)], N, cfg.tol)


def log_integral(a: int, b: int, N: int, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Weighted log-kernel integral over the x side of the curve.

    Equals -(B(a/N, b/N)/N) * sum_{j=1}^{N} F(a, j, b); the y side is the
    same integral on the swapped label, log_integral(b, a, N).  Always
    negative: it integrates log of a quantity below 1 against a positive
    weight.  ``err`` includes the rounding of the Beta prefactor, the
    factor of :func:`_script_F_sum`, and stays at or below cfg.tol."""
    a, b = _holomorphic(a, b, N)
    # the division by N and the product with the sum round once each
    B, rel = gamma_ratio((a / N, b / N), ((a + b) / N,))
    return _script_F_sum([(1.0, a, j, b) for j in range(1, N + 1)], N, cfg.tol,
                         -B / N, rel + 2.0 * _EPS)


def reg_holomorphic(a: int, b: int, N: int,
                    cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Pairing of the canonical cycle with a normalized holomorphic form.

    Closed form 2 * sum_{j=1}^{N} (F(b,j,a) - F(a,j,b)).  Antisymmetric under
    swapping a and b and zero on the diagonal, exactly, in floating point.
    The certified err stays at or below cfg.tol (see :func:`_script_F_sum`).
    ``effort`` is the work of the distinct 3F2 series evaluated: 2N of
    them, and N on the diagonal, where the two sums name the same terms.
    """
    a_r, b_r = _holomorphic(a, b, N)
    return _script_F_sum([t for j in range(1, N + 1)
                          for t in ((2.0, b_r, j, a_r), (-2.0, a_r, j, b_r))], N, cfg.tol)


def _mixed_terms(a: int, b: int, c: int, d: int, N: int) -> list[tuple[float, int, int, int]]:
    """The (c, a, j, b) script-F terms of :func:`im_reg_mixed`'s closed form."""
    (a, b), (c, d) = _holomorphic(a, b, N), _holomorphic(c, d, N)
    terms = []
    if a == c or b == d:
        m_ab = 2.0 * mu_half(a, b, N).imag
        m_cd = 2.0 * mu_half(c, d, N).imag
    if a == c:
        terms += [(m_ab, d, bracket(b - d, N), c), (-m_cd, b, bracket(d - b, N), a)]
    if b == d:
        terms += [(m_cd, a, bracket(c - a, N), b), (-m_ab, c, bracket(a - c, N), d)]
    return terms


def im_reg_mixed(a: int, b: int, c: int, d: int, N: int,
                 cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Imaginary part of the pairing against the wedge of two eigenforms.

    Evaluates the four-term closed form

        2*[a==c] (mu_half(a,b) F(d,<b-d>,c) - mu_half(c,d) F(b,<d-b>,a))
      + 2*[b==d] (mu_half(c,d) F(a,<c-a>,b) - mu_half(a,b) F(c,<a-c>,d))

    and returns its imaginary part: every F is real, so the imaginary parts
    of the ``mu_half`` values are the weights.  <x> reduces into
    {1, ..., N} so a vanishing shift contributes a full period, not zero.
    The coefficients are the half-angle ``mu_half`` values, built on
    exp(pi i/N): with the full-angle root exp(2 pi i/N) the result would
    not match direct projector integration (the oracles here, and the
    reference table, pin this normalization).  Both index pairs must be
    holomorphic.  Exactly antisymmetric under swapping the pairs and
    exactly zero on the diagonal.
    """
    return _script_F_sum(_mixed_terms(a, b, c, d, N), N, cfg.tol)


def f_indec(i: int, N: int, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Normalized indecomposability statistic f(i, N) for prime N.

    f(i, N) = im_reg_mixed(1, i, 1, 2i, N) / (2 N^2).  A nonzero value
    certifies an indecomposable cycle when the wedge ((1, i), (1, 2i)) is
    not a Hodge class, which :func:`fermatreg.fermat.is_hodge` tests.  The
    certified err stays at or below cfg.tol (see :func:`_script_F_sum`)."""
    if not is_prime(N):
        raise DomainError(f"f(i, N) is defined for prime N, got {N}")
    # 1/(2 N^2) and the product with the sum round once each
    return _script_F_sum(_mixed_terms(1, i, 1, 2 * i, N), N, cfg.tol,
                         1.0 / (2.0 * N * N), 2.0 * _EPS)


# --- oracles ----------------------------------------------------------------

_SERIES_CHECKPOINTS = tuple(1024 * 2 ** m for m in range(6))  # 1024 ... 32768


def oracle_series_sum(a: int, b: int, N: int,
                      cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """sum_{j>=1} B((a+j)/N, b/N) / (j N) by direct summation.

    Regroups the double series behind the log-kernel integral (equal to
    -log_integral(a, b, N)); terms are positive and decay like
    j^(-1-b/N).  In x = j/N the term is the Gamma ratio
    G(b/N) G(x + a/N) G(x) / (N^2 G(x + (a+b)/N) G(x + 1)), so the tail
    past the K-th term is closed by :func:`algebraic_tail_sum` from its
    exact expansion in 1/x, anchored on the K-th term.  The expansion is
    in shift / x, so the first checkpoint has K/N at least 8 times the
    largest shift, max((a+b)/N, 1); a label with max(a+b, N) > 4096 has
    none within the 32768 terms, and raises :class:`DomainError`.

    For j <= N, B((a+j)/N, b/N) comes from :func:`gamma_ratio` with its
    relative bound; each later j steps the Beta at j - N by the exact
    recurrence B(m+1, n) = B(m, n) m/(m+n), where m/(m+n) is the ratio of
    ints (a+j-N)/(a+b+j-N), rounded once.  The ratio, the product and the
    final division by j N round once each, so with K terms every term, and
    the tail through its anchor, is charged the Gamma ratio's bound plus
    2 eps (K//N + 2), on the summed value.  ``err`` adds that charge, the
    sums' rounding and the tail's ``model_err``.

    The checkpoints K = 1024 * 2^m up to 32768, all on
    :func:`hyp3f2_unit`'s grid of tails, are searched by
    :func:`fermatreg.specialfn._search`; each extends one list of terms, so
    the first K terms have the same bits whatever checkpoint the search
    reaches.
    """
    _, a_r, b_r = FormIndex(N, a, b)
    return _search(cfg.tol, _oracle_series(a_r, b_r, N),
                   f"series oracle ({a_r}, {b_r}; {N}): ")


def _oracle_series(a: int, b: int, N: int):
    """The (result, floor) checkpoints of :func:`oracle_series_sum`."""
    # the tail expands in 1/x, x = j/N, from the shifts a/N, 0 over
    # (a+b)/N, 1: its first checkpoint has x >= 8 times the largest
    checkpoints = [K for K in _SERIES_CHECKPOINTS if K >= 8 * max(a + b, N)]
    if not checkpoints:
        raise DomainError(f"series oracle ({a}, {b}; {N}) needs a first tail past "
                          f"its {_SERIES_CHECKPOINTS[-1]}-term budget")
    terms = []
    beta = [0.0] * N  # B((a+j)/N, b/N) at the last j built in class j mod N
    beta_rel = 0.0
    for K in checkpoints:
        for j in range(len(terms) + 1, K + 1):
            if j <= N:
                beta[j % N], rel0 = gamma_ratio(((a + j) / N, b / N), ((a + b + j) / N,))
                beta_rel = max(beta_rel, rel0)
            else:  # B at j from B at j - N
                beta[j % N] *= (a + j - N) / (a + b + j - N)
            terms.append(beta[j % N] / (j * N))
        # every term, and the tail through its anchor, errs by rel at most,
        # and the sums add 4 eps; rel only grows with K and the positive
        # terms' sum never falls, so rel times this head floors every later err
        rel = beta_rel + 2.0 * _EPS * (K // N + 2) + 4.0 * _EPS
        tail, model_err = algebraic_tail_sum(terms[K - 1], K, (a, 0), (a + b, N), N, N)
        head = math.fsum(terms)
        yield EvalResult(head + tail, model_err + rel * abs(head + tail), K), rel * head
