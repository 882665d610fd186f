"""Freeze 30-digit references for every input a benchmark workload can draw.

Run from the repository root:

    python3 bench/make_refs.py

It needs ``mpmath`` (1.3.0 was used) and rewrites ``bench/refs.json``.  The
benchmark only reads that file; it never imports mpmath.  Each value is
computed at 40 digits; every tenth script-F term is recomputed at 50 digits
and must agree to 1e-31, which guards the 30 digits that are stored.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

import inputs

DIGITS = 30
WORK_DPS = 40
CHECK_DPS = 50
OUT = Path(__file__).with_name("refs.json")


def _q(x):
    return mpmath.mpf(x.numerator) / x.denominator


def script_f(a, j, b, N):
    """mpmath values of 3F2 and script-F for the term (a, j, b; N)."""
    p = inputs.hyp_params(a, j, b, N)
    h = mpmath.hyp3f2(*map(_q, p), 1)
    pref = mpmath.beta(_q(p[0]), mpmath.mpf(b) / N) / (
        j * mpmath.beta(mpmath.mpf(a) / N, mpmath.mpf(b) / N))
    return h, pref * h


def mu_half(a, b, N):
    z = mpmath.expjpi(mpmath.mpf(1) / N)
    a, b = a % N, b % N
    return N * N * (1 - z ** a) * (1 - z ** b) / (1 - z ** (a + b))


def regulator_value(call, F):
    kind = call[0]
    if kind == "f_indec":
        _, i, N, _ = call
        return regulator_value(("im_reg_mixed", 1, i, 1, 2 * i, N), F) / (2 * N * N)
    if kind == "reg_holomorphic":
        terms = [F[t] for t in inputs.script_f_args(call)]
        return 2 * mpmath.fsum(terms[0::2]) - 2 * mpmath.fsum(terms[1::2])
    _, a, b, c, d, N = call
    t = iter(F[k] for k in inputs.script_f_args(call))
    total = mpmath.mpc(0)
    if a == c:
        total += mu_half(a, b, N) * next(t) - mu_half(c, d, N) * next(t)
    if b == d:
        total += mu_half(c, d, N) * next(t) - mu_half(a, b, N) * next(t)
    return (2 * total).imag


def main() -> int:
    calls = {}
    for workload in inputs.WORKLOADS:
        for family in inputs.pools(workload):
            for call in family:
                if inputs.ref_key(call):
                    calls.setdefault(inputs.ref_key(call), call)
    terms = sorted({t for c in calls.values() if c[0] != "cli"
                    for t in inputs.script_f_args(c)}, key=lambda t: (t[3], t))
    print(f"{len(calls)} inputs, {len(terms)} script-F terms", file=sys.stderr)

    mpmath.mp.dps = WORK_DPS
    H, F = {}, {}
    for n, t in enumerate(terms):
        H[inputs.hyp_params(*t)], F[t] = script_f(*t)
        if n % 10 == 0:
            with mpmath.workdps(CHECK_DPS):
                h, f = script_f(*t)
            if abs(h - H[inputs.hyp_params(*t)]) > 1e-31 or abs(f - F[t]) > 1e-31:
                raise SystemExit(f"precision check failed for script-F {t}")
        if n % 200 == 0:
            print(f"  {n}/{len(terms)}", file=sys.stderr)

    values = {}
    for key, call in sorted(calls.items()):
        if call[0] == "cli":
            params = tuple(Fraction(s) for s in call[1][2::2])
            v = H[params]
        else:
            v = regulator_value(call, F)
        values[key] = mpmath.nstr(v, DIGITS)
    OUT.write_text(json.dumps({"mpmath": mpmath.__version__, "digits": DIGITS,
                               "values": values}, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(values)} references to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
