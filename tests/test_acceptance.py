"""Acceptance gate: each test prints one PASS/FAIL line with the measured
discrepancy and the stated tolerance, then asserts it.

Reference values for the indecomposability table and all frozen constants
were obtained independently with arbitrary-precision arithmetic.
"""

import json
import math
import random
import subprocess
import sys
import time

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
from fermatreg.regulator import (
    im_reg_mixed,
    oracle_series_sum,
    reg_holomorphic,
    script_F,
)
from fermatreg.specialfn import (
    EvalConfig,
    Hyp3F2Params,
    beta,
    gamma_ratio,
    hyp3f2_unit,
)
from fermatreg.verify import de_quadrature, one_minus_root, oracle_projector_integral

# value of f(i, N) for the nine tabulated (i, N)
F_TABLE_REFERENCE = {
    (2, 13): 0.0753593,
    (2, 17): 0.0591967,
    (3, 17): 0.0419067,
    (4, 17): 0.0306883,
    (3, 19): 0.0382251,
    (4, 19): 0.0285317,
    (3, 23): 0.0323588,
    (4, 23): 0.0247137,
    (5, 23): 0.0193323,
}

F_TABLE_ARGS = [sys.executable, "-m", "fermatreg", "f-table", "--N", "13,17,19,23"]


def _report(name: str, passed: bool, detail: str) -> None:
    line = f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    assert passed, line


def _f_table_run():
    start = time.monotonic()
    proc = subprocess.run(F_TABLE_ARGS, capture_output=True, timeout=120)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr.decode()
    rows = {}
    for rec_line in proc.stdout.decode().splitlines():
        rec = json.loads(rec_line)
        rows[(rec["inputs"]["i"], rec["inputs"]["N"])] = rec["value"]
    return proc.stdout, rows, elapsed


def test_criterion_1_table_reproduction():
    stdout, rows, elapsed = _f_table_run()
    worst = 0.0
    for key, want in F_TABLE_REFERENCE.items():
        assert key in rows, f"row {key} missing from table output"
        worst = max(worst, abs(rows[key] - want))
    ok = worst <= 2e-6 and elapsed < 60.0
    _report(
        "criterion 1 (nine tabulated f(i, N) values)",
        ok,
        f"worst |f - reference| {worst:.3e} (allowed 2.0e-06), "
        f"runtime {elapsed:.2f}s (allowed 60s)",
    )


def test_criterion_2_special_function_battery():
    tight = EvalConfig(tol=1e-12)

    basel = hyp3f2_unit(Hyp3F2Params(1, 1, 1, 2, 2), tight)
    worst_basel = abs(basel.value - math.pi ** 2 / 6.0)

    rng = random.Random(20260819)
    worst_gauss = 0.0
    from fractions import Fraction as Fr

    for _ in range(20):
        a = Fr(rng.randrange(1, 40), rng.randrange(37, 60))
        b = Fr(rng.randrange(1, 40), rng.randrange(37, 60))
        c = a + b + Fr(rng.randrange(5, 40), rng.randrange(5, 40))
        x = Fr(rng.randrange(1, 30), rng.randrange(7, 30))
        r = hyp3f2_unit(Hyp3F2Params(a, b, x, c, x), tight)
        # Gauss: 2F1(a, b; c; 1) = G(c) G(c-a-b) / (G(c-a) G(c-b))
        fa, fb, fc = float(a), float(b), float(c)
        gauss, _ = gamma_ratio((fc, fc - fa - fb), (fc - fa, fc - fb))
        worst_gauss = max(worst_gauss, abs(r.value - gauss))

    worst_beta = 0.0
    for _ in range(50):
        m = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        n = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        bmn = beta(m, n)
        worst_beta = max(worst_beta, abs(bmn - beta(n, m)) / bmn)
        worst_beta = max(
            worst_beta, abs(bmn - (beta(m + 1, n) + beta(m, n + 1))) / bmn
        )

    ok = worst_basel <= 1e-10 and worst_gauss <= 1e-10 and worst_beta <= 1e-12
    _report(
        "criterion 2 (hypergeometric and beta battery)",
        ok,
        f"Basel {worst_basel:.3e} (allowed 1.0e-10), "
        f"degenerate-Gauss worst {worst_gauss:.3e} (allowed 1.0e-10), "
        f"beta-identity worst {worst_beta:.3e} (allowed 1.0e-12)",
    )


def _quadrature_oracle_reg(a: int, b: int, N: int) -> tuple[float, float]:
    # 2/(N per) * int_0^1 log[(1 - t^(1/N)) / (1 - (1-t)^(1/N))] w_ab(t) dt
    q = de_quadrature(
        lambda x, xc: (
            math.log(one_minus_root(x, xc, N)) - math.log(one_minus_root(xc, x, N))
        )
        * x ** (a / N - 1.0) * xc ** (b / N - 1.0),
        EvalConfig(tol=1e-10),
    )
    per = period(FormIndex(N, a, b))
    return 2.0 * q.value / (N * per), 2.0 * q.err / (N * per)


def test_criterion_3_holomorphic_regulator_vs_two_oracles():
    cfg = EvalConfig()
    instances = [
        (a, b, N)
        for N in (3, 5, 7, 13)
        for a in range(1, N)
        for b in range(1, N)
        if is_in_IN(a, b, N) and a + b < N
    ]
    assert len(instances) >= 60

    worst_quad = 0.0
    worst_series = 0.0
    for (a, b, N) in instances:
        r = reg_holomorphic(a, b, N, cfg)
        per = period(FormIndex(N, a, b))

        oq, oq_err = _quadrature_oracle_reg(a, b, N)
        margin_q = r.err + oq_err + 1e-12 * max(1.0, abs(r.value))
        gap_q = abs(r.value - oq)
        worst_quad = max(worst_quad, gap_q / margin_q)

        sx = oracle_series_sum(a, b, N, cfg)
        sy = oracle_series_sum(b, a, N, cfg)
        os_val = 2.0 * (sy.value - sx.value) / per
        margin_s = r.err + 2.0 * (sx.err + sy.err) / per + 1e-12 * max(1.0, abs(r.value))
        gap_s = abs(r.value - os_val)
        worst_series = max(worst_series, gap_s / margin_s)

    ok = worst_quad <= 1.0 and worst_series <= 1.0
    _report(
        "criterion 3 (holomorphic regulator vs both oracles)",
        ok,
        f"{len(instances)} labels over N in (3, 5, 7, 13); worst gap/margin "
        f"quadrature {worst_quad:.2e}, series {worst_series:.2e} (allowed 1.0)",
    )


def test_criterion_4_projector_oracle_vs_closed_form():
    cfg = EvalConfig()
    rng = random.Random(20260819)
    start = time.monotonic()

    def holo_labels(N):
        return [
            (a, b)
            for a in range(1, N)
            for b in range(1, N)
            if is_in_IN(a, b, N) and a + b < N
        ]

    checked = 0
    worst = 0.0
    for trial in range(24):
        N = rng.choice((5, 7, 11, 13))
        labels = holo_labels(N)
        a, b = rng.choice(labels)
        side = rng.choice(("x", "y"))
        force_hit = trial % 2 == 0
        if force_hit:
            if side == "x":
                cands = [(c, d) for (c, d) in labels if d == b]
            else:
                cands = [(c, d) for (c, d) in labels if c == a]
            c, d = rng.choice(cands)
        else:
            c, d = rng.choice(labels)

        if side == "y":  # the y side of the curve: x on the swapped labels
            a, b, c, d = b, a, d, c
        o = oracle_projector_integral(a, b, c, d, N, cfg)
        closed = script_F(a, bracket(c - a, N), b, N, cfg) if d == b else None

        if closed is None:
            want, want_err = 0.0, 0.0
        else:
            want, want_err = -closed.value, closed.err

        margin = o.err + want_err + 1e-10
        gap = max(abs(o.value.real - want), abs(o.value.imag))
        worst = max(worst, gap / margin)
        checked += 1

    elapsed = time.monotonic() - start
    ok = worst <= 1.0 and checked >= 20 and elapsed < 300.0
    _report(
        "criterion 4 (projector-integral oracle vs closed forms)",
        ok,
        f"{checked} randomized instances, worst gap/margin {worst:.2e} "
        f"(allowed 1.0), runtime {elapsed:.2f}s (allowed 300s)",
    )


def test_criterion_5_structural_invariants():
    cfg = EvalConfig()
    failures = []

    # exact antisymmetry and diagonal vanishing of the holomorphic regulator
    for (a, b, N) in ((1, 2, 5), (2, 3, 7), (1, 4, 7), (2, 9, 13)):
        if reg_holomorphic(a, b, N, cfg).value != -reg_holomorphic(b, a, N, cfg).value:
            failures.append(f"antisymmetry ({a},{b}) mod {N}")
    for (a, N) in ((1, 3), (2, 5), (3, 7)):
        if reg_holomorphic(a, a, N, cfg).value != 0.0:
            failures.append(f"diagonal ({a},{a}) mod {N}")

    # mixed-regulator swap and diagonal, stated tolerance 1e-10
    for (a, b, c, d, N) in ((1, 2, 1, 4, 13), (1, 2, 3, 2, 13), (1, 3, 1, 9, 13)):
        v1 = im_reg_mixed(a, b, c, d, N, cfg).value
        v2 = im_reg_mixed(c, d, a, b, N, cfg).value
        if abs(v1 + v2) > 1e-10:
            failures.append(f"mixed swap ({a},{b},{c},{d}) mod {N}")
    for (a, b, N) in ((1, 2, 13), (2, 3, 17)):
        if abs(im_reg_mixed(a, b, a, b, N, cfg).value) > 1e-10:
            failures.append(f"mixed diagonal ({a},{b}) mod {N}")

    # mu_half purely imaginary, relative 1e-10, every label and modulus up to 101
    mu_checked = 0
    for N in range(3, 102):
        for a in range(1, N):
            for b in range(a, N):
                if not is_in_IN(a, b, N):
                    continue
                z = mu_half(a, b, N)
                mu_checked += 1
                if abs(z.real) > 1e-10 * abs(z):
                    failures.append(f"mu_half real part ({a},{b}) mod {N}")
    assert mu_checked > 100000

    # residue bracket and label-set combinatorics, exhaustive to 23
    for N in range(3, 24):
        for a in range(-2 * N, 2 * N + 1):
            got = bracket(a, N)
            if not (1 <= got <= N and (got - a) % N == 0):
                failures.append(f"bracket({a}, {N})")
        count = sum(1 for a in range(1, N) for b in range(1, N) if is_in_IN(a, b, N))
        if count != (N - 1) * (N - 2):
            failures.append(f"label count mod {N}")
        if 2 * genus(N) != (N - 1) * (N - 2):
            failures.append(f"genus({N})")

    # Hodge predicate vs its defining triple multisets, all primes 5..23
    for N in (5, 7, 11, 13, 17, 19, 23):
        labels = [
            FormIndex(N, a, b)
            for a in range(1, N)
            for b in range(1, N)
            if is_in_IN(a, b, N) and a + b < N
        ]
        for i1 in labels:
            t1 = sorted((i1.a, i1.b, N - i1.a - i1.b))
            for i2 in labels:
                t2 = sorted((i2.a, i2.b, N - i2.a - i2.b))
                if is_hodge(WedgeIndex(i1, i2)) != (t1 == t2):
                    failures.append(f"hodge {i1} vs {i2}")

    ok = not failures
    _report(
        "criterion 5 (structural invariants)",
        ok,
        "exact antisymmetry/diagonal, mixed swap/diagonal at 1e-10, "
        f"mu_half imaginary at 1e-10 over {mu_checked} labels (N <= 101), "
        "bracket/labels/genus exhaustive to 23, Hodge multisets primes 5..23"
        + ("" if ok else "; failed: " + "; ".join(failures[:5])),
    )


def test_criterion_6_shifted_wedge_vanishes():
    cfg = EvalConfig()
    worst = 0.0
    for (i, N) in F_TABLE_REFERENCE:
        r = im_reg_mixed(1, i, 2, bracket(2 * i, N), N, cfg)
        excess = abs(r.value) - r.err
        worst = max(worst, excess)
    ok = worst <= 0.0
    _report(
        "criterion 6 (disjoint-label mixed regulator vanishes)",
        ok,
        f"worst |value| - err {worst:.3e} over the nine tabulated (i, N) "
        "(allowed 0, within reported err)",
    )


def test_criterion_7_bit_identical_reruns():
    out1, _, _ = _f_table_run()
    out2, _, _ = _f_table_run()
    ok = out1 == out2
    _report(
        "criterion 7 (byte-identical repeated runs)",
        ok,
        f"two table runs produced {'identical' if ok else 'differing'} bytes "
        f"({len(out1)} bytes each)" if ok else "outputs differ",
    )
