"""Command-line interface: records, exit codes, determinism."""

import csv
import glob
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fermatreg.fermat import FormIndex, WedgeIndex, is_hodge, is_prime
from fermatreg.regulator import f_indec
from fermatreg.specialfn import EvalConfig


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "fermatreg", *args],
        capture_output=True,
        text=False,
        env=env,
        timeout=300,
    )


def hyp3f2_flags(params):
    return [f for name, v in zip(("a1", "a2", "a3", "b1", "b2"), params)
            for f in (f"--{name}", v)]


def records(stdout_bytes):
    return [json.loads(line) for line in stdout_bytes.decode().splitlines() if line]


class TestHyp3F2Command:
    def test_basel_record(self):
        p = run_cli("hyp3f2", "--a1", "1", "--a2", "1", "--a3", "1",
                    "--b1", "2", "--b2", "2")
        assert p.returncode == 0
        (rec,) = records(p.stdout)
        assert set(rec) == {"inputs", "value", "err", "provenance", "effort"}
        assert rec["provenance"] == "accelerated-series"
        assert rec["inputs"] == {"a1": "1", "a2": "1", "a3": "1",
                                 "b1": "2", "b2": "2"}
        assert abs(rec["value"] - math.pi ** 2 / 6.0) <= rec["err"] + 1e-10
        assert rec["effort"] > 0

    def test_zero_upper_parameter(self):
        p = run_cli("hyp3f2", "--a1", "1/2", "--a2", "0", "--a3", "5",
                    "--b1", "1/7", "--b2", "3")
        (rec,) = records(p.stdout)
        assert rec["value"] == 1.0
        assert rec["err"] == 0.0

    def test_malformed_rational_exits_2(self):
        p = run_cli("hyp3f2", "--a1", "1/0", "--a2", "1", "--a3", "1",
                    "--b1", "2", "--b2", "2")
        assert p.returncode == 2
        assert b"1/0" in p.stderr

    def test_divergent_exits_2(self):
        p = run_cli("hyp3f2", "--a1", "1", "--a2", "1", "--a3", "1",
                    "--b1", "1", "--b2", "2")
        assert p.returncode == 2

    def test_terminating_series_with_negative_excess(self):
        # excess -6, but the series ends at k = 2: 1 - 50 + 225
        p = run_cli("hyp3f2", "--a1", "-2", "--a2", "5", "--a3", "5",
                    "--b1", "1", "--b2", "1")
        assert p.returncode == 0
        (rec,) = records(p.stdout)
        assert abs(rec["value"] - 176.0) <= rec["err"]

    def test_negative_rational_joined_with_equals(self):
        # written apart, -1/2 reads as a flag; joined with '=' it is a value.
        # Reference: mpmath 1.3.0 hyp3f2(-1/2, 1, 1, 2, 2, 1) at 30 digits
        p = run_cli("hyp3f2", "--a1=-1/2", "--a2", "1", "--a3", "1",
                    "--b1", "2", "--b2", "2")
        assert p.returncode == 0
        (rec,) = records(p.stdout)
        assert rec["inputs"]["a1"] == "-1/2"
        assert abs(rec["value"] - 0.853581537031184031888) <= rec["err"]
        apart = run_cli("hyp3f2", "--a1", "-1/2", "--a2", "1", "--a3", "1",
                        "--b1", "2", "--b2", "2")
        assert apart.returncode == 2
        assert b"expected one argument" in apart.stderr

    def test_terminating_set_near_poles_lands_within_err(self):
        # a2 lies 1/89 above -5, so the float factor a2 + 5 cancelled and
        # the value strayed 2.2 errs from the exact sum before each term
        # ratio became one int quotient
        params = ("-55", "-444/89", "-5389/92", "2995/87", "186/41")
        p = run_cli("hyp3f2", *(f"--{name}={v}" for name, v in
                                zip(("a1", "a2", "a3", "b1", "b2"), params)))
        assert p.returncode == 0, p.stderr
        (rec,) = records(p.stdout)
        a1, a2, a3, b1, b2 = map(Fraction, params)
        term = total = Fraction(1)
        for k in range(55):
            term *= (a1 + k) * (a2 + k) * (a3 + k) / ((b1 + k) * (b2 + k) * (k + 1))
            total += term
        assert abs(Fraction(rec["value"]) - total) <= Fraction(rec["err"])

    def test_unreachable_tolerance_exits_1_with_best(self):
        p = run_cli("hyp3f2", "--a1", "3/13", "--a2", "1/13", "--a3", "1",
                    "--b1", "4/13", "--b2", "14/13", "--tol", "1e-30")
        assert p.returncode == 1
        assert b"budget" in p.stderr.lower()
        (rec,) = records(p.stdout)
        assert abs(rec["value"] - 1.766233869657059933008) <= 1e-9

    def test_terminating_series_over_tol_exits_1_with_best(self):
        # the series ends at term 60, but its terms alternate, reach 2.2e25
        # and cancel to 1.2e-3, so the rounding at that end is far above tol
        p = run_cli("hyp3f2", "--a1", "-60", "--a2", "7/2", "--a3", "5/3",
                    "--b1", "1/7", "--b2", "1/5")
        assert p.returncode == 1
        assert b"not reached; stopped after 61 terms" in p.stderr
        (rec,) = records(p.stdout)
        assert rec["effort"] == 61
        assert rec["err"] > 1e-8

    def test_near_miss_stops_before_the_budget(self):
        # err is smallest, 5.064e-13, at the 64-term checkpoint and never
        # falls below tol; the rounding floor passes tol at 2048 terms
        p = run_cli("hyp3f2", "--a1", "22/19", "--a2", "17/19", "--a3", "1",
                    "--b1", "23/19", "--b2", "36/19", "--tol", "5e-13")
        assert p.returncode == 1
        assert b"lies below the series' rounding" in p.stderr
        (rec,) = records(p.stdout)
        assert rec["err"] > 5e-13
        assert rec["effort"] < 524_289

    @pytest.mark.parametrize("params, ref", [
        # the first tail waits for 2048 terms, 8 times the largest parameter
        (("83", "81", "45", "187", "191"), "28561.9652605542875081831474802"),
        # the first tail waits for 16384 terms
        (("1200", "1", "1", "2", "2000"), "1.52745205726190270785548447724"),
    ])
    def test_large_parameters_certify_within_err(self, params, ref):
        # references: term-by-term mpmath sums at 60 digits
        p = run_cli("hyp3f2", *hyp3f2_flags(params))
        assert p.returncode == 0
        (rec,) = records(p.stdout)
        assert abs(Fraction(rec["value"]) - Fraction(ref)) <= Fraction(rec["err"])

    def test_target_that_ends_past_term_zero_certifies(self):
        # Thomae's relation through 600 would give a series that ends at
        # term 598 after cancelling terms of size e^655; the series as
        # given certifies.  Reference: mpmath 1.3.0 summing term by term
        # at 40 and 60 digits
        p = run_cli("hyp3f2", *hyp3f2_flags(("600", "1", "1", "2", "1000")))
        assert p.returncode == 0
        (rec,) = records(p.stdout)
        assert rec["err"] <= 1e-8
        assert abs(Fraction(rec["value"]) - Fraction("1.52775313556671793116814064035")) \
            <= Fraction(rec["err"])

    @pytest.mark.parametrize("b2, short", [("1e400", b"1.00000e+400"),
                                           ("1e5000", b"1.00000e+5000")])
    def test_huge_parameter_is_named_briefly(self, b2, short):
        p = run_cli("hyp3f2", *hyp3f2_flags(("1", "1", "1", "2", b2)))
        assert p.returncode == 2
        assert p.stderr.startswith(b"error: series parameter " + short + b" ")
        assert p.stderr.count(b"\n") == 1 and len(p.stderr) < 100

    @pytest.mark.parametrize("params, message", [
        # series that end beyond the term budget, or whose largest parameter
        # puts the first tail past it
        (("-600000", "1", "1", "2", "600010"), b"524288-term budget"),
        (("-600000", "5", "5", "1", "1"), b"524288-term budget"),
        (("600001", "1", "1", "1", "600005"), b"524288-term budget"),
        (("1", "1", "1", "2", "1e400"), b"524288-term budget"),
        (("1", "1", "1", "1e308", "1e308"), b"524288-term budget"),
        # a lower parameter that rounds to the pole 0
        (("1", "1", "1", "1e-400", "5"), b"b1 is, or rounds to, 0"),
        # terms past the float range
        (("-60000", "60000", "1", "1", "1"), b"leave the float range"),
        (("40000", "40000", "40000", "60001", "60000"), b"leave the float range"),
    ])
    def test_out_of_range_parameters_exit_2(self, params, message):
        p = run_cli("hyp3f2", *hyp3f2_flags(params))
        assert p.returncode == 2
        assert p.stderr.startswith(b"error: ") and message in p.stderr
        assert b"Traceback" not in p.stderr
        assert p.stdout == b""

    def test_max_terms_flag_exits_2(self):
        # the series term budget is fixed: no flag sets it
        p = run_cli("hyp3f2", "--a1", "1", "--a2", "1", "--a3", "1",
                    "--b1", "2", "--b2", "2", "--max-terms", "100")
        assert p.returncode == 2
        assert b"--max-terms" in p.stderr
        assert b"Traceback" not in p.stderr


class TestRegCommand:
    def test_holo_diagonal_zero(self):
        p = run_cli("reg", "holo", "--N", "3", "--a", "1", "--b", "1")
        assert p.returncode == 0
        (rec,) = records(p.stdout)
        assert rec["value"] == 0.0

    def test_holo_values(self):
        p = run_cli("reg", "holo", "--N", "5", "--a", "1", "--b", "2")
        (rec,) = records(p.stdout)
        assert abs(rec["value"] - 6.298611257238236) <= 1e-8
        assert list(rec) == ["inputs", "value", "err", "provenance", "effort"]
        assert rec["provenance"] == "closed-form"

    def test_mixed_with_hodge_flag(self):
        p = run_cli("reg", "mixed", "--N", "13", "--a", "1", "--b", "2",
                    "--c", "1", "--d", "4")
        (rec,) = records(p.stdout)
        assert abs(rec["value"] - 25.4714536425848) <= 1e-8
        assert rec["hodge"] is False
        p = run_cli("reg", "mixed", "--N", "13", "--a", "1", "--b", "4",
                    "--c", "1", "--d", "8")
        (rec,) = records(p.stdout)
        assert abs(rec["value"] - 11.69084392681313) <= 1e-8
        assert rec["hodge"] is True

    def test_mixed_prints_hodge_at_composite_modulus(self):
        # {1, 1, 7} and {1, 3, 5} differ, yet t = 2 and 4 keep both labels
        # holomorphic
        p = run_cli("reg", "mixed", "--N", "9", "--a", "1", "--b", "1",
                    "--c", "1", "--d", "3")
        assert p.returncode == 0
        assert b'"hodge": true' in p.stdout

    def test_invalid_label_exits_2(self):
        p = run_cli("reg", "holo", "--N", "5", "--a", "2", "--b", "4")
        assert p.returncode == 2

    def test_budget_failure_prints_nothing_and_names_the_term(self):
        p = run_cli("reg", "holo", "--N", "5", "--a", "1", "--b", "2",
                    "--tol", "1e-13")
        assert p.returncode == 1
        assert p.stdout == b""
        assert p.stderr.startswith(b"numerical failure: script-F term (2, 2, 1; 5)")
        assert b"lies below the series' rounding" in p.stderr

    def test_holo_large_modulus(self):
        p = run_cli("reg", "holo", "--N", "29", "--a", "1", "--b", "2")
        assert p.returncode == 0, p.stderr
        (rec,) = records(p.stdout)
        assert rec["err"] <= 2 * 29 * 1e-8


class TestFTableCommand:
    def test_csv_shape(self):
        p = run_cli("f-table", "--N", "13", "--format", "csv")
        assert p.returncode == 0
        assert b"\r" not in p.stdout
        lines = p.stdout.decode().splitlines()
        assert lines[0] == "i,N,f,err,hodge"
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [("2", "13"), ("3", "13")]
        # value and err are the certified floats' repr, bit for bit
        for r in rows:
            f = f_indec(int(r[0]), 13, EvalConfig())
            assert (r[2], r[3]) == (repr(f.value), repr(f.err))
        assert all(r[4] in ("true", "false") for r in rows)
        assert all(float(r[3]) < 1e-6 for r in rows)

    def test_json_default_range_and_rounding(self):
        # no rounding: the record holds the certified value and err
        p = run_cli("f-table", "--N", "17")
        recs = records(p.stdout)
        assert [r["inputs"]["i"] for r in recs] == [2, 3, 4]
        assert all(list(r) == ["inputs", "value", "err", "provenance", "effort", "hodge"]
                   and r["provenance"] == "closed-form" for r in recs)
        for r in recs:
            f = f_indec(r["inputs"]["i"], 17, EvalConfig())
            assert (r["value"], r["err"], r["effort"]) == (f.value, f.err, f.effort)
        assert all(r["hodge"] is False for r in recs)

    def test_full_precision_flag(self):
        # full precision is the one output, and --full is no flag
        p = run_cli("f-table", "--N", "13", "--i", "2")
        (rec,) = records(p.stdout)
        want = f_indec(2, 13, EvalConfig())
        assert (rec["value"], rec["err"]) == (want.value, want.err)
        p = run_cli("f-table", "--N", "13", "--i", "2", "--full")
        assert p.returncode == 2
        assert p.stdout == b""
        assert b"unrecognized arguments: --full" in p.stderr

    def test_multiple_moduli_sorted(self):
        p = run_cli("f-table", "--N", "17,13")
        recs = records(p.stdout)
        keys = [(r["inputs"]["N"], r["inputs"]["i"]) for r in recs]
        assert keys == [(13, 2), (13, 3), (17, 2), (17, 3), (17, 4)]

    def test_small_modulus_has_one_row(self):
        p = run_cli("f-table", "--N", "11")
        recs = records(p.stdout)
        assert [r["inputs"]["i"] for r in recs] == [2]

    def test_modulus_below_5_exits_2(self):
        p = run_cli("f-table", "--N", "4")
        assert p.returncode == 2

    def test_non_prime_exits_2(self):
        p = run_cli("f-table", "--N", "15")
        assert p.returncode == 2

    def test_invalid_row_index_exits_2_before_output(self):
        # i = 6 mod 13 makes (1, 2i) = (1, 12), not an eigenform label; the
        # valid row i = 2 is not printed either
        p = run_cli("f-table", "--N", "13", "--i", "2,6", "--format", "csv")
        assert p.returncode == 2
        assert p.stdout == b""
        assert p.stderr == b"error: (1, 12) is not an eigenform index mod 13\n"

    def test_budget_failure_names_the_script_f_term(self):
        args = ("f-table", "--N", "13", "--i", "2", "--tol", "1e-13")
        p = run_cli(*args)
        assert p.returncode == 1
        (rec,) = records(p.stdout)
        assert "script-F term (4, 11, 1; 13)" in rec["error"]
        assert "lies below the series' rounding" in rec["error"]
        p = run_cli(*args, "--format", "csv")
        assert p.returncode == 1
        rows = list(csv.reader(p.stdout.decode().splitlines()))
        assert [len(r) for r in rows] == [5, 5]
        assert rows[1][4] == rec["error"]

    def test_large_modulus_rows_certified(self):
        p = run_cli("f-table", "--N", "29")
        assert p.returncode == 0, p.stderr
        recs = records(p.stdout)
        assert [r["inputs"]["i"] for r in recs] == [2, 3, 4, 5, 6, 7]
        assert all("error" not in r and r["err"] <= 1e-8 for r in recs)

    @pytest.mark.parametrize("args", [
        ("--N", ",".join(str(n) for n in range(11, 98) if is_prime(n))),
        ("--N", "13", "--i", "2,4"),  # i = 4 is the Hodge member 3i + 1 = N
    ], ids=["primes 11-97", "hodge row"])
    def test_hodge_field_is_the_wedge_type_test(self, args):
        def want(i, N):
            return is_hodge(WedgeIndex(FormIndex(N, 1, i), FormIndex(N, 1, 2 * i)))

        p = run_cli("f-table", *args)
        assert p.returncode == 0, p.stderr
        recs = records(p.stdout)
        got = [(r["inputs"]["i"], r["inputs"]["N"], r["hodge"]) for r in recs]
        assert got == [(i, N, want(i, N)) for i, N, _ in got]
        assert any(h for _, _, h in got) == ("--i" in args)
        p = run_cli("f-table", *args, "--format", "csv")
        assert p.returncode == 0, p.stderr
        rows = list(csv.reader(p.stdout.decode().splitlines()))[1:]
        assert [(int(r[0]), int(r[1]), r[4]) for r in rows] == \
            [(i, N, str(h).lower()) for i, N, h in got]


class TestHodgeCommand:
    def test_single_query(self):
        p = run_cli("hodge", "--N", "13", "--a", "1", "--b", "4",
                    "--c", "1", "--d", "8")
        (rec,) = records(p.stdout)
        assert rec["hodge"] is True

    def test_list(self):
        p = run_cli("hodge", "--N", "5", "--list")
        recs = records(p.stdout)
        assert len(recs) == 12
        assert all(r["hodge"] is True for r in recs)
        # every listed pair must be confirmed by the single-query form
        first = recs[0]["inputs"]
        q = run_cli("hodge", "--N", "5", "--a", str(first["a"]),
                    "--b", str(first["b"]), "--c", str(first["c"]),
                    "--d", str(first["d"]))
        assert records(q.stdout)[0]["hodge"] is True

    def test_composite_modulus_lists(self):
        p = run_cli("hodge", "--N", "9", "--list")
        assert p.returncode == 0
        assert len(records(p.stdout)) == 136
        assert p.stderr == b"listed 136 Hodge pairs for N=9\n"

    @pytest.mark.parametrize("N", ["2", "1", "0", "-4"])
    def test_list_below_3_exits_2(self, N):
        p = run_cli("hodge", "--N", N, "--list")
        assert p.returncode == 2
        assert p.stdout == b""
        assert p.stderr == b"error: modulus must be at least 3\n"


VERIFY_PROPERTIES = [
    "beta contiguous recurrence (relative)",
    "unit-argument series vs pi^2/6",
    "zero upper parameter gives exactly 1",
    "degenerate (cancelling-parameter) Gauss closed form",
    "3F2 err honored against 30-digit references",
    "endpoint-singular quadrature vs pi",
    "log-endpoint quadrature vs -1",
    "bracket lands in {1..N} with period N",
    "genus equals count of holomorphic eigenform labels",
    "Re mu_half matches the doubled-modulus root product's real part (relative to |mu_half|)",
    "Im mu_half matches the doubled-modulus root product over 4 (relative)",
    "Hodge predicate: reflexive, and (1,i)~(1,j) iff j=i or j=N-1-i",
    "period of the (1,1) form on the cubic",
    "script-F(1,1,1;3) frozen value",
    "holomorphic pairing antisymmetry (exact)",
    "holomorphic pairing diagonal vanishing (exact)",
    "normalization identity reg = 2(Lx - Ly)/period",
    "regrouped series equals -log integral within errs",
    "mixed pairing swap antisymmetry (exact)",
    "mixed pairing diagonal vanishing (exact)",
    "mixed pairing agrees with the root-product mu_half (relative)",
    "f(2,13) against its printed reference",
    "wedge ((1,2),(1,4)) mod 13 is not Hodge",
    "projector integral vs script-F closed form",
]


class TestVerifyCommand:
    @pytest.mark.parametrize("flag", [("--suite", "special"), ("--tol", "1e-6")],
                             ids=["suite", "tol"])
    def test_suite_and_tol_flags_exit_2(self, flag):
        # verify runs every suite at the default tolerance: no flag selects either
        p = run_cli("verify", *flag)
        assert p.returncode == 2
        assert flag[0].encode() in p.stderr
        assert b"Traceback" not in p.stderr

    def test_full_run(self):
        p = run_cli("verify")
        assert p.returncode == 0
        lines = [l for l in p.stdout.decode().splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == len(VERIFY_PROPERTIES)
        assert all(l.startswith("PASS") for l in lines)

    def test_full_run_prints_every_property_in_order(self):
        p = run_cli("verify")
        assert p.returncode == 0
        out = p.stdout.decode().splitlines()
        names = [l[len("PASS "):l.index(": discrepancy")] for l in out[:-1]]
        assert names == VERIFY_PROPERTIES
        assert out[-1] == f"{len(VERIFY_PROPERTIES)}/{len(VERIFY_PROPERTIES)} properties passed"


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ("f-table", "--N", "1009,2003,3001"),
        ("hodge", "--N", "13", "--list"),
        ("verify",),
        ("hyp3f2", "--a1", "1", "--a2", "1", "--a3", "1", "--b1", "2", "--b2", "2"),
    ], ids=["f-table", "hodge", "verify", "hyp3f2"])
    def test_closed_stdout_exits_1_without_traceback(self, argv):
        # the read end is closed before the child writes, so every write fails
        with subprocess.Popen([sys.executable, "-m", "fermatreg", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as p:
            p.stdout.close()
            err = p.stderr.read()
            assert p.wait(timeout=300) == 1
        assert b"Traceback" not in err
        assert b"Exception ignored" not in err
        assert err.startswith(b"error: ") and err.count(b"\n") == 1, err

    def test_huge_prime_table_stops_at_a_closed_pipe(self):
        # the default rows of a prime near 1e11 are made one at a time and
        # each is written as soon as it is computed (~50 ms a row), so the
        # table stops at the first write after its reader has gone
        with subprocess.Popen([sys.executable, "-m", "fermatreg", "f-table",
                               "--N", "99999999977"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as p:
            first = json.loads(p.stdout.readline())
            p.stdout.close()
            err = p.stderr.read()
            assert p.wait(timeout=300) == 1
        assert first["inputs"] == {"i": 2, "N": 99999999977}
        assert b"Traceback" not in err
        assert err.startswith(b"error: ") and err.count(b"\n") == 1, err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ("f-table", "--N", "13"),
        ("hodge", "--N", "13", "--list"),
        ("hyp3f2", "--a1", "1", "--a2", "1", "--a3", "1", "--b1", "2", "--b2", "2"),
    ], ids=["f-table", "hodge", "hyp3f2"])
    def test_full_device_exits_1_without_traceback(self, argv):
        # every write to /dev/full fails with ENOSPC
        with open("/dev/full", "wb") as full:
            p = subprocess.run([sys.executable, "-m", "fermatreg", *argv],
                               stdout=full, stderr=subprocess.PIPE, timeout=300)
        assert p.returncode == 1
        assert p.stderr.startswith(b"error: writing stdout failed: ")
        assert p.stderr.count(b"\n") == 1, p.stderr


class TestDeterminismAndCache:
    def test_repeated_runs_bit_identical(self):
        a = run_cli("f-table", "--N", "13", "--format", "csv")
        b = run_cli("f-table", "--N", "13", "--format", "csv")
        assert a.stdout == b.stdout

    def test_tol_environment_variable_is_not_read(self):
        # --tol is the one way to set tol: no environment variable
        # changes a byte of the output
        argv = ("hyp3f2", "--a1", "1", "--a2", "1", "--a3", "1",
                "--b1", "2", "--b2", "2")
        plain = run_cli(*argv)
        assert plain.returncode == 0
        for value in ("1e-4", "abc"):
            got = run_cli(*argv, env={**os.environ, "FERMATREG_TOL": value})
            assert (got.returncode, got.stdout) == (0, plain.stdout), value

    def test_table_bits_equal_across_python_versions(self):
        versions = python_versions()
        if len(versions) < 2:
            pytest.skip("fewer than two Python versions >= 3.10 found")
        # reg holo sums 2N products with math.fsum, whose rounding is the
        # same in every version; the built-in sum's is not
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        del versions[sys.version]
        for args in (("f-table", "--N", "13,17,19,23"),
                     ("reg", "holo", "--N", "23", "--a", "1", "--b", "2"),
                     ("reg", "mixed", "--N", "13", "--a", "1", "--b", "2",
                      "--c", "1", "--d", "4")):
            want = subprocess.run([sys.executable, "-m", "fermatreg", *args],
                                  capture_output=True, env=env, timeout=300)
            assert want.returncode == 0, want.stderr
            for version, exe in sorted(versions.items()):
                got = subprocess.run([exe, "-m", "fermatreg", *args],
                                     capture_output=True, env=env, timeout=300)
                assert got.returncode == 0, (version, args, got.stderr)
                assert got.stdout == want.stdout, (version, args)

    def test_malformed_tol_exits_2(self):
        p = run_cli("hyp3f2", "--a1", "1", "--a2", "1", "--a3", "1",
                    "--b1", "2", "--b2", "2", "--tol", "abc")
        assert p.returncode == 2, p.stderr
        assert b"--tol" in p.stderr
        assert b"Traceback" not in p.stderr
        assert p.stdout == b""


SRC = Path(__file__).resolve().parents[1] / "src"


def python_versions():
    """``{sys.version: path}`` of the working Pythons >= 3.10 on this host.

    Looks for ``python3.10`` to ``python3.13`` in every ``PATH`` directory and
    under ``$PYENV_ROOT/versions``; each is run once, because a pyenv shim
    can exist for a version that is not installed.
    """
    names = [f"python3.{minor}" for minor in range(10, 14)]
    paths = [os.path.join(d, name)
             for d in os.environ.get("PATH", "").split(os.pathsep) if d
             for name in names]
    root = os.environ.get("PYENV_ROOT")
    if root:
        paths += sorted(glob.glob(os.path.join(root, "versions", "3.1*", "bin", "python")))
    found = {sys.version: sys.executable}
    for path in dict.fromkeys(os.path.realpath(p) for p in paths):
        if not os.access(path, os.X_OK) or os.path.isdir(path):
            continue
        p = subprocess.run(
            [path, "-c", "import sys; assert sys.version_info >= (3, 10); "
                         "print(sys.version, end='')"],
            capture_output=True, text=True, timeout=60)
        if p.returncode == 0:
            found.setdefault(p.stdout, path)
    return found


def imported_modules(*args):
    """Names of the modules a fresh interpreter run with ``args`` imports."""
    p = subprocess.run([sys.executable, "-X", "importtime", *args],
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    return {line.rsplit("|", 1)[-1].strip() for line in p.stderr.splitlines()
            if line.startswith("import time:")}


class TestColdStart:
    def test_cli_import_leaves_out_numpy_and_verify(self):
        # every CLI process pays for what `fermatreg.cli` imports; `verify`
        # is loaded by its own subcommand only
        code = ("import sys, fermatreg.cli; "
                "print(sorted(m for m in ('numpy', 'fermatreg.verify') if m in sys.modules))")
        p = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=60)
        assert p.returncode == 0, p.stderr
        assert p.stdout.strip() == "[]"

    def test_cli_processes_leave_out_dataclasses_and_inspect(self):
        # modules the interpreter loads anyway (`site` may already bring in
        # `typing`) are not the package's cost; `dataclasses` would pull in
        # `inspect`, `ast` and `dis`
        floor = imported_modules("-c", "pass")
        for args in (("hyp3f2", "--a1", "1", "--a2", "1", "--a3", "1",
                      "--b1", "2", "--b2", "2"),
                     ("f-table", "--N", "13")):
            extra = imported_modules("-m", "fermatreg", *args) - floor
            assert "fermatreg.specialfn" in extra
            unwanted = {"dataclasses", "inspect", "ast", "dis", "fermatreg.verify"}
            assert not extra & unwanted, (args, sorted(extra & unwanted))
