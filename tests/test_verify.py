"""Self-check suites: how much work they do, counted machine-independently,
and the check-only evaluators that live with them."""

from fractions import Fraction

import pytest

from fermatreg import fermat, regulator, specialfn, verify
from fermatreg.specialfn import BudgetExceededError, EvalConfig


def _counted(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    calls = [0]
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_regulator_suite_computes_each_pairing_once(monkeypatch):
    # the normalization identity reuses the antisymmetry check's pairings,
    # and the regrouped-series check that identity's log integrals; each
    # diagonal pairing evaluates its repeated terms once
    calls = _counted(monkeypatch, regulator, "script_F")
    assert all(r.passed for r in verify._regulator_checks())
    assert calls[0] == 142


def test_special_suite_computes_each_reference_set_once(monkeypatch):
    # Basel, 20 Gauss draws and the six reference sets
    calls = _counted(monkeypatch, specialfn, "hyp3f2_unit")
    assert all(r.passed for r in verify._special_checks())
    assert calls[0] == 27


def test_fermat_suite_builds_each_label_once(monkeypatch):
    # 6 524 unordered mu_half labels in the sweep, and the cubic's (1, 1)
    mu_calls = _counted(monkeypatch, fermat, "mu_half")
    index_calls = _counted(monkeypatch, fermat, "FormIndex")
    assert all(r.passed for r in verify._fermat_checks())
    assert mu_calls[0] == 6524
    assert index_calls[0] == 1


def test_suites_run_a_fixed_number_of_quadratures(monkeypatch):
    # two in the special-function checks; in the regulator checks five, one
    # for each kernel integral of the projector oracle at N = 5
    calls = _counted(monkeypatch, verify, "de_quadrature")
    assert all(r.passed for r in verify._special_checks())
    assert calls[0] == 2
    assert all(r.passed for r in verify._regulator_checks())
    assert calls[0] == 7


def test_unordered_mu_half_sweep_reports_the_ordered_worst():
    # the suite sweeps b >= a only; over every ordered label the worst
    # discrepancies are the same floats, since both sides are symmetric
    worst_re = worst_im = 0.0
    labels = 0
    for N in (3, 4, 5, 7, 11, 23, 50, 101):
        w = verify._one_minus_roots(2 * N)
        for a in range(1, N):
            for b in range(1, N):
                if a + b == N:
                    continue
                labels += 1
                assert verify._root_product(w, a, b) == verify._root_product(w, b, a)
                assert fermat.mu_half(a, b, N) == fermat.mu_half(b, a, N)
                p = verify._root_product(w, a, b) / 4
                m = fermat.mu_half(a, b, N)
                worst_re = max(worst_re, abs(m.real - p.real) / abs(p))
                worst_im = max(worst_im, abs(m.imag - p.imag) / abs(p.imag))
    assert labels == 12854
    reported = {r.name.split(" ", 1)[0]: r.discrepancy for r in verify._fermat_checks()
                if "mu_half" in r.name}
    assert reported == {"Re": worst_re, "Im": worst_im}


def test_projector_kernel_at_tight_tol_carries_a_result_within_err():
    # the r = 0 kernel of the projector oracle at N = 5, (a, b) = (1, 1):
    # every level's nodes are summed with fsum, so the carried estimate
    # lies 0.25 err from its 60-digit value; a running float sum drifted
    # to 1.24 err off
    with pytest.raises(BudgetExceededError) as ei:
        verify.de_quadrature(verify._log_kernel(1.0, 1, 1, 5), EvalConfig(tol=1e-14))
    q = ei.value.result
    assert abs(Fraction(q.value) - Fraction("-36.3976536772401404")) <= Fraction(q.err)
    assert q.effort == 24781

