"""Self-check suites: how much work they do, counted machine-independently."""

from fermatreg import fermat, regulator, specialfn, verify


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
    # Basel, the zero upper parameter, 20 Gauss draws and the six
    # reference sets
    calls = _counted(monkeypatch, specialfn, "hyp3f2_unit")
    assert all(r.passed for r in verify._special_checks())
    assert calls[0] == 28


def test_fermat_suite_builds_each_label_once(monkeypatch):
    # 12 854 mu_half labels in the sweep; 636 labels in the reflexive
    # Hodge loop, 67 (1, i) labels and the cubic's (1, 1)
    mu_calls = _counted(monkeypatch, fermat, "mu_half")
    index_calls = _counted(monkeypatch, fermat, "FormIndex")
    assert all(r.passed for r in verify._fermat_checks())
    assert mu_calls[0] == 12854
    assert index_calls[0] == 704


def test_suites_run_a_fixed_number_of_quadratures(monkeypatch):
    # two in the special-function checks; in the regulator checks five, one
    # for each kernel integral of the projector oracle at N = 5
    calls = [_counted(monkeypatch, m, "de_quadrature") for m in (specialfn, regulator)]
    assert all(r.passed for r in verify._special_checks())
    assert [c[0] for c in calls] == [2, 0]
    assert all(r.passed for r in verify._regulator_checks())
    assert [c[0] for c in calls] == [2, 5]
