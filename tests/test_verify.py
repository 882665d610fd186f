"""Self-check suites: how much work they do, counted machine-independently."""

from fermatreg import regulator, verify


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
    # and the regrouped-series check that identity's log integrals
    calls = _counted(monkeypatch, regulator, "script_F")
    assert all(r.passed for r in verify._regulator_checks())
    assert calls[0] == 165
