"""Value types: immutable, compared by value, validated on construction."""

from fractions import Fraction as Fr

import pytest

from fermatreg.fermat import FormIndex, WedgeIndex
from fermatreg.specialfn import DomainError, EvalConfig, EvalResult, Hyp3F2Params
from fermatreg.verify import CheckResult

# one constructor call per type, with its field names
VALUES = [
    (lambda: EvalResult(1.5, 1e-9, 7), ("value", "err", "effort")),
    (lambda: EvalConfig(1e-10), ("tol",)),
    (lambda: Hyp3F2Params("3/13", Fr(1, 13), 1, "4/13", "14/13"),
     ("a1", "a2", "a3", "b1", "b2")),
    (lambda: FormIndex(13, 1, 2), ("N", "a", "b")),
    (lambda: WedgeIndex(FormIndex(13, 1, 2), FormIndex(13, 1, 4)),
     ("first", "second")),
    (lambda: CheckResult("beta symmetry", True, 0.0, 1e-13),
     ("name", "passed", "discrepancy", "threshold")),
]


@pytest.mark.parametrize("make, fields", VALUES,
                         ids=[type(make()).__name__ for make, _ in VALUES])
class TestValueSemantics:
    def test_equal_fields_equal_objects(self, make, fields):
        x, y = make(), make()
        assert x is not y
        assert x == y and hash(x) == hash(y)

    def test_repr_names_the_fields(self, make, fields):
        x = make()
        text = repr(x)
        assert text.startswith(type(x).__name__ + "(")
        for name in fields:
            assert f"{name}=" in text

    def test_frozen(self, make, fields):
        x = make()
        with pytest.raises(AttributeError):
            setattr(x, fields[0], None)
        with pytest.raises(AttributeError):
            x.extra = 1


def test_unequal_fields_unequal_objects():
    assert EvalResult(1.5, 1e-9, 7) != EvalResult(1.5, 1e-9, 8)
    assert EvalConfig() != EvalConfig(tol=1e-9)
    assert FormIndex(13, 1, 2) != FormIndex(13, 2, 1)


def test_default_config_cannot_be_changed():
    # every `cfg=EvalConfig()` default is one shared object
    cfg = EvalConfig()
    with pytest.raises(AttributeError):
        cfg.tol = 1e-12
    assert cfg.tol == 1e-8
    assert EvalConfig() == cfg


# the other invalid fields are tested beside each type's module
@pytest.mark.parametrize("make", [
    lambda: EvalResult(1.0, float("nan"), 5),
    lambda: EvalConfig(tol=float("nan")),
    lambda: EvalConfig(tol=-1e-8),
    lambda: FormIndex(2, 1, 1),
], ids=["err nan", "tol nan", "tol<0", "N<3"])
def test_invalid_fields_raise_domain_error(make):
    with pytest.raises(DomainError):
        make()


def test_reduced_labels_compare_equal():
    assert FormIndex(13, 14, -2) == FormIndex(13, 1, 11)


# `_replace` (and `copy.replace` on 3.13) goes through `_make`, not `__new__`
@pytest.mark.parametrize("make", [
    lambda: EvalResult(1.5, 1e-9, 7)._replace(err=-1.0),
    lambda: EvalConfig()._replace(tol=-1.0),
    lambda: Hyp3F2Params(1, 1, 1, 2, 2)._replace(b1=0),
    lambda: FormIndex(13, 1, 2)._replace(a=13),
    lambda: WedgeIndex(FormIndex(13, 1, 2), FormIndex(13, 1, 4))
    ._replace(second=FormIndex(13, 6, 8)),
], ids=["EvalResult", "EvalConfig tol", "Hyp3F2Params", "FormIndex", "WedgeIndex"])
def test_replace_validates(make):
    with pytest.raises(DomainError):
        make()


def test_replace_normalises():
    assert FormIndex(13, 1, 2)._replace(a=14) == FormIndex(13, 1, 2)
    assert Hyp3F2Params(1, 1, 1, 2, 2)._replace(b1="5/2").b1 == Fr(5, 2)
