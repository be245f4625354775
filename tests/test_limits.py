import pytest

from ogrlab import limits
from ogrlab.errors import InputError
from ogrlab.limits import Rule, require


def _fit_called(k, n):
    raise AssertionError("the fit ran before n was compared with the largest n")


def test_largest_n_is_compared_before_the_fit():
    rule = Rule("a bound", 5, _fit_called)
    with pytest.raises(InputError) as exc:
        require(rule, 3, 10 ** 12)
    assert str(exc.value) == "a bound; got (k, n) = (3, 1000000000000)"


RULES = {name: value for name, value in vars(limits).items() if isinstance(value, Rule)}


@pytest.mark.parametrize("name", sorted(RULES))
def test_every_rule_admits_a_size_at_its_largest_n(name):
    rule = RULES[name]
    assert any(rule.fits(k, rule.max_n) for k in range(rule.max_n + 1))


@pytest.mark.parametrize("name", sorted(name for name, rule in RULES.items()
                                         if rule.fits is Rule._field_defaults["fits"]))
def test_a_rule_without_a_fit_states_its_largest_n(name):
    assert f"n <= {RULES[name].max_n}" in RULES[name].bound


# the span cap and the sample cost bound n by themselves: their largest n
# refuses nothing that the fit alone admits
@pytest.mark.parametrize("rule", [limits.SPAN, limits.SAMPLE])
def test_largest_n_follows_from_the_fit(rule):
    for n in range(rule.max_n + 1, rule.max_n + 40):
        assert not any(rule.fits(k, n) for k in range(-2, n + 3))


@pytest.mark.parametrize("rule,size", [
    (limits.SPAN, (3, 11)), (limits.SPAN, (2, 21)), (limits.SPAN, (1, 210)),
    (limits.SAMPLE, (6, 14)), (limits.SAMPLE, (1, 150)), (limits.SAMPLE, (1, 164)),
    (limits.HODGE, (3, 18)), (limits.HODGE, (6, 12)), (limits.DEGREE, (12, 50)),
    (limits.DEGREE, (1, 378)), (limits.DEGREE, (2, 197)), (limits.SWEEP, (3, 7)),
    (limits.POSITROID, (0, 70)), (limits.ENUMERATION, (3, 7)),
])
def test_admitted(rule, size):
    require(rule, *size)


@pytest.mark.parametrize("rule,size", [
    (limits.SPAN, (4, 11)), (limits.SPAN, (1, 211)), (limits.SAMPLE, (6, 15)),
    (limits.SAMPLE, (1, 165)), (limits.HODGE, (1, 25)), (limits.HODGE, (10, 20)),
    (limits.DEGREE, (14, 60)), (limits.DEGREE, (3, 200)), (limits.DEGREE, (1, 379)),
    (limits.DEGREE, (0, 379)), (limits.DEGREE, (2, 198)), (limits.SWEEP, (3, 8)),
    (limits.SWEEP, (11, 11)), (limits.HODGE, (-1, 5)), (limits.POSITROID, (0, 71)), (limits.POSITROID, (71, 71)), (limits.ENUMERATION, (1, 11)),
])
def test_refused(rule, size):
    with pytest.raises(InputError, match=r"; got \(k, n\) = \(%d, %d\)$" % size):
        require(rule, *size)


def test_hodge_count_bound():
    limits.require_count(3, 18, 208)
    with pytest.raises(InputError) as exc:
        limits.require_count(3, 18, 209)
    assert str(exc.value) == "--count must lie in [0, 208] at (3, 18)"


def test_params_bound():
    limits.require_params("9" * 1000, "9" * 1000)
    limits.require_params("9e1989", "2,3/2")
    limits.require_params("1e5x")  # not a rational: parsing refuses it, not the bound
    for texts, size in [(("9" * 2001,), 2001), (("9" * 1000, "9" * 1001), 2001),
                        (("9e1995",), 2001), (("2,1E-2000",), 2009),
                        (("1e" + "9" * 5000,), 5002)]:
        with pytest.raises(InputError) as exc:
            limits.require_params(*texts)
        assert str(exc.value) == ("ogr1 sample takes parameter lists of length at most 2000, "
                                  f"an exponent counted at its value; got {size}")
