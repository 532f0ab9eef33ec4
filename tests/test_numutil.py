import sys
from math import prod

import pytest

from powertree import numutil
from powertree.numutil import (
    divisors,
    factorize,
    format_decimal,
    format_factored,
    is_prime,
    next_prime,
    p_part,
    parse_factored,
    phi,
    primes_upto,
    try_factorize,
)
from powertree.treecount import TreeNumber


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert is_prime(n) == (n in primes)


def test_is_prime_larger():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert is_prime(10**18 + 9)


def test_is_prime_rejects_psi12():
    # the smallest strong pseudoprime to every prime base up to 37
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)


def test_primes_upto_and_next():
    assert primes_upto(16) == [2, 3, 5, 7, 11, 13]
    assert primes_upto(1) == []
    assert next_prime(13) == 17
    assert next_prime(1) == 2


@pytest.mark.parametrize("n", [1, 2, 12, 360, 25920, 2**10 * 3**4 * 131])
def test_factorize_roundtrip(n):
    fac = factorize(n)
    product = 1
    for p, e in fac.items():
        assert is_prime(p)
        product *= p**e
    assert product == n


def test_try_factorize_large_smooth():
    value = 2**180 * 3**40 * 5**108
    assert try_factorize(value) == {2: 180, 3: 40, 5: 108}


@pytest.mark.parametrize(
    "factors",
    [
        {1170242789503: 1, 11010048203115136316387704037: 1},  # Z_360 reduced
        {676285091873: 1, 21960392673722771308231127: 1},  # Z_336 reduced
        {1379113841234273: 1, 3869103911426611853700634541: 1},  # Z_420 reduced
        {39069483757: 1, 2102871306143: 1},  # Z_312 reduced
        {100003: 2},
        {100003: 3},
        {100003: 1, 100019: 1},
    ],
)
def test_try_factorize_past_the_trial_primes(factors):
    # every prime here exceeds the trial primes, so the curves must split it
    assert try_factorize(prod(p**e for p, e in factors.items())) == factors


def test_factoring_gives_up_after_one_shared_curve_budget(monkeypatch):
    # 100003 splits off, then the two ~100-bit primes use up the curves left
    n = 100003 * next_prime(2**100) * next_prime(2**101)
    curves = []
    curve = numutil._ecm_curve

    def logged_curve(m, sigma):
        curves.append((sigma, curve(m, sigma)))
        return curves[-1][1]

    monkeypatch.setattr(numutil, "_ecm_curve", logged_curve)
    assert try_factorize(n) is None
    assert [sigma for sigma, _ in curves] == list(range(6, 6 + numutil.ECM_CURVES))
    assert [d for _, d in curves if d is not None] == [100003]
    # the rest checks only what giving up leads to, so it gives up sooner
    monkeypatch.setattr(numutil, "ECM_CURVES", 2)
    hard = next_prime(2**100) * next_prime(2**101)
    with pytest.raises(ValueError, match="could not factor"):
        factorize(hard)
    counted = TreeNumber.from_powers("test", [(hard, 1), (6, 2)])
    assert counted.value == 36 * hard
    assert counted.factorization is None


def test_tree_count_gives_up_once(monkeypatch):
    # a resisting base spends the curve budget once, and never again on the
    # whole value or in a product, however often the factorization is asked for
    monkeypatch.setattr(numutil, "ECM_CURVES", 2)
    sigmas = []
    curve = numutil._ecm_curve

    def logged_curve(m, sigma):
        sigmas.append(sigma)
        return curve(m, sigma)

    monkeypatch.setattr(numutil, "_ecm_curve", logged_curve)
    hard = next_prime(2**100) * next_prime(2**101)
    count = TreeNumber.from_powers("t", [(hard, 1), (6, 2), (2, -1)])
    for _ in range(3):
        assert count.factorization is None
        assert count.factored() == str(18 * hard)
    assert (count * TreeNumber(2)).factorization is None
    assert sigmas == [6, 7]


def test_phi():
    assert [phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    for n in range(1, 120):
        assert sum(phi(d) for d in divisors(n)) == n


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(49) == [1, 7, 49]


def test_p_part():
    assert p_part(360, 3) == 9
    assert p_part(360, 2) == 8
    assert p_part(25920, 3) == 81
    assert p_part(7, 2) == 1


def test_format_decimal_without_a_digit_limit(monkeypatch):
    # sys.get_int_max_str_digits is new in Python 3.10.7 and 3.11
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    for value in (0, -12, 10**100 + 1):
        assert format_decimal(value) == str(value)


def test_format_and_parse_factored():
    assert format_factored({2: 14, 3: 6, 5: 1, 131: 1}) == "2^14*3^6*5*131"
    assert format_factored({}) == "1"
    assert format_factored(None, value=77) == "77"
    assert parse_factored("2^14*3^6*5*131") == 2**14 * 3**6 * 5 * 131
    assert parse_factored("1") == 1
    assert parse_factored("0") == 0
