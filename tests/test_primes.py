"""primes: primality and prime-power recognition."""

import pytest

from weilmot import PrimePower, RangeError
from weilmot.primes import MR_PROVEN_BOUND, is_prime


def test_from_q_small():
    assert PrimePower.from_q(2) == PrimePower(2, 1)
    assert PrimePower.from_q(49) == PrimePower(7, 2)
    assert PrimePower.from_q(2 ** 10) == PrimePower(2, 10)
    for q in (0, 1, 6, 12, 36, 100):
        with pytest.raises(RangeError):
            PrimePower.from_q(q)


def test_from_q_primes_past_trial_division():
    # 1009 and 1013 are the first primes past 1000
    assert is_prime(1009) and is_prime(1013)
    assert PrimePower.from_q(1009) == PrimePower(1009, 1)
    assert PrimePower.from_q(1009 ** 2) == PrimePower(1009, 2)
    assert PrimePower.from_q(1009 ** 3) == PrimePower(1009, 3)
    with pytest.raises(RangeError):
        PrimePower.from_q(1009 * 1013)
    with pytest.raises(RangeError):
        PrimePower.from_q(1009 ** 2 * 1013)


def test_from_q_matches_trial_division():
    def by_trial_division(q):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        a = 0
        while q % p == 0:
            q //= p
            a += 1
        return (p, a) if q == 1 else None

    for q in range(2, 3000):
        try:
            found = PrimePower.from_q(q)
        except RangeError:
            found = None
        expected = by_trial_division(q)
        assert (found and (found.p, found.a)) == expected, q


def test_is_prime_small_values_unchanged():
    assert [n for n in range(60) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
    ]


def test_is_prime_gives_no_unproven_answer():
    # psi_12 is a strong pseudoprime to every prime base up to 37; base 41
    # exposes it.  psi_13 passes bases up to 41 and is the proven bound.
    assert not is_prime(318665857834031151167461)
    assert MR_PROVEN_BOUND == 3317044064679887385961981
    with pytest.raises(RangeError):
        is_prime(MR_PROVEN_BOUND)
    with pytest.raises(RangeError):
        PrimePower(2 ** 89 - 1, 1)
    assert PrimePower(2 ** 61 - 1, 1).q == 2 ** 61 - 1
    # A witness proves compositeness at any size, so large prime powers still parse.
    assert not is_prime(2 ** 89 + 1)
    assert PrimePower.from_q(2 ** 100) == PrimePower(2, 100)
