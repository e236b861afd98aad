"""primes: primality and prime-power recognition."""

import pytest

from weilmot import PrimePower, RangeError
from weilmot.primes import is_prime


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
