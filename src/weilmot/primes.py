"""Prime powers q = p^a, the base-field size everything is normalized against."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RangeError


# Miller-Rabin with the prime bases 2..41 is proven correct below psi_13
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below MR_PROVEN_BOUND (about 3.3e24).

    Composites are always reported (a witness is a proof); an n at or above
    the bound that passes every base raises RangeError instead of returning
    an unproven True.
    """
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_PROVEN_BOUND:
        raise RangeError(
            f"primality of {n} is unproven at or above {MR_PROVEN_BOUND}"
        )
    return True


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1 by bisection on lo^k <= n < hi^k (no floats)."""
    lo, hi = 1, 1 << (n.bit_length() // k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** k <= n else (lo, mid)
    return lo


@dataclass(frozen=True, order=True)
class PrimePower:
    """q = p^a with p prime and a >= 1."""

    p: int
    a: int

    def __post_init__(self):
        if self.a < 1:
            raise RangeError(f"exponent a = {self.a} must be >= 1")
        if not is_prime(self.p):
            raise RangeError(f"p = {self.p} is not prime")

    @property
    def q(self) -> int:
        return self.p ** self.a

    @classmethod
    def from_q(cls, q: int) -> "PrimePower":
        """Factor q as p^a; raises RangeError if q is not a prime power."""
        if q < 2:
            raise RangeError(f"q = {q} is not a prime power")
        for a in range(1, q.bit_length() + 1):
            p = _integer_root(q, a)
            if p ** a == q and is_prime(p):
                return cls(p, a)
        raise RangeError(f"q = {q} is not a prime power")

    def power(self, m: int) -> "PrimePower":
        """q^m as a PrimePower."""
        if m < 1:
            raise RangeError("power must be >= 1")
        return PrimePower(self.p, self.a * m)

    def root(self, m: int) -> "PrimePower":
        """The base q0 with q0^m = q; raises if a is not divisible by m."""
        if m < 1 or self.a % m != 0:
            raise RangeError(f"{self.q} is not an m-th power for m = {m}")
        return PrimePower(self.p, self.a // m)

    def __repr__(self) -> str:
        return f"PrimePower(p={self.p}, a={self.a})"

    def __str__(self) -> str:
        return str(self.q) if self.a == 1 else f"{self.p}^{self.a}"
