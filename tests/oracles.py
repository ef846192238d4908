"""Slow, independent oracles that only the tests call.

Each one computes a result of the package by a plainer route: a
smallest-prime-factor table, trial division, or a loop over every n. None of
them is part of the package, and the package never imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from quadprimes.arith import (_SMALL_PRIMES, Factorization, _ordered_sum,
                              factorize, is_prime_power, is_prime_u64,
                              primes_up_to)
from quadprimes.congruence import _n_limit, legendre, roots_mod


class FactorSieve:
    """Smallest-prime-factor table (int32) for [2, limit]; immutable after
    construction."""

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("sieve limit must be >= 2")
        if limit >= 1 << 31:
            raise ValueError("sieve limit must be < 2**31 (int32 table)")
        self.limit = int(limit)
        spf = np.arange(self.limit + 1, dtype=np.int32)
        # Largest prime first, so the smallest prime of each n writes last.
        for p in primes_up_to(math.isqrt(self.limit))[::-1].tolist():
            spf[p * p :: p] = p
        self.spf = spf

    def smallest_prime_factor(self, n: int) -> int:
        return int(self.spf[n])

    def factor(self, n: int) -> Factorization:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside sieve range [1, {self.limit}]")
        parts = []
        m = n
        while m > 1:
            p = int(self.spf[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            parts.append((p, e))
        return Factorization(tuple(parts))

    def omega(self, n: int) -> int:
        t = 0
        m = n
        while m > 1:
            p = int(self.spf[m])
            while m % p == 0:
                m //= p
            t += 1
        return t


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius requires n >= 1")
    parts = factorize(n).parts
    if any(e > 1 for _, e in parts):
        return 0
    return -1 if len(parts) % 2 else 1


def omega(n: int) -> int:
    if n < 1:
        raise ValueError("omega requires n >= 1")
    return len(factorize(n).parts)


def divisors(n: int) -> list:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).parts:
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def von_mangoldt_loop(n: int) -> float:
    """log p when n = p**k (k >= 1), else 0: a small prime that divides n
    decides at once, then a Miller-Rabin test, then is_prime_power."""
    if n < 1:
        raise ValueError("von_mangoldt requires n >= 1")
    if n == 1:
        return 0.0
    # Cheap rejection: a small factor not accounting for all of n kills it.
    for p in _SMALL_PRIMES:
        if n % p == 0:
            m = n
            while m % p == 0:
                m //= p
            return math.log(p) if m == 1 else 0.0
    if is_prime_u64(n):
        return math.log(n)
    pp = is_prime_power(n)
    return math.log(pp[0]) if pp else 0.0


def von_mangoldt_via_mobius(n: int) -> float:
    """-sum over divisors q of n of mu(q) log q (inclusion-exclusion route),
    over the squarefree divisors, the only ones that contribute."""
    if n < 1:
        raise ValueError("requires n >= 1")
    return -_ordered_sum(mu * math.log(q)
                         for q, mu in squarefree_divisors(n))


def squarefree_divisors(n: int) -> list:
    """(q, mu(q)) for every squarefree divisor q of n, that is every product
    of a subset of its distinct primes."""
    out = [(1, 1)]
    for p, _ in factorize(n).parts:
        out += [(q * p, -s) for q, s in out]
    return out


def quadratic_character(d: int, p: int) -> int:
    """(-d | p) for odd prime p: +1/-1/0 as -d is a residue/nonresidue/0 mod p."""
    return legendre(-d % p, p)


def max_valuation(p: int, n: int) -> int:
    """max over m <= n of v_p(m**2 + 1), via prime-power root lifting.

    The valuation reaches k iff some root of the congruence mod p**k is <= n.
    """
    if not is_prime_u64(p):
        raise ValueError("p must be prime")
    if n < 1:
        return 0
    if p == 2:
        return 1  # m**2 + 1 = 2 (mod 4) for odd m
    best = 0
    k = 1
    while p ** k <= n * n + 1:
        roots = roots_mod(p ** k, 1)
        if not roots or min(roots) > n:
            break
        best = k
        k += 1
    return best


def max_valuation_trial(p: int, n: int) -> int:
    """Oracle: direct division over every m <= n."""
    best = 0
    for m in range(1, n + 1):
        v = m * m + 1
        e = 0
        while v % p == 0:
            v //= p
            e += 1
        best = max(best, e)
    return best


def qualifying_n_by_trial(x: float, q: int, d: int) -> list:
    """Oracle: the same qualifying n found by filtering every n (no roots)."""
    top = _n_limit(x, d)
    return [n for n in range(2, top + 1) if (n * n + d) % q == 0]
