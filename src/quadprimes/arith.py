"""Sieve-backed arithmetic functions and deterministic 64-bit primality.

``primes_up_to`` is the one Eratosthenes sieve. The smallest-prime-factor
table of ``FactorSieve`` is a strided pass over its primes; it factors and
counts omega in O(log n) per query, and is the tests' oracle. Mobius, von
Mangoldt and the squarefree divisors factor n directly (trial division +
Pollard rho), with a deterministic Miller-Rabin test. ``_prime_multiples`` is
the one walk over the multiples of a set of primes, which the omega and rho
tables share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                 67, 71, 73, 79, 83, 89, 97)

# Verified deterministic witness sets (Jaeschke; Sorenson-Webster for the top rows).
# Each entry (bound, bases): the bases are sufficient for all n < bound.
_MR_WITNESSES = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)


def _check_cutoff(x: float):
    """ValueError unless the cutoff x of a sum or count is finite: NaN passes
    every comparison against it, and infinity has no last n."""
    if not math.isfinite(x):
        raise ValueError(f"cutoff x = {x!r} is not finite")


def _running_sums(terms, start: float = 0.0) -> np.ndarray:
    """start, start + t0, (start + t0) + t1, ...: a float sum added left to
    right by np.cumsum, as every float total of the package is, since its
    bits depend on the order (the builtin sum compensates from Python 3.12
    on, np.sum adds pairwise). Compute each term as a loop would, with
    math.log and ** (np.log and np.power may differ in the last place).
    ``terms`` is an array or any iterable of floats."""
    if not isinstance(terms, np.ndarray):
        terms = np.fromiter(terms, dtype=np.float64)
    return np.cumsum(np.concatenate(([start], terms)))


def _ordered_sum(terms, start: float = 0.0) -> float:
    """start + t0 + t1 + ... added left to right (see _running_sums), as a
    Python float."""
    return float(_running_sums(terms, start)[-1])


def is_prime_u64(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2**64 (fixed Miller-Rabin witnesses)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= 1 << 64:
        raise ValueError("is_prime_u64 requires n < 2**64")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for bound, bases in _MR_WITNESSES:
        if n < bound:
            witnesses = bases
            break
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """Floor of the integer k-th root of n >= 0."""
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    r = int(round(n ** (1.0 / k)))
    while r > 1 and r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def is_prime_power(n: int):
    """Return (p, nu) with n = p**nu, nu >= 1, or None. is_prime_power(1) is None."""
    if n < 2:
        return None
    if is_prime_u64(n):
        return (n, 1)
    for p in _SMALL_PRIMES:
        if n % p == 0:
            m, nu = n, 0
            while m % p == 0:
                m //= p
                nu += 1
            return (p, nu) if m == 1 else None
    # No factor below 100: a proper power must have exponent <= log_101(n).
    for k in range(2, n.bit_length() // 6 + 2):
        r = _iroot(n, k)
        if r ** k == n and is_prime_u64(r):
            return (r, k)
    return None


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite n (Floyd's cycle finding, fixed seeds)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed on {n}")


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of value as ((p1, e1), (p2, e2), ...), primes increasing."""

    value: int
    parts: tuple

    @property
    def omega(self) -> int:
        return len(self.parts)

    @property
    def largest_prime(self) -> int:
        return self.parts[-1][0] if self.parts else 1

    def verify(self) -> bool:
        prod = 1
        for p, e in self.parts:
            prod *= p ** e
        return prod == self.value


def factorize(n: int) -> Factorization:
    """Factor n >= 1 without a sieve: trial division then Pollard rho.

    ValueError when the cofactor of n left after the primes up to 97 is
    2**64 or more, beyond the reach of the Miller-Rabin test.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    parts = {}
    m = n
    for p in _SMALL_PRIMES:
        while m % p == 0:
            parts[p] = parts.get(p, 0) + 1
            m //= p
    if m >= 1 << 64:
        raise ValueError(f"cannot factor {n}: the cofactor {m} left after "
                         f"the primes up to 97 is 2**64 or more")
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime_u64(m):
            parts[m] = parts.get(m, 0) + 1
            continue
        pp = is_prime_power(m)
        if pp:
            p, e = pp
            parts[p] = parts.get(p, 0) + e
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(n, tuple(sorted(parts.items())))


# Largest limit primes_up_to accepts. At 10**8 the sieve peaks at 74 MiB RSS,
# imports included, and takes 0.3-0.4 s; `constants --prime-bound 1e8` peaks
# there too, in 1.2-1.4 s (3.3-3.5 s for --d 7, set by the quadratic
# characters).
PRIME_SIEVE_LIMIT = 10**8

# Odd numbers per segment of primes_up_to's sieve: a 256 KiB mask, which
# took 0.31 s at 10**8 where one mask over every odd number took 0.93 s.
_SEGMENT = 1 << 18


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit via an Eratosthenes sieve over the odd numbers, in
    segments, with 2 prepended; limit is at most PRIME_SIEVE_LIMIT. Besides
    the primes it holds one segment's mask at a time."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    if limit > PRIME_SIEVE_LIMIT:
        raise ValueError(
            f"prime sieve limit {limit} exceeds {PRIME_SIEVE_LIMIT}")
    base = primes_up_to(math.isqrt(limit))[1:].tolist()  # the odd ones
    # pi(x) <= x / log x * (1 + 1.2762 / log x) for x > 1 (Dusart, Math.
    # Comp. 68 (1999)), under 1% above pi(x) from 10**6 on
    log_x = math.log(limit)
    ps = np.empty(int(limit / log_x * (1.0 + 1.2762 / log_x)) + 1,
                  dtype=np.int64)
    count = 0
    # index i stands for 2i + 1; an odd p strikes its odd multiples from p**2,
    # index p**2 // 2, which are p indices apart. Index 0 stands for 1 and
    # stays set, so that its slot becomes the prime 2: the primes are built
    # in one array, with no copy to prepend 2.
    top = (limit + 1) // 2
    for lo in range(0, top, _SEGMENT):
        odd = np.ones(min(top - lo, _SEGMENT), dtype=bool)
        for p in base:  # from p**2, or its first index in this segment
            at = p * p // 2
            odd[max(at, lo + (at - lo) % p) - lo :: p] = False
        found = np.flatnonzero(odd)
        found *= 2
        found += 2 * lo + 1
        ps[count : count + len(found)] = found
        count += len(found)
        del odd, found  # before the next segment's are made
    ps[0] = 2
    return ps[:count]


def _over_primes(ps: np.ndarray, fn) -> np.ndarray:
    """fn(ps) as float64, computed a block at a time and written over each
    block of the int64 array ps once fn has read it: a float64 view of ps,
    with no second array of its length."""
    out = ps.view(np.float64)
    for lo in range(0, len(ps), 1 << 14):
        out[lo : lo + (1 << 14)] = fn(ps[lo : lo + (1 << 14)])
    return out


def _prime_multiples(ps: np.ndarray, limit: int):
    """Yield (at, which) over the multiples k*p <= limit of every prime p of
    ps (ascending, each <= limit), each multiple of each prime once: ``at``
    indexes the multiples, ``which`` the position in ps of their primes.
    A prime p <= sqrt(limit) yields one strided slice, at = p, 2p, ...; the
    larger primes have few multiples each, and yield one index array per
    multiplier m, at = m * ps[which] with ``which`` a slice of ps, distinct
    indices within one array."""
    small = int(np.searchsorted(ps, math.isqrt(limit), side="right"))
    for j, p in enumerate(ps[:small].tolist()):
        yield slice(p, None, p), j
    big = ps[small:]
    m = 1
    while len(big):
        yield big * m, slice(small, small + len(big))
        m += 1
        big = big[: np.searchsorted(big, limit // m, side="right")]


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
        return Factorization(n, tuple(parts))

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
    return factorize(n).omega


def von_mangoldt(n: int) -> float:
    """log p when n = p**k (k >= 1), else 0."""
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


def divisors(n: int) -> list:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).parts:
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def squarefree_divisors(n: int) -> list:
    """(q, mu(q)) for every squarefree divisor q of n, that is every product
    of a subset of its distinct primes."""
    out = [(1, 1)]
    for p, _ in factorize(n).parts:
        out += [(q * p, -s) for q, s in out]
    return out
