"""Sieve-backed arithmetic functions and deterministic 64-bit primality.

``primes_up_to`` is the one Eratosthenes sieve. ``factorize`` factors n
directly (trial division + Pollard rho), asking the one prime-power test,
``is_prime_power``, once per cofactor; von Mangoldt reads that test and
the squarefree divisors read factorize. ``_prime_multiples`` is the one walk
over the multiples of a set of primes, which the omega and rho tables share.
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
    """Floor of the k-th root of n, for k >= 2, n >= 2 and a root below 2**64
    (is_prime_power's): a float estimate, within about 2**-46 relatively, one
    Newton step for a root of 2**32 or more, then the few steps of 1 left."""
    if k == 2:
        return math.isqrt(n)
    r = int(math.exp(math.log(n) / k))
    if r >> 32:
        r = ((k - 1) * r + n // r ** (k - 1)) // k
    while r > 1 and r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def is_prime_power(n: int):
    """Return (p, nu) with n = p**nu, nu >= 1, or None. is_prime_power(1) is
    None. Miller-Rabin decides n below 2**64; ValueError names a larger n
    with no prime factor up to 97 and no exact root below 2**64."""
    if n < 2:
        return None
    if n < 1 << 64 and is_prime_u64(n):
        return (n, 1)
    for p in _SMALL_PRIMES:
        if n % p == 0:
            m, nu = n, 0
            while m % p == 0:
                m //= p
                nu += 1
            return (p, nu) if m == 1 else None
    # No factor below 100: n = r**k needs k <= log_101(n), and Miller-Rabin
    # needs r < 2**64, so k >= bits / 64. The exact root of the largest k is
    # no perfect power, so n is a prime power exactly when that root is prime.
    bits = n.bit_length()
    for k in range(bits // 6 + 1, max(2, -(-bits // 64)) - 1, -1):
        r = _iroot(n, k)
        if r ** k == n:
            return (r, k) if is_prime_u64(r) else None
    if n < 1 << 64:
        return None  # composite, by the test above
    raise ValueError(f"cannot tell whether {n} is a prime power: it has no "
                     f"prime factor up to 97 and no exact root below 2**64")


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of odd composite n (Floyd's cycle finding,
    fixed seeds). factorize, its one caller, has divided out 2 before."""
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
    """Prime factorization as ((p1, e1), (p2, e2), ...), primes increasing."""

    parts: tuple

    @property
    def largest_prime(self) -> int:
        return self.parts[-1][0] if self.parts else 1


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
        m = stack.pop()  # > 1: both parts of a split are proper factors
        pp = is_prime_power(m)  # (m, 1) when m is prime
        if pp:
            p, e = pp
            parts[p] = parts.get(p, 0) + e
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(tuple(sorted(parts.items())))


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


def von_mangoldt(n: int) -> float:
    """log p when n = p**k (k >= 1), else 0."""
    if n < 1:
        raise ValueError("von_mangoldt requires n >= 1")
    pp = is_prime_power(n)
    return math.log(pp[0]) if pp else 0.0
