"""Roots of n**2 + d = 0 (mod q): prime moduli, prime-power lifting, CRT,
and the value sieve that steps those roots through blocks of values.

rho(q) = #roots in [0, q) is multiplicative over coprime moduli; for odd
primes p with p coprime to d it is 1 + (-d | p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import factorize, is_prime_u64, primes_up_to

# Values per block of ValueSieve.quartic_rows. A block costs a fixed number
# of numpy passes, so a small one costs little time and bounds the memory of
# its hit arrays.
_ROW_BLOCK = 1 << 16


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a | p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else 1


def quadratic_character(d: int, p: int) -> int:
    """(-d | p) for odd prime p: +1/-1/0 as -d is a residue/nonresidue/0 mod p."""
    return legendre(-d % p, p)


def sqrt_mod_prime(a: int, p: int) -> list:
    """All z in [0, p) with z*z = a (mod p); [] when a is a nonresidue.

    Rejects composite p (caller contract violation).
    """
    if not is_prime_u64(p):
        raise ValueError(f"modulus {p} is not prime")
    a %= p
    if p == 2:
        return [a]
    if a == 0:
        return [0]
    if legendre(a, p) != 1:
        return []
    if p % 4 == 3:
        z = pow(a, (p + 1) // 4, p)
    else:
        z = _tonelli_shanks(a, p)
    return sorted({z, p - z})


def _tonelli_shanks(a: int, p: int) -> int:
    # p = 1 (mod 4), a a known residue.
    s, e = p - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    n = 2
    while legendre(n, p) != -1:
        n += 1
    x = pow(a, (s + 1) // 2, p)
    b = pow(a, s, p)
    g = pow(n, s, p)
    r = e
    while True:
        t = b
        m = 0
        while t != 1:
            t = t * t % p
            m += 1
        if m == 0:
            return x
        gs = pow(g, 1 << (r - m - 1), p)
        g = gs * gs % p
        x = x * gs % p
        b = b * g % p
        r = m


def _lift_prime_power(p: int, k: int, d: int) -> list:
    """Roots of n**2 + d = 0 (mod p**k), by Hensel steps from the base prime.

    Nonsingular roots (p does not divide 2r) lift uniquely via Newton's step;
    singular ones (only possible when p divides 2d) branch over t in [0, p).
    """
    if p == 2:
        roots = [(-d) % 2]
    else:
        roots = sqrt_mod_prime(-d % p, p)
    mod = p
    for _ in range(k - 1):
        mod_next = mod * p
        lifted = []
        for r in roots:
            fr = (r * r + d) % mod_next
            if (2 * r) % p != 0:
                inv = pow(2 * r, -1, mod_next)
                lifted.append((r - fr * inv) % mod_next)
            else:
                if fr == 0:
                    lifted.extend(r + t * mod for t in range(p))
        roots = sorted(set(lifted))
        mod = mod_next
    return roots


@dataclass(frozen=True)
class RootSet:
    """Sorted roots of n**2 + shift = 0 (mod modulus) in [0, modulus)."""

    modulus: int
    shift: int
    roots: tuple

    @property
    def count(self) -> int:
        return len(self.roots)


def roots_mod(q: int, d: int) -> RootSet:
    """Exact RootSet for modulus q >= 1 via prime-power lifting + CRT."""
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if q == 1:
        return RootSet(1, d, (0,))
    residues = [0]
    mod = 1
    for p, e in factorize(q).parts:
        pe = p ** e
        local = _lift_prime_power(p, e, d)
        if not local:
            return RootSet(q, d, ())
        inv = pow(mod % pe, -1, pe) if mod % pe else None
        if inv is None:  # mod and pe share a factor: impossible, parts are coprime
            raise AssertionError
        combined = []
        for a in residues:
            for b in local:
                combined.append(a + mod * ((b - a) * inv % pe))
        residues = combined
        mod *= pe
    return RootSet(q, d, tuple(sorted(r % q for r in residues)))


def rho(q: int, d: int) -> int:
    """Number of solutions of n**2 + d = 0 (mod q) in [0, q)."""
    return roots_mod(q, d).count


def roots_mod_scan(q: int, d: int) -> tuple:
    """Brute-force oracle: test every residue in [0, q)."""
    if q == 1:
        return (0,)
    n = np.arange(q, dtype=np.int64)
    hits = np.nonzero((n * n + d) % q == 0)[0]
    return tuple(int(v) for v in hits)


def rho_table(limit: int, d: int) -> np.ndarray:
    """rho(q, d) for all q in [0, limit], one strided pass per prime p <= limit.

    For p not dividing 2d every rho(p**e) is 1 + (-d | p), so each multiple of
    p takes that factor once. For p dividing 2d the factor of q depends on the
    exponent of p in q, and each exponent's count comes from Hensel lifting.
    """
    out = np.ones(limit + 1, dtype=np.int64)
    out[0] = 0
    for p in primes_up_to(limit).tolist():
        if (2 * d) % p:
            r = 1 + quadratic_character(d, p)
            if r != 1:
                out[p::p] *= r
            continue
        # factor[k - 1] is rho(p**e) for q = p*k with p**e exactly dividing q;
        # the larger exponents write last.
        factor = np.empty(limit // p, dtype=np.int64)
        step, e = 1, 1
        while step <= limit // p:
            factor[step - 1 :: step] = len(_lift_prime_power(p, e, d))
            step *= p
            e += 1
        out[p::p] *= factor
    return out


def _progressions(first: np.ndarray, count: np.ndarray, step) -> np.ndarray:
    """Concatenation of first[j] + step[j] * arange(count[j]) over every j;
    step is an array like first, or one int for every j."""
    start = np.cumsum(count) - count
    each = np.repeat(step, count) if np.ndim(step) else step
    return (np.repeat(first - step * start, count)
            + each * np.arange(count.sum(), dtype=np.int64))


def _stepped(root: np.ndarray, step: np.ndarray, lo, hi, offset):
    """The hits of n = root[j] (mod step[j]) over lo[j] <= n <= hi[j], for
    every j, as ValueSieve takes them: the positions offset[j] + n - lo[j],
    and the step of each. lo, hi and offset are arrays like root, or one int
    for every j."""
    first = (root - lo) % step
    count = (hi - lo - first) // step + 1
    return _progressions(offset + first, count, step), np.repeat(step, count)


class ValueSieve:
    """Factorisations of a block of values n**2 + c, by stepping roots.

    ``values`` is the block, every value >= 1; an int64 array is divided in
    place and becomes ``cofactor``. ``at`` and ``prime`` are the hits, one
    entry each, grouped by ascending prime: for every prime p <=
    isqrt(max value), the positions of the values that p divides, read off
    the roots of n**2 + c = 0 (mod p) instead of found by trial division. A
    hit whose prime does not divide its value raises ValueError. Afterwards:

    - ``cofactor[i]`` is what remains of value i: 1 or a prime larger than
      every sieved prime;
    - ``omega[i]`` counts the distinct primes of value i, cofactor included;
    - ``largest[i]`` is the largest sieved prime dividing value i (1 if none);
    - ``hit_index``, ``hit_prime`` and ``hit_exp`` are ``at``, ``prime`` and
      the exponent of each hit's prime in its value.

    The front ends ``shift`` (n**2 + d) and ``quartic_rows`` (n**2 + m**4)
    build the block and, with ``_stepped``, its hits.
    """

    def __init__(self, values: np.ndarray, at: np.ndarray, prime: np.ndarray):
        cofactor = np.asarray(values, dtype=np.int64)
        if (cofactor[at] % prime).any():
            raise ValueError("a prime does not divide every value it hits")
        # The primes that hit one value are distinct, so after this division
        # p divides the cofactor exactly where p**2 divides the value.
        np.floor_divide.at(cofactor, at, prime)
        exp = np.ones(len(at), dtype=np.uint8)
        k = np.flatnonzero(cofactor[at] % prime == 0)
        while len(k):
            np.floor_divide.at(cofactor, at[k], prime[k])
            exp[k] += 1
            k = k[cofactor[at[k]] % prime[k] == 0]
        largest = np.ones(len(cofactor), dtype=np.int64)
        np.maximum.at(largest, at, prime)
        self.cofactor = cofactor
        self.largest = largest
        self.hit_index = at
        self.hit_prime = prime
        self.hit_exp = exp
        self.omega = (np.bincount(at, minlength=len(cofactor))
                      + (cofactor > 1)).astype(np.uint8)

    @classmethod
    def shift(cls, n_lo: int, n_hi: int, d: int) -> "ValueSieve":
        """Sieve n**2 + d for 0 <= n_lo <= n <= n_hi; position i holds n_lo + i."""
        if n_hi < n_lo:
            none = np.empty(0, dtype=np.int64)
            return cls(none, none, none)
        if n_hi * n_hi + abs(d) >= 1 << 63:
            raise OverflowError("n**2 + d exceeds 63 bits")
        if n_lo < 0:
            raise ValueError("n_lo must be >= 0")
        if n_lo * n_lo + d < 1:
            raise ValueError(f"n**2 + d < 1 at n = {n_lo}")
        n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
        ps = primes_up_to(math.isqrt(n_hi * n_hi + d))
        roots = [(p, r) for p in ps.tolist() for r in sqrt_mod_prime(-d % p, p)]
        step, root = np.array(roots, dtype=np.int64).reshape(-1, 2).T
        return cls(n * n + d, *_stepped(root, step, n_lo, n_hi, 0))

    @classmethod
    def quartic_rows(cls, x: int):
        """Yield sieves over the values n**2 + m**4 <= x with n, m >= 1, in
        (m, n) lexicographic order, each over at most _ROW_BLOCK values.

        For a fixed row m the roots mod p are +-m**2 i_p, with i_p**2 = -1 for
        p = 1 (mod 4) and i_2 = 1; for p = 3 (mod 4) the root is 0 when p
        divides m, and there is none otherwise.
        """
        if x >= 1 << 63:
            raise OverflowError("x exceeds 63 bits")
        ps = primes_up_to(math.isqrt(x) if x >= 2 else 0)
        unit = np.array([sqrt_mod_prime(p - 1, p)[0] if p % 4 != 3 else 0
                         for p in ps.tolist()], dtype=np.int64)
        segments = []  # (m, n_lo, n_hi), n_lo <= n_hi
        size = 0
        m = 1
        while m ** 4 + 1 <= x:
            top = math.isqrt(x - m ** 4)
            lo = 1
            while lo <= top:
                hi = min(top, lo + _ROW_BLOCK - size - 1)
                segments.append((m, lo, hi))
                size += hi - lo + 1
                lo = hi + 1
                if size == _ROW_BLOCK:
                    yield cls._rows(segments, ps, unit)
                    segments, size = [], 0
            m += 1
        if segments:
            yield cls._rows(segments, ps, unit)

    @classmethod
    def _rows(cls, segments: list, ps: np.ndarray, unit: np.ndarray) -> "ValueSieve":
        m, lo, hi = (np.array(c, dtype=np.int64) for c in zip(*segments))
        count = hi - lo + 1
        offset = np.cumsum(count) - count
        values = _progressions(lo, count, 1) ** 2 + np.repeat(m ** 4, count)
        last = np.searchsorted(ps, math.isqrt(int(values.max())), side="right")
        # per (prime, segment) pair, prime-major: r = m**2 i_p is a root when
        # i_p exists or p divides m, and p - r is a second one unless
        # 2r = 0 (mod p)
        p, i = ps[:last, None], unit[:last, None]
        r = m * m % p * i % p
        roots = np.stack([r, p - r], axis=2)
        keep = np.stack([(i != 0) | (m % p == 0), 2 * r % p != 0], axis=2)
        j, seg, _ = np.nonzero(keep)
        return cls(values, *_stepped(roots[keep], ps[j], lo[seg], hi[seg],
                                     offset[seg]))

    def largest_prime(self) -> np.ndarray:
        """Largest prime factor of each value (1 for the value 1)."""
        return np.maximum(self.largest, self.cofactor)

    def prime_power_base(self) -> np.ndarray:
        """p where the value is a power of the prime p, else 0."""
        return np.where(self.omega == 1, self.largest_prime(), 0)

    def squarefree_divisors(self):
        """(owner, q, mu(q), omega(q)) over every squarefree divisor q of every
        value, with owner the value's position, ascending."""
        size = len(self.cofactor)
        order = np.argsort(self.hit_index, kind="stable")
        owner = self.hit_index[order]
        sieved = np.bincount(owner, minlength=size)
        column = np.arange(len(owner)) - np.repeat(np.cumsum(sieved) - sieved, sieved)
        distinct = np.ones((size, int(self.omega.max(initial=0))), dtype=np.int64)
        distinct[owner, column] = self.hit_prime[order]
        big = np.flatnonzero(self.cofactor > 1)
        distinct[big, sieved[big]] = self.cofactor[big]
        owners, qs, bits = [], [], []
        for k in range(distinct.shape[1] + 1):
            rows = np.flatnonzero(self.omega == k)
            q = np.ones((len(rows), 1), dtype=np.int64)
            b = np.zeros(1, dtype=np.int64)
            for j in range(k):
                q = np.hstack([q, q * distinct[rows, j : j + 1]])
                b = np.concatenate([b, b + 1])
            owners.append(np.repeat(rows, 1 << k))
            qs.append(q.ravel())
            bits.append(np.tile(b, len(rows)))
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        bits = np.concatenate(bits)[order]
        return owner[order], np.concatenate(qs)[order], 1 - 2 * (bits & 1), bits
