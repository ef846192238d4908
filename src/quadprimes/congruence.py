"""Roots of n**2 + d = 0 (mod q), as ascending tuples: prime moduli,
prime-power lifting, CRT, and the value sieve that steps those roots
through blocks of values.

rho(q) = #roots in [0, q) is multiplicative over coprime moduli; for odd
primes p with p coprime to d it is 1 + (-d | p).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .arith import (PRIME_SIEVE_LIMIT, _prime_multiples, factorize,
                    is_prime_u64, primes_up_to)

# Most values per block of ValueSieve.quartic_rows, which sieves a longer row
# in several blocks. A block costs a fixed number of numpy passes, so a small
# one costs little time and bounds the memory of its hit arrays.
_ROW_BLOCK = 1 << 16

# Most roots that roots_mod lists; it compares rho(q) with this bound before
# any Hensel lift. A root set can be as large as about sqrt(q) (rho(10**(2k),
# 0) = 10**k) or 2**k (a product of k split primes), and each root costs
# about 300 bytes on its way through the CLI (19 MiB for 2**16 roots). rho
# and rho_table count without listing roots, so they take no bound.
ROOTS_LIMIT = 1 << 16

# Most n that one block of prime_ns strikes through _stepped (one more
# root's strikes may overrun it), which bounds the memory of its positions.
_STRIKE_BLOCK = 1 << 16


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a | p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else 1


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


def _residues(a: int, p: np.ndarray) -> np.ndarray:
    """a % p for every p of p (each below 2**31), for a Python int a of any
    size: Horner's rule over the 31-bit limbs of |a|, in place in one array,
    so that no intermediate reaches 2**63."""
    r = np.zeros_like(p)
    for k in range(abs(a).bit_length() // 31 * 31, -1, -31):
        r <<= 31
        r += abs(a) >> k & (1 << 31) - 1
        r %= p
    if a < 0:
        np.subtract(p, r, out=r)
        r %= p
    return r


def _pow_mod(base, exp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base**exp % p elementwise; base is an array like p, or one int of any
    size. The caller's arrays are not written: base is squared in a copy,
    and each bit of exp is cast to one bool mask without an int64 temporary.
    Every p is below 2**31, so no product reaches 2**63."""
    out = np.ones_like(p)
    base = _residues(base, p) if isinstance(base, int) else base % p
    bit = np.empty_like(p, dtype=bool)
    for k in range(int(exp.max(initial=0)).bit_length()):
        if k:
            np.multiply(base, base, out=base)
            np.remainder(base, p, out=base)
        np.bitwise_and(exp, 1 << k, out=bit, casting="unsafe")
        np.multiply(out, base, out=out, where=bit)
        np.remainder(out, p, out=out, where=bit)
    return out


def quadratic_characters(d: int, ps: np.ndarray) -> np.ndarray:
    """(-d | p) for every odd prime p of ps: for d = 1, -1 exactly where
    p = 3 (mod 4); otherwise by Euler's criterion in one pass."""
    ps = np.asarray(ps, dtype=np.int64)
    if d == 1:
        return np.where(ps % 4 == 3, -1, 1)
    t = _pow_mod(-d, (ps - 1) // 2, ps)
    t[t == ps - 1] = -1
    return t


def _non_residues(ps: np.ndarray) -> np.ndarray:
    """The least quadratic non-residue of every prime p = 1 (mod 4) of ps.

    It is a prime q below sqrt(p) + 1. By quadratic reciprocity an odd q is
    a non-residue mod p exactly when p is one mod q, so each candidate costs
    a lookup of p % q among the squares mod q; q = 2 is one exactly when
    p = 5 (mod 8).
    """
    c = np.where(ps % 8 == 5, 2, 0)
    todo = np.flatnonzero(c == 0)
    for q in primes_up_to(math.isqrt(int(ps.max(initial=0))) + 1)[1:].tolist():
        if not len(todo):
            break
        square = np.zeros(q, dtype=bool)
        square[np.arange(q) ** 2 % q] = True
        found = ~square[ps[todo] % q]
        c[todo[found]] = q
        todo = todo[~found]
    return c


def _roots_one_mod_four(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """For primes p = 1 (mod 4): z with z*z = a (mod p) wherever a is a
    residue (elsewhere z is garbage). z = c**((p - 1)/4) for a = -1, with c a
    non-residue; Tonelli-Shanks, under masks, for every other a."""
    c = _non_residues(p)
    z = _pow_mod(c, p >> 2, p)  # (p - 1)/4
    ts = np.flatnonzero(a != p - 1)
    if not len(ts):
        return z
    a, p, c = a[ts], p[ts], c[ts]
    low = (p - 1) & (1 - p)  # the lowest set bit: p - 1 = s * 2**e, s odd
    e = np.log2(low).astype(np.int64)
    s = (p - 1) // low
    w = _pow_mod(a, (s - 1) // 2, p)
    x = w * a % p  # a**((s + 1)/2)
    t = w * x % p  # a**s, so x*x = a*t; its order divides 2**(e - 1)
    h = _pow_mod(c, s, p)  # of order 2**e
    # Step k halves the order of t until it divides 2**(k - 1): where
    # t**(2**(k - 1)) = -1, multiply t by h**2 (order 2**k) and x by h. At
    # step k, h = c**(s * 2**(e - 1 - k)) for each p with e > k.
    for k in range(int(e.max()) - 1, 0, -1):
        on = np.flatnonzero(e > k)
        u, g, q = t[on], h[on], p[on]
        for _ in range(k - 1):
            u = u * u % q
        h[on] = g * g % q
        odd = u != 1
        flip, g, q = on[odd], g[odd], q[odd]
        x[flip] = x[flip] * g % q
        t[flip] = t[flip] * g % q * g % q
    z[ts] = x
    return z


def sqrt_mod_primes(d: int, ps: np.ndarray):
    """The roots of z**2 = -d (mod p) for every prime p of ps, in one pass.

    Returns (prime, root), one entry per root: the primes in the order of ps,
    each with its roots ascending, as sqrt_mod_prime(-d % p, p) lists them.
    z = a**((p + 1)/4) for p = 3 (mod 4), _roots_one_mod_four for p = 1
    (mod 4), and a is a residue exactly where z*z = a (Euler's criterion,
    folded into the root). Every p must be below 2**31 (ValueError).
    """
    p = np.asarray(ps, dtype=np.int64)
    if p.max(initial=0) >= 1 << 31:
        raise ValueError("sqrt_mod_primes takes primes below 2**31")
    a = -d % p
    z = a.copy()  # p = 2: the root is a
    three = (p % 4 == 3) & (a != p - 1)  # -1 has no root
    z[three] = _pow_mod(a[three], (p[three] + 1) // 4, p[three])
    one = p % 4 == 1
    z[one] = _roots_one_mod_four(a[one], p[one])
    ok = z * z % p == a
    p, z = p[ok], z[ok]
    lo = np.minimum(z, p - z)
    two = (lo != 0) & (p != 2)
    keep = np.array((np.ones_like(two), two)).T
    return np.repeat(p, 1 + two), np.array((lo, p - lo)).T[keep]


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


def _rho_prime_power(p: int, k: int, d: int) -> int:
    """rho(p**k), the number of roots of n**2 + d = 0 (mod p**k), in closed
    form from v = v_p(d) (capped at k) and the unit u = -d / p**v: p**(k // 2)
    when v = k (p**ceil(k/2) divides n); else none unless v = 2t is even,
    and then n = p**t w with w**2 = u (mod p**(k - v)), for p**t times the
    s square roots of u: 1 + (u | p) for odd p, and 1, 2 or 4 as k - v is 1,
    2 or >= 3 for p = 2, when u = 1 (mod 2**min(k - v, 3)) (Niven,
    Zuckerman and Montgomery, quadratic congruences to prime-power moduli).
    """
    v, u = 0, -d
    while v < k and u % p == 0:
        u, v = u // p, v + 1
    if v == k:
        return p ** (k // 2)
    if v % 2:
        return 0
    if p == 2:
        j = min(k - v, 3)
        s = 1 << (j - 1) if u % (1 << j) == 1 else 0
    else:
        s = 1 + legendre(u, p)
    return p ** (v // 2) * s


def _lift_prime_power(p: int, k: int, d: int) -> list:
    """Roots of n**2 + d = 0 (mod p**k), by Hensel steps from the base prime,
    in no particular order.

    Nonsingular roots (p does not divide 2r) lift uniquely via Newton's step;
    singular ones (only possible when p divides 2d) branch over t in [0, p).
    When n**2 + d has roots mod p**k, it has no fewer mod p**k than mod any
    p**j, so no step holds more than rho(p**k) roots. The lifts of distinct
    roots mod p**j are distinct mod p**(j + 1), as each is = its root
    (mod p**j) and a singular root's lifts r + t p**j differ in t, so no step
    repeats a root.
    """
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
        roots = lifted
        mod = mod_next
    return roots


def roots_mod(q: int, d: int) -> tuple:
    """The roots of n**2 + d = 0 (mod q) in [0, q), ascending, for a modulus
    q >= 1, via prime-power lifting + CRT.

    The count rho(q) comes first, from _rho_prime_power, so a modulus
    without roots gives (), and ValueError before any lift means
    exactly that q has more than ROOTS_LIMIT roots, or that factorize cannot
    factor q.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    parts = factorize(q).parts
    count = math.prod(_rho_prime_power(p, e, d) for p, e in parts)
    if count == 0:
        return ()
    if count > ROOTS_LIMIT:
        raise ValueError(
            f"n**2 + {d} has more than {ROOTS_LIMIT} roots mod {q}")
    residues = [0]
    mod = 1
    for p, e in parts:
        pe = p ** e
        local = _lift_prime_power(p, e, d)
        inv = pow(mod, -1, pe)  # the prime powers are coprime
        combined = []
        for a in residues:
            for b in local:
                combined.append(a + mod * ((b - a) * inv % pe))
        residues = combined
        mod *= pe
    return tuple(sorted(r % q for r in residues))


def rho(q: int, d: int) -> int:
    """Number of solutions of n**2 + d = 0 (mod q) in [0, q), the product
    of _rho_prime_power over the prime powers of q; exact at any size that
    factorize splits, with no roots listed."""
    if q < 1:
        raise ValueError("modulus must be >= 1")
    return math.prod(_rho_prime_power(p, e, d) for p, e in factorize(q).parts)


def roots_mod_scan(q: int, d: int) -> tuple:
    """Brute-force oracle: test every residue in [0, q)."""
    n = np.arange(q, dtype=np.int64)
    hits = np.nonzero((n * n + d) % q == 0)[0]
    return tuple(int(v) for v in hits)


def rho_table(limit: int, d: int) -> np.ndarray:
    """rho(q, d) for all q in [0, limit], in a fixed number of array passes.

    For p not dividing 2d every rho(p**e) is 1 + (-d | p), 0 or 2, so each
    multiple of p takes that factor once: all the symbols come from one
    quadratic_characters call, and arith._prime_multiples walks the multiples
    (as stats.omega_sieve counts them). For p dividing 2d the factor of q
    depends on the exponent of p in q, and each exponent's count comes from
    _rho_prime_power. Such a p has rho(p) = 1 (the one root n = 0, or n = d
    mod 2), so only those up to sqrt(limit), whose square fits, write any
    factor.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    out = np.ones(limit + 1, dtype=np.int64)
    out[0] = 0
    ps = primes_up_to(limit)
    divides_2d = (ps == 2) | (_residues(d, ps) == 0)
    for p in ps[divides_2d & (ps <= math.isqrt(limit))].tolist():
        # factor[k - 1] is rho(p**e) for q = p*k with p**e exactly dividing q;
        # the larger exponents write last.
        factor = np.empty(limit // p, dtype=np.int64)
        step, e = 1, 1
        while step <= limit // p:
            factor[step - 1 :: step] = _rho_prime_power(p, e, d)
            step *= p
            e += 1
        out[p::p] *= factor
    ps = ps[~divides_2d]
    r = 1 + quadratic_characters(d, ps)
    for at, which in _prime_multiples(ps, limit):
        out[at] *= r[which]
    return out


def _n_limit(x: float, d: int) -> int:
    """Largest n with n**2 + d <= x (0 when none)."""
    if x < d + 1:
        return 0
    return math.isqrt(int(x) - d)


def _check_63_bits(n: int, d: int) -> None:
    """OverflowError unless n**2 + |d| < 2**63, so that each value m**2 + d
    with 0 <= m <= n, and -d, fit in int64."""
    if n * n + abs(d) >= 1 << 63:
        raise OverflowError("n**2 + d exceeds 63 bits")


def prime_ns(n_max: int, d: int) -> np.ndarray:
    """The n in [1, n_max] with n**2 + d prime, ascending.

    Bits over [n_lo, n_max], n_lo the first n with n**2 + d >= 2: each root
    r of each prime p <= isqrt(n_max**2 + d) strikes the n = r (mod p), by a
    strided pass for a prime p <= isqrt(len(bits)), and for the larger
    primes, which strike few n each, by the positions from _stepped, in
    blocks of at most about _STRIKE_BLOCK. That strikes the value p itself
    too, so the values up to the largest such prime are read off the primes
    instead. When the values are fewer than those primes (a small n_max with
    a huge d), each value takes one Miller-Rabin test instead. Empty when
    n_lo > n_max; else OverflowError when n_max**2 + |d| reaches 2**63, and
    ValueError before it allocates when n_max**2 + d exceeds
    PRIME_SIEVE_LIMIT**2, the reach of the prime sieve.
    """
    n_lo = math.isqrt(max(1 - d, 0)) + 1
    if n_max < n_lo:
        return np.zeros(0, dtype=np.int64)
    _check_63_bits(n_max, d)
    top = n_max * n_max + d
    if top > PRIME_SIEVE_LIMIT ** 2:
        raise ValueError(f"n**2 + d = {top} exceeds {PRIME_SIEVE_LIMIT ** 2}")
    reach = math.isqrt(top)
    # Miller-Rabin when the values are fewer than the reach / log(reach) or
    # so primes that the sieve would step
    if reach > 2 and n_max - n_lo + 1 < reach / math.log(reach):
        return np.array([n for n in range(n_lo, n_max + 1)
                         if is_prime_u64(n * n + d)], dtype=np.int64)
    ps = primes_up_to(reach)
    cap = int(ps[-1]) if len(ps) else 1
    head = np.arange(n_lo, min(n_max, math.isqrt(max(cap - d, 0))) + 1)
    v = head * head + d
    head_bits = ps[np.searchsorted(ps, v)] == v if len(ps) else False
    prime, root = sqrt_mod_primes(d, ps)
    del ps  # freed, and the bits allocated, only after the roots' peak
    bits = np.ones(n_max - n_lo + 1, dtype=bool)
    small = np.searchsorted(prime, math.isqrt(len(bits)), side="right")
    for p, r in zip(prime[:small].tolist(), root[:small].tolist()):
        bits[(r - n_lo) % p::p] = False
    prime, root = prime[small:], root[small:]
    # cut the roots where the running count of their strikes passes each
    # multiple of _STRIKE_BLOCK; each root strikes at most len(bits) // p + 1 n
    ends = np.cumsum(len(bits) // prime + 1)
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(ends, np.arange(_STRIKE_BLOCK, total, _STRIKE_BLOCK),
                           side="right").tolist()
    for a, b in zip([0, *cuts], [*cuts, len(prime)]):
        bits[_stepped(root[a:b], prime[a:b], n_lo, n_max)[0]] = False
    bits[head - n_lo] = head_bits
    return np.flatnonzero(bits) + n_lo


def _stepped(root: np.ndarray, step: np.ndarray, lo: int, hi: int):
    """The hits of n = root[j] (mod step[j]) over lo <= n <= hi, for every j,
    as ValueSieve takes them: the positions n - lo, and the step of each.
    root is an array like step, or one int for every j."""
    first = (root - lo) % step
    count = (hi - lo - first) // step + 1
    start = np.cumsum(count) - count
    each = np.repeat(step, count)
    return (np.repeat(first - step * start, count)
            + each * np.arange(count.sum(), dtype=np.int64)), each


class ValueSieve:
    """Factorisations of a block of values n**2 + c, by stepping roots.

    ``values`` is the block, every value >= 1. ``at`` and ``prime`` are the
    hits, one entry each, grouped by ascending prime: for every prime p <=
    isqrt(max value), the positions of the values that p divides, read off
    the roots of n**2 + c = 0 (mod p) instead of found by trial division. A
    hit whose prime does not divide its value raises ValueError at once.
    The factorisation is computed when one of its fields is first read:

    - ``cofactor[i]`` is what remains of value i: 1 or a prime larger than
      every sieved prime;
    - ``hit_index``, ``hit_prime`` and ``hit_exp`` are ``at``, ``prime`` and
      the exponent of each hit's prime in its value.

    ``prime_power_base`` needs none of them: it reads the hit counts.

    The front ends build the block and, with ``_stepped``, its hits:
    ``shift_blocks`` (n**2 + d in blocks of consecutive n; ``shift`` is its
    one-block case) and ``quartic_rows`` (n**2 + m**4, blocks of one row m at
    a time, as a shift with d = m**4) through one block loop, ``_blocks``;
    ``integers`` (n itself) in one block.
    """

    def __init__(self, values: np.ndarray, at: np.ndarray, prime: np.ndarray):
        values = np.asarray(values, dtype=np.int64)
        if (values[at] % prime).any():
            raise ValueError("a prime does not divide every value it hits")
        self._values = values
        self.hit_index = at
        self.hit_prime = prime

    @cached_property
    def _division(self):
        """(cofactor, hit_exp): the values with every hit's prime divided
        out as often as it divides, and how often that was."""
        at, prime = self.hit_index, self.hit_prime
        cofactor = self._values.copy()
        # The primes that hit one value are distinct, so after this division
        # p divides the cofactor exactly where p**2 divides the value.
        np.floor_divide.at(cofactor, at, prime)
        exp = np.ones(len(at), dtype=np.uint8)
        k = np.flatnonzero(cofactor[at] % prime == 0)
        while len(k):
            np.floor_divide.at(cofactor, at[k], prime[k])
            exp[k] += 1
            k = k[cofactor[at[k]] % prime[k] == 0]
        return cofactor, exp

    @property
    def cofactor(self) -> np.ndarray:
        return self._division[0]

    @property
    def hit_exp(self) -> np.ndarray:
        return self._division[1]

    @classmethod
    def _blocks(cls, c: int, root: np.ndarray, step: np.ndarray, lo: int,
                hi: int, size: int):
        """Yield sieves over n**2 + c for lo <= n <= hi, in order, each over at
        most size consecutive n. step is prime-major and ascending; a block
        steps only the roots whose prime is <= isqrt of its largest value."""
        for a in range(lo, hi + 1, size):
            b = min(hi, a + size - 1)
            k = np.searchsorted(step, math.isqrt(b * b + c), side="right")
            n = np.arange(a, b + 1, dtype=np.int64)
            yield cls(n * n + c, *_stepped(root[:k], step[:k], a, b))

    @classmethod
    def shift_blocks(cls, n_lo: int, n_hi: int, d: int, size: int):
        """Yield sieves over n**2 + d for 0 <= n_lo <= n <= n_hi, in order,
        each over at most size consecutive n; the roots mod every prime up to
        isqrt(n_hi**2 + d) are found once."""
        if n_hi < n_lo:
            return
        _check_63_bits(n_hi, d)
        if n_lo < 0:
            raise ValueError("n_lo must be >= 0")
        if n_lo * n_lo + d < 1:
            raise ValueError(f"n**2 + d < 1 at n = {n_lo}")
        ps = primes_up_to(math.isqrt(n_hi * n_hi + d))
        step, root = sqrt_mod_primes(d, ps)
        yield from cls._blocks(d, root, step, n_lo, n_hi, size)

    @classmethod
    def shift(cls, n_lo: int, n_hi: int, d: int) -> "ValueSieve":
        """Sieve n**2 + d for 0 <= n_lo <= n <= n_hi in one block; position i
        holds n_lo + i."""
        if n_hi < n_lo:
            none = np.empty(0, dtype=np.int64)
            return cls(none, none, none)
        return next(cls.shift_blocks(n_lo, n_hi, d, n_hi - n_lo + 1))

    @classmethod
    def integers(cls, n_lo: int, n_hi: int) -> "ValueSieve":
        """Sieve the integers n for 1 <= n_lo <= n <= n_hi, the root of each
        prime p being n = 0 (mod p); position i holds n_lo + i."""
        if n_lo < 1:
            raise ValueError("n_lo must be >= 1")
        if n_hi < n_lo:
            none = np.empty(0, dtype=np.int64)
            return cls(none, none, none)
        step = primes_up_to(math.isqrt(n_hi))
        n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
        return cls(n, *_stepped(0, step, n_lo, n_hi))

    @classmethod
    def quartic_rows(cls, x: int):
        """Yield sieves over the values n**2 + m**4 <= x with n, m >= 1, in
        (m, n) lexicographic order: each covers one row m and at most
        _ROW_BLOCK consecutive n, and only a row's last block is shorter.

        Row m is the shift n**2 + d with d = m**4. Its roots mod p are
        +-m**2 i_p, with i_p**2 = -1 for p = 1 (mod 4) and i_2 = 1; for
        p = 3 (mod 4) the root is 0 when p divides m, and there is none
        otherwise. They are found once per row and stepped through its blocks
        by the loop of shift_blocks.
        """
        if x >= 1 << 63:
            raise OverflowError("x exceeds 63 bits")
        ps = primes_up_to(math.isqrt(x) if x >= 2 else 0)
        prime, root = sqrt_mod_primes(1, ps)
        first = np.unique(prime, return_index=True)[1]  # the smaller root
        unit = np.zeros_like(ps)
        unit[np.searchsorted(ps, prime[first])] = root[first]
        m = 1
        while m ** 4 + 1 <= x:
            d = m ** 4
            # r = m**2 i_p is a root when i_p exists or p divides m, and
            # p - r is a second one unless 2r = 0 (mod p); prime-major
            r = m * m % ps * unit % ps
            keep = np.stack([(unit != 0) | (m % ps == 0), 2 * r % ps != 0], axis=1)
            roots = np.stack([r, ps - r], axis=1)[keep]
            step = np.repeat(ps, keep.sum(axis=1))
            yield from cls._blocks(d, roots, step, 1, math.isqrt(x - d),
                                   _ROW_BLOCK)
            m += 1

    def largest_prime(self) -> np.ndarray:
        """Largest prime factor of each value (1 for the value 1)."""
        largest = self.cofactor.copy()
        np.maximum.at(largest, self.hit_index, self.hit_prime)
        return largest

    def prime_power_base(self) -> np.ndarray:
        """p where the value is a power of the prime p, else 0, read off the
        hit counts without factoring: a value that no sieved prime hits is 1
        or a prime, and one that one prime p alone hits is p**k times 1 or a
        prime above every sieved prime, so a power of p exactly where
        dividing out p leaves 1."""
        values = self._values
        count = np.bincount(self.hit_index, minlength=len(values))
        base = np.where((count == 0) & (values > 1), values, 0)
        alone = np.flatnonzero(count[self.hit_index] == 1)
        at, p = self.hit_index[alone], self.hit_prime[alone]
        q = values[at] // p
        k = np.flatnonzero(q % p == 0)
        while len(k):
            q[k] //= p[k]
            k = k[q[k] % p[k] == 0]
        one = q == 1
        base[at[one]] = p[one]
        return base

    def squarefree_divisors(self):
        """(owner, q, mu(q), omega(q)) over every squarefree divisor q of every
        value, with owner the value's position, ascending. omega of a value
        counts its hits, ``sieved``, and its cofactor if that is above 1."""
        size = len(self.cofactor)
        order = np.argsort(self.hit_index, kind="stable")
        owner = self.hit_index[order]
        sieved = np.bincount(owner, minlength=size)
        omega = (sieved + (self.cofactor > 1)).astype(np.uint8)
        column = np.arange(len(owner)) - np.repeat(np.cumsum(sieved) - sieved, sieved)
        distinct = np.ones((size, int(omega.max(initial=0))), dtype=np.int64)
        distinct[owner, column] = self.hit_prime[order]
        big = np.flatnonzero(self.cofactor > 1)
        distinct[big, sieved[big]] = self.cofactor[big]
        owners, qs, bits = [], [], []
        for k in range(distinct.shape[1] + 1):
            rows = np.flatnonzero(omega == k)
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
