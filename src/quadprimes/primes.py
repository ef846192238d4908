"""Quadratic primes n**2 + d: enumeration, counting, twins, constants,
the two-variable n**2 + m**4 sum, prime-power scans, and largest-prime-factor
records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import _check_cutoff, _ordered_sum, _over_primes, primes_up_to
from .congruence import ValueSieve, _n_limit, prime_ns, quadratic_characters

_U64_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class QuadraticPrimeList:
    """All n <= limit with n**2 + shift prime, with the primes."""

    shift: int
    limit: int
    members: tuple
    primes: tuple


def quadratic_primes(n_max: int, d: int) -> QuadraticPrimeList:
    """The n <= n_max with n**2 + d prime. ValueError or OverflowError as
    prime_ns raises them."""
    members = prime_ns(n_max, d).tolist()
    return QuadraticPrimeList(d, n_max, tuple(members),
                              tuple(n * n + d for n in members))


def pi_f(x: float, d: int) -> int:
    """Count of primes of the form n**2 + d <= x, n >= 1. ValueError when x
    is not finite or beyond prime_ns's reach."""
    _check_cutoff(x)
    return len(prime_ns(_n_limit(x, d), d))


def twin_quadratic_pairs(n_max: int) -> list:
    """All (n**2 + 1, n**2 + 3) with both entries prime, n <= n_max, ascending."""
    both = set(prime_ns(n_max, 1).tolist()) & set(prime_ns(n_max, 3).tolist())
    return [(n * n + 1, n * n + 3) for n in sorted(both)]


@dataclass(frozen=True)
class ConstantEstimate:
    """A truncated product/sum for an analytic constant, with tail averaging.

    The raw value is the truncation at the bound; the averaged value is the
    mean of the running value over primes in the top dyadic block, which damps
    the conditional oscillation.
    """

    name: str
    truncation_bound: int
    raw: float
    averaged: float
    reference: float | None = None


HL_CONSTANT_D1 = 1.3727  # truncated decimal as printed in the literature
B_CONSTANT_REF = -0.0662756342


def _tail_averaged(name: str, prime_bound: int, running: np.ndarray,
                   tail: int, empty: float,
                   reference: float | None) -> ConstantEstimate:
    """The estimate from the running value at each odd prime up to
    prime_bound: its last value, and its mean from index tail on, over the
    primes above prime_bound // 2 (the last value alone when there are none).
    Both are ``empty`` when there are no odd primes."""
    if len(running) == 0:
        return ConstantEstimate(name, prime_bound, empty, empty, reference)
    top = running[tail:] if tail < len(running) else running[-1:]
    return ConstantEstimate(name, prime_bound, float(running[-1]),
                            float(top.mean()), reference)


def hardy_littlewood_constant(d: int, prime_bound: int) -> ConstantEstimate:
    """Product over odd primes p <= bound of (1 - chi(p)/(p - 1)), chi = (-d | p).

    The product converges only conditionally; both the plain truncation and the
    tail-averaged value are reported.
    """
    ps = primes_up_to(prime_bound)[1:]  # the odd primes, a view
    tail = np.searchsorted(ps, prime_bound // 2, side="right")

    def factors(p):  # 1 - chi(p) / (p - 1)
        # for d = 1, chi(p) is -1 exactly where p = 3 (mod 4)
        chi = (np.where(p % 4 == 3, -1, 1) if d == 1
               else quadratic_characters(d, p))
        return 1.0 - chi / (p - 1.0)

    # the factors over the primes, then their running product, in one array
    running = _over_primes(ps, factors)
    np.cumprod(running, out=running)
    return _tail_averaged("hardy_littlewood", prime_bound, running, tail, 1.0,
                          HL_CONSTANT_D1 if d == 1 else None)


def kappa_quadrature() -> float:
    """Integral of sqrt(1 - t**4) over [0, 1], by adaptive quadrature:
    bisection and the epsilon algorithm of QUADPACK's QAGS, which
    extrapolates past the square-root singularity at t = 1 (315 integrand
    calls)."""
    # Imported here, not at module level: only this function needs the
    # integrator, so importing the package does not load it.
    from .quadrature import _integrate

    return _integrate(lambda t: math.sqrt(1.0 - t ** 4), 0.0, 1.0)


def kappa_gamma() -> float:
    """Gamma(1/4)**2 / (6 sqrt(2 pi)), the closed form of the same integral."""
    return math.gamma(0.25) ** 2 / (6.0 * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class FouvryIwaniecResult:
    x: float
    lambda_sum: float
    predicted: float

    @property
    def ratio(self) -> float:
        return self.lambda_sum / self.predicted if self.predicted else math.nan


def fouvry_iwaniec_sum(x: float) -> FouvryIwaniecResult:
    """Sum of Lambda(n**2 + m**4) over n, m >= 1 with n**2 + m**4 <= x,
    against the predicted (4 kappa / pi) x**(3/4)."""
    _check_cutoff(x)
    total = 0.0
    for sv in ValueSieve.quartic_rows(int(x)):
        base = sv.prime_power_base()
        total = _ordered_sum(map(math.log, base[base > 0].tolist()), total)
        del sv, base  # free this block before the next one is sieved
    predicted = 4.0 * kappa_gamma() / math.pi * x ** 0.75
    return FouvryIwaniecResult(x, total, predicted)


def prime_power_scan(n_max: int, d: int) -> list:
    """All (n, p, nu) with n**2 + d = p**nu, 1 <= n <= n_max, nu >= 2.

    Enumerates prime powers p**nu <= n_max**2 + d and tests p**nu - d for a
    perfect square, one array pass per exponent nu; equivalent to scanning n
    but far cheaper. OverflowError when n_max**2 + d exceeds 64 bits, or
    when n_max is 2**31 or more (the squares are tested in int64).
    """
    limit = n_max * n_max + d
    if n_max < 1 or limit < 4:  # 4 is the least prime power with nu >= 2
        return []
    if limit > _U64_MAX:
        raise OverflowError("n_max**2 + d exceeds 64 bits")
    if n_max >= 1 << 31:
        raise OverflowError("n_max exceeds 31 bits")
    ps = primes_up_to(math.isqrt(limit))
    power = ps * ps
    hits = []
    nu = 2
    while len(ps):
        # t = p**nu - d <= n_max**2 < 2**62 is a square n**2 exactly where
        # the float root, moved by at most one, squares to it; so n <= n_max.
        t = power - d
        n = np.sqrt(np.maximum(t, 0).astype(np.float64)).astype(np.int64)
        n -= n * n > t
        n += (n + 1) * (n + 1) <= t
        sq = np.flatnonzero((t >= 1) & (n * n == t))
        hits += zip(n[sq].tolist(), ps[sq].tolist(), [nu] * len(sq))
        # p**(nu + 1) <= limit, tested before the product, which could
        # overflow
        more = ps <= limit // power
        ps, power = ps[more], power[more] * ps[more]
        nu += 1
    return sorted(hits)


@dataclass(frozen=True)
class LpfRecords:
    """Record-breaking largest prime factors of n**2 + d, ranked by the
    exponent log P / log n, plus the overall maximum prime factor."""

    shift: int
    limit: int
    records: tuple  # (n, largest prime factor, exponent)
    max_prime: int


def _largest_factors(n_max: int, d: int) -> list:
    """Largest prime factor of n**2 + d at index n, for n = 1..n_max."""
    return [1] + ValueSieve.shift(1, n_max, d).largest_prime().tolist()


def largest_prime_factor_records(n_max: int, d: int) -> LpfRecords:
    """Records of log P(n**2 + d) / log n over 2 <= n <= n_max, where P is the
    largest prime factor."""
    lpf = _largest_factors(n_max, d)
    records = []
    best = 0.0
    for n in range(2, n_max + 1):
        e = math.log(lpf[n]) / math.log(n)
        if e > best:
            best = e
            records.append((n, lpf[n], e))
    return LpfRecords(d, n_max, tuple(records), max(lpf[1:], default=1))
