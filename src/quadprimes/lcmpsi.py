"""The quadratic Chebyshev-type function psi_f(n) = log lcm(1^2+1, ..., n^2+1),
its linear-term constant, and the residual trend against n log n + B n.

The primary route sums max prime-power valuations (only logs of prime powers
are ever needed), read off one value sieve as each prime's rises along m;
exact big-integer lcm is kept as an oracle for small n. The valuation of
one prime by root lifting, and its trial-division check, are kept with the
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import _ordered_sum, _running_sums
from .congruence import ValueSieve, quadratic_characters
from .primes import ConstantEstimate, _odd_prime_estimate

_TREND_POINTS = 24  # geometric sample points of psi_residual_trend


def euler_gamma() -> float:
    """Euler-Mascheroni constant via Euler-Maclaurin on the harmonic sum of
    200 terms. It returns 0x1.2788cfc6fb62cp-1, 19 ulp (2.1e-15) above the
    correctly rounded 0x1.2788cfc6fb619p-1, and B_constant carries that
    error in every bit; the value is kept, as B's bits are in the golden
    report."""
    n = 200
    h = _ordered_sum(1.0 / k for k in range(1, n + 1))
    n2 = float(n) * n
    return (h - math.log(n) - 0.5 / n + 1.0 / (12.0 * n2)
            - 1.0 / (120.0 * n2 * n2) + 1.0 / (252.0 * n2 * n2 * n2))


# Largest n_max that _valuation_rises accepts. The rises stream block by
# block, and psi_residual_trend keeps psi_f at every n (8 B per n) for its
# slope fit: at this size it peaks at 124 MiB RSS and takes 2.8-2.9 s. Time
# bounds it, not memory: every block steps the roots of every prime below
# its top, so 10**7 takes 36 s (and 491 MiB).
PSI_N_LIMIT = 2 * 10**6

# Values n per block of _valuation_rises.
_PSI_BLOCK = 1 << 12


def _check_psi_n(n_max: int) -> None:
    if n_max > PSI_N_LIMIT:
        raise ValueError(f"psi index bound {n_max} exceeds {PSI_N_LIMIT}")


def _valuation_rises(n_max: int):
    """Yield, for each block of consecutive m in 1..n_max in order, the
    arrays (m, p, rise): each prime p whose maximal valuation over
    1**2 + 1, ..., m**2 + 1 is larger than over the values before m, with the
    rise in exponent, ordered by m, then p (the order psi_f(m) grows in).
    n_max is at most PSI_N_LIMIT.

    No state passes from block to block, because p**k first divides some
    m**2 + 1 at its smaller root: the one m with p**k | m**2 + 1 and
    2m <= p**k. Proof: the roots of x**2 = -1 (mod p**k) are closed under
    x -> p**k - x. For p = 3 (mod 4) there are none; for p = 2 only k = 1
    has one, m = 1, the equal case; for p = 1 (mod 4) there are exactly two,
    and p**k is odd, so one lies below p**k / 2 and the other above. So p
    rises at m by the number of k <= v_p(m**2 + 1) with 2m <= p**k, the top
    ones. A cofactor q of m**2 + 1 exceeds every prime sieved in its block,
    so q**2 > m**2 + 1: it is a hit of exponent 1. Every p**k divides a
    value at most n_max**2 + 1 < 2**63, so the powers fit an int64.
    """
    _check_psi_n(n_max)
    lo = 1
    for sv in ValueSieve.shift_blocks(1, n_max, 1, _PSI_BLOCK):
        big = np.flatnonzero(sv.cofactor > 1)
        m = np.concatenate([sv.hit_index, big]) + lo
        p = np.concatenate([sv.hit_prime, sv.cofactor[big]])
        pk = np.concatenate([sv.hit_prime ** sv.hit_exp, sv.cofactor[big]])
        up = np.flatnonzero(2 * m <= pk)  # the hit rises at all
        m, p, pk = m[up], p[up], pk[up]
        rise = np.zeros(len(m), np.int64)
        on = np.arange(len(m))
        # k = v_p, v_p - 1, ... while 2m <= p**k, which stops above p**0 = 1
        while len(on):
            rise[on] += 1
            pk[on] //= p[on]
            on = on[2 * m[on] <= pk[on]]
        order = np.lexsort((p, m))
        yield m[order], p[order], rise[order]
        lo += len(sv.cofactor)


def _log_big(n: int) -> float:
    shift = max(0, n.bit_length() - 900)
    return math.log(n >> shift) + shift * math.log(2.0)


def psi_f(n: int) -> float:
    """log lcm(1**2+1, ..., n**2+1) via maximal prime-power valuations."""
    if n < 1:
        raise ValueError("psi_f requires n >= 1")
    # the rises of each prime add up to its maximal valuation
    _, p, rise = (np.concatenate(a) for a in zip(*_valuation_rises(n)))
    ps, which = np.unique(p, return_inverse=True)
    exps = np.bincount(which, weights=rise)
    return _ordered_sum(e * math.log(q) for q, e in zip(ps.tolist(), exps.tolist()))


def psi_f_direct(n: int) -> float:
    """Oracle: exact big-integer lcm, then its log."""
    acc = 1
    for m in range(1, n + 1):
        acc = math.lcm(acc, m * m + 1)
    return _log_big(acc)


B_CONSTANT_REF = -0.0662756342


def B_constant(prime_bound: int) -> ConstantEstimate:
    """gamma - 1 - log(2)/2 - sum over odd primes p <= bound of (-1|p) log p/(p-1),
    with tail averaging over the top dyadic block of primes."""
    base = euler_gamma() - 1.0 - math.log(2.0) / 2.0

    def terms(p):  # (-1|p) log p / (p - 1)
        f = p.astype(np.float64)
        t = np.log(f)
        t *= quadratic_characters(1, p)
        return t / (f - 1.0)

    def partial_values(r):  # base minus the running sum of the terms
        np.subtract(base, np.cumsum(r, out=r), out=r)

    return _odd_prime_estimate("B", prime_bound, terms, partial_values, base,
                               B_CONSTANT_REF)


@dataclass(frozen=True)
class PsiTrace:
    """psi_f sampled at geometric points with residuals against n log n + B n."""

    ns: tuple
    psi: tuple
    residuals: tuple
    B_used: float
    fitted_slope: float


def psi_residual_trend(n_max: int) -> PsiTrace:
    """Trace psi_f at _TREND_POINTS geometric n points up to n_max; report
    residuals against n log n + B n with B = B_CONSTANT_REF, and a
    least-squares slope of psi_f(n) - n log n over the top half of [1, n_max]
    (an independent estimate of the linear coefficient)."""
    if n_max < 100:
        raise ValueError("psi_residual_trend requires n_max >= 100")
    _check_psi_n(n_max)  # before psi_all: the rises check only once iterated
    pts = sorted({int(round(100 * (n_max / 100) ** (i / (_TREND_POINTS - 1))))
                  for i in range(_TREND_POINTS)})
    psi_all = np.zeros(n_max + 1)
    carry = 0.0  # psi_f at the end of the blocks so far
    for m, p, rise in _valuation_rises(n_max):
        logs = np.array([math.log(q) for q in p.tolist()])
        after = _running_sums(rise * logs, carry)
        np.maximum.at(psi_all, m, after[1:])  # psi_f(m) at each rise
        carry = after[-1]
    # psi_f only grows at the rises, so each n takes the largest value so far
    np.maximum.accumulate(psi_all, out=psi_all)
    ns = np.array(pts, dtype=np.float64)
    psi = psi_all[pts]
    residuals = psi - ns * np.log(ns) - B_CONSTANT_REF * ns
    fit_n = np.arange(n_max // 2, n_max + 1, dtype=np.float64)
    fit_y = psi_all[n_max // 2 :] - fit_n * np.log(fit_n)
    slope = float(np.polyfit(fit_n, fit_y, 1)[0])
    return PsiTrace(tuple(pts), tuple(float(v) for v in psi),
                    tuple(float(v) for v in residuals), B_CONSTANT_REF, slope)
