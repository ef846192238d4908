"""The quadratic Chebyshev-type function psi_f(n) = log lcm(1^2+1, ..., n^2+1),
its linear-term constant, and the residual trend against n log n + B n.

The primary route sums max prime-power valuations (only logs of prime powers
are ever needed); exact big-integer lcm is kept as an oracle for small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import is_prime_u64, primes_up_to
from .congruence import ValueSieve, roots_mod
from .primes import (B_CONSTANT_REF, ConstantEstimate, _character_values,
                     _tail_averaged)

_TREND_POINTS = 24  # geometric sample points of psi_residual_trend


def euler_gamma() -> float:
    """Euler-Mascheroni constant via Euler-Maclaurin on the harmonic sum of
    200 terms; accurate to well beyond 12 digits already at 50."""
    n = 200
    # added left to right, as on every Python: from 3.12 on, the builtin sum
    # compensates, and its last bits differ
    h = 0.0
    for k in range(1, n + 1):
        h += 1.0 / k
    n2 = float(n) * n
    return (h - math.log(n) - 0.5 / n + 1.0 / (12.0 * n2)
            - 1.0 / (120.0 * n2 * n2) + 1.0 / (252.0 * n2 * n2 * n2))


# Largest n_max that _valuation_rises accepts. Its hit arrays take about
# 300 B per n: the psi trend at this size peaks at 617 MiB RSS.
PSI_N_LIMIT = 2 * 10**6


def _valuation_rises(n_max: int):
    """(m, p, rise) for each prime p whose maximal valuation over
    1**2 + 1, ..., m**2 + 1 is larger than over the values before m, with the
    rise in exponent; ordered by m, then p (the order psi_f(m) grows in).
    n_max is at most PSI_N_LIMIT."""
    if n_max > PSI_N_LIMIT:
        raise ValueError(f"psi index bound {n_max} exceeds {PSI_N_LIMIT}")
    sv = ValueSieve.shift(1, n_max, 1)
    big = np.flatnonzero(sv.cofactor > 1)
    m = np.concatenate([sv.hit_index, big]) + 1
    p = np.concatenate([sv.hit_prime, sv.cofactor[big]])
    e = np.concatenate([sv.hit_exp, np.ones(len(big), np.uint8)]).astype(np.int64)
    order = np.lexsort((m, p))
    m, p, e = m[order], p[order], e[order]
    first = np.r_[True, p[1:] != p[:-1]]
    group = np.cumsum(first)
    # running maximum of e within each prime's group (e < 64)
    best = np.maximum.accumulate(group * 64 + e) - group * 64
    prev = np.r_[0, best[:-1]]
    prev[first] = 0
    up = np.flatnonzero(e > prev)
    order = np.lexsort((p[up], m[up]))
    return m[up][order], p[up][order], (e - prev)[up][order]


def _log_big(n: int) -> float:
    shift = max(0, n.bit_length() - 900)
    return math.log(n >> shift) + shift * math.log(2.0)


def psi_f(n: int) -> float:
    """log lcm(1**2+1, ..., n**2+1) via maximal prime-power valuations."""
    if n < 1:
        raise ValueError("psi_f requires n >= 1")
    # the rises of each prime add up to its maximal valuation
    _, p, rise = _valuation_rises(n)
    ps, which = np.unique(p, return_inverse=True)
    exps = np.bincount(which, weights=rise)
    total = 0.0  # left to right, as in euler_gamma
    for q, e in zip(ps.tolist(), exps.tolist()):
        total += e * math.log(q)
    return total


def psi_f_direct(n: int) -> float:
    """Oracle: exact big-integer lcm, then its log."""
    acc = 1
    for m in range(1, n + 1):
        acc = math.lcm(acc, m * m + 1)
    return _log_big(acc)


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
        roots = roots_mod(p ** k, 1).roots
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


def B_constant(prime_bound: int) -> ConstantEstimate:
    """gamma - 1 - log(2)/2 - sum over odd primes p <= bound of (-1|p) log p/(p-1),
    with tail averaging over the top dyadic block of primes."""
    base = euler_gamma() - 1.0 - math.log(2.0) / 2.0
    ps = primes_up_to(prime_bound)
    ps = ps[ps >= 3]
    chi = _character_values(1, ps)
    terms = chi * np.log(ps.astype(np.float64)) / (ps.astype(np.float64) - 1.0)
    running = base - np.cumsum(terms)
    return _tail_averaged("B", prime_bound, ps, running, base, B_CONSTANT_REF)


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
    pts = sorted({int(round(100 * (n_max / 100) ** (i / (_TREND_POINTS - 1))))
                  for i in range(_TREND_POINTS)})
    m, p, rise = _valuation_rises(n_max)
    # np.cumsum adds left to right, like a running sum; math.log, not np.log,
    # which may differ in the last place
    after = np.cumsum(rise * np.array([math.log(q) for q in p.tolist()]))
    # every m >= 1 has a rise (m = 1 brings 2), so each reads its last one
    last = np.searchsorted(m, np.arange(n_max + 1), side="right") - 1
    psi_all = np.r_[0.0, after][last + 1]
    ns = np.array(pts, dtype=np.float64)
    psi = psi_all[pts]
    residuals = psi - ns * np.log(ns) - B_CONSTANT_REF * ns
    fit_n = np.arange(n_max // 2, n_max + 1, dtype=np.float64)
    fit_y = psi_all[n_max // 2 :] - fit_n * np.log(fit_n)
    slope = float(np.polyfit(fit_n, fit_y, 1)[0])
    return PsiTrace(tuple(pts), tuple(float(v) for v in psi),
                    tuple(float(v) for v in residuals), B_CONSTANT_REF, slope)
