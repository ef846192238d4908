"""The central weighted sum over n**2 + d, three ways.

Direct evaluation, full Mobius expansion over moduli, and the small/large
moduli split with an omega sub-split on the large part. Every total is added
by arith._ordered_sum, left to right in ascending n or q, so its bits do not
depend on the Python or numpy release.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import _check_cutoff, _ordered_sum
from .congruence import ValueSieve, _n_limit, prime_ns, roots_mod
from .primes import prime_power_scan

# Largest x the sums take, as they sieve or list every n. Their time and
# memory grow with sqrt(x): at 10**12 the default verify checks need > 1 GiB.
SUM_X_LIMIT = 10**12


def _check_sum_cutoff(x: float):
    """ValueError unless the cutoff x is finite and at most SUM_X_LIMIT."""
    _check_cutoff(x)
    if x > SUM_X_LIMIT:
        raise ValueError(f"sum cutoff x = {x!r} exceeds {SUM_X_LIMIT}")


def _lambda_terms(n_lo: int, n_max: int, d: int) -> list:
    """(n, Lambda(n**2 + d)) for every n_lo <= n <= n_max where it is
    nonzero, ascending n: log(n**2 + d) where the value is prime, log p where
    it is p**nu with nu >= 2. ValueError when a value is below 1."""
    if n_lo > n_max:
        return []
    if n_lo * n_lo + d < 1:
        raise ValueError(f"n**2 + d < 1 at n = {n_lo}")
    terms = [(n, math.log(n * n + d)) for n in prime_ns(n_max, d).tolist()
             if n >= n_lo]
    terms += [(n, math.log(p)) for n, p, _ in prime_power_scan(n_max, d)
              if n >= n_lo]
    return sorted(terms)


def lhs_sum(x: float, d: int, alpha: float = 0.5, sieve=None) -> float:
    """Sum of Lambda(n**2 + d) / (n (log n)**(1 - alpha)) over 2 <= n, n**2 + d <= x.

    ``sieve`` is not read. It stays only because perfbench/workloads.py
    passes None there, and that file changes only with the benchmark.
    """
    if not alpha > 0:  # NaN included
        raise ValueError(f"alpha = {alpha!r} must be positive")
    _check_cutoff(x)
    if x < 5:
        return 0.0
    return _ordered_sum(lam / (n * math.log(n) ** (1.0 - alpha))
                        for n, lam in _lambda_terms(2, _n_limit(x, d), d))


def _expansion(x: float, d: int):
    """Sieve n**2 + d over 2 <= n, n**2 + d <= x, and collect the Mobius support.

    Returns arrays over every squarefree q > 1 dividing one of these values
    (the only moduli with a nonzero progression sum), in ascending q: q,
    omega(q) and the term -mu(q) log(q) T(x; q, d), with T(x; q, d) the sum
    of 1/(n sqrt(log n)) over the n with q | n**2 + d, added in ascending n.
    x is at most SUM_X_LIMIT.
    """
    top = _n_limit(x, d)
    sv = ValueSieve.shift(2, top, d)
    owner, q, mu, om = sv.squarefree_divisors()
    w = np.array([1.0 / (n * math.sqrt(math.log(n))) for n in range(2, top + 1)])
    qs, first, inv = np.unique(q, return_index=True, return_inverse=True)
    t = np.bincount(inv, w[owner])  # adds in owner (= ascending n) order
    big = qs > 1
    qs, first, t = qs[big], first[big], t[big]
    logs = np.array([math.log(v) for v in qs.tolist()])
    return qs, om[first], -mu[first] * logs * t


def rhs_mobius_expansion(x: float, d: int) -> float:
    """-sum over q <= x of mu(q) log(q) T(x; q, d).

    Only divisors of some value n**2 + d <= x have a nonzero inner sum, so the
    sum runs over that support set, in ascending q. The values come from one
    ValueSieve, in O(sqrt x) memory.
    """
    _check_sum_cutoff(x)
    if x < 5:
        return 0.0
    return _ordered_sum(_expansion(x, d)[2])


@dataclass(frozen=True)
class SumDecomposition:
    """One evaluation of the identity with its small/large and omega splits."""

    x: float
    shift: int
    epsilon: float
    lhs: float
    small_part: float
    large_low_omega: float
    large_high_omega: float
    omega_threshold: int

    @property
    def large_part(self) -> float:
        return self.large_low_omega + self.large_high_omega

    @property
    def rhs_total(self) -> float:
        return self.small_part + self.large_part


def dyadic_split(x: float, d: int, epsilon: float = 0.1) -> SumDecomposition:
    """Partition the Mobius expansion by q <= x**(1/2 - eps) vs larger q, and
    sub-partition the large part by omega(q) <= / > ceil(log log x).

    The squarefree divisors and omega(q) come from one ValueSieve; the left
    side is lhs_sum, an independent route through prime_ns.
    """
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    _check_sum_cutoff(x)
    threshold = math.ceil(math.log(math.log(x))) if x > math.e else 1
    cut = x ** (0.5 - epsilon)
    lhs = small = low = high = 0.0
    if x >= 5:
        qs, om, terms = _expansion(x, d)
        lhs = lhs_sum(x, d, 0.5)
        large = qs > cut
        small = _ordered_sum(terms[~large])
        low = _ordered_sum(terms[large & (om <= threshold)])
        high = _ordered_sum(terms[large & (om > threshold)])
    return SumDecomposition(x, d, epsilon, lhs, small, low, high, threshold)


def progression_sum(x: float, q: int, d: int) -> tuple:
    """(direct, estimate, error_bound) for the sum of 1/(n sqrt(log n)) over
    n >= 2 with n**2 + d <= x and q | n**2 + d: all three are 0.0 where no n
    qualifies.

    Qualifying n are enumerated by stepping each root of the congruence by q.
    The estimate integrates the decreasing summand per residue class, from
    the class's first term; the error bound is rho(q) times the first summand.
    """
    _check_sum_cutoff(x)
    roots = roots_mod(q, d)
    top = _n_limit(x, d)
    if not roots or top < 2:
        return 0.0, 0.0, 0.0
    s = math.sqrt(max(x - d, 4.0))
    ns = []
    pieces = []  # the estimate of each residue class, in root order
    for r in roots:
        first = r if r >= 2 else r + q * ((2 - r + q - 1) // q)
        ns.extend(range(first, top + 1, q))
        f = ((s - r) / q) % 1.0
        last = s - q * f
        if first <= top:
            pieces.append((2.0 / q) * (math.sqrt(math.log(last)) - math.sqrt(math.log(first))))
    if not ns:
        return 0.0, 0.0, 0.0
    ns.sort()
    direct = _ordered_sum(1.0 / (n * math.sqrt(math.log(n))) for n in ns)
    estimate = _ordered_sum(pieces)
    n0 = ns[0]
    bound = len(roots) / (n0 * math.sqrt(math.log(n0)))
    return direct, estimate, bound


def dirichlet_partial(s: float, n_terms: int, d: int) -> float:
    """Sum of Lambda(n**2 + d) * n**(-s) for 1 <= n <= n_terms."""
    return _ordered_sum(lam * n ** (-s) for n, lam in _lambda_terms(1, n_terms, d))
