"""k-prime-factor statistics: exact pi_k(x) histograms (tuples of counts), the
Landau-normalized ratio, and the rho-weighted mass of moduli with many prime
factors."""

from __future__ import annotations

import math

import numpy as np

from .arith import _prime_multiples, primes_up_to
from .congruence import rho_table


# Largest limit omega_sieve accepts. At 10**8 an omega histogram peaks at
# 238 MiB RSS (the uint8 counts, the bool mask and int64 primes of
# primes_up_to, and one int64 index array per multiplier pass) and takes
# about 6 s.
OMEGA_SIEVE_LIMIT = 10**8


def omega_sieve(limit: int) -> np.ndarray:
    """omega(n) for all n in [0, limit] (omega(0) = omega(1) = 0); limit is at
    most OMEGA_SIEVE_LIMIT. Each prime adds 1 to each of its multiples, along
    the walk of arith._prime_multiples.
    """
    if limit > OMEGA_SIEVE_LIMIT:
        raise ValueError(f"omega sieve limit {limit} exceeds {OMEGA_SIEVE_LIMIT}")
    counts = np.zeros(limit + 1, dtype=np.uint8)
    for at, _ in _prime_multiples(primes_up_to(limit), limit):
        counts[at] += 1
    return counts


def omega_histogram(limit: int) -> tuple:
    """The counts #{n <= limit : omega(n) = k}, for k from 0 to the largest
    omega(n); n = 1 sits at k = 0."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    om = omega_sieve(limit)[1:]
    # one pass per k: np.bincount would copy the uint8 table to intp first
    return tuple(int(np.count_nonzero(om == k)) for k in range(int(om.max()) + 1))


def pi_k(x: int, k: int) -> int:
    """Exact #{n <= x : omega(n) = k}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    counts = omega_histogram(x)
    return counts[k] if k < len(counts) else 0


def landau_ratio(x: int, k: int) -> float:
    """pi_k(x) (k-1)! log x / (x (log log x)**(k-1)); tends to 1 as x grows."""
    if x < 16:
        raise ValueError("landau_ratio requires x >= 16")
    if k < 1:
        raise ValueError("k must be >= 1")
    count = pi_k(x, k)
    llx = math.log(math.log(x))
    return count * math.factorial(k - 1) * math.log(x) / (x * llx ** (k - 1))


def high_omega_mass(x: int, d: int) -> tuple:
    """(rho_sum, bound): the total root count of the moduli q <= x with
    omega(q) > log log x, and the bound
    x**(1 - (log log x)(log log log x) / (2 log x)) it is checked against."""
    if x < 16:
        raise ValueError("high_omega_mass requires x >= 16")
    om = omega_sieve(x)[1:].astype(np.int64)
    rhos = rho_table(x, d)[1 : x + 1]
    lx = math.log(x)
    llx = math.log(lx)
    lllx = math.log(llx)
    mask = om > llx
    bound = x ** (1.0 - llx * lllx / (2.0 * lx))
    return int(rhos[mask].sum()), bound
