"""Bounded exhaustive search for x**2 + d = y**n (n >= 3), whose solutions
are plain (x, y, n) tuples, and the consecutive perfect-powers scan. Exact
integer arithmetic throughout."""

from __future__ import annotations

import math

import numpy as np

EXPONENT_MAX = 64  # largest n the solvers try in x**2 + d = y**n

# Largest x_max that lebesgue_nagell_solve accepts. Its loop over y runs to
# (x_max**2 + d)**(1/3): at 10**10 that is 4.6 million y, about 5 s.
NAGELL_X_LIMIT = 10**10

# Largest x_max that the int64 oracle lebesgue_nagell_naive accepts.
NAGELL_NAIVE_X_LIMIT = 10**5

# The candidates y - 1, y, y + 1 around a rounded root y, one row each.
_NEIGHBOURS = np.array([[-1], [0], [1]])


def lebesgue_nagell_solve(d: int, x_max: int) -> list:
    """All solutions (x, y, n) of x**2 + d = y**n with 1 <= x <= x_max,
    y >= 2, 3 <= n <= EXPONENT_MAX, found by iterating (y, n) and testing
    y**n - d for a perfect square. Sorted by (n, y, x). x_max is at most
    NAGELL_X_LIMIT."""
    if not 1 <= d <= 100:
        raise ValueError("d must lie in 1..100")
    if x_max > NAGELL_X_LIMIT:
        raise ValueError(f"x_max = {x_max} exceeds {NAGELL_X_LIMIT}")
    if x_max < 1:
        return []
    limit = x_max * x_max + d
    solutions = []
    y = 2
    while y ** 3 <= limit:
        v = y ** 3
        n = 3
        while v <= limit:
            if n <= EXPONENT_MAX:
                t = v - d
                if t >= 1:
                    x = math.isqrt(t)
                    if x * x == t:
                        solutions.append((x, y, n))
            v *= y
            n += 1
        y += 1
    return sorted(solutions, key=lambda s: s[::-1])


def lebesgue_nagell_naive(d: int, x_max: int) -> list:
    """Oracle: the solutions (x, y, n) found by testing, for every x <= x_max
    and 3 <= n <= EXPONENT_MAX, the n-th root candidates y - 1, y, y + 1 of
    x**2 + d exactly. Each n is one pass over every x at once, in int64
    arrays. Sorted by (n, y, x).

    x_max is at most NAGELL_NAIVE_X_LIMIT and |d| at most 100 (ValueError):
    then x**2 + d <= 10**10 + 100, every candidate power stays below
    (x**2 + d)**1.59 < 2**63, and int64 cannot wrap.
    """
    if x_max > NAGELL_NAIVE_X_LIMIT or abs(d) > 100:
        raise ValueError(f"the oracle takes x_max <= {NAGELL_NAIVE_X_LIMIT} "
                         f"and |d| <= 100, got x_max = {x_max}, d = {d}")
    x = np.arange(1, x_max + 1, dtype=np.int64)
    v = x * x + d
    found = []
    for n in range(3, EXPONENT_MAX + 1):
        # v ascends; only the values from 2**n on have a root y >= 2, so no
        # NaN root is cast to int, and the candidate c = 1 cannot match
        lo = int(np.searchsorted(v, 1 << n))
        if lo == len(v):
            break
        w = v[lo:]
        c = np.rint(w ** (1.0 / n)).astype(np.int64) + _NEIGHBOURS
        hit = c ** n == w
        if hit.any():
            j, i = np.nonzero(hit)
            found += [(a, b, n) for a, b
                      in zip(x[lo + i].tolist(), c[j, i].tolist())]
    return sorted(found, key=lambda s: s[::-1])


def consecutive_powers(limit: int) -> list:
    """The pairs (a, a + 1) of perfect powers m**k <= limit, k >= 2 (1 among
    them), ascending: only (8, 9) once limit >= 9, by Mihailescu's theorem
    (Catalan's conjecture, J. reine angew. Math. 572 (2004))."""
    powers = {1}
    for m in range(2, math.isqrt(max(limit, 0)) + 1):
        v = m * m
        while v <= limit:
            powers.add(v)
            v *= m
    ordered = sorted(powers)
    return [(a, b) for a, b in zip(ordered, ordered[1:]) if b - a == 1]
