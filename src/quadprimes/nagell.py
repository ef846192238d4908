"""Bounded exhaustive search for x**2 + d = y**n (n >= 3) and the consecutive
perfect-powers scan. Exact integer arithmetic throughout."""

from __future__ import annotations

import math
from dataclasses import dataclass

EXPONENT_MAX = 64  # largest n the solvers try in x**2 + d = y**n

# Largest x_max that lebesgue_nagell_solve accepts. Its loop over y runs to
# (x_max**2 + d)**(1/3): at 10**10 that is 4.6 million y, about 5 s.
NAGELL_X_LIMIT = 10**10


@dataclass(frozen=True)
class NagellSolution:
    x: int
    y: int
    n: int
    shift: int

    def verify(self) -> bool:
        return self.x ** 2 + self.shift == self.y ** self.n


def lebesgue_nagell_solve(d: int, x_max: int) -> list:
    """All solutions of x**2 + d = y**n with 1 <= x <= x_max, y >= 2,
    3 <= n <= EXPONENT_MAX, found by iterating (y, n) and testing y**n - d for a
    perfect square. Sorted by (n, y, x). x_max is at most NAGELL_X_LIMIT."""
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
                        solutions.append(NagellSolution(x, y, n, d))
            v *= y
            n += 1
        y += 1
    return sorted(solutions, key=lambda s: (s.n, s.y, s.x))


def lebesgue_nagell_naive(d: int, x_max: int) -> list:
    """Oracle: triple loop over (x, y-candidates via n-th roots). Only sane for
    small boxes."""
    found = []
    for x in range(1, x_max + 1):
        v = x * x + d
        for n in range(3, EXPONENT_MAX + 1):
            if 1 << n > v:
                break
            y = round(v ** (1.0 / n))
            for c in (y - 1, y, y + 1):
                if c >= 2 and c ** n == v:
                    found.append(NagellSolution(x, c, n, d))
    return sorted(set(found), key=lambda s: (s.n, s.y, s.x))


def consecutive_powers(limit: int):
    """All perfect powers m**k <= limit (k >= 2, deduplicated, ascending) and
    the adjacent pairs differing by exactly 1."""
    if limit < 1:
        return [], []
    powers = {1}
    m = 2
    while m * m <= limit:
        v = m * m
        while v <= limit:
            powers.add(v)
            v *= m
        m += 1
    ordered = sorted(powers)
    pairs = [(a, b) for a, b in zip(ordered, ordered[1:]) if b - a == 1]
    return ordered, pairs
