import math
import sys
import tracemalloc

import numpy as np
import pytest

from quadprimes import arith

SIEVE = arith.FactorSieve(100_000)


def naive_factor(n):
    parts = []
    m = n
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            parts.append((p, e))
        p += 1
    if m > 1:
        parts.append((m, 1))
    return tuple(parts)


def naive_is_prime(n):
    if n < 2:
        return False
    return all(n % p for p in range(2, math.isqrt(n) + 1))


def test_mobius_examples():
    assert arith.mobius(1) == 1
    assert arith.mobius(12) == 0
    assert arith.mobius(30) == -1


def test_von_mangoldt_examples():
    assert arith.von_mangoldt(1) == 0.0
    assert arith.von_mangoldt(9) == pytest.approx(math.log(3), abs=1e-12)
    assert arith.von_mangoldt(10) == 0.0


def test_via_mobius_examples():
    assert arith.von_mangoldt_via_mobius(4) == pytest.approx(math.log(2), abs=1e-12)
    assert arith.von_mangoldt_via_mobius(6) == pytest.approx(0.0, abs=1e-12)
    assert arith.von_mangoldt_via_mobius(1) == 0.0


def test_ordered_sum_rounds_each_addition():
    terms = [1e16, 1.0, -1e16]
    # 1e16 + 1.0 rounds back to 1e16 (a tie, to even), so the 1.0 is lost
    assert arith._ordered_sum(terms) == 0.0
    assert math.fsum(terms) == 1.0
    if sys.version_info >= (3, 12):  # the builtin sum compensates
        assert sum(terms) == 1.0


def test_ordered_sum_carries_start():
    # the start is added first: 1e16 + 1.0 + 1.0 loses both ones, while
    # 1e16 + (1.0 + 1.0) keeps them
    assert arith._ordered_sum([1.0, 1.0], 1e16) == 1e16
    assert 1e16 + arith._ordered_sum([1.0, 1.0]) == 1e16 + 2.0
    terms = [0.1 * k for k in range(1, 40)]
    assert arith._ordered_sum(terms[20:], arith._ordered_sum(terms[:20])) \
        == arith._ordered_sum(terms)
    assert arith._running_sums([1.0, 2.0, 3.0], 0.5).tolist() == \
        [0.5, 1.5, 3.5, 6.5]


def test_ordered_sum_of_no_terms_is_start():
    assert arith._ordered_sum([]) == 0.0
    assert arith._ordered_sum([], 2.5) == 2.5
    assert arith._ordered_sum(np.empty(0), -1.25) == -1.25
    assert arith._running_sums(iter(()), 3.0).tolist() == [3.0]


def test_ordered_sum_takes_generators_and_arrays():
    terms = [1.0 / k for k in range(1, 200)]
    loop = 0.0
    for t in terms:
        loop += t
    assert arith._ordered_sum(terms) == loop
    assert arith._ordered_sum(t for t in terms) == loop
    assert arith._ordered_sum(np.array(terms)) == loop
    assert arith._ordered_sum(map(float, terms)) == loop


def test_ordered_sum_returns_a_python_float():
    # a numpy scalar would print as np.float64(...) under numpy 2, in CSV
    # reports and in the sum command's output
    for terms in ([], [1.5], np.array([1.5, 2.0]), (t for t in (1.0,))):
        assert type(arith._ordered_sum(terms)) is float
    assert type(arith._ordered_sum([1.0], np.float64(2.0))) is float


def test_via_mobius_matches_direct():
    for n in range(1, 5000):
        assert abs(arith.von_mangoldt_via_mobius(n)
                   - arith.von_mangoldt(n)) <= 1e-9


def test_mobius_divisor_sum_vanishes():
    for n in range(1, 10_001):
        s = sum(mu for _, mu in arith.squarefree_divisors(n))
        assert s == (1 if n == 1 else 0)


def test_von_mangoldt_divisor_sum_is_log():
    for n in range(2, 20_001):
        s = sum(arith.von_mangoldt(d) for d in arith.divisors(n))
        assert abs(s - math.log(n)) <= 1e-9


def test_sieve_agrees_with_trial_division():
    for n in range(1, 10_001):
        parts = naive_factor(n)
        assert SIEVE.factor(n).parts == parts
        assert SIEVE.omega(n) == len(parts)


def test_factorization_invariant():
    for n in (1, 2, 97, 360, 2 ** 20, 10**12 + 39):
        f = arith.factorize(n)
        assert f.verify()
        assert all(arith.is_prime_u64(p) for p, _ in f.parts)


def test_is_prime_u64_known_values():
    assert arith.is_prime_u64(2 ** 61 - 1)
    assert not arith.is_prime_u64(1)
    assert not arith.is_prime_u64(0)
    assert arith.is_prime_u64(2)
    assert not arith.is_prime_u64((2 ** 31 - 1) * (2 ** 19 - 1))


def test_is_prime_u64_vs_trial_division():
    for n in range(1, 20_000):
        assert arith.is_prime_u64(n) == naive_is_prime(n)


def test_is_prime_power():
    assert arith.is_prime_power(1) is None
    assert arith.is_prime_power(512) == (2, 9)
    assert arith.is_prime_power(7) == (7, 1)
    assert arith.is_prime_power(6) is None
    assert arith.is_prime_power(3 ** 11) == (3, 11)
    assert arith.is_prime_power((10**6 + 3) ** 2) == (10**6 + 3, 2)


@pytest.mark.parametrize("limit", [48, 49, 50])
def test_sieve_spf_around_prime_square(limit):
    s = arith.FactorSieve(limit)
    assert len(s.spf) == limit + 1
    for n in range(2, limit + 1):
        assert s.smallest_prime_factor(n) == arith.factorize(n).parts[0][0]


def test_sieve_rejects_limit_beyond_int32():
    with pytest.raises(ValueError):
        arith.FactorSieve(2 ** 31)


def test_sieve_spf_invariants():
    s = arith.FactorSieve(1000)
    for n in range(2, 1001):
        p = s.smallest_prime_factor(n)
        assert n % p == 0
        assert naive_is_prime(p)
        assert (p == n) == naive_is_prime(n)


def test_primes_up_to_rejects_beyond_limit():
    with pytest.raises(ValueError, match="exceeds"):
        arith.primes_up_to(arith.PRIME_SIEVE_LIMIT + 1)


def plain_sieve(limit: int) -> np.ndarray:
    """Every integer's mask, struck by every p <= isqrt(limit)."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def test_primes_up_to_peak_memory():
    """The odd-number mask and one array of primes, with no copy to prepend
    2: at most the mask plus one and a half arrays of primes. Prepending by
    concatenation peaked at about the mask plus three."""
    limit = 10**6
    n = len(arith.primes_up_to(limit))
    tracemalloc.start()
    try:
        arith.primes_up_to(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (limit + 1) // 2 + 1.5 * 8 * n


# the last: the sieve's segment edges, 2**18 odd numbers each
@pytest.mark.parametrize("limits", [range(2000), [10**6],
                                    [2**19 - 2, 2**19 - 1, 2**19, 2**19 + 1,
                                     2**20 + 1]])
def test_primes_up_to_matches_plain_sieve(limits):
    for limit in limits:
        got = arith.primes_up_to(limit)
        assert got.dtype == np.int64
        assert np.array_equal(got, plain_sieve(limit)), limit
