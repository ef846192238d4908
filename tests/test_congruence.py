import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from quadprimes import arith, congruence, stats

SIEVE = oracles.FactorSieve(10_000)


def test_sqrt_mod_prime_examples():
    assert congruence.sqrt_mod_prime(4, 5) == [2, 3]
    assert congruence.sqrt_mod_prime(0, 7) == [0]
    assert congruence.sqrt_mod_prime(2, 3) == []


def test_sqrt_mod_prime_rejects_composite():
    with pytest.raises(ValueError):
        congruence.sqrt_mod_prime(3, 15)


def test_sqrt_mod_prime_exhaustive_small_primes():
    for p in arith.primes_up_to(199).tolist():
        for a in range(p):
            assert congruence.sqrt_mod_prime(a, p) == \
                [z for z in range(p) if z * z % p == a]


def test_sqrt_mod_prime_large():
    for p in (101, 10007, 104729, 2 ** 31 - 1):
        rng = random.Random(p)
        for _ in range(20):
            z = rng.randrange(p)
            a = z * z % p
            roots = congruence.sqrt_mod_prime(a, p)
            assert z in roots or p - z in roots
            assert all(r * r % p == a for r in roots)


def test_roots_mod_examples():
    assert congruence.roots_mod(2, 1) == (1,)
    assert congruence.roots_mod(3, 1) == ()
    rs = congruence.roots_mod(65, 1)
    assert rs == (8, 18, 47, 57)
    assert len(rs) == 4


# The first 17 primes = 1 (mod 4): n**2 + 1 has 2**17 roots mod their product.
SPLIT_PRIMES = (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 109, 113, 137,
                149, 157)


# Moduli beyond ROOTS_LIMIT, with their root counts.
BEYOND_ROOTS_LIMIT = {
    (10**30, 0): 10**15,  # 5**30 alone has 5**15 roots
    (2**40, 7 * 2**36): 2**20,
    (math.prod(SPLIT_PRIMES), 1): 2**17,  # from the CRT product
}


@pytest.mark.parametrize("q, d", list(BEYOND_ROOTS_LIMIT))
def test_roots_beyond_roots_limit_raise(q, d):
    with pytest.raises(ValueError, match="more than 65536 roots"):
        congruence.roots_mod(q, d)
    assert congruence.rho(q, d) == BEYOND_ROOTS_LIMIT[q, d]


def test_roots_beyond_roots_limit_raise_before_any_lift():
    """The bound is checked on the count, so no Hensel lift runs, and the
    error names the modulus that was asked for."""
    with mock.patch.object(congruence, "_lift_prime_power",
                           side_effect=AssertionError("lifted")):
        with pytest.raises(ValueError, match=f"roots mod {10**30}$"):
            congruence.roots_mod(10**30, 0)


@pytest.mark.parametrize("q, d", [
    (3**24, 3**23),  # the roots mod 3**23 are the 3**11 multiples of 3**12
    (3**33, 3**32),
    (2**40, 3 * 2**36),  # -3 is not 1 mod 8
    (5**20, 2 * 5**18),  # -2 is a non-residue mod 5
])
def test_roots_without_roots_are_empty(q, d):
    """No root mod q, although the roots mod a smaller power of p pass
    ROOTS_LIMIT: the empty set, decided before any lift."""
    assert congruence.roots_mod(q, d) == ()
    assert congruence.rho(q, d) == 0


def test_rho_prime_power_matches_scan():
    """_rho_prime_power against a scan of every residue, and the bound that
    keeps a lift below its final count: where n**2 + d has roots mod p**k,
    it has no fewer than mod any p**j, j < k."""
    for p in (2, 3, 5, 7):
        for d in range(-60, 400):
            most = 0
            for k in range(1, int(math.log(3000, p)) + 1):
                rho = len(congruence.roots_mod_scan(p ** k, d))
                assert congruence._rho_prime_power(p, k, d) == rho, (p, k, d)
                assert rho == 0 or rho >= most, (p, k, d)
                most = max(most, rho)


def test_roots_at_roots_limit_are_listed():
    assert congruence.ROOTS_LIMIT == 2**16
    assert congruence.rho(math.prod(SPLIT_PRIMES[:16]), 1) == 2**16
    assert congruence.rho(2**32, 0) == 2**16


def test_rho_table_hensel_factors_stay_below_roots_limit():
    """rho_table counts the p**e <= limit with p dividing 2d by the closed
    form, which agrees with the Hensel lift, and rho(p**e) <= 4 sqrt(p**e)
    (see rho-omega-bound's proof), so up to the largest table that
    high_omega_mass reads, no count reaches ROOTS_LIMIT."""
    limit = stats.OMEGA_SIEVE_LIMIT
    assert 4 * math.isqrt(limit) < congruence.ROOTS_LIMIT
    for p, d in [(2, 0), (2, 2**26), (2, 7 * 2**20), (3, 0), (3, 3**16),
                 (9973, 0), (9973, -9973**2)]:
        e = int(math.log(limit, p))
        assert p ** e <= limit < p ** (e + 1)
        for k in range(1, e + 1):
            rho = congruence._rho_prime_power(p, k, d)
            assert rho == len(congruence._lift_prime_power(p, k, d))
            assert rho <= 4 * math.isqrt(p ** k)
    assert congruence.rho_table(10**5, 0)[2**16] == 2**8


def test_rho_examples():
    assert congruence.rho(5, 1) == 2
    assert congruence.rho(1, 1) == 1
    assert congruence.rho(85, 1) == 4


def test_roots_match_scan_sample():
    for d in (1, 2, 3, 28, 100):
        for q in list(range(1, 300)) + [512, 1024, 2187, 5000, 9973]:
            assert congruence.roots_mod(q, d) == \
                congruence.roots_mod_scan(q, d)


def next_prime(n):
    while not arith.is_prime_u64(n):
        n += 1
    return n


@settings(max_examples=60, deadline=None)
@given(p=st.integers(2**40, 2**61 - 1).map(next_prime),
       m=st.integers(1, 8), d=st.integers(-10**6, 10**6))
def test_roots_mod_far_beyond_the_scan(p, m, d):
    """q = p m with a prime p in [2**40, 2**61]: every root is one, in
    [0, q) and ascending, and there are rho(q) of them."""
    q = p * m
    roots = congruence.roots_mod(q, d)
    assert isinstance(roots, tuple)
    assert all(a < b for a, b in zip(roots, roots[1:]))
    assert all(0 <= r < q and (r * r + d) % q == 0 for r in roots)
    assert len(roots) == congruence.rho(q, d)


def test_rho_multiplicative():
    rng = random.Random(42)
    done = 0
    while done < 300:
        a, b = rng.randrange(1, 1001), rng.randrange(1, 1001)
        if math.gcd(a, b) != 1:
            continue
        done += 1
        assert congruence.rho(a * b, 1) == \
            congruence.rho(a, 1) * congruence.rho(b, 1)


def test_squarefree_product_formula_d1():
    # odd squarefree q, d = 1: rho = 2**#{p | q} when every p = 1 (mod 4), else 0
    for q in range(1, 10_001, 2):
        parts = SIEVE.factor(q).parts
        if any(e > 1 for _, e in parts):
            continue
        if all(p % 4 == 1 for p, _ in parts):
            expected = 2 ** len(parts)
        else:
            expected = 0
        assert congruence.rho(q, 1) == expected


def test_rho_omega_bound():
    rhos = congruence.rho_table(10_000, 1)
    for q in range(1, 10_001):
        assert rhos[q] <= 2 ** (SIEVE.omega(q) + 2)


def test_rho_table_matches_rho():
    for d in (1, 3, 28):
        rhos = congruence.rho_table(2000, d)
        for q in range(1, 2001):
            assert rhos[q] == congruence.rho(q, d)


@settings(max_examples=15, deadline=None)
@given(d=st.integers(-100, 100), limit=st.integers(0, 3000))
@example(d=0, limit=3000)
def test_rho_table_matches_rho_property(d, limit):
    rhos = congruence.rho_table(limit, d)
    assert len(rhos) == limit + 1
    for q in range(1, limit + 1):
        assert rhos[q] == congruence.rho(q, d), q


def test_rho_table_rejects_negative_limit():
    with pytest.raises(ValueError, match="limit must be >= 0"):
        congruence.rho_table(-1, 1)


@pytest.mark.parametrize("d", [-3, 2**62 - 1])
def test_rho_table_matches_rho_at_verify_extreme_shifts(d):
    # verify takes -3 <= d < 2**62; both ends reach the int64 _pow_mod
    rhos = congruence.rho_table(3000, d)
    assert rhos.tolist() == [0] + [congruence.rho(q, d) for q in range(1, 3001)]


def test_odd_prime_counts():
    for p in (5, 13, 17, 97):
        assert congruence.rho(p, 1) == 2
    for p in (3, 7, 11, 19):
        assert congruence.rho(p, 1) == 0


def test_quadratic_character():
    assert oracles.quadratic_character(1, 5) == 1
    assert oracles.quadratic_character(1, 3) == -1
    assert oracles.quadratic_character(3, 3) == 0


PRIMES_1E5 = arith.primes_up_to(10**5)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(-100, 100),
       ps=st.lists(st.sampled_from(PRIMES_1E5.tolist()), max_size=300))
@example(d=1, ps=PRIMES_1E5.tolist())
@example(d=-100, ps=PRIMES_1E5.tolist())
@example(d=7, ps=[])
def test_sqrt_mod_primes_matches_sqrt_mod_prime(d, ps):
    prime, root = congruence.sqrt_mod_primes(d, np.array(ps, dtype=np.int64))
    assert list(zip(prime.tolist(), root.tolist())) == \
        [(p, r) for p in ps for r in congruence.sqrt_mod_prime(-d % p, p)]
    odd = [p for p in ps if p > 2]
    assert congruence.quadratic_characters(d, np.array(odd, dtype=np.int64)) \
        .tolist() == [oracles.quadratic_character(d, p) for p in odd]


@pytest.mark.parametrize("d", [2**62 - 1, 2**63, 10**20, -10**20 - 7, 3**100])
def test_quadratic_characters_of_a_shift_beyond_int64(d):
    odd = PRIMES_1E5[1:]
    assert congruence.quadratic_characters(d, odd).tolist() == \
        [oracles.quadratic_character(d, p) for p in odd.tolist()]


def test_sqrt_mod_primes_rejects_primes_beyond_2_31():
    with pytest.raises(ValueError):
        congruence.sqrt_mod_primes(1, np.array([2**31 + 11], dtype=np.int64))


def primes_below(n, count):
    """The count largest primes below n, ascending."""
    found = []
    m = n - 1
    while len(found) < count:
        if arith.is_prime_u64(m):
            found.append(m)
        m -= 1
    return found[::-1]


# Primes at sqrt_mod_primes' bound, where _pow_mod's products near 2**62: the
# 300 below 2**31, the 300 below PRIME_SIEVE_LIMIT (the largest its callers in
# the package pass), and 15 * 2**27 + 1 and 63 * 2**25 + 1, whose
# Tonelli-Shanks loops run 26 and 24 steps deep.
LARGE_PRIMES = (primes_below(2**31, 300)
                + primes_below(arith.PRIME_SIEVE_LIMIT, 300)
                + [15 * 2**27 + 1, 63 * 2**25 + 1])


@pytest.mark.parametrize("d", [1, 2, 7, -3, 2**62 - 1, -2**62, 3**38])
def test_sqrt_mod_primes_matches_sqrt_mod_prime_below_2_31(d):
    prime, root = congruence.sqrt_mod_primes(
        d, np.array(LARGE_PRIMES, dtype=np.int64))
    assert list(zip(prime.tolist(), root.tolist())) == \
        [(p, r) for p in LARGE_PRIMES
         for r in congruence.sqrt_mod_prime(-d % p, p)]


def prime_ns_by_miller_rabin(n_max, d):
    return [n for n in range(1, n_max + 1) if arith.is_prime_u64(n * n + d)]


# test_prime_bits_* test prime_ns, which sieves the prime bits of n**2 + d.
@pytest.mark.parametrize("d", [-9, -4, -3, -2, -1, 0, 1, 2, 3, 28, 100,
                               10**6, 10**10, 10**14, -10**20])
@pytest.mark.parametrize("n_max", [0, 1, 2, 10**3, 2 * 10**4])
def test_prime_bits_match_miller_rabin(d, n_max):
    ns = congruence.prime_ns(n_max, d)
    assert ns.dtype == np.int64
    assert ns.tolist() == prime_ns_by_miller_rabin(n_max, d)


@pytest.mark.parametrize("d", [-3, 0, 1, 7, 96])
@pytest.mark.parametrize("block", [1, 64, 1000])
def test_prime_bits_across_strike_blocks(monkeypatch, d, block):
    # the primes above sqrt(n_max) strike in blocks of about block n each
    monkeypatch.setattr(congruence, "_STRIKE_BLOCK", block)
    n_max = 5000
    assert congruence.prime_ns(n_max, d).tolist() == \
        prime_ns_by_miller_rabin(n_max, d)


def test_prime_bits_few_values_skip_the_sieve(monkeypatch):
    def refuse(limit):
        raise AssertionError(f"primes_up_to({limit}) called")

    monkeypatch.setattr(congruence, "primes_up_to", refuse)
    ns = congruence.prime_ns(10, 10**14)
    assert ns.dtype == np.int64
    assert ns.tolist() == prime_ns_by_miller_rabin(10, 10**14)


def test_prime_bits_reach():
    with pytest.raises(ValueError):  # 10**16 + 1
        congruence.prime_ns(arith.PRIME_SIEVE_LIMIT, 1)
    with pytest.raises(OverflowError):
        congruence.prime_ns(4 * 10**9, 1)
    with pytest.raises(OverflowError):  # values from 2 up, d beyond int64
        congruence.prime_ns(10**10 + 1, -10**20)
    assert congruence.prime_ns(-1, 1).tolist() == []
    # no value reaches 2: nothing is sieved, and nothing overflows
    assert congruence.prime_ns(10**9, -10**18).tolist() == []
    assert congruence.prime_ns(0, 10**20).tolist() == []


_SHIFTS = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(lambda k, e: -k * k + e, st.integers(0, 6000),
              st.integers(-50, 50)))


@pytest.mark.parametrize("block", [None, 64])
@settings(max_examples=100, deadline=None)
@given(n_max=st.integers(0, 6000), d=_SHIFTS)
@example(n_max=6000, d=-6000**2 + 2)
@example(n_max=1, d=1)
@example(n_max=2, d=-2)
def test_prime_ns_matches_miller_rabin(block, n_max, d):
    with mock.patch.object(congruence, "_STRIKE_BLOCK",
                           block or congruence._STRIKE_BLOCK):
        assert congruence.prime_ns(n_max, d).tolist() == \
            prime_ns_by_miller_rabin(n_max, d)
