import math

import numpy as np
import pytest

from quadprimes import arith, stats

SIEVE = arith.FactorSieve(10**6)
OMEGAS = stats.omega_sieve(10**6)


def test_omega_sieve_matches_factorization():
    for n in range(1, 5001):
        assert OMEGAS[n] == SIEVE.omega(n)


@pytest.mark.parametrize("limit", [48, 49, 50, 10**4, 10**4 + 1])
def test_omega_sieve_whole_table_around_prime_square(limit):
    s = arith.FactorSieve(limit)
    assert stats.omega_sieve(limit).tolist() == \
        [s.omega(n) for n in range(limit + 1)]


def test_histogram_small():
    h = stats.omega_histogram(10)
    # 1 -> k=0; primes and prime powers 2..9 -> k=1; 6, 10 -> k=2
    assert h.counts == (1, 7, 2)
    assert h.pi_k(0) == 1
    assert h.pi_k(5) == 0
    assert h.total == 10


def test_histogram_partition():
    h = stats.omega_histogram(10**6)
    assert h.total == 10**6
    assert h.pi_k(1) == 78734  # primes + prime powers up to 1e6
    assert h.threshold == math.ceil(math.log(math.log(10**6)))


def test_pi_k_against_counting():
    for k in range(0, 5):
        direct = sum(1 for n in range(1, 2001) if SIEVE.omega(n) == k)
        assert stats.pi_k(2000, k) == direct


def test_landau_ratio_rejections():
    with pytest.raises(ValueError):
        stats.landau_ratio(10, 1)
    with pytest.raises(ValueError):
        stats.landau_ratio(100, 0)


def test_landau_ratio_k1_is_pnt_ratio():
    # pi_1 counts primes and prime powers, so the k = 1 ratio is close to 1
    r = stats.landau_ratio(10**6, 1)
    assert abs(r - 1.0) < 0.1


def test_landau_ratio_k2_midscale():
    r = stats.landau_ratio(10**6, 2)
    assert 1.0 < r < 2.0


def test_high_omega_example():
    m = stats.high_omega_mass(100, 1)
    # log log 100 = 1.527...; omega(q) >= 2 qualifies, 64 moduli up to 100
    assert m.count == 64


def test_high_omega_sums_match_direct():
    from quadprimes import congruence
    m = stats.high_omega_mass(5000, 1)
    llx = math.log(math.log(5000))
    direct = sum(congruence.rho(q, 1)
                 for q in range(1, 5001) if SIEVE.omega(q) > llx)
    assert m.rho_sum == direct


def test_high_omega_bound_midscale():
    m = stats.high_omega_mass(10**6, 1)
    assert m.within_bound
    assert m.rho_sum <= m.bound


def test_high_omega_rejects_small_x():
    with pytest.raises(ValueError):
        stats.high_omega_mass(10, 1)


def test_low_omega_majority():
    # moduli with omega(q) <= ceil(log log x) carry most of the range
    h = stats.omega_histogram(10**6)
    low = sum(h.pi_k(k) for k in range(0, h.threshold + 1))
    assert low / h.total > 0.7
