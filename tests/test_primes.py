import math
import random
import tracemalloc

import numpy as np
import pytest

from quadprimes import arith, congruence, primes

KNOWN_PRIMES_10K = (2, 5, 17, 37, 101, 197, 257, 401, 577, 677, 1297, 1601,
                    2917, 3137, 4357, 5477, 7057, 8101, 8837)


def test_quadratic_primes_list():
    ns, ps = zip(*primes.quadratic_primes(99, 1))
    assert ps == KNOWN_PRIMES_10K
    assert ns[:4] == (1, 2, 4, 6)


def test_quadratic_primes_small():
    assert [p for _, p in primes.quadratic_primes(1, 1)] == [2]


def test_quadratic_primes_overflow():
    with pytest.raises(OverflowError):
        primes.quadratic_primes(2 ** 33, 1)


def test_quadratic_primes_of_values_below_2_allocate_nothing():
    # n**2 - 10**14 <= 0 for every n <= 10**7: nothing is sieved
    tracemalloc.start()
    try:
        pairs = primes.quadratic_primes(10**7, -10**14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs == []
    assert peak < 1 << 20


def test_beyond_prime_bits_reach_raises():
    with pytest.raises(ValueError):
        primes.quadratic_primes(10**8 + 1, 1)
    with pytest.raises(ValueError):
        primes.pi_f(1e17, 1)


def test_pi_f():
    assert primes.pi_f(10**4, 1) == 19
    assert primes.pi_f(1, 1) == 0
    assert primes.pi_f(100, 1) == 4


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda x: primes.pi_f(x, 1),
    primes.fouvry_iwaniec_sum,
])
def test_non_finite_cutoff_raises(call, x):
    with pytest.raises(ValueError, match=f"x = {x!r} is not finite"):
        call(x)


def test_pi_f_matches_enumeration():
    rng = random.Random(5)
    for _ in range(20):
        x = rng.randrange(2, 10**8)
        top = math.isqrt(x - 1)
        pairs = primes.quadratic_primes(top, 1)
        assert primes.pi_f(x, 1) == sum(1 for _, p in pairs if p <= x)


def test_twin_pairs():
    pairs = primes.twin_quadratic_pairs(100)
    for t in ((101, 103), (197, 199), (5477, 5479), (8837, 8839)):
        assert t in pairs
    assert (5477, 5479) not in primes.twin_quadratic_pairs(73)
    assert (5477, 5479) in primes.twin_quadratic_pairs(74)
    assert primes.twin_quadratic_pairs(1) == []


def test_hardy_littlewood_small():
    est = primes.hardy_littlewood_constant(1, 2)
    assert est.raw == 1.0
    # two factors: chi(3) = -1, chi(5) = +1
    est = primes.hardy_littlewood_constant(1, 5)
    assert est.raw == pytest.approx(1.5 * 0.75, rel=1e-12)


def test_hardy_littlewood_tail_averaged():
    est = primes.hardy_littlewood_constant(1, 10**6)
    assert abs(est.averaged - 1.3727) < 0.02
    assert abs(est.raw - est.averaged) < 0.01  # raw within the oscillation


def _hl_one_expression(d, bound):
    """hardy_littlewood_constant as one expression over a copy of the odd
    primes, the form before its temporaries were trimmed. chi comes from
    Euler's criterion for every d, d = 1 included, and not through
    quadratic_characters, so that the constant and its reference share no
    route to the characters. It takes (raw, averaged) itself, the mean over
    a mask of the primes above bound // 2, so that it shares no averaging
    step with the package either."""
    ps = arith.primes_up_to(bound)
    ps = ps[ps >= 3]
    chi = congruence._pow_mod(-d, (ps - 1) // 2, ps)
    chi[chi == ps - 1] = -1
    running = np.cumprod(1.0 - chi / (ps.astype(np.float64) - 1.0))
    if len(running) == 0:
        return 1.0, 1.0
    top = running[ps > bound // 2]
    return float(running[-1]), float(top.mean())


@pytest.mark.parametrize("bound", list(range(65)) + [100, 10**5, 10**6])
@pytest.mark.parametrize("d", [1, 7, 28, -3, 100])
def test_hardy_littlewood_matches_one_expression(d, bound):
    est = primes.hardy_littlewood_constant(d, bound)
    raw, averaged = _hl_one_expression(d, bound)
    assert (est.raw.hex(), est.averaged.hex()) == (raw.hex(), averaged.hex())


def test_odd_prime_in_every_top_half():
    """The estimator's precondition, Bertrand's postulate over the odd
    primes: for every b >= 3 some odd prime lies in (b // 2, b], so the
    mean over the top half of the running value is never empty."""
    b = np.arange(3, 2 * 10**5 + 1)
    ps = arith.primes_up_to(2 * 10**5)[1:]
    # the number of odd primes <= b, less the number <= b // 2
    above = (np.searchsorted(ps, b, side="right")
             - np.searchsorted(ps, b // 2, side="right"))
    assert above.min() >= 1


def test_hardy_littlewood_peak_memory():
    """The factors are built one block of primes at a time and written over
    the primes, and their running product is taken in place, so the peak is
    primes_up_to's own, with its one 256 KiB segment mask: at most 2.25
    arrays of one 8-byte entry per prime. The one-expression form peaked at
    about four."""
    bound = 10**6
    primes.hardy_littlewood_constant(1, bound)
    tracemalloc.start()
    try:
        primes.hardy_littlewood_constant(1, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * len(arith.primes_up_to(bound))


def test_hardy_littlewood_peak_memory_other_shift():
    """For d != 1 the characters come from quadratic_characters, one block
    of primes at a time, so its exponents and the powers being squared stay
    as small as the block: the peak is primes_up_to's, with its one 256 KiB
    segment mask, at most 2.25 arrays of one 8-byte entry per prime. Over
    the whole array at once, with an int64 temporary for each exponent bit,
    it peaked at about 5.25."""
    bound = 10**6
    primes.hardy_littlewood_constant(7, bound)
    tracemalloc.start()
    try:
        primes.hardy_littlewood_constant(7, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * len(arith.primes_up_to(bound))


def test_kappa():
    assert abs(primes.kappa_quadrature() - primes.kappa_gamma()) < 1e-8
    assert primes.kappa_gamma() == pytest.approx(0.874019, abs=1e-6)


def test_fouvry_iwaniec_small():
    fi = primes.fouvry_iwaniec_sum(17)
    expected = math.log(2) + math.log(5) + 2 * math.log(17)
    assert fi.lambda_sum == pytest.approx(expected, rel=1e-12)
    for x in (0, 0.0, 1, 1.5):
        assert primes.fouvry_iwaniec_sum(x).lambda_sum == 0.0


@pytest.mark.parametrize("x", [-16.0, -1e-300])
def test_fouvry_iwaniec_rejects_negative_cutoff(x):
    # x**0.75 of a negative float is complex
    with pytest.raises(ValueError, match=f"x = {x!r} is negative"):
        primes.fouvry_iwaniec_sum(x)


def test_fouvry_iwaniec_ratio_midscale():
    fi = primes.fouvry_iwaniec_sum(10**6)
    assert 0.7 <= fi.ratio <= 1.3


def test_prime_power_scan():
    assert primes.prime_power_scan(10**4, 1) == []
    hits = primes.prime_power_scan(10**3, 28)
    assert (6, 2, 6) in hits
    assert (2, 2, 5) in hits
    assert primes.prime_power_scan(0, 1) == []


def test_prime_power_scan_vs_direct():
    for d in (1, 2, 4, 28, 100):
        direct = []
        for n in range(1, 501):
            pp = arith.is_prime_power(n * n + d)
            if pp and pp[1] >= 2:
                direct.append((n, pp[0], pp[1]))
        assert primes.prime_power_scan(500, d) == sorted(direct)


def prime_power_scan_loop(n_max: int, d: int) -> list:
    """The scalar loop prime_power_scan ran before its array passes: every
    prime power p**nu <= n_max**2 + d, nu >= 2, tested one at a time. Only
    the radicand is clamped at 0, where the loop raised."""
    if n_max < 1:
        return []
    limit = n_max * n_max + d
    hits = []
    for p in arith.primes_up_to(math.isqrt(max(limit, 0))).tolist():
        v, nu = p * p, 2
        while v <= limit:
            t = v - d
            if t >= 1:
                n = math.isqrt(t)
                if n * n == t and n <= n_max:
                    hits.append((n, p, nu))
            v *= p
            nu += 1
    return sorted(hits)


def test_prime_power_scan_below_the_least_prime_power():
    assert primes.prime_power_scan(1, -3) == []  # 1 - 3 < 0
    assert primes.prime_power_scan(1, 2) == []  # 3 < 4
    assert primes.prime_power_scan(1, 3) == [(1, 2, 2)]


@pytest.mark.parametrize("d", range(-3, 101))
def test_prime_power_scan_matches_loop(d):
    for n_max in (1, 2, 3, 30, 2000):
        assert primes.prime_power_scan(n_max, d) == \
            prime_power_scan_loop(n_max, d), n_max


@pytest.mark.parametrize("d", [1, 28, 97])
def test_prime_power_scan_matches_loop_at_1e7(d):
    # p * p**nu reaches 10**21 here; the scan stops each p before it
    assert primes.prime_power_scan(10**7, d) == prime_power_scan_loop(10**7, d)


def test_prime_power_scan_rejects_int64_squares():
    with pytest.raises(OverflowError):
        primes.prime_power_scan(1 << 31, 100 - (1 << 62))  # limit 100


def test_fouvry_iwaniec_rejects_a_hit_that_does_not_divide(monkeypatch):
    # shift every root mod p by one: row m = 1 then steps n = 0 (mod 2),
    # whose values n**2 + 1 are odd
    real = congruence.sqrt_mod_primes

    def shifted(d, ps):
        prime, root = real(d, ps)
        return prime, (root + 1) % prime

    monkeypatch.setattr(congruence, "sqrt_mod_primes", shifted)
    with pytest.raises(ValueError):
        primes.fouvry_iwaniec_sum(10**4)


def test_lpf_records():
    rec = primes.largest_prime_factor_records(100, 1)
    # n = 2 opens the record list: P(5) = 5, exponent log 5 / log 2
    assert rec.records[0] == \
        (2, 5, pytest.approx(math.log(5) / math.log(2), rel=1e-12))
    assert rec.max_prime == 8837
    # exponents along the record sequence are strictly increasing
    exps = [e for _, _, e in rec.records]
    assert exps == sorted(exps)


def test_lpf_matches_factorize():
    rec = primes.largest_prime_factor_records(300, 1)
    for n, p, e in rec.records:
        assert p == arith.factorize(n * n + 1).largest_prime
        assert e == pytest.approx(math.log(p) / math.log(n), rel=1e-12)
