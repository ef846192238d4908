"""ValueSieve and its consumers against per-value factorisation and against
the per-value loops they replaced, which add floats in the same order."""

import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from quadprimes import arith, congruence, lcmpsi, primes, sums
from quadprimes.congruence import ValueSieve

SIEVE = arith.FactorSieve(10**6 + 100)


def sieved_parts(sv: ValueSieve, size: int) -> list:
    """Per position, ((p, e), ...) ascending, from the hits and the cofactor."""
    parts = [[] for _ in range(size)]
    for i, p, e in zip(sv.hit_index.tolist(), sv.hit_prime.tolist(),
                       sv.hit_exp.tolist()):
        parts[i].append((p, e))
    for i, c in enumerate(sv.cofactor.tolist()):
        if c > 1:
            parts[i].append((c, 1))
    return [tuple(ps) for ps in parts]


def check_against_factorize(sv: ValueSieve, values: list):
    # the base first, read off the hit counts before any factoring
    base = sv.prime_power_base().tolist()
    assert np.all(np.diff(sv.hit_prime) >= 0)
    parts = sieved_parts(sv, len(values))
    largest = sv.largest_prime().tolist()
    for i, v in enumerate(values):
        f = arith.factorize(v)
        assert parts[i] == f.parts, v
        assert sv.omega[i] == f.omega, v
        assert largest[i] == f.largest_prime, v
        assert base[i] == (f.parts[0][0] if f.omega == 1 else 0), v


@settings(max_examples=15, deadline=None)
@given(d=st.integers(1, 100), n_max=st.integers(0, 3000))
def test_shift_matches_factorize(d, n_max):
    sv = ValueSieve.shift(1, n_max, d)
    check_against_factorize(sv, [n * n + d for n in range(1, n_max + 1)])


@settings(max_examples=15, deadline=None)
@given(d=st.integers(-100, 100), n_lo=st.integers(0, 500),
       length=st.integers(0, 500))
def test_shift_window_matches_factorize(d, n_lo, length):
    if d < 1:
        n_lo = max(n_lo, math.isqrt(-d) + 1)
    n_hi = n_lo + length - 1
    sv = ValueSieve.shift(n_lo, n_hi, d)
    check_against_factorize(sv, [n * n + d for n in range(n_lo, n_hi + 1)])


@settings(max_examples=15, deadline=None)
@given(d=st.integers(-100, 100), n_lo=st.integers(0, 500),
       length=st.integers(0, 500), size=st.integers(1, 600))
@example(d=-24, n_lo=5, length=40, size=1)
def test_shift_blocks_match_factorize(d, n_lo, length, size):
    # a block steps only the roots of the primes up to the root of its own
    # largest value; at d = -24 the block n = 7 holds 7**2 - 24 = 5**2
    if d < 1:
        n_lo = max(n_lo, math.isqrt(-d) + 1)
    n_hi = n_lo + length - 1
    start = n_lo
    for sv in ValueSieve.shift_blocks(n_lo, n_hi, d, size):
        end = min(n_hi, start + size - 1)
        assert len(sv.cofactor) == end - start + 1
        check_against_factorize(sv, [n * n + d for n in range(start, end + 1)])
        start = end + 1
    assert start == n_hi + 1


def test_shift_bounds():
    with pytest.raises(ValueError):
        ValueSieve.shift(1, 10, -1)  # 1**2 - 1 = 0
    with pytest.raises(ValueError):
        ValueSieve.shift(-3, 10, 1)
    with pytest.raises(OverflowError):
        ValueSieve.shift(1, 3_037_000_500, 0)  # n_max**2 >= 2**63
    with pytest.raises(OverflowError):
        ValueSieve.shift(1, 10, 1 << 63)
    assert len(ValueSieve.shift(5, 4, 1).cofactor) == 0


@pytest.mark.parametrize("n_lo, n_hi", [(1, 1), (1, 3000), (2, 2),
                                         (9_990, 12_000),
                                         (10**6 - 500, 10**6 + 500)])
def test_integers_match_factorize(n_lo, n_hi):
    sv = ValueSieve.integers(n_lo, n_hi)
    check_against_factorize(sv, list(range(n_lo, n_hi + 1)))


def test_integers_bounds():
    with pytest.raises(ValueError):
        ValueSieve.integers(0, 10)
    assert len(ValueSieve.integers(10, 4).cofactor) == 0


def test_hit_that_does_not_divide_raises():
    with pytest.raises(ValueError):
        ValueSieve(np.array([6, 9]), np.array([0, 1]), np.array([2, 2]))


def quartic_pairs(x: int) -> list:
    """The (m, n) with n**2 + m**4 <= x, n, m >= 1, in lexicographic order."""
    out = []
    m = 1
    while m ** 4 + 1 <= x:
        out += [(m, n) for n in range(1, math.isqrt(x - m ** 4) + 1)]
        m += 1
    return out


def quartic_values(x: int) -> list:
    """The values n**2 + m**4 <= x, n, m >= 1, in (m, n) lexicographic order."""
    return [n * n + m ** 4 for m, n in quartic_pairs(x)]


# No shrink phase: every example sieves up to thousands of blocks, so
# shrinking a failure took over ten minutes; the unshrunk example is
# reported instead.
@settings(max_examples=15, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(x=st.integers(0, 10**5), block=st.integers(16, 3000))
@example(x=1000, block=1)
def test_quartic_rows_match_factorize(x, block):
    pairs = quartic_pairs(x)
    values = quartic_values(x)
    old = congruence._ROW_BLOCK
    congruence._ROW_BLOCK = block
    try:
        sieves = list(ValueSieve.quartic_rows(x))
    finally:
        congruence._ROW_BLOCK = old
    sizes = [len(sv.cofactor) for sv in sieves]
    assert sum(sizes) == len(values)
    assert all(1 <= s <= block for s in sizes)
    start = 0
    for sv, size in zip(sieves, sizes):
        # one row m, so consecutive n, as the pairs are in (m, n) order; only
        # a row's last block is short
        end = start + size
        row = pairs[start][0]
        assert all(m == row for m, _ in pairs[start:end])
        assert size == block or end == len(pairs) or pairs[end][0] != row
        check_against_factorize(sv, values[start:end])
        start = end


@settings(max_examples=30, deadline=None)
@given(x=st.integers(0, 10**5))
def test_fouvry_iwaniec_equals_direct_sum(x):
    direct = 0.0
    for v in quartic_values(x):
        direct += arith.von_mangoldt(v)
    assert primes.fouvry_iwaniec_sum(x).lambda_sum == direct


def test_quartic_rows_rejects_63_bits():
    with pytest.raises(OverflowError):
        next(ValueSieve.quartic_rows(1 << 63))
    with pytest.raises(OverflowError):
        primes.fouvry_iwaniec_sum(2.0 ** 63)


@settings(max_examples=15, deadline=None)
@given(d=st.integers(0, 100), n_max=st.integers(0, 2000))
def test_largest_factors_match_factorize(d, n_max):
    lpf = primes._largest_factors(n_max, d)
    assert len(lpf) == n_max + 1
    for n in range(1, n_max + 1):
        assert lpf[n] == arith.factorize(n * n + d).largest_prime


def test_squarefree_divisors_match_arith():
    d = 7
    sv = ValueSieve.shift(1, 400, d)
    owner, q, mu, om = sv.squarefree_divisors()
    assert np.all(np.diff(owner) >= 0)
    for i in range(400):
        n = i + 1
        got = sorted(zip(q[owner == i].tolist(), mu[owner == i].tolist(),
                         om[owner == i].tolist()))
        want = sorted((s, m, arith.omega(s)) for s, m
                      in arith.squarefree_divisors(n * n + d))
        assert got == want, n


def support_loop(x, d):
    """The per-value loop rhs_mobius_expansion and dyadic_split used to run:
    T(x; q, d) per squarefree q, summed in ascending n."""
    support = {}
    for n in range(2, sums._n_limit(x, d) + 1):
        w = 1.0 / (n * math.sqrt(math.log(n)))
        for q, mu in arith.squarefree_divisors(n * n + d):
            entry = support.get(q)
            if entry is None:
                support[q] = [mu, w]
            else:
                entry[1] += w
    return support


@pytest.mark.parametrize("x, d", [(10, 1), (10**4, 3), (10**5, 1),
                                  (10**5, 28), (54_321, -3), (5, 1), (200, 7),
                                  (10**6, 7), (10**4, 0), (10**6, 0),
                                  (10**6, -3)])
def test_expansion_is_bit_identical_to_loop(x, d):
    support = support_loop(x, d)
    total = 0.0
    small = low = high = 0.0
    threshold = math.ceil(math.log(math.log(x)))
    cut = x ** (0.5 - 0.1)
    for q in sorted(support):
        mu, t = support[q]
        if q > 1:
            total -= mu * math.log(q) * t
            term = -mu * math.log(q) * t
            if q <= cut:
                small += term
            elif SIEVE.omega(q) <= threshold:
                low += term
            else:
                high += term
    assert sums.rhs_mobius_expansion(x, d) == total
    dec = sums.dyadic_split(x, d, 0.1)
    assert (dec.small_part, dec.large_low_omega, dec.large_high_omega) == \
        (small, low, high)
    assert dec.lhs == sums.lhs_sum(x, d, 0.5)


def test_psi_trend_is_bit_identical_to_loop():
    # up to the n of verify's psi-slope check (2 * 10**4) and of the values
    # benchmark (5 * 10**4); each trace reads a prefix of the same loop
    n_top = 5 * 10**4
    best = {}
    running = 0.0
    want = [0.0]
    for m in range(1, n_top + 1):
        for p, e in arith.factorize(m * m + 1).parts:
            prev = best.get(p, 0)
            if e > prev:
                best[p] = e
                running += (e - prev) * math.log(p)
        want.append(running)
    for n_max in (3000, 2 * 10**4, n_top):
        tr = lcmpsi.psi_residual_trend(n_max)
        assert tr.psi == tuple(want[n] for n in tr.ns)
        fit_n = np.arange(n_max // 2, n_max + 1, dtype=np.float64)
        fit_y = np.array(want[n_max // 2 : n_max + 1]) - fit_n * np.log(fit_n)
        assert tr.fitted_slope == float(np.polyfit(fit_n, fit_y, 1)[0])


def test_dyadic_split_builds_no_spf_table(monkeypatch):
    def refuse(self, limit):
        raise AssertionError(f"FactorSieve({limit}) built")

    monkeypatch.setattr(arith.FactorSieve, "__init__", refuse)
    sums.dyadic_split(1e6, 1)
