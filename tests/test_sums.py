import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from quadprimes import arith, congruence, sums


def test_lhs_examples():
    # single term n = 2: log(5) / (2 sqrt(log 2))
    assert sums.lhs_sum(10, 1) == pytest.approx(0.9665659710875409, rel=1e-12)
    assert sums.lhs_sum(4, 1) == 0.0
    # terms n = 2 and n = 4 (n = 3 gives Lambda(10) = 0)
    expected = math.log(5) / (2 * math.sqrt(math.log(2))) + \
        math.log(17) / (4 * math.sqrt(math.log(4)))
    assert sums.lhs_sum(26, 1) == pytest.approx(expected, rel=1e-12)


def test_lhs_rejects_bad_alpha():
    with pytest.raises(ValueError):
        sums.lhs_sum(100, 1, alpha=0.0)
    with pytest.raises(ValueError):
        sums.lhs_sum(100, 1, alpha=-1.0)


def test_rhs_examples():
    assert sums.rhs_mobius_expansion(10, 1) == \
        pytest.approx(sums.lhs_sum(10, 1), rel=1e-12)
    assert sums.rhs_mobius_expansion(4, 1) == 0.0


@pytest.mark.parametrize("x", [10**3, 10**4, 10**5])
@pytest.mark.parametrize("d", [1, 3, 28])
def test_central_identity(x, d):
    lhs = sums.lhs_sum(x, d, 0.5)
    rhs = sums.rhs_mobius_expansion(x, d)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_dyadic_partition_exact():
    dec = sums.dyadic_split(10**4, 1, 0.1)
    assert dec.small_part + (dec.large_low_omega + dec.large_high_omega) \
        == dec.rhs_total
    assert abs(dec.lhs - dec.rhs_total) <= 1e-9 * max(1.0, abs(dec.lhs))


def test_dyadic_rejects_bad_epsilon():
    for eps in (0.0, 0.5, -0.1, 0.9):
        with pytest.raises(ValueError):
            sums.dyadic_split(100, 1, eps)


def test_dyadic_large_part_small_at_1e6():
    dec = sums.dyadic_split(10**6, 1, 0.1)
    assert abs(dec.large_part) / abs(dec.rhs_total) < 0.5


def test_progression_sum_example():
    direct, _, _ = sums.progression_sum(100, 5, 1)
    expected = sum(1.0 / (n * math.sqrt(math.log(n))) for n in (2, 3, 7, 8))
    assert direct == pytest.approx(expected, rel=1e-12)
    assert direct == pytest.approx(1.10777, abs=1e-4)


def test_progression_sum_empty_rootset():
    direct, estimate, error_bound = sums.progression_sum(100, 3, 1)
    assert direct == 0.0 and estimate == 0.0 and error_bound == 0.0


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda x: sums.rhs_mobius_expansion(x, 1),
    lambda x: sums.progression_sum(x, 5, 1),
])
def test_non_finite_cutoff_raises(call, x):
    with pytest.raises(ValueError, match=f"x = {x!r} is not finite"):
        call(x)


def test_progression_sum_cutoff_beyond_limit_raises():
    """progression_sum lists the n of each class, so it takes the sums'
    bound before any list is built: at x = 1e30 the list would not fit."""
    with pytest.raises(ValueError, match=f"exceeds {sums.SUM_X_LIMIT}"):
        sums.progression_sum(1e30, 5, 1)


def test_progression_estimate_within_bound():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        q = rng.randrange(2, 1001)
        if congruence.rho(q, 1) == 0:
            continue
        checked += 1
        direct, estimate, error_bound = sums.progression_sum(10**6, q, 1)
        assert abs(direct - estimate) <= error_bound, q


def test_root_stepping_equals_trial_filter():
    for q in range(1, 1001):
        rs = congruence.roots_mod(q, 1)
        top = math.isqrt(10**6 - 1)
        stepped = sorted(
            n
            for r in rs
            for n in range((r if r >= 2 else r + q * ((2 - r + q - 1) // q)),
                           top + 1, q))
        assert stepped == oracles.qualifying_n_by_trial(10**6, q, 1)


def test_dirichlet_partial_examples():
    expected = math.log(2) + math.log(5) / 2 + math.log(17) / 4 + \
        math.log(37) / 6 + math.log(101) / 10
    assert sums.dirichlet_partial(1, 10, 1) == \
        pytest.approx(expected, rel=1e-12)
    assert sums.dirichlet_partial(1, 0, 1) == 0.0


def test_dirichlet_partial_trend():
    v = sums.dirichlet_partial(1, 10**6, 1)
    assert 1.0 <= v / math.log(10**6) <= 1.8


def test_growth_bracket():
    prev = 0.0
    for x in (10**4, 10**5, 10**6, 10**7):
        v = sums.lhs_sum(x, 1)
        assert v >= prev
        prev = v
        assert 0.5 <= v / math.sqrt(math.log(x)) <= 5.0


def lhs_by_von_mangoldt(x, d, alpha):
    """The per-value loop lhs_sum replaced, adding in the same order."""
    total = 0.0
    for n in range(2, math.isqrt(int(x) - d) + 1):
        lam = arith.von_mangoldt(n * n + d)
        if lam:
            total += lam / (n * math.log(n) ** (1.0 - alpha))
    return total


def dirichlet_by_von_mangoldt(s, n_terms, d):
    total = 0.0
    for n in range(1, n_terms + 1):
        lam = arith.von_mangoldt(n * n + d)
        if lam:
            total += lam * n ** (-s)
    return total


@pytest.mark.parametrize("x, d, alpha", [
    (10**4, 1, 0.5), (10**6, 3, 0.25), (10**7, 28, 0.5), (10**6, 0, 0.5),
    (10**5, -3, 0.75), (10**8, 100, 0.5), (10**6, 64, 0.25), (10**5, -1, 1.0)])
def test_lhs_sum_equals_von_mangoldt_loop(x, d, alpha):
    assert sums.lhs_sum(x, d, alpha) == lhs_by_von_mangoldt(x, d, alpha)


@pytest.mark.parametrize("s, n_terms, d", [
    (1.0, 10**4, 1), (0.5, 3000, 0), (2.0, 10**4, 54), (1.0, 5000, 28),
    (1.5, 2000, 2), (1.0, 1, 1), (1.0, 3000, 100)])
def test_dirichlet_partial_equals_von_mangoldt_loop(s, n_terms, d):
    assert sums.dirichlet_partial(s, n_terms, d) == \
        dirichlet_by_von_mangoldt(s, n_terms, d)


def test_values_below_1_raise():
    with pytest.raises(ValueError):
        sums.lhs_sum(100, -4)
    with pytest.raises(ValueError):
        sums.dirichlet_partial(1.0, 10, -1)


def progression_by_loop(x, q, d):
    """direct and estimate of progression_sum, from the scanned roots and a
    filter over every n."""
    top = sums._n_limit(x, d)
    s = math.sqrt(max(x - d, 4.0))
    direct = estimate = 0.0
    for n in range(2, top + 1):
        if (n * n + d) % q == 0:
            direct += 1.0 / (n * math.sqrt(math.log(n)))
    for r in congruence.roots_mod_scan(q, d):
        first = r if r >= 2 else r + q * ((2 - r + q - 1) // q)
        if first <= top:
            last = s - q * (((s - r) / q) % 1.0)
            estimate += (2.0 / q) * (math.sqrt(math.log(last))
                                     - math.sqrt(math.log(first)))
    return direct, estimate


@pytest.mark.parametrize("d", [1, 7, 0, -3])
def test_progression_sum_equals_loop(d):
    rng = random.Random(d + 1000)
    for _ in range(25):
        x = rng.choice([rng.randrange(5, 10**6), rng.uniform(5, 10**6)])
        q = rng.randrange(1, 500)
        direct, estimate, _ = sums.progression_sum(x, q, d)
        assert (direct, estimate) == progression_by_loop(x, q, d), (x, q)


def test_von_mangoldt_via_mobius_equals_loop():
    ns = list(range(1, 3000)) + [2**61 - 1, 10**18 + 9, 2**40 * 3**10,
                                  600851475143, 30030**3, 223092870]
    for n in ns:
        total = 0.0
        for q, mu in oracles.squarefree_divisors(n):
            total += mu * math.log(q)
        assert oracles.von_mangoldt_via_mobius(n) == -total, n


@settings(max_examples=60, deadline=None)
@given(d=st.integers(-3, 100), x=st.floats(5, 1e6))
@example(d=-3, x=5.0)
@example(d=100, x=1e6)
def test_central_identity_across_shifts(d, x):
    lhs = sums.lhs_sum(x, d)
    rhs = sums.rhs_mobius_expansion(x, d)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
    assert sums.dyadic_split(x, d).lhs == lhs
