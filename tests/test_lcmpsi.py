import math
import tracemalloc

import numpy as np
import pytest

import oracles
from quadprimes import arith, lcmpsi


def test_euler_gamma():
    assert lcmpsi.euler_gamma() == pytest.approx(0.5772156649015329, abs=1e-12)


def test_float_sums_add_left_to_right():
    # the builtin sum compensates from Python 3.12 on; these loops do not
    h = 0.0
    for k in range(1, 201):
        h += 1.0 / k
    n2 = 200.0 * 200
    gamma = (h - math.log(200) - 0.5 / 200 + 1.0 / (12.0 * n2)
             - 1.0 / (120.0 * n2 * n2) + 1.0 / (252.0 * n2 * n2 * n2))
    assert lcmpsi.euler_gamma() == gamma
    best = {}
    for n in range(1, 301):
        for p, e in arith.factorize(n * n + 1).parts:
            best[p] = max(best.get(p, 0), e)
        total = 0.0
        for p in sorted(best):
            total += best[p] * math.log(p)
        assert lcmpsi.psi_f(n) == total, n


def test_psi_small_values():
    # lcm(2) = 2; lcm(2, 5) = 10; lcm(2, 5, 10) = 10; lcm(..., 17) = 170
    assert lcmpsi.psi_f(1) == pytest.approx(math.log(2), rel=1e-12)
    assert lcmpsi.psi_f(2) == pytest.approx(math.log(10), rel=1e-12)
    assert lcmpsi.psi_f(3) == pytest.approx(math.log(10), rel=1e-12)
    assert lcmpsi.psi_f(4) == pytest.approx(math.log(170), rel=1e-12)


def test_psi_matches_direct_lcm():
    for n in (1, 2, 10, 50, 137, 300):
        assert lcmpsi.psi_f(n) == pytest.approx(lcmpsi.psi_f_direct(n), abs=1e-9)


def test_psi_rejects_nonpositive():
    with pytest.raises(ValueError):
        lcmpsi.psi_f(0)


def test_max_valuation_examples():
    # 2 divides m**2 + 1 exactly once (m odd) and never to a higher power
    assert oracles.max_valuation(2, 100) == 1
    # 7**2 + 1 = 50 = 2 * 5**2; 57**2 + 1 = 3250 = 2 * 5**3 * 13
    assert oracles.max_valuation(5, 6) == 1
    assert oracles.max_valuation(5, 7) == 2
    assert oracles.max_valuation(5, 57) == 3
    # p = 3 (mod 4) never divides m**2 + 1
    assert oracles.max_valuation(3, 10**6) == 0
    assert oracles.max_valuation(7, 10**6) == 0


def joined_rises(n: int):
    """The (m, p, rise) arrays of every block of _valuation_rises(n), joined."""
    return [np.concatenate(a) for a in zip(*lcmpsi._valuation_rises(n))]


def assert_rises_sum_to_max_valuation(ps, rises, n):
    total = {}
    for p, r in zip(ps.tolist(), rises.tolist()):
        total[p] = total.get(p, 0) + r
    # every prime up to n, and the cofactor primes above it
    for p in set(arith.primes_up_to(n).tolist()) | set(total):
        assert total.get(p, 0) == oracles.max_valuation(p, n)


@pytest.mark.parametrize("n", [1, 2, 7, 57, 300, 2000])
def test_valuation_rises_sum_to_max_valuation(n):
    _, ps, rises = joined_rises(n)
    assert_rises_sum_to_max_valuation(ps, rises, n)


def trace_bits(tr):
    return (tr.ns, [v.hex() for v in tr.psi], [v.hex() for v in tr.residuals],
            tr.B_used.hex(), tr.fitted_slope.hex())


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_streamed_rises_match_one_block(block, monkeypatch):
    n = 2000  # below the default block, so that is one block
    want = joined_rises(n)
    trace = trace_bits(lcmpsi.psi_residual_trend(n))
    monkeypatch.setattr(lcmpsi, "_PSI_BLOCK", block)
    assert len(list(lcmpsi._valuation_rises(n))) == -(-n // block)
    got = joined_rises(n)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert trace_bits(lcmpsi.psi_residual_trend(n)) == trace
    m, ps, rises = got
    assert_rises_sum_to_max_valuation(ps, rises, n)
    # Some prime q first divides m**2 + 1 as the cofactor (its block ends
    # below q) and is sieved in a later block, at m + q: that hit does not
    # rise again, because 2(m + q) > q.
    block_top = np.minimum(-(-m // block) * block, n)
    assert ((block_top < ps) & (m + ps <= n)).any()


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 12])
def test_rises_match_factorize_running_maximum(block, monkeypatch):
    n = 3000
    best = {}
    want = ([], [], [])
    for m in range(1, n + 1):
        for p, e in arith.factorize(m * m + 1).parts:
            prev = best.get(p, 0)
            if e > prev:
                best[p] = e
                for a, v in zip(want, (m, p, e - prev)):
                    a.append(v)
    monkeypatch.setattr(lcmpsi, "_PSI_BLOCK", block)
    for a, b in zip(joined_rises(n), want):
        assert a.dtype == np.int64 and np.array_equal(a, b)


def test_max_valuation_matches_trial():
    for p in (2, 5, 13, 17, 29):
        for n in (10, 100, 1000):
            assert oracles.max_valuation(p, n) == oracles.max_valuation_trial(p, n)


def test_b_constant_converges():
    est = lcmpsi.B_constant(10**6)
    assert abs(est.averaged - lcmpsi.B_CONSTANT_REF) < 0.01


def test_b_constant_monotone_improvement():
    errs = [abs(lcmpsi.B_constant(10**k).averaged - lcmpsi.B_CONSTANT_REF)
            for k in (3, 4, 5)]
    assert errs[0] > errs[1] > errs[2]


def _b_one_expression(bound):
    """B_constant as one expression over a copy of the odd primes and an
    int64 character array, the form before its temporaries were trimmed.
    It takes (raw, averaged) itself, the mean over a mask of the primes
    above bound // 2, so that it shares no averaging step with the
    package."""
    base = lcmpsi.euler_gamma() - 1.0 - math.log(2.0) / 2.0
    ps = arith.primes_up_to(bound)
    ps = ps[ps >= 3]
    chi = np.where(ps % 4 == 1, 1, -1).astype(np.int64)
    terms = chi * np.log(ps.astype(np.float64)) / (ps.astype(np.float64) - 1.0)
    running = base - np.cumsum(terms)
    if len(running) == 0:
        return base, base
    top = running[ps > bound // 2]
    return float(running[-1]), float(top.mean())


@pytest.mark.parametrize("bound", list(range(65)) + [100, 10**5, 10**6])
def test_b_constant_matches_one_expression(bound):
    est = lcmpsi.B_constant(bound)
    raw, averaged = _b_one_expression(bound)
    assert (est.raw.hex(), est.averaged.hex()) == (raw.hex(), averaged.hex())


def test_b_constant_peak_memory():
    """The terms are built one block of primes at a time and written over
    the primes, and their running sum is taken in place, so the peak is
    primes_up_to's own, with its one 256 KiB segment mask: at most 2.25
    arrays of one 8-byte entry per prime. The one-expression form peaked at
    about five."""
    bound = 10**6
    lcmpsi.B_constant(bound)
    tracemalloc.start()
    try:
        lcmpsi.B_constant(bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * len(arith.primes_up_to(bound))


def test_residual_trend():
    tr = lcmpsi.psi_residual_trend(5000)
    assert tr.ns[0] == 100 and tr.ns[-1] == 5000
    assert len(tr.ns) == len(tr.psi) == len(tr.residuals)
    # psi grows like n log n: relative residuals shrink along the trace
    rel = [abs(r) / (n * math.log(n)) for n, r in zip(tr.ns, tr.residuals)]
    assert rel[-1] < 0.05
    assert -0.2 < tr.fitted_slope < 0.05


def test_residual_trend_rejects_small():
    with pytest.raises(ValueError):
        lcmpsi.psi_residual_trend(50)


def test_trace_psi_agrees_with_psi_f():
    tr = lcmpsi.psi_residual_trend(400)
    for n, v in zip(tr.ns, tr.psi):
        assert v == pytest.approx(lcmpsi.psi_f(n), rel=1e-12)
