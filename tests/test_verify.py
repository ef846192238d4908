import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import oracles
from quadprimes import arith, congruence, lcmpsi, primes, sums, verify
from quadprimes.report import FAIL, PASS, CheckResult, VerificationReport
from quadprimes.verify import SuiteParams


def _never_called(params):
    raise AssertionError("a check ran before the parameters were validated")


def _passing(params):
    return CheckResult("stub", "test", {}, 0, 0, 0.0, PASS)


@pytest.mark.parametrize("field,value", [
    ("x", 1), ("x", math.nan), ("x", math.inf),
    ("x", arith.PRIME_SIEVE_LIMIT ** 2 + 1), ("x", sums.SUM_X_LIMIT * 10),
    ("d", -4), ("d", 2**62),
    ("epsilon", 0.7), ("epsilon", 0.0), ("epsilon", 0.5),
    ("epsilon", math.nan),
    ("prime_bound", arith.PRIME_SIEVE_LIMIT + 1),
    ("fi_x", 1e19), ("fi_x", -1.0), ("fi_x", math.nan),
    ("psi_n", 50), ("psi_n", lcmpsi.PSI_N_LIMIT + 1),
])
def test_run_suite_rejects_before_any_check(field, value, monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", (_never_called,))
    with pytest.raises(ValueError, match=f"got {field} = "):
        verify.run_suite(SuiteParams(**{field: value}))


@pytest.mark.parametrize("field,value", [
    ("x", 2), ("x", sums.SUM_X_LIMIT), ("d", -3), ("d", 10**12), ("epsilon", 0.49),
    ("prime_bound", arith.PRIME_SIEVE_LIMIT), ("fi_x", 0.0),
    ("psi_n", 100), ("psi_n", lcmpsi.PSI_N_LIMIT),
])
def test_run_suite_accepts_bounds(field, value, monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", (_passing,))
    report = verify.run_suite(SuiteParams(**{field: value}))
    assert [c.id for c in report.checks] == ["stub"]


def test_von_mangoldt_sides_match_scalar_loops():
    top = 20_000  # several blocks of _IDENTITY_BLOCK values
    blocks = list(verify._von_mangoldt_sides(top))
    assert len(blocks) == -(-top // verify._IDENTITY_BLOCK) > 1
    via = np.concatenate([b[0] for b in blocks]).tolist()
    direct = np.concatenate([b[1] for b in blocks]).tolist()
    ns = range(1, top + 1)
    assert via == [oracles.von_mangoldt_via_mobius(n) for n in ns]
    assert direct == [arith.von_mangoldt(n) for n in ns]


# 4096 = 2**12 is the last n of the first block, and a prime power
@pytest.mark.parametrize("top", [1, 2, 4096, 4097])
def test_von_mangoldt_sides_direct_at_edges(top):
    direct = np.concatenate([b[1] for b in verify._von_mangoldt_sides(top)])
    assert direct.tolist() == [arith.von_mangoldt(n) for n in range(1, top + 1)]


def test_identity_check_fails_when_the_sieve_drops_a_prime(monkeypatch):
    """The direct side reads none of ValueSieve's hits, so a sieve that
    loses every hit of p = 3 moves only the Mobius side, and the check
    fails. A direct side read off the same hits would agree with it."""
    integers = congruence.ValueSieve.integers

    def without_3(n_lo, n_hi):
        sv = integers(n_lo, n_hi)
        keep = sv.hit_prime != 3
        return congruence.ValueSieve(sv._values, sv.hit_index[keep],
                                     sv.hit_prime[keep])

    monkeypatch.setattr(congruence.ValueSieve, "integers", without_3)
    r = verify._check_mobius_von_mangoldt(SuiteParams())
    assert r.status == FAIL and r.computed > 1.0


@pytest.mark.parametrize("check", [verify._check_central_identity,
                                   verify._check_dyadic_partition])
def test_sum_checks_fail_when_the_sides_disagree(check, monkeypatch):
    """Both checks compare lhs_sum with the Mobius expansion: a left side
    1e-8 off, relatively, fails them, ten times over their 1e-9 gate."""
    assert check(SuiteParams()).status == PASS
    lhs_sum = sums.lhs_sum
    monkeypatch.setattr(sums, "lhs_sum",
                        lambda *args: lhs_sum(*args) * (1 + 1e-8))
    r = check(SuiteParams())
    assert r.status == FAIL and r.computed > 1e-9


def test_psi_vs_lcm_matches_per_n_loop():
    # the check grows both sides along one pass; each n recomputed from 1
    worst = 0.0
    for n in range(1, 301):
        a = lcmpsi.psi_f(n)
        b = lcmpsi.psi_f_direct(n)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    assert verify._check_psi_vs_lcm(SuiteParams()).computed == worst


@pytest.mark.parametrize("d", range(1, 101))
def test_progression_estimate_bound_holds_for_every_shift(d):
    """The check's 100 sampled moduli at every shift. Where q | d, the root
    is 0 and the class's first term is q, so the estimate integrates from q."""
    result = verify._check_progression_bound(SuiteParams(d=d))
    assert (result.computed, result.status) == (0, PASS)


@pytest.mark.parametrize("d", range(1, 101))
def test_rho_omega_bound_holds_for_every_shift(d):
    """rho(q) <= 2**(omega(q) + 1) * s(d) for q <= 2 * 10**4, s(d)**2 the
    largest square dividing d. The bound of 2**(omega(q) + 2) alone failed at
    d = 25, 81 and 100."""
    result = verify._check_rho_omega_bound(SuiteParams(x=2e4, d=d))
    assert (result.computed, result.status) == (0, PASS)


@pytest.mark.parametrize("check", [verify._check_central_identity,
                                   verify._check_dyadic_partition])
@pytest.mark.parametrize("d", range(1, 101))
def test_expansion_identities_hold_for_every_shift(check, d):
    """The central identity and its dyadic partition at the default x, for
    every shift of the paper's range. Three shift-dependent checks stay out
    of the sweeps: high-omega-mass, whose statement fails for 71 of the 100
    shifts at x = 10**5 (its restatement is open), and roots-vs-scan and
    rho-multiplicative, which pass at every shift but cost about 7 s and
    3-4 s over all 100."""
    assert check(SuiteParams(d=d)).status == PASS


@pytest.mark.parametrize("d", range(1, 101))
def test_expansion_sides_find_the_same_prime_powers(d):
    """The exact form of the central identity at x = 10**8. Value by value,
    -sum over the squarefree q | m of mu(q) log q is log p where m has one
    distinct prime p, and 0 otherwise. So the pairs (n, p) whose value
    n**2 + d has exactly the squarefree divisors 1 and p (the right side's
    divisor arrays) are the n of prime_ns with p = n**2 + d together with
    the pairs of prime_power_scan (the left side's routes), for n >= 2."""
    top = math.isqrt(10**8 - d)
    owner, q, _, _ = congruence.ValueSieve.shift(2, top, d).squarefree_divisors()
    two = np.flatnonzero(np.bincount(owner) == 2)
    picked = np.isin(owner, two) & (q != 1)
    sieve_side = set(zip((owner[picked] + 2).tolist(), q[picked].tolist()))
    ns = congruence.prime_ns(top, d)
    ns = ns[ns >= 2].tolist()
    route_side = {(n, n * n + d) for n in ns}
    route_side |= {(n, p) for n, p, _ in primes.prime_power_scan(top, d)
                   if n >= 2}
    assert sieve_side == route_side


_SMALL = SuiteParams(x=1e4, prime_bound=100_000, fi_x=1e6)


def _serial_report(params):
    return VerificationReport(checks=[fn(params) for fn in verify._CHECKS])


def test_forked_suite_matches_serial_loop(monkeypatch):
    expected = _serial_report(_SMALL).to_json()
    report = verify.run_suite(_SMALL)
    assert report.to_json() == expected
    assert all(c.ms > 0 for c in report.checks)
    assert multiprocessing.active_children() == []
    # one usable CPU: one worker runs every check in turn
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert verify._usable_cpus() == 1
    report = verify.run_suite(_SMALL)
    assert report.to_json() == expected
    assert all(c.ms > 0 for c in report.checks)
    # three: 26 checks give shares of 9, 9 and 8
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    report = verify.run_suite(_SMALL)
    assert report.to_json() == expected
    assert all(c.ms > 0 for c in report.checks)
    assert multiprocessing.active_children() == []


def _raises(params):
    raise ValueError("stub check rejected its input")


def test_check_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", (_passing, _raises, _passing))
    with pytest.raises(ValueError, match="stub check rejected its input"):
        verify.run_suite(SuiteParams())
    # the other worker was stopped too
    assert multiprocessing.active_children() == []


def _pid(params):
    return CheckResult("pid", "test", {}, os.getpid(), 0, 0.0, PASS)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_workers_run_several_checks_each(cpus, monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", (_pid,) * 6)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    pids = {c.computed for c in verify.run_suite(SuiteParams()).checks}
    assert os.getpid() not in pids and 1 <= len(pids) <= len(cpus)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_each_worker_runs_a_fixed_round_robin_share(k, monkeypatch):
    """Checks i and j run in one worker exactly when i = j (mod k), whatever
    the checks' times."""
    monkeypatch.setattr(verify, "_CHECKS", (_pid,) * 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                        raising=False)
    pids = [c.computed for c in verify.run_suite(SuiteParams()).checks]
    for i in range(7):
        for j in range(7):
            assert (pids[i] == pids[j]) == (i % k == j % k), (i, j, pids)


class _Bad(Exception):
    """An exception that pickles but cannot be rebuilt from its args."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _raises_bad(params):
    raise _Bad(1, 2)


def test_exception_that_cannot_be_rebuilt_names_the_check(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", (_passing, _raises_bad))
    with pytest.raises(RuntimeError, match="_raises_bad") as info:
        verify.run_suite(SuiteParams())
    assert "_Bad: 1 and 2" in str(info.value)
    assert "raise _Bad(1, 2)" in str(info.value)  # the worker's traceback


def test_dying_check_raises_instead_of_hanging():
    """A worker dies, after another check or on the first one with others
    still in its share: the suite raises, and no worker is left."""
    script = textwrap.dedent("""
        import multiprocessing
        import os
        from quadprimes import verify
        from quadprimes.report import PASS, CheckResult

        def _passing(params):
            return CheckResult("stub", "test", {}, 0, 0, 0.0, PASS)

        def _dies(params):
            os._exit(3)

        for checks in ((_passing, _dies), (_dies,) + (_passing,) * 4):
            verify._CHECKS = checks
            try:
                verify.run_suite(verify.SuiteParams())
            except RuntimeError as exc:
                print(exc)
            print("left:", multiprocessing.active_children())
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4, proc.stdout
    for died, left in (lines[:2], lines[2:]):
        assert "_dies" in died and "code 3" in died
        assert left == "left: []"


def test_workers_exit_when_the_parent_is_killed():
    """A check kills the suite's process: every worker's next send then
    fails on a broken pipe and it exits, instead of filling the pipe. The
    workers hold the script's stdout, so communicate returns only once they
    have all exited."""
    script = textwrap.dedent("""
        import os
        import signal
        from quadprimes import verify
        from quadprimes.report import PASS, CheckResult

        def _passing(params):
            return CheckResult("stub", "test", {}, 0, 0, 0.0, PASS)

        def _kills_parent(params):
            os.kill(os.getppid(), signal.SIGKILL)
            return _passing(params)

        verify._usable_cpus = lambda: 2
        verify._CHECKS = (_passing, _kills_parent, _passing, _passing)
        verify.run_suite(verify.SuiteParams())
    """)
    proc = subprocess.Popen([sys.executable, "-c", script],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the workers left behind
        proc.communicate()
        raise AssertionError("a worker outlived the killed suite") from None
    assert proc.returncode == -signal.SIGKILL
