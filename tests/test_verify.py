import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from quadprimes import arith, lcmpsi, sums, verify
from quadprimes.report import PASS, CheckResult, VerificationReport
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
    sieve = arith.FactorSieve(top)
    blocks = list(verify._von_mangoldt_sides(top))
    assert len(blocks) == -(-top // verify._IDENTITY_BLOCK) > 1
    via = np.concatenate([b[0] for b in blocks]).tolist()
    direct = np.concatenate([b[1] for b in blocks]).tolist()
    ns = range(1, top + 1)
    assert via == [arith.von_mangoldt_via_mobius(n, sieve) for n in ns]
    assert direct == [arith.von_mangoldt(n, sieve) for n in ns]


@pytest.mark.parametrize("d", range(1, 101))
def test_progression_estimate_bound_holds_for_every_shift(d):
    """The check's 100 sampled moduli at every shift. Where q | d, the root
    is 0 and the class's first term is q, so the estimate integrates from q."""
    result = verify._check_progression_bound(SuiteParams(d=d))
    assert (result.computed, result.status) == (0, PASS)


_SMALL = SuiteParams(x=1e4, prime_bound=100_000, fi_x=1e6)


def _serial_report(params):
    return VerificationReport(checks=[fn(params) for fn in verify._CHECKS])


def test_forked_suite_matches_serial_loop(monkeypatch):
    expected = _serial_report(_SMALL).to_json()
    report = verify.run_suite(_SMALL)
    assert report.to_json() == expected
    assert all(c.ms > 0 for c in report.checks)
    # one usable CPU: one child at a time
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert verify._usable_cpus() == 1
    report = verify.run_suite(_SMALL)
    assert report.to_json() == expected
    assert all(c.ms > 0 for c in report.checks)


def _raises(params):
    raise ValueError("stub check rejected its input")


def test_check_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", (_passing, _raises, _passing))
    with pytest.raises(ValueError, match="stub check rejected its input"):
        verify.run_suite(SuiteParams())


def test_dying_check_raises_instead_of_hanging():
    script = textwrap.dedent("""
        import os
        from quadprimes import verify
        from quadprimes.report import PASS, CheckResult

        def _passing(params):
            return CheckResult("stub", "test", {}, 0, 0, 0.0, PASS)

        def _dies(params):
            os._exit(3)

        verify._CHECKS = (_passing, _dies)
        try:
            verify.run_suite(verify.SuiteParams())
        except RuntimeError as exc:
            print(exc)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "_dies" in proc.stdout and "code 3" in proc.stdout
