import math

import numpy as np
import pytest

from quadprimes import arith, lcmpsi, sums, verify
from quadprimes.report import PASS, CheckResult
from quadprimes.verify import SuiteParams


def _never_called(params):
    raise AssertionError("a check ran before the parameters were validated")


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
    def stub(params):
        return CheckResult("stub", "test", {}, 0, 0, 0.0, PASS)

    monkeypatch.setattr(verify, "_CHECKS", (stub,))
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
