"""kappa's integrator against scipy.integrate.quad, which runs QUADPACK's
QAGS on a finite interval. On kappa's integrand and on others with an
end-point singularity the value must be equal bit for bit: there is no
tolerance."""

import math
import subprocess
import sys

import pytest

from quadprimes import primes
from quadprimes.quadrature import _integrate

KAPPA_BITS = "0x1.bf7f714d46b99p-1"

# Integrands over [0, 1]. The Kronrod nodes of a subinterval lie inside it,
# so none is evaluated at 0.
INTEGRANDS = {
    "kappa": lambda t: math.sqrt(1.0 - t ** 4),
    "sqrt-1-t2": lambda t: math.sqrt(1.0 - t * t),
    "sqrt-1-t3": lambda t: math.sqrt(1.0 - t ** 3),
    "sqrt-1-t6": lambda t: math.sqrt(1.0 - t ** 6),
    "inverse-sqrt": lambda t: t ** -0.5,
    "log": math.log,
    "log-over-sqrt": lambda t: math.log(t) / math.sqrt(t),
}


def test_kappa_bits():
    assert primes.kappa_quadrature().hex() == KAPPA_BITS


@pytest.mark.parametrize("name", INTEGRANDS)
def test_matches_scipy_quad(name):
    integrate = pytest.importorskip("scipy.integrate")
    f = INTEGRANDS[name]
    ref = integrate.quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
    assert _integrate(f, 0.0, 1.0).hex() == float(ref).hex()


def test_fifty_bisections_raise():
    """1/t has no integral over [0, 1]: its sums grow by about log 2 per
    bisection, and no extrapolation gets within the tolerance."""
    calls = []

    def f(t):
        calls.append(t)
        return 1.0 / t

    with pytest.raises(ArithmeticError, match="50 bisections"):
        _integrate(f, 0.0, 1.0)
    assert len(calls) == 21 * (1 + 2 * 50)


def test_kappa_without_scipy():
    """With scipy unimportable, kappa keeps its bits, its check passes and
    the constants subcommand runs, and no scipy module is loaded."""
    script = f"""
import sys
sys.modules["scipy"] = None
from quadprimes import cli, primes, verify
assert primes.kappa_quadrature().hex() == {KAPPA_BITS!r}
assert verify._check_kappa(verify.SuiteParams()).status == "pass"
assert cli.main(["constants", "--prime-bound", "1000"]) == 0
assert not [m for m in sys.modules if m.startswith("scipy.")]
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
