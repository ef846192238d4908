"""The QAGS port against scipy.integrate.quad, which runs the same QUADPACK
routine on a finite interval. Value, error estimate, subinterval count and
integrand calls must be equal, floats bit for bit: there is no tolerance."""

import math
import random
import subprocess
import sys

import pytest

from quadprimes.quadrature import qags

KAPPA_BITS = "0x1.bf7f714d46b99p-1"


def _scipy_quad(f, a, b, epsabs, epsrel, limit):
    """quad's (value, abserr, infodict, flagged): flagged when quad reports
    a nonzero ier, as it does with a message. None when quad raises on
    invalid tolerances (ier 6)."""
    integrate = pytest.importorskip("scipy.integrate")
    try:
        out = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel,
                             limit=limit, full_output=1)
    except ValueError:
        return None
    return out[0], out[1], out[2], len(out) > 3


def _assert_same(f, a, b, epsabs, epsrel, limit):
    """The port's result, after checking it against quad's; also quad's
    infodict (None for invalid tolerances)."""
    mine = qags(f, a, b, epsabs, epsrel, limit)
    ref = _scipy_quad(f, a, b, epsabs, epsrel, limit)
    if ref is None:
        assert mine.ier == 6
        return mine, None
    value, abserr, info, flagged = ref
    assert (mine.value.hex(), mine.abserr.hex(), mine.last, mine.neval,
            mine.ier != 0) == (float(value).hex(), float(abserr).hex(),
                               info["last"], info["neval"], flagged)
    return mine, info


def _family(name, rng):
    """One random integrand of the named family, with its interval."""
    a, b = rng.uniform(-1.0, 0.5), rng.uniform(0.5, 3.0)
    c = rng.uniform(-1.0, 2.0)
    p = rng.uniform(-0.9, 2.5)
    if name == "sqrt":
        f = lambda x: math.sqrt(abs(x - c))
    elif name == "log":
        f = lambda x: math.log(abs(x - c)) if x != c else 0.0
    elif name == "power":
        f = lambda x: abs(x - c) ** p if x != c else 0.0
    elif name == "peak":
        w = 10.0 ** rng.uniform(-6.0, -1.0)
        f = lambda x: 1.0 / ((x - c) ** 2 + w * w)
    elif name == "oscillation":
        k = rng.uniform(1.0, 300.0)
        f = lambda x: math.sin(k * x) * math.exp(-x)
    elif name == "endpoint":
        a = 0.0
        f = lambda x: x ** (p - 1.0) if x > 0 else 0.0
    else:
        s = rng.uniform(0.1, 5.0)
        f = lambda x: math.exp(-s * x * x) * math.cos(s * x)
    if rng.random() < 0.2:
        a, b = b, a
    return f, a, b


FAMILIES = ("sqrt", "log", "power", "peak", "oscillation", "endpoint",
            "smooth")


@pytest.mark.parametrize("family", FAMILIES)
def test_random_integrands_match_scipy(family):
    rng = random.Random(f"qags-{family}")
    iers = set()
    for _ in range(100):
        f, a, b = _family(family, rng)
        epsrel = 10.0 ** rng.uniform(-14.0, -4.0)
        epsabs = epsrel if rng.random() < 0.5 else 0.0
        limit = rng.choice([1, 2, 3, 5, 10, 50, 50, 100])
        mine, _ = _assert_same(f, a, b, epsabs, epsrel, limit)
        iers.add(mine.ier)
    assert 0 in iers


def _inverse_power(q):
    return lambda x: x ** -q if x > 0 else 0.0


# (f, a, b, epsabs, epsrel, limit, ier, summed): integrands that end on each
# exit of dqagse. summed tells the exit that adds the subintervals' results
# from the one that returns the extrapolated value.
EXITS = {
    "first-rule": (lambda x: x * x, 0.0, 1.0, 1e-12, 1e-12, 50, 0, True),
    "convergence": (lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-4), 0.0, 1.0,
                    1e-12, 1e-12, 50, 0, True),
    "extrapolation": (_inverse_power(0.5), 0.0, 1.0, 1e-12, 1e-12, 50, 0,
                      False),
    "extrapolation-log": (lambda x: math.log(x) / math.sqrt(x) if x > 0
                          else 0.0, 0.0, 1.0, 0.0, 2e-14, 50, 0, False),
    "limit": (lambda x: math.sin(300.0 * x), 0.0, 3.0, 1e-12, 1e-12, 5, 1,
              True),
    "roundoff": (lambda x: math.cos(100.0 * math.sin(x)), 0.0, math.pi,
                 0.0, 2e-14, 50, 2, True),
    "extrapolation-roundoff": (lambda x: abs(x - 0.3) ** -0.84
                               if x != 0.3 else 0.0, -0.9, 1.6, 3e-12,
                               3e-12, 100, 4, False),
    "divergence": (_inverse_power(1.5), 0.0, 1.0, 0.0, 1e-9, 50, 5, False),
}


@pytest.mark.parametrize("name", EXITS)
def test_each_exit_matches_scipy(name):
    f, a, b, epsabs, epsrel, limit, ier, summed = EXITS[name]
    mine, info = _assert_same(f, a, b, epsabs, epsrel, limit)
    assert mine.ier == ier
    total = 0.0
    for r in info["rlist"][:info["last"]].tolist():
        total += r
    assert (total == mine.value) == summed


def test_invalid_tolerances_match_scipy():
    mine, info = _assert_same(math.exp, 0.0, 1.0, 0.0, 1e-15, 50)
    assert mine == (0.0, 0.0, 0, 6, 0) and info is None


def test_limit_below_one_raises():
    with pytest.raises(ValueError):
        qags(math.exp, 0.0, 1.0, 1e-10, 1e-10, limit=0)


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
