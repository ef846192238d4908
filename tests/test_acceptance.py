"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with its runtime against the stated budget. Run with `pytest -s` to see the
lines stream; they also appear in captured output on failure."""

import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

import oracles
from quadprimes import (arith, congruence, lcmpsi, nagell, primes, stats,
                        sums)

_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num, name, ok, elapsed, budget):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    line = (f"{status}  criterion {num:2d} [{name}]  "
            f"{elapsed:6.1f}s / {budget:.0f}s budget")
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} ({name}) over budget"


def test_criterion_01_mobius_von_mangoldt_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 10**5 + 1):
        worst = max(worst, abs(oracles.von_mangoldt_via_mobius(n)
                               - arith.von_mangoldt(n)))
    _report(1, "mobius-von-mangoldt", worst <= 1e-9,
            time.perf_counter() - t0, 10.0)


def test_criterion_02_root_sets():
    t0 = time.perf_counter()
    ok = True
    for d in (1, 2, 3, 28, 100):
        for q in range(1, 10**4 + 1):
            if congruence.roots_mod(q, d) \
                    != congruence.roots_mod_scan(q, d):
                ok = False
                break
    rng = random.Random(2)
    done = 0
    while done < 1000:
        a, b = rng.randrange(1, 2001), rng.randrange(1, 2001)
        if math.gcd(a, b) != 1:
            continue
        done += 1
        if congruence.rho(a * b, 1) != \
                congruence.rho(a, 1) * congruence.rho(b, 1):
            ok = False
    _report(2, "root-sets", ok, time.perf_counter() - t0, 30.0)


def test_criterion_03_central_identity():
    t0 = time.perf_counter()
    ok = True
    for x in (10**3, 10**4, 10**5, 10**6):
        for d in (1, 3, 28):
            lhs = sums.lhs_sum(x, d, 0.5)
            rhs = sums.rhs_mobius_expansion(x, d)
            if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
                ok = False
            dec = sums.dyadic_split(x, d, 0.1)
            if dec.lhs != lhs:
                ok = False
            if abs(dec.rhs_total - rhs) > 1e-9 * max(1.0, abs(lhs)):
                ok = False
    _report(3, "central-identity", ok, time.perf_counter() - t0, 120.0)


def test_criterion_04_prime_list_and_twins():
    t0 = time.perf_counter()
    expected = (2, 5, 17, 37, 101, 197, 257, 401, 577, 677, 1297, 1601,
                2917, 3137, 4357, 5477, 7057, 8101, 8837)
    found = tuple(p for _, p in primes.quadratic_primes(99, 1))
    ok = primes.pi_f(10**4, 1) == 19 and found == expected
    twins = primes.twin_quadratic_pairs(100)
    for pair in ((101, 103), (197, 199), (5477, 5479), (8837, 8839)):
        ok = ok and pair in twins
    _report(4, "prime-list-twins", ok, time.perf_counter() - t0, 1.0)


def test_criterion_05_lebesgue_nagell():
    t0 = time.perf_counter()
    d28 = set(nagell.lebesgue_nagell_solve(28, 10**6))
    ok = d28 == {(2, 2, 5), (6, 2, 6), (6, 4, 3), (10, 2, 7),
                 (22, 2, 9), (22, 8, 3), (225, 37, 3), (362, 2, 17)}
    ok = ok and nagell.lebesgue_nagell_solve(1, 10**6) == []
    ok = ok and nagell.lebesgue_nagell_solve(3, 10**6) == []
    for d in range(1, 101):
        if nagell.lebesgue_nagell_solve(d, 10**3) \
                != nagell.lebesgue_nagell_naive(d, 10**3):
            ok = False
    _report(5, "lebesgue-nagell", ok, time.perf_counter() - t0, 120.0)


def test_criterion_06_prime_power_emptiness():
    t0 = time.perf_counter()
    ok = primes.prime_power_scan(10**6, 1) == []
    _report(6, "prime-power-empty", ok, time.perf_counter() - t0, 60.0)


def test_criterion_07_constants():
    t0 = time.perf_counter()
    hl = primes.hardy_littlewood_constant(1, 10**7)
    b = lcmpsi.B_constant(10**7)
    ok = abs(hl.averaged - 1.3727) < 0.02
    ok = ok and abs(b.averaged - (-0.0662756342)) < 0.01
    ok = ok and abs(primes.kappa_quadrature() - primes.kappa_gamma()) < 1e-8
    _report(7, "constants", ok, time.perf_counter() - t0, 120.0)


def test_criterion_08_fouvry_iwaniec():
    t0 = time.perf_counter()
    fi = primes.fouvry_iwaniec_sum(10**8)
    ok = 0.8 <= fi.ratio <= 1.2
    _report(8, "fouvry-iwaniec", ok, time.perf_counter() - t0, 60.0)


def test_criterion_09_psi():
    t0 = time.perf_counter()
    ok = all(abs(lcmpsi.psi_f(n) - lcmpsi.psi_f_direct(n)) <= 1e-9
             for n in range(1, 301))
    tr = lcmpsi.psi_residual_trend(2 * 10**4)
    ok = ok and abs(tr.fitted_slope - (-0.06628)) < 0.01
    _report(9, "psi-lcm", ok, time.perf_counter() - t0, 120.0)


def test_criterion_10_composite_statistics():
    t0 = time.perf_counter()
    ok = sum(stats.omega_histogram(10**6)) == 10**6
    ok = ok and 0.5 <= stats.landau_ratio(10**7, 2) <= 2.0
    rho_sum, bound = stats.high_omega_mass(10**6, 1)
    ok = ok and rho_sum <= bound
    _report(10, "composite-stats", ok, time.perf_counter() - t0, 120.0)


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for seed in ("0", "1"):
        dest = tmp_path / f"report_{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "quadprimes", "verify",
             "--x", "1e4", "--prime-bound", "1e5", "--fi-x", "1e6",
             "--psi-n", "20000", "--format", "json", "--out", str(dest)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outs.append(dest.read_bytes())
    ok = outs[0] == outs[1]
    ok = ok and json.loads(outs[0])["status"] == "pass"
    _report(11, "determinism", ok, time.perf_counter() - t0, 120.0)
