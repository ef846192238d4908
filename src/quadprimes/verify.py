"""The verification suite behind `quadprimes verify`.

Each check compares a computed quantity against a reference (an exact value,
a published constant, or a frozen regression bracket) at a pinned tolerance.
Each check is a pure function of the suite parameters alone and builds the
tables it reads, so the checks can run at once and in any process: run_suite
forks one worker per usable CPU and gives each a fixed round-robin share of
the checks, and puts the results back in definition order. The report is
deterministic. Above 2 CPUs the fixed shares are less even than handing out
checks as workers free up; run_suite's docstring gives the cost.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import time
from dataclasses import dataclass

import numpy as np

from . import arith, congruence, lcmpsi, nagell, primes, stats, sums
from .report import FAIL, PASS, CheckResult, VerificationReport


@dataclass(frozen=True)
class SuiteParams:
    x: float = 1e5
    d: int = 1
    epsilon: float = 0.1
    prime_bound: int = 10_000_000
    fi_x: float = 1e8
    psi_n: int = 20_000


def _result(check_id, module, inputs, computed, reference, tol, passed):
    return CheckResult(check_id, module, inputs, computed, reference, tol,
                       PASS if passed else FAIL)


# Values per block of the identity check. Its divisor arrays grow with the
# block: at x = 10**5 the check alone raised peak RSS by 9 MiB with blocks of
# 2**12 values, 23 MiB with 2**14 and 51 MiB with 2**16, at the same speed.
_IDENTITY_BLOCK = 1 << 12


def _von_mangoldt_sides(top: int):
    """Yield (via_mobius, direct) for blocks of n = 1, 2, ..., top in order.

    via_mobius is -sum over the squarefree q | n of mu(q) log q, from the
    divisor arrays of ValueSieve.integers, added per n in the order of the
    scalar oracle von_mangoldt_via_mobius in tests/oracles.py; direct is
    log p where n is a power of p in a table that writes p at p, p**2,
    p**3, ... <= top for every prime p, else 0. The table reads only the
    primes, none of ValueSieve's hits, so a fault in the hits cannot move
    both sides alike. Both read one math.log table, so each side equals its
    scalar counterpart exactly.
    """
    logs = np.array([0.0, *map(math.log, range(1, top + 1))])
    base = np.zeros(top + 1, dtype=np.int32)  # 0 where n is no prime power
    ps = arith.primes_up_to(top)
    pk = ps
    while len(ps):
        base[pk] = ps
        more = pk <= top // ps  # p**(k + 1) <= top, before the product
        ps, pk = ps[more], pk[more] * ps[more]
    for lo in range(1, top + 1, _IDENTITY_BLOCK):
        hi = min(top, lo + _IDENTITY_BLOCK - 1)
        sv = congruence.ValueSieve.integers(lo, hi)
        owner, q, mu, _ = sv.squarefree_divisors()
        via = -np.bincount(owner, mu * logs[q], minlength=hi - lo + 1)
        yield via, logs[base[lo : hi + 1]]  # logs[0] = 0


def _check_mobius_von_mangoldt(p: SuiteParams) -> CheckResult:
    top = min(int(p.x), 100_000)
    worst = 0.0
    for via, direct in _von_mangoldt_sides(top):
        worst = max(worst, float(np.abs(via - direct).max()))
    return _result("mobius-von-mangoldt-identity", "arith_core",
                   {"n_max": top}, worst, 0.0, 1e-9, worst <= 1e-9)


def _check_mobius_divisor_sum(p: SuiteParams) -> CheckResult:
    """The sum of mu(q) over the squarefree q | n is 1 at n = 1, else 0."""
    sv = congruence.ValueSieve.integers(1, 10_000)
    owner, _, mu, _ = sv.squarefree_divisors()
    s = np.bincount(owner, mu, minlength=10_000)
    bad = int(np.count_nonzero(s != (np.arange(10_000) == 0)))
    return _result("mobius-divisor-sum", "arith_core", {"n_max": 10_000},
                   bad, 0, 0.0, bad == 0)


def _check_roots_vs_scan(p: SuiteParams) -> CheckResult:
    bad = 0
    for q in range(1, 2001):
        if congruence.roots_mod(q, p.d) != congruence.roots_mod_scan(q, p.d):
            bad += 1
    return _result("roots-vs-scan", "quad_congruence",
                   {"q_max": 2000, "d": p.d}, bad, 0, 0.0, bad == 0)


def _check_rho_multiplicative(p: SuiteParams) -> CheckResult:
    rng = random.Random(20_260_823)
    bad = 0
    pairs = 0
    while pairs < 1000:
        a = rng.randrange(1, 1001)
        b = rng.randrange(1, 1001)
        if math.gcd(a, b) != 1:
            continue
        pairs += 1
        if congruence.rho(a * b, p.d) != (
                congruence.rho(a, p.d) * congruence.rho(b, p.d)):
            bad += 1
    return _result("rho-multiplicative", "quad_congruence",
                   {"pairs": 1000, "d": p.d}, bad, 0, 0.0, bad == 0)


def _check_rho_omega_bound(p: SuiteParams) -> CheckResult:
    """rho(q) <= 2**(omega(q) + 1) * s(d) for every q, where s(d)**2 is the
    largest square dividing |d| and d != 0.

    rho is multiplicative and s(d) is the product of p**t over the primes p,
    t = v_p(d) // 2, so it is enough that rho(p**e) <= 2 * p**t for odd p and
    rho(2**e) <= 4 * 2**t. congruence._rho_prime_power gives rho(p**e) in
    closed form, with v = v_p(d): p**(e // 2) <= p**t when e <= v, and
    otherwise 0 or p**t times the number of square roots of a unit mod
    p**(e - v), at most 2 for odd p and 4 for p = 2.

    The bound is reached, for example by rho(2**6) = 4 and 8 at d = 7 and 28.
    For d = 0, n**2 is reducible and rho(p**e) = p**(e // 2) is unbounded:
    no s(d) exists, the check takes s = 1, and it fails.
    """
    top = min(int(p.x), 100_000)
    rhos = congruence.rho_table(top, p.d)[1:]
    omegas = stats.omega_sieve(top)[1:].astype(np.int64)
    parts = arith.factorize(abs(p.d)).parts if p.d else ()
    s = math.prod(q ** (e // 2) for q, e in parts)
    bad = int((rhos > 2 ** (omegas + 1) * s).sum())
    return _result("rho-omega-bound", "quad_congruence",
                   {"q_max": top, "d": p.d}, bad, 0, 0.0, bad == 0)


def _check_central_identity(p: SuiteParams) -> CheckResult:
    lhs = sums.lhs_sum(p.x, p.d)
    rhs = sums.rhs_mobius_expansion(p.x, p.d)
    rel = abs(lhs - rhs) / max(1.0, abs(lhs))
    return _result("central-identity", "weighted_sums",
                   {"x": p.x, "d": p.d}, rel, 0.0, 1e-9, rel <= 1e-9)


def _check_dyadic_partition(p: SuiteParams) -> CheckResult:
    dec = sums.dyadic_split(p.x, p.d, p.epsilon)
    rel = abs(dec.lhs - dec.rhs_total) / max(1.0, abs(dec.lhs))
    return _result("dyadic-partition", "weighted_sums",
                   {"x": p.x, "d": p.d, "epsilon": p.epsilon},
                   rel, 0.0, 1e-9, rel <= 1e-9)


def _check_progression_bound(p: SuiteParams) -> CheckResult:
    rng = random.Random(11)
    x = min(p.x, 1e6)
    bad = 0
    for _ in range(100):
        q = rng.randrange(2, 1001)
        direct, estimate, error_bound = sums.progression_sum(x, q, p.d)
        if abs(direct - estimate) > error_bound:
            bad += 1
    return _result("progression-estimate-bound", "weighted_sums",
                   {"x": x, "d": p.d, "samples": 100}, bad, 0, 0.0, bad == 0)


def _check_lhs_growth(p: SuiteParams) -> CheckResult:
    ratio = sums.lhs_sum(p.x, 1) / math.sqrt(math.log(p.x))
    return _result("lhs-growth", "weighted_sums", {"x": p.x, "d": 1},
                   ratio, 1.37, 3.63, 0.5 <= ratio <= 5.0)


_PRIME_LIST_10K = (2, 5, 17, 37, 101, 197, 257, 401, 577, 677, 1297, 1601,
                   2917, 3137, 4357, 5477, 7057, 8101, 8837)


def _check_prime_list(p: SuiteParams) -> CheckResult:
    found = tuple(v for _, v in primes.quadratic_primes(99, 1))
    ok = found == _PRIME_LIST_10K and primes.pi_f(10_000, 1) == 19
    return _result("quadratic-prime-list", "prime_counts",
                   {"x": 10_000, "d": 1}, len(found), 19, 0.0, ok)


_REQUIRED_TWINS = ((101, 103), (197, 199), (5477, 5479), (8837, 8839))


def _check_twin_pairs(p: SuiteParams) -> CheckResult:
    found = set(primes.twin_quadratic_pairs(100))
    hits = sum(1 for t in _REQUIRED_TWINS if t in found)
    return _result("twin-pairs", "prime_counts", {"n_max": 100},
                   hits, len(_REQUIRED_TWINS), 0.0,
                   hits == len(_REQUIRED_TWINS))


# [BS06] solution set for d = 28 (the exponent of the x = 10 entry is 7:
# 10**2 + 28 = 128 = 2**7).
NAGELL_D28 = frozenset({(6, 4, 3), (22, 8, 3), (225, 37, 3), (2, 2, 5),
                        (6, 2, 6), (10, 2, 7), (22, 2, 9), (362, 2, 17)})


def _check_nagell_d28(p: SuiteParams) -> CheckResult:
    sols = set(nagell.lebesgue_nagell_solve(28, 10**6))
    ok = sols == NAGELL_D28 and all(
        x * x + 28 == y ** n for x, y, n in sols)
    return _result("nagell-d28", "diophantine", {"d": 28, "x_max": 10**6},
                   len(sols), 8, 0.0, ok)


def _check_nagell_empty(p: SuiteParams) -> CheckResult:
    total = len(nagell.lebesgue_nagell_solve(1, 10**6)) + \
        len(nagell.lebesgue_nagell_solve(3, 10**6))
    return _result("nagell-empty", "diophantine",
                   {"d": [1, 3], "x_max": 10**6}, total, 0, 0.0, total == 0)


def _check_nagell_oracle(p: SuiteParams) -> CheckResult:
    bad = 0
    for d in range(1, 101):
        if nagell.lebesgue_nagell_solve(d, 1000) != \
                nagell.lebesgue_nagell_naive(d, 1000):
            bad += 1
    return _result("nagell-small-box-oracle", "diophantine",
                   {"d_range": [1, 100], "x_max": 1000}, bad, 0, 0.0,
                   bad == 0)


def _check_prime_power_empty(p: SuiteParams) -> CheckResult:
    hits = primes.prime_power_scan(10**6, 1)
    return _result("prime-power-empty", "prime_counts",
                   {"n_max": 10**6, "d": 1}, len(hits), 0, 0.0,
                   len(hits) == 0)


def _check_consecutive_powers(p: SuiteParams) -> CheckResult:
    pairs = nagell.consecutive_powers(10**6)
    ok = pairs == [(8, 9)]
    return _result("consecutive-powers", "diophantine", {"limit": 10**6},
                   len(pairs), 1, 0.0, ok)


def _check_hardy_littlewood(p: SuiteParams) -> CheckResult:
    est = primes.hardy_littlewood_constant(1, p.prime_bound)
    diff = abs(est.averaged - est.reference)
    return _result("hardy-littlewood-constant", "prime_counts",
                   {"d": 1, "prime_bound": p.prime_bound},
                   est.averaged, est.reference, 0.02, diff <= 0.02)


def _check_b_constant(p: SuiteParams) -> CheckResult:
    est = lcmpsi.B_constant(p.prime_bound)
    diff = abs(est.averaged - est.reference)
    return _result("b-constant", "lcm_psi", {"prime_bound": p.prime_bound},
                   est.averaged, est.reference, 0.01, diff <= 0.01)


def _check_kappa(p: SuiteParams) -> CheckResult:
    kq = primes.kappa_quadrature()
    kg = primes.kappa_gamma()
    diff = abs(kq - kg)
    return _result("kappa-agreement", "prime_counts", {}, kq, kg, 1e-8,
                   diff <= 1e-8)


def _check_fouvry_iwaniec(p: SuiteParams) -> CheckResult:
    fi = primes.fouvry_iwaniec_sum(p.fi_x)
    ok = 0.8 <= fi.ratio <= 1.2
    return _result("fouvry-iwaniec-ratio", "prime_counts", {"x": p.fi_x},
                   fi.ratio, 1.0, 0.2, ok)


def _check_psi_vs_lcm(p: SuiteParams) -> CheckResult:
    """psi_f(n) against psi_f_direct(n) for every n <= 300, both grown along
    one pass: the exponents from the rises, the lcm one value at a time."""
    rises = {}
    for block in lcmpsi._valuation_rises(300):
        for m, q, r in zip(*(a.tolist() for a in block)):
            rises.setdefault(m, []).append((q, r))
    exps, lcm, worst = {}, 1, 0.0
    for n in range(1, 301):
        for q, r in rises.get(n, ()):
            exps[q] = exps.get(q, 0) + r
        # as psi_f adds: ascending primes
        a = arith._ordered_sum(exps[q] * math.log(q) for q in sorted(exps))
        lcm = math.lcm(lcm, n * n + 1)
        b = lcmpsi._log_big(lcm)
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return _result("psi-valuation-vs-lcm", "lcm_psi", {"n_max": 300},
                   worst, 0.0, 1e-9, worst <= 1e-9)


def _check_psi_slope(p: SuiteParams) -> CheckResult:
    tr = lcmpsi.psi_residual_trend(p.psi_n)
    diff = abs(tr.fitted_slope - (-0.06628))
    return _result("psi-slope", "lcm_psi", {"n_max": p.psi_n},
                   tr.fitted_slope, -0.06628, 0.01, diff <= 0.01)


def _check_lpf_exponent(p: SuiteParams) -> CheckResult:
    rec = primes.largest_prime_factor_records(10_000, 1)
    best = max(e for _, _, e in rec.records)
    return _result("lpf-exponent", "prime_counts", {"n_max": 10_000, "d": 1},
                   best, 1.2, 0.0, best >= 1.2)


def _check_omega_partition(p: SuiteParams) -> CheckResult:
    x = max(16, min(int(p.x), 10**6))
    total = sum(stats.omega_histogram(x))
    return _result("omega-partition", "composite_stats", {"x": x},
                   total, x, 0.0, total == x)


def _check_landau_ratio(p: SuiteParams) -> CheckResult:
    x = max(16, min(int(p.x) * 10, 10**7))
    ratio = stats.landau_ratio(x, 2)
    return _result("landau-ratio", "composite_stats", {"x": x, "k": 2},
                   ratio, 1.0, 1.0, 0.5 <= ratio <= 2.0)


def _check_high_omega_mass(p: SuiteParams) -> CheckResult:
    x = max(16, min(int(p.x), 10**6))
    rho_sum, bound = stats.high_omega_mass(x, p.d)
    return _result("high-omega-mass", "composite_stats", {"x": x, "d": p.d},
                   rho_sum, bound, 0.0, rho_sum <= bound)


_CHECKS = (
    _check_mobius_von_mangoldt,
    _check_mobius_divisor_sum,
    _check_roots_vs_scan,
    _check_rho_multiplicative,
    _check_rho_omega_bound,
    _check_central_identity,
    _check_dyadic_partition,
    _check_progression_bound,
    _check_lhs_growth,
    _check_prime_list,
    _check_twin_pairs,
    _check_nagell_d28,
    _check_nagell_empty,
    _check_nagell_oracle,
    _check_prime_power_empty,
    _check_consecutive_powers,
    _check_hardy_littlewood,
    _check_b_constant,
    _check_kappa,
    _check_fouvry_iwaniec,
    _check_psi_vs_lcm,
    _check_psi_slope,
    _check_lpf_exponent,
    _check_omega_partition,
    _check_landau_ratio,
    _check_high_omega_mass,
)


def _validate(p: SuiteParams) -> None:
    """Raise ValueError for the first field the checks cannot run with (NaN
    lies in no range)."""
    # the n**2 + m**4 sum sieves primes up to sqrt(fi_x)
    top = arith.PRIME_SIEVE_LIMIT ** 2
    rules = (
        # the checks divide by sqrt(log x), and the sums sieve n**2 + d <= x
        ("x", 2 <= p.x <= sums.SUM_X_LIMIT, f"2 <= x <= {sums.SUM_X_LIMIT}"),
        # n**2 + d >= 1 for n >= 2, and it fits an int64 in the root scans
        ("d", -3 <= p.d < 2**62, "-3 <= d < 2**62"),
        ("epsilon", 0 < p.epsilon < 0.5, "0 < epsilon < 1/2"),
        ("prime_bound", p.prime_bound <= arith.PRIME_SIEVE_LIMIT,
         f"prime_bound <= {arith.PRIME_SIEVE_LIMIT}"),
        ("fi_x", 0 <= p.fi_x <= top, f"0 <= fi_x <= {top}"),
        ("psi_n", 100 <= p.psi_n <= lcmpsi.PSI_N_LIMIT,
         f"100 <= psi_n <= {lcmpsi.PSI_N_LIMIT}"),
    )
    for name, ok, bounds in rules:
        if not ok:
            raise ValueError(f"verify requires {bounds}, "
                             f"got {name} = {getattr(p, name)!r}")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _work(params: SuiteParams, share, conn, parent_ends) -> None:
    """Worker side of run_suite: run the checks of this worker's fixed share
    in definition order, timing each, and send each result over conn as soon
    as it is known, or the exception the check raised (pickled) with its
    traceback as text.

    parent_ends are the parent's read ends of this worker's pipe and of those
    started before it, which a forked worker holds copies of. They are closed
    first, so that once the parent is gone nothing reads the pipe and the
    next send fails instead of filling it.
    """
    for end in parent_ends:
        end.close()
    for fn in share:
        try:
            t0 = time.perf_counter()
            result = fn(params)
            result.ms = (time.perf_counter() - t0) * 1000.0
            conn.send((result, None))
        except Exception as exc:
            import traceback
            conn.send((pickle.dumps(exc), traceback.format_exc()))
    conn.close()


def _answer(conn, fn, proc) -> CheckResult:
    """The result the worker proc sent over conn for check fn; raise instead
    if the check raised or the worker died first."""
    try:
        payload, tb = conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"check {fn.__name__}: its worker exited with code "
            f"{proc.exitcode} before sending a result") from None
    if tb is None:
        return payload
    try:
        exc = pickle.loads(payload)
    except Exception as err:
        raise RuntimeError(
            f"check {fn.__name__} raised an exception that cannot be rebuilt "
            f"here; in the check's process:\n{tb}") from err
    raise exc from Exception(f"in the check's process:\n{tb}")


def run_suite(params: SuiteParams) -> VerificationReport:
    """Run every check in a pool of worker processes and return the results
    in definition order; the report content is a function of ``params`` alone
    (timings aside).

    k = min(usable CPUs, checks) workers are forked (the platform's default
    start method where fork does not exist) before the first check runs.
    Worker j runs checks j, j + k, j + 2k, ... in that order, so which checks
    share a worker depends on k alone, never on timing. Each worker times
    each call, so ``ms`` is the check's own wall time.

    The fixed shares are as even as handing each check to the first free
    worker at 1 and 2 CPUs, and less even above. Simulated from the default
    checks' serial times, the checks take (ms):

        CPUs   first free worker   fixed shares
        3      240                 261
        4      202                 232
        8      109                 182

    Every field is checked before the first check runs: one out of range
    (NaN included) raises ValueError. A check that raises re-raises the same
    exception here, or RuntimeError with the check's traceback where the
    exception cannot be rebuilt; a worker that exits without a result raises
    RuntimeError. Every worker has exited when this returns or raises.
    """
    _validate(params)
    # imported here, so that the other subcommands never pay for it
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    n = len(_CHECKS)
    k = min(_usable_cpus(), n)
    results = [None] * n
    workers = {}  # the parent's end of each worker's pipe -> the worker
    try:
        for j in range(k):
            conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_work, args=(
                params, _CHECKS[j::k], child_conn, [*workers, conn]))
            proc.start()
            workers[conn] = proc
            child_conn.close()  # the worker's death now reads as EOF
        # a worker's results wait in its pipe until their turn here
        for j, (conn, proc) in enumerate(workers.items()):
            for i in range(j, n, k):
                results[i] = _answer(conn, _CHECKS[i], proc)
    except BaseException:
        for proc in workers.values():
            proc.terminate()
        raise
    finally:
        for conn, proc in workers.items():
            proc.join()
            conn.close()
    return VerificationReport(checks=results)
