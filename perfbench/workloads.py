"""Workload definitions: the inputs made from a seed, and the plan of calls.

A plan is plain data: a list of ``[op, args]`` where ``op`` names a public
function as ``<module>.<function>`` of ``quadprimes``. The child process runs
the plan; the parent checks each call's output. In the ``cli.main`` call,
``"$report"`` stands for a report path the child picks.

This module imports nothing from ``quadprimes``, so the parent can build
inputs before the package is imported.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify", "values")

# The second shift d, picked by the seed. These shifts share almost the same
# density of values n**2 + d with no prime factor below 100 (see README.md),
# so the seed changes the inputs but not the amount of Miller-Rabin work.
SHIFTS = (2, 6, 8, 24, 32, 54, 96)

# Sizes of the values workload; "tiny" is for the benchmark's own tests.
SIZES = {
    "full": {"dyadic_x": 2e7, "lhs_x": 4e9, "dirichlet_terms": 50_000,
             "pi_x": 4e9, "twin_n": 50_000, "fi_x": 2e7, "lpf_n": 30_000,
             "trend_n": 50_000, "psi_n": 300, "lambda_samples": 1000},
    "tiny": {"dyadic_x": 1e5, "lhs_x": 1e6, "dirichlet_terms": 1000,
             "pi_x": 1e6, "twin_n": 1000, "fi_x": 1e5, "lpf_n": 1000,
             "trend_n": 1000, "psi_n": 50, "lambda_samples": 50},
}

VERIFY_ARGV = ["verify", "--format", "json", "--out", "$report"]


def make_spec(workload: str, seed: int, size: str = "full") -> dict:
    """All inputs of one workload run, as JSON-ready data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "verify":
        # The default suite is the user path; it takes no seeded input.
        return {"workload": workload, "seed": seed, "size": size, "d2": None,
                "plan": [["cli.main", [VERIFY_ARGV]]]}
    rng = random.Random(f"{workload}/{seed}")
    d2 = rng.choice(SHIFTS)
    return {"workload": workload, "seed": seed, "size": size, "d2": d2,
            "plan": _values_plan(SIZES[size], d2, rng)}


def _values_plan(s: dict, d2: int, rng: random.Random):
    plan = [
        ["sums.dyadic_split", [s["dyadic_x"], 1, 0.1]],
        ["sums.lhs_sum", [s["lhs_x"], 1, 0.5, None]],
        ["sums.dirichlet_partial", [1.0, s["dirichlet_terms"], d2]],
        ["primes.pi_f", [s["pi_x"], d2]],
        ["primes.twin_quadratic_pairs", [s["twin_n"]]],
        ["primes.fouvry_iwaniec_sum", [s["fi_x"]]],
        ["primes.largest_prime_factor_records", [s["lpf_n"], 1]],
        ["lcmpsi.psi_residual_trend", [s["trend_n"]]],
        ["lcmpsi.psi_f", [s["psi_n"]]],
    ]
    top = math.isqrt(int(s["lhs_x"]))
    for i in range(s["lambda_samples"]):
        d = 1 if i % 2 == 0 else d2
        n = rng.randint(2, top)
        plan.append(["arith.von_mangoldt", [n * n + d]])
    return plan

