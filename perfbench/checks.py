"""Output checks, run in the parent outside the timed region.

Every call of a plan is checked against an independent oracle from the
package's reference implementations, or against its output recorded at the
commit that defined the benchmark (golden/outputs.json), or both. Integers
and strings must match exactly; floats must agree to REL_TOL.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
OUTPUTS_FILE = GOLDEN_DIR / "outputs.json"
VERIFY_REPORT_FILE = GOLDEN_DIR / "verify_default.json"

REL_TOL = 1e-9

# Calls whose output is compared with the recorded one.
RECORDED = frozenset({
    "sums.dyadic_split", "sums.lhs_sum", "sums.dirichlet_partial",
    "primes.pi_f", "primes.twin_quadratic_pairs", "primes.fouvry_iwaniec_sum",
    "primes.largest_prime_factor_records", "lcmpsi.psi_residual_trend",
})


def call_key(op: str, args: list) -> str:
    return json.dumps([op, args])


def same(a, b) -> bool:
    """Exact for ints, strings and structure; REL_TOL for floats."""
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


class Checker:
    """Checks the outputs of one spec's plan; oracles are computed once."""

    def __init__(self, spec: dict):
        self.spec = spec
        with open(OUTPUTS_FILE, encoding="utf-8") as fh:
            self.recorded = json.load(fh)[spec["size"]]
        self.golden_report = VERIFY_REPORT_FILE.read_text(encoding="utf-8")
        self.check_ids = [c["id"] for c in json.loads(self.golden_report)["checks"]]
        self._oracle: dict = {}

    def expected_ops(self, op: str) -> int:
        """Operations one call stands for: the CLI call plus each verify check."""
        return 1 + len(self.check_ids) if op == "cli.main" else 1

    def attempted(self) -> int:
        return sum(self.expected_ops(op) for op, _ in self.spec["plan"])

    def failures(self, outputs: list | None) -> list:
        """(op, args) of every failed operation; a missing output fails."""
        failed = []
        plan = self.spec["plan"]
        if outputs is None or len(outputs) != len(plan):
            outputs = [None] * len(plan)
        for (op, args), out in zip(plan, outputs):
            oks = self.check(op, args, out)
            failed += [(op, args)] * (len(oks) - sum(oks))
        return failed

    def check(self, op: str, args: list, out) -> list:
        """One bool per operation of the call."""
        n = self.expected_ops(op)
        if out is None:
            return [False] * n
        if op == "cli.main":
            return self._check_verify(out)
        ok = True
        if op in RECORDED:
            key = call_key(op, args)
            ok = key in self.recorded and same(out, self.recorded[key])
        oracle = ORACLES.get(op)
        if oracle is None and op not in RECORDED:
            raise KeyError(f"no check for {op}")
        if oracle is not None and ok:
            try:
                ok = oracle(self, args, out)
            except (KeyError, TypeError, ValueError, IndexError):
                ok = False  # an output of the wrong shape fails its check
        return [ok]

    def _check_verify(self, out: dict) -> list:
        try:
            checks = json.loads(out["report"])["checks"]
        except (ValueError, KeyError, TypeError):
            checks = []
        statuses = {c.get("id"): c.get("status") for c in checks}
        report_ok = out["rc"] == 0 and out["report"] == self.golden_report
        return [report_ok] + [statuses.get(i) == "pass" for i in self.check_ids]

    def oracle(self, key, compute):
        if key not in self._oracle:
            self._oracle[key] = compute()
        return self._oracle[key]


def _dyadic(ck, args, out):
    return abs(out["lhs"] - out["rhs_total"]) <= REL_TOL * max(1.0, abs(out["lhs"]))


def _von_mangoldt(ck, args, out):
    from quadprimes.arith import factorize
    def lam():
        parts = factorize(args[0]).parts
        return math.log(parts[0][0]) if len(parts) == 1 else 0.0
    return same(out, ck.oracle(("lambda", args[0]), lam))


def _psi_f(ck, args, out):
    from quadprimes.lcmpsi import psi_f_direct
    want = ck.oracle(("psi", args[0]), lambda: psi_f_direct(args[0]))
    return abs(out - want) <= REL_TOL * max(1.0, abs(want))


def _lpf(ck, args, out):
    from quadprimes.arith import factorize
    d = args[1]
    return all(ck.oracle(("lpf", n, d), lambda: factorize(n * n + d).largest_prime) == p
               for n, p, _ in out["records"])


ORACLES = {
    "sums.dyadic_split": _dyadic,
    "arith.von_mangoldt": _von_mangoldt,
    "lcmpsi.psi_f": _psi_f,
    "primes.largest_prime_factor_records": _lpf,
}
