"""Command-line front end: single computations or the full verification suite.

Exit codes: 0 = success / all checks passed, 1 = verification failure,
2 = usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import congruence, lcmpsi, nagell, primes, stats, sums
from .report import _num
from .verify import SuiteParams, run_suite


def _write(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table(header: list, rows: list, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        w.writerow([_num(v) for v in r])
    return buf.getvalue()


def _cmd_verify(args) -> int:
    params = SuiteParams(x=args.x, d=args.d, epsilon=args.epsilon,
                         alpha=args.alpha, prime_bound=int(args.prime_bound),
                         fi_x=args.fi_x, psi_n=int(args.psi_n),
                         threads=args.threads)
    report = run_suite(params)
    if args.format == "csv":
        _write(report.to_csv(), args.out)
    else:
        _write(report.to_json() + "\n", args.out)
    for c in report.checks:
        print(f"{c.status:4s}  {c.id}  ({c.ms:.0f} ms)", file=sys.stderr)
    return 0 if report.status == "pass" else 1


def _cmd_sum(args) -> int:
    dec = sums.dyadic_split(args.x, args.d, args.epsilon)
    rows = [
        ("lhs", dec.lhs),
        ("rhs_total", dec.rhs_total),
        ("small_part", dec.small_part),
        ("large_part", dec.large_part),
        ("large_low_omega", dec.large_low_omega),
        ("large_high_omega", dec.large_high_omega),
        ("omega_threshold", dec.omega_threshold),
        ("epsilon", dec.epsilon),
    ]
    if args.alpha != 0.5:
        rows.append((f"lhs_alpha_{args.alpha}",
                     sums.lhs_sum(args.x, args.d, args.alpha)))
    _write(_table(["quantity", "value"], rows, args.format), args.out)
    return 0


def _cmd_roots(args) -> int:
    q = int(args.n)
    rs = congruence.roots_mod(q, args.d)
    rows = [(q, args.d, r) for r in rs.roots]
    _write(_table(["modulus", "shift", "root"], rows, args.format), args.out)
    return 0


def _cmd_primes(args) -> int:
    qp = primes.quadratic_primes(int(args.n), args.d)
    rows = list(zip(qp.members, qp.primes))
    _write(_table(["n", "prime"], rows, args.format), args.out)
    return 0


def _cmd_constants(args) -> int:
    bound = int(args.prime_bound)
    hl = primes.hardy_littlewood_constant(args.d, bound)
    b = lcmpsi.B_constant(bound)
    rows = [
        (hl.name, hl.truncation_bound, hl.raw, hl.averaged, hl.reference),
        (b.name, b.truncation_bound, b.raw, b.averaged, b.reference),
        ("kappa_quadrature", 0, primes.kappa_quadrature(), primes.kappa_quadrature(), None),
        ("kappa_gamma", 0, primes.kappa_gamma(), primes.kappa_gamma(), None),
    ]
    _write(_table(["name", "truncation_bound", "raw", "averaged", "reference"],
                  rows, args.format), args.out)
    return 0


def _cmd_nagell(args) -> int:
    sols = nagell.lebesgue_nagell_solve(args.d, int(args.x))
    rows = [(s.x, s.y, s.n) for s in sols]
    _write(_table(["x", "y", "n"], rows, args.format), args.out)
    return 0


def _cmd_psi(args) -> int:
    tr = lcmpsi.psi_residual_trend(max(int(args.n), 100))
    rows = list(zip(tr.ns, tr.psi, tr.residuals))
    _write(_table(["n", "psi", "residual"], rows, args.format), args.out)
    print(f"fitted_slope {tr.fitted_slope!r}  (B used: {tr.B_used!r})",
          file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    x = int(args.x)
    h = stats.omega_histogram(x)
    rows = [(k, c) for k, c in enumerate(h.counts)]
    _write(_table(["k", "pi_k"], rows, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadprimes",
        description="Computations and verification for quadratic primes n^2 + d.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--x", type=float, default=1e5,
                        help="cutoff for value sums / search boxes")
        sp.add_argument("--n", type=float, default=100,
                        help="index bound (or modulus for `roots`)")
        sp.add_argument("--d", type=int, default=1, help="shift in n^2 + d")
        sp.add_argument("--epsilon", type=float, default=0.1)
        sp.add_argument("--alpha", type=float, default=0.5)
        sp.add_argument("--prime-bound", dest="prime_bound", type=float,
                        default=1e7)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    handlers = {
        "verify": _cmd_verify,
        "sum": _cmd_sum,
        "roots": _cmd_roots,
        "primes": _cmd_primes,
        "constants": _cmd_constants,
        "nagell": _cmd_nagell,
        "psi": _cmd_psi,
        "stats": _cmd_stats,
    }
    for name, fn in handlers.items():
        sp = sub.add_parser(name)
        common(sp)
        if name == "verify":
            sp.add_argument("--fi-x", dest="fi_x", type=float, default=1e8,
                            help="cutoff for the n^2 + m^4 sum check")
            sp.add_argument("--psi-n", dest="psi_n", type=float, default=2e4,
                            help="index bound for the psi slope check")
        sp.set_defaults(handler=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
