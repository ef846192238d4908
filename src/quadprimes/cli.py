"""Command-line front end: single computations or the full verification suite.

Exit codes: 0 = success / all checks passed, 1 = verification failure,
2 = usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import json
import sys

from . import congruence, lcmpsi, nagell, primes, stats, sums
from .report import csv_table
from .verify import SuiteParams, run_suite


def _table(header: list, rows: list, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n"
    return csv_table(header, rows)


def _cmd_verify(args, out) -> int:
    report = run_suite(SuiteParams(**{
        f.name: getattr(args, f.name) for f in dataclasses.fields(SuiteParams)}))
    if args.format == "csv":
        out.write(report.to_csv())
    else:
        out.write(report.to_json() + "\n")
    for c in report.checks:
        print(f"{c.status:4s}  {c.id}  ({c.ms:.0f} ms)", file=sys.stderr)
    return 0 if report.status == "pass" else 1


def _cmd_sum(args, out) -> int:
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
    out.write(_table(["quantity", "value"], rows, args.format))
    return 0


def _cmd_roots(args, out) -> int:
    rows = [(args.n, args.d, r) for r in congruence.roots_mod(args.n, args.d)]
    out.write(_table(["modulus", "shift", "root"], rows, args.format))
    return 0


def _cmd_primes(args, out) -> int:
    out.write(_table(["n", "prime"], primes.quadratic_primes(args.n, args.d),
                     args.format))
    return 0


def _cmd_constants(args, out) -> int:
    kq = primes.kappa_quadrature()
    kg = primes.kappa_gamma()
    estimates = (primes.hardy_littlewood_constant(args.d, args.prime_bound),
                 lcmpsi.B_constant(args.prime_bound),
                 primes.ConstantEstimate("kappa_quadrature", 0, kq, kq),
                 primes.ConstantEstimate("kappa_gamma", 0, kg, kg))
    header = [f.name for f in dataclasses.fields(primes.ConstantEstimate)]
    out.write(_table(header, [dataclasses.astuple(e) for e in estimates],
                     args.format))
    return 0


def _cmd_nagell(args, out) -> int:
    sols = nagell.lebesgue_nagell_solve(args.d, args.x)
    out.write(_table(["x", "y", "n"], sols, args.format))
    return 0


def _cmd_psi(args, out) -> int:
    tr = lcmpsi.psi_residual_trend(args.n)
    rows = list(zip(tr.ns, tr.psi, tr.residuals))
    out.write(_table(["n", "psi", "residual"], rows, args.format))
    print(f"fitted_slope {tr.fitted_slope!r}  (B used: {tr.B_used!r})",
          file=sys.stderr)
    return 0


def _cmd_stats(args, out) -> int:
    rows = list(enumerate(stats.omega_histogram(args.x)))
    out.write(_table(["k", "pi_k"], rows, args.format))
    return 0


# Python's own default cap on the digits of int(str).
_MAX_DIGITS = 4300


def exact_int(text: str) -> int:
    """argparse type for integer flags: digits or e-notation (``1e6``),
    parsed exactly, without passing through a float."""
    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not value.is_finite() or value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    # adjusted() is the exponent of the leading digit: checked before int()
    # builds the value, so "1e100000000" costs nothing.
    if value.adjusted() >= _MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"more than {_MAX_DIGITS} digits: {text!r}")
    return int(value)


# (flag, type, default, help) of each settable value; verify's are SuiteParams'.
_X_HELP = "cutoff for value sums / search boxes"
_X = ("--x", float, SuiteParams.x, _X_HELP)
_X_INT = ("--x", exact_int, int(SuiteParams.x), _X_HELP)
_N = ("--n", exact_int, 100, "index bound (or modulus for `roots`)")
_D = ("--d", exact_int, SuiteParams.d, "shift in n^2 + d")
_EPSILON = ("--epsilon", float, SuiteParams.epsilon, None)
_ALPHA = ("--alpha", float, 0.5, None)
_PRIME_BOUND = ("--prime-bound", exact_int, SuiteParams.prime_bound, None)
_FI_X = ("--fi-x", float, SuiteParams.fi_x, "cutoff for the n^2 + m^4 sum check")
_PSI_N = ("--psi-n", exact_int, SuiteParams.psi_n, "index bound for the psi slope check")

# Each subcommand takes exactly the flags its handler reads, plus --format
# and --out.
_COMMANDS = {
    "verify": (_cmd_verify, (_X, _D, _EPSILON, _PRIME_BOUND, _FI_X, _PSI_N)),
    "sum": (_cmd_sum, (_X, _D, _EPSILON, _ALPHA)),
    "roots": (_cmd_roots, (_N, _D)),
    "primes": (_cmd_primes, (_N, _D)),
    "constants": (_cmd_constants, (_D, _PRIME_BOUND)),
    "nagell": (_cmd_nagell, (_D, _X_INT)),
    "psi": (_cmd_psi, (_N,)),
    "stats": (_cmd_stats, (_X_INT,)),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadprimes",
        description="Computations and verification for quadratic primes n^2 + d.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, allow_abbrev=False)
        for flag, type_, default, help_ in flags:
            sp.add_argument(flag, type=type_, default=default, help=help_)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.set_defaults(handler=handler)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Opened before the computation, so that a path that cannot be written
    # fails at once, not after the work.
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc.strerror}",
              file=sys.stderr)
        return 2
    try:
        return args.handler(args, out)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
