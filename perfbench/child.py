"""One timed run of one workload, in its own process.

Usage: python3 child.py SPEC_JSON MODE OUT_DIR

The parent puts ``src`` on PYTHONPATH. The child imports quadprimes, prints
``ready`` (the parent timestamps that line as the end of set-up), runs the
spec's plan of calls, and prints one JSON line with each call's output. MODE
is ``setup`` (exit once ready), ``plain`` (nothing installed), ``spans`` or
``rss`` (see tracer.py).
"""

import sys


def main(argv) -> int:
    spec_path, mode, out_dir = argv
    import quadprimes
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if mode == "setup":
        return 0

    import json
    import os

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode != "plain":
        from tracer import Tracer
        tracer = Tracer(mode)
        tracer.install(quadprimes)
    outputs, errors = run_plan(spec, out_dir)
    result = {"outputs": outputs, "errors": errors}
    if mode == "spans":
        path = os.path.join(out_dir, f"spans-{spec['workload']}.npz")
        tracer.write(path, run_id=f"{spec['workload']}/{spec['seed']}/{os.getpid()}")
        result["spans_file"] = path
        result["built_bytes"] = tracer.built_bytes
        report = tracer.kept.get("verify.run_suite")
        result["check_ms"] = ({c.id: c.ms for c in report.checks}
                              if report is not None else {})
    elif mode == "rss":
        result["rss_rise_kb"] = tracer.rss_rise_by_name()
    sys.stdout.write(json.dumps(result, default=_plain) + "\n")
    return 0


def run_plan(spec: dict, out_dir: str):
    """Run each call of the plan; an exception fails that call only."""
    import importlib
    import os

    report_path = os.path.join(out_dir, f"report-{os.getpid()}.json")
    outputs, errors = [], []
    for op, args in spec["plan"]:
        module, name = op.split(".", 1)
        fn = getattr(importlib.import_module(f"quadprimes.{module}"), name)
        if op == "cli.main":
            args = [[report_path if a == "$report" else a for a in args[0]]]
        try:
            result = fn(*args)
            outputs.append(_output(op, result, report_path))
            errors.append(None)
        except Exception as exc:  # a failed call is counted, not fatal
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    return outputs, errors


def _output(op: str, r, report_path: str):
    """The part of a call's result the parent checks, as JSON-ready data."""
    import dataclasses
    import hashlib
    import json
    import os

    if op == "primes.twin_quadratic_pairs":
        text = json.dumps(r)
        return {"count": len(r), "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if op == "cli.main":
        with open(report_path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(report_path)
        return {"rc": r, "report": text}
    if dataclasses.is_dataclass(r):
        out = dataclasses.asdict(r)
        if op == "sums.dyadic_split":
            out["rhs_total"] = r.rhs_total
        return out
    return r


def _plain(obj):
    """JSON fallback for numpy scalars."""
    return obj.item()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
