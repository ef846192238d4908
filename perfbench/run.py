"""The quadprimes benchmark.

    python3 perfbench/run.py --workload values --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout. Each repetition of a workload runs in
a fresh single-threaded child process (child.py) against ``src/quadprimes``;
five more children only import the package, for set-up time. Repetitions
continue while one more fits in ``--seconds`` (at least MIN_REPS), and each
end-to-end metric is the median over them. Every call's output is checked
outside the timed region (checks.py).

With ``--trace 1`` the run also makes one traced repetition (spans around the
calls into each module, see tracer.py), one that records how far each module's calls raise peak RSS, and
parses ``python -X importtime``; it then reports the per-layer metrics instead
of the end-to-end ones. ``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give the environment, fail_ratio and every metric in readable form. Details
of each run go to perfbench/out/. See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from checks import Checker
from tracer import LAYERS, span_summary
from workloads import WORKLOADS, make_spec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

MIN_REPS = 3
SETUP_REPS = 5  # children that only import quadprimes, for more setup_s samples
CHILD_TIMEOUT_S = 100


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def loadavg() -> list:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return []


def run_child(spec_path: Path, mode: str) -> dict:
    """Spawn one child; time its set-up and its whole life; read its outputs."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path), mode, str(OUT)]
    load = loadavg()
    with open(OUT / "child.stderr", "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT, text=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            t_ready = time.perf_counter()
            rest = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            t_exit = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if ready.strip() != "ready":
        tail = (OUT / "child.stderr").read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"child did not start (exit {proc.returncode}):\n{tail}")
    result = None
    if proc.returncode == 0 and rest.strip():
        result = json.loads(rest.strip().splitlines()[-1])
    return {"mode": mode, "wall_s": t_exit - t0, "setup_s": t_ready - t0,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "loadavg": load,
            "returncode": proc.returncode, "result": result}


def import_times(runs: int = 3) -> dict:
    """cli.import_s and cli.import.scipy_integrate_s from ``-X importtime``,
    each the median of ``runs`` fresh interpreters."""
    found = {"quadprimes": [], "scipy.integrate": []}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import quadprimes"],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        for name in found:
            found[name].append(cumulative.get(name, 0.0))
    return {"cli.import_s": statistics.median(found["quadprimes"]),
            "cli.import.scipy_integrate_s": statistics.median(found["scipy.integrate"])}


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "quadprimes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "nproc_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), **versions}


def per_layer(summary: dict, rss_rise_kb: dict, rep: dict, check_ids: list,
              imports: dict, overhead_s: float) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    by_name = summary["by_name"]
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    m = {}
    for layer in LAYERS:
        mine = [v for k, v in by_name.items() if k.split(".", 1)[0] == layer]
        rises = [v for k, v in rss_rise_kb.items() if k.split(".", 1)[0] == layer]
        m[f"{layer}.self_s"] = (sum(v["self_s"] for v in mine), "s")
        m[f"{layer}.calls"] = (sum(v["calls"] for v in mine), "count")
        m[f"{layer}.peak_rss_rise_mb"] = (max(rises, default=0) / 1024, "MiB")
    m["arith.sieve_build_s"] = (by_name.get("arith.FactorSieve", zero)["incl_s"], "s")
    m["arith.sieve_bytes"] = (rep["built_bytes"], "bytes")
    for fn in ("is_prime_u64", "factorize", "von_mangoldt"):
        m[f"arith.{fn}.calls"] = (by_name.get(f"arith.{fn}", zero)["calls"], "count")
    m["congruence.rho_table_s"] = (by_name.get("congruence.rho_table", zero)["incl_s"], "s")
    m["congruence.roots_mod.calls"] = (by_name.get("congruence.roots_mod", zero)["calls"], "count")
    values_s = summary["values_s"]
    m["primes.values_per_s"] = (summary["values"] / values_s if values_s else 0.0, "1/s")
    for cid in check_ids:
        m[f"verify.check.{cid}_ms"] = (rep["check_ms"].get(cid, 0.0), "ms")
    m["cli.import_s"] = (imports["cli.import_s"], "s")
    m["cli.import.scipy_integrate_s"] = (imports["cli.import.scipy_integrate_s"], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", min_reps: int = MIN_REPS,
                 setup_reps: int = SETUP_REPS) -> dict:
    OUT.mkdir(exist_ok=True)
    spec = make_spec(workload, seed, size)
    spec_path = OUT / f"spec-{workload}-{os.getpid()}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    checker = Checker(spec)
    env = environment()
    try:
        budget = seconds / 2 if trace else seconds
        start = time.perf_counter()
        setups = [run_child(spec_path, "setup") for _ in range(setup_reps)]
        reps = []
        # Start another repetition only if a typical one still fits the budget.
        while len(reps) < min_reps or (
                time.perf_counter() - start
                + statistics.median(r["wall_s"] for r in reps) <= budget):
            reps.append(run_child(spec_path, "plain"))
            if reps[-1]["returncode"] != 0:
                break  # a crashed or killed child would only crash again
        if trace and reps[-1]["returncode"] == 0:
            reps.append(run_child(spec_path, "spans"))
            reps.append(run_child(spec_path, "rss"))
    finally:
        spec_path.unlink()
    failures = []
    for rep in reps:
        outputs = rep["result"]["outputs"] if rep["result"] else None
        rep["failures"] = checker.failures(outputs)
        failures += rep["failures"]
    attempted = checker.attempted() * len(reps)
    plain = [r for r in reps if r["mode"] == "plain"]
    wall = statistics.median(r["wall_s"] for r in plain)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in setups + plain), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MiB"),
    }
    layer_metrics = {}
    if trace:
        traced = {r["mode"]: r for r in reps if r["mode"] != "plain"}
        spans_rep, rss_rep = traced.get("spans"), traced.get("rss")
        if spans_rep and rss_rep and spans_rep["result"] and rss_rep["result"]:
            summary = span_summary(spans_rep["result"]["spans_file"])
            layer_metrics = per_layer(summary, rss_rep["result"]["rss_rise_kb"],
                                      spans_rep["result"], checker.check_ids,
                                      import_times(), spans_rep["wall_s"] - wall)
    result = {
        "workload": workload, "seed": seed, "size": size, "d2": spec["d2"],
        "env": env, "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": [f"{op} {json.dumps(args)}" for op, args in failures[:20]],
        "errors": sorted({e for r in reps if r["result"]
                          for e in r["result"]["errors"] if e}),
        "metrics": metrics, "per_layer": layer_metrics,
        "reps": [{k: r[k] for k in ("mode", "wall_s", "setup_s", "peak_rss_mb",
                                    "loadavg", "returncode")} | {"failed": len(r["failures"])}
                 for r in reps],
    }
    name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT / name).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def _metric_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quadprimes" / "__init__.py").is_file():
        print(f"error: no quadprimes sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quadprimes  # noqa: F401  -- the checks need it; writes bytecode before the first child
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in names:
            r = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            results.append(r)
            print(f"# env {json.dumps(r['env'], sort_keys=True)}")
            print(f"# {workload}: seed={args.seed} d2={r['d2']} reps={len(r['reps'])} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"fail_ratio={r['fail_ratio']!r} ratio")
            for k, (v, u) in {**r["metrics"], **r["per_layer"]}.items():
                print(f"# {workload}: {k} = {v!r} {u}")
            for failure in r["failures"]:
                print(f"# {workload}: FAILED {failure}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace and not all(r["per_layer"] for r in results):
        print("error: the traced repetition produced no spans", file=sys.stderr)
        return 1
    key = "per_layer" if args.trace else "metrics"
    if len(results) == 1:
        metrics = results[0][key]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r[key].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": _metric_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
