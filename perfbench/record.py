"""Record the outputs that checks.py compares calls against.

    python3 perfbench/record.py

Writes golden/outputs.json: for both sizes of the values workload and every
shift in SHIFTS, the output of each call in checks.RECORDED, keyed by the call. Run it only at the
commit that defines the benchmark; later commits are checked against these
outputs, so recording again there would hide a changed result.

golden/verify_default.json is the default report of the same commit, made by
``PYTHONPATH=src python3 -m quadprimes verify --format json --out FILE``.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from checks import OUTPUTS_FILE, RECORDED, call_key  # noqa: E402
from child import _plain, run_plan  # noqa: E402
from workloads import SHIFTS, SIZES, make_spec  # noqa: E402


def record(size: str) -> dict:
    recorded = {}
    shifts = set()
    seed = 0
    while shifts != set(SHIFTS):
        spec = make_spec("values", seed, size)
        seed += 1
        if spec["d2"] in shifts:
            continue
        shifts.add(spec["d2"])
        spec["plan"] = [c for c in spec["plan"] if c[0] in RECORDED]
        outputs, errors = run_plan(spec, str(BENCH_DIR / "out"))
        for (op, args), out, err in zip(spec["plan"], outputs, errors):
            if err:
                raise RuntimeError(f"{op}{args}: {err}")
            recorded[call_key(op, args)] = json.loads(json.dumps(out, default=_plain))
    return recorded


def main() -> int:
    golden = {size: record(size) for size in SIZES}
    OUTPUTS_FILE.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"wrote {sum(map(len, golden.values()))} outputs to {OUTPUTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
