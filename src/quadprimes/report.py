"""Machine-readable verification reports: JSON and CSV serialization."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

SUITE_VERSION = "1"

PASS = "pass"
FAIL = "fail"


@dataclass
class CheckResult:
    id: str
    module: str
    inputs: dict
    computed: float | int | str
    reference: float | int | str | None
    tol: float | None
    status: str
    ms: float = 0.0  # wall clock; deliberately kept out of serialized reports

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "module": self.module,
            "inputs": self.inputs,
            "computed": self.computed,
            "reference": self.reference,
            "tol": self.tol,
            "status": self.status,
        }


@dataclass
class VerificationReport:
    version: str = SUITE_VERSION
    checks: list = field(default_factory=list)

    @property
    def status(self) -> str:
        return FAIL if any(c.status == FAIL for c in self.checks) else PASS

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "checks": [c.to_dict() for c in self.checks],
            "status": self.status,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        doc = json.loads(text)
        rep = cls(version=doc["version"])
        for c in doc["checks"]:
            rep.checks.append(CheckResult(
                c["id"], c["module"], c["inputs"], c["computed"],
                c["reference"], c["tol"], c["status"]))
        return rep

    def to_csv(self) -> str:
        return csv_table(
            ["id", "module", "inputs", "computed", "reference", "tol", "status"],
            [[c.id, c.module, json.dumps(c.inputs, sort_keys=True), c.computed,
              c.reference, c.tol, c.status] for c in self.checks])


def csv_table(header: list, rows) -> str:
    """A header line and one line per row: minimal quoting, "\n" line ends,
    and floats as repr, at full double precision."""
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    w.writerow(header)
    w.writerows([repr(v) if isinstance(v, float) else v for v in r]
                for r in rows)
    return buf.getvalue()
