import json

from quadprimes.report import PASS, FAIL, CheckResult, VerificationReport


def sample_report():
    rep = VerificationReport()
    rep.checks.append(CheckResult(
        "alpha", "sums", {"x": 100}, 1.234567890123456789, 1.2345678901,
        1e-9, PASS, 12.5))
    rep.checks.append(CheckResult(
        "beta", "arith", {}, "empty", None, None, PASS, 0.3))
    return rep


def test_status_aggregation():
    rep = sample_report()
    assert rep.status == PASS
    rep.checks[0].status = FAIL
    assert rep.status == FAIL


def test_json_roundtrip_drops_timing():
    rep = sample_report()
    doc = json.loads(rep.to_json())
    assert doc["status"] == "pass"
    assert "ms" not in doc["checks"][0]
    back = VerificationReport.from_json(rep.to_json())
    assert [c.id for c in back.checks] == ["alpha", "beta"]
    assert back.checks[0].computed == rep.checks[0].computed
    assert back.to_json() == rep.to_json()


def test_csv_full_precision():
    text = sample_report().to_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("id,module,inputs,computed")
    assert repr(1.234567890123456789) in lines[1]
    assert "ms" not in lines[0]


def test_fields_in_report_order():
    """The JSON keys of a check and the CSV columns are the seven serialised
    fields, in one order."""
    rep = sample_report()
    assert list(rep.checks[0].to_dict()) == [
        "id", "module", "inputs", "computed", "reference", "tol", "status"]
    assert rep.to_csv().split("\n")[0] == "id,module,inputs,computed,reference,tol,status"
