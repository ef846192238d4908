import json
import subprocess
import sys

import pytest

from quadprimes.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_csv(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "65")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "modulus,shift,root"
    assert lines[1:] == ["65,1,8", "65,1,18", "65,1,47", "65,1,57"]


def test_roots_json(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "65", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["root"] for r in rows] == [8, 18, 47, 57]


def test_primes_table(capsys):
    code, out, _ = run_cli(capsys, "primes", "--n", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,prime"
    assert lines[1] == "1,2"
    assert lines[-1] == "10,101"


def test_nagell_table(capsys):
    code, out, _ = run_cli(capsys, "nagell", "--d", "28", "--x", "100")
    assert code == 0
    assert "10,2,7" in out.strip().split("\n")


def test_nagell_bad_shift_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "nagell", "--d", "0")
    assert code == 2
    assert "error:" in err


def test_sum_csv(capsys):
    code, out, _ = run_cli(capsys, "sum", "--x", "1000")
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
    assert float(rows["lhs"]) == pytest.approx(float(rows["rhs_total"]),
                                               rel=1e-9)


def test_sum_at_1e9_factors_values_without_spf_table(capsys):
    code, out, err = run_cli(capsys, "sum", "--x", "1e9")
    assert code == 0, err
    rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
    lhs, rhs = float(rows["lhs"]), float(rows["rhs_total"])
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_sum_beyond_63_bits_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sum", "--x", "1e30")
    assert code == 2
    assert "error:" in err


def test_constants_json(capsys):
    code, out, _ = run_cli(capsys, "constants", "--prime-bound", "1e5",
                           "--format", "json")
    assert code == 0
    rows = {r["name"]: r for r in json.loads(out)}
    assert abs(rows["hardy_littlewood"]["averaged"] - 1.3727) < 0.05
    assert abs(rows["kappa_gamma"]["raw"]
               - rows["kappa_quadrature"]["raw"]) < 1e-8


def test_stats_histogram(capsys):
    code, out, _ = run_cli(capsys, "stats", "--x", "10")
    assert code == 0
    assert out.strip().split("\n") == ["k,pi_k", "0,1", "1,7", "2,2"]


def test_psi_table(capsys):
    code, out, err = run_cli(capsys, "psi", "--n", "500")
    assert code == 0
    assert out.startswith("n,psi,residual\n")
    assert "fitted_slope" in err


def test_verify_writes_report(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "verify", "--x", "1e4",
                           "--prime-bound", "1e5", "--fi-x", "1e6",
                           "--psi-n", "20000", "--format", "json",
                           "--out", str(dest))
    assert code == 0, err
    report = json.loads(dest.read_text())
    assert report["status"] == "pass"
    assert all(c["status"] == "pass" for c in report["checks"])
    # one status line per check on stderr
    assert len([l for l in err.strip().split("\n") if l]) \
        == len(report["checks"])


def test_missing_subcommand_exits_2():
    proc = subprocess.run([sys.executable, "-m", "quadprimes"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "quadprimes", "roots",
                           "--n", "5"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n")[1:] == ["5,1,2", "5,1,3"]
