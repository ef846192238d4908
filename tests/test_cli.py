import dataclasses
import json
import subprocess
import sys

import pytest

from quadprimes import cli
from quadprimes.cli import build_parser, exact_int, main
from quadprimes.report import VerificationReport
from quadprimes.verify import SuiteParams


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


def test_sum_alpha_row(capsys):
    code, out, _ = run_cli(capsys, "sum", "--x", "1000", "--alpha", "0.25")
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().split("\n")[1:])
    assert float(rows["lhs_alpha_0.25"]) > 0.0


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


@pytest.mark.parametrize("argv, names", [
    (["--x", "nan"], "x = nan"),
    (["--x", "inf"], "x = inf"),
    (["--x=-inf"], "x = -inf"),
    (["--x", "1e5", "--alpha", "nan"], "alpha = nan"),
    (["--x", "1e5", "--alpha", "inf"], "alpha = inf"),
])
def test_sum_non_finite_input_is_usage_error(capsys, argv, names):
    code, out, err = run_cli(capsys, "sum", *argv)
    assert code == 2
    assert out == ""
    assert names in err


@pytest.mark.parametrize("d", ["1", "2"])
def test_sum_alpha_too_large_is_usage_error(capsys, d):
    """(log n)**(1 - alpha) overflows at n = 2 (d = 1) or is 0 at n = 3
    (d = 2): each exits 2 naming alpha, not with a traceback or errno."""
    code, out, err = run_cli(capsys, "sum", "--x", "1e5", "--d", d,
                             "--alpha", "10000")
    assert code == 2
    assert out == ""
    assert "alpha = 10000.0 is too large" in err


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


@pytest.mark.parametrize("n", ["3000000", "1e12"])
def test_psi_beyond_limit_is_usage_error(capsys, n):
    code, out, err = run_cli(capsys, "psi", "--n", n)
    assert code == 2
    assert out == ""
    assert "exceeds 2000000" in err


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


def test_each_verify_flag_reaches_its_field(monkeypatch, capsys):
    """verify builds SuiteParams from the fields' names: each flag, given a
    value other than its default, lands in the field of its name, and
    without flags every field keeps its default."""
    seen = []
    monkeypatch.setattr(cli, "run_suite",
                        lambda params: seen.append(params) or VerificationReport())
    want = SuiteParams(x=2e5, d=7, epsilon=0.2, prime_bound=10**6, fi_x=1e7,
                       psi_n=1000)
    assert all(getattr(want, f.name) != getattr(SuiteParams(), f.name)
               for f in dataclasses.fields(SuiteParams))
    assert run_cli(capsys, "verify", "--x", "2e5", "--d", "7",
                   "--epsilon", "0.2", "--prime-bound", "1e6",
                   "--fi-x", "1e7", "--psi-n", "1000")[0] == 0
    assert run_cli(capsys, "verify")[0] == 0
    assert seen == [want, SuiteParams()]


def test_missing_subcommand_exits_2():
    proc = subprocess.run([sys.executable, "-m", "quadprimes"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "quadprimes", "roots",
                           "--n", "5"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n")[1:] == ["5,1,2", "5,1,3"]


# Each subcommand's flags (besides --format and --out) and their defaults.
FLAGS = {
    "verify": {"x": 1e5, "d": 1, "epsilon": 0.1, "prime_bound": 10_000_000,
               "fi_x": 1e8, "psi_n": 20_000},
    "sum": {"x": 1e5, "d": 1, "epsilon": 0.1, "alpha": 0.5},
    "roots": {"n": 100, "d": 1},
    "primes": {"n": 100, "d": 1},
    "constants": {"d": 1, "prime_bound": 10_000_000},
    "nagell": {"d": 1, "x": 100_000},
    "psi": {"n": 100},
    "stats": {"x": 100_000},
}
EVERY_FLAG = {"x", "n", "d", "epsilon", "alpha", "prime_bound", "fi_x",
              "psi_n", "threads"}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_subcommand_takes_only_its_flags(command, capsys):
    args = vars(build_parser().parse_args([command]))
    del args["handler"]
    assert args == {"command": command, "format": "csv", "out": None,
                    **FLAGS[command]}
    for name in EVERY_FLAG - set(FLAGS[command]):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                [command, "--" + name.replace("_", "-"), "1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--threads", "2"],
    ["psi", "--d", "3"],
    ["roots", "--alpha", "1"],
    ["stats", "--prime-bound", "5"],
    ["verify", "--prime", "1e5"],  # no abbreviations
])
def test_flag_of_another_subcommand_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_exact_int_parses_without_rounding():
    assert exact_int("1e6") == 10**6
    assert exact_int("1000000000000000009") == 10**18 + 9


def test_shift_in_e_notation_is_exact(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "1009", "--d", "1e3")
    assert code == 0
    assert out == run_cli(capsys, "roots", "--n", "1009", "--d", "1000")[1]
    assert out.split("\n")[1].startswith("1009,1000,")


def test_primes_of_values_all_below_2_are_empty(capsys):
    code, out, _ = run_cli(capsys, "primes", "--n", "100",
                           "--d", "-100000000000000000000")
    assert code == 0
    assert out == "n,prime\n"
    assert run_cli(capsys, "primes", "--n", "1e9", "--d=-1e18") == \
        (0, "n,prime\n", "")


def test_roots_of_modulus_beyond_double_precision(capsys):
    code, out, _ = run_cli(capsys, "roots", "--n", "1000000000000000009")
    assert code == 0
    assert out.strip().split("\n")[1:] == [
        "1000000000000000009,1,333333333000000003",
        "1000000000000000009,1,666666667000000006"]


@pytest.mark.parametrize("command,flag", [
    ("roots", "--n"), ("primes", "--n"), ("psi", "--n"),
    ("verify", "--prime-bound"), ("constants", "--prime-bound"),
    ("verify", "--psi-n"), ("nagell", "--x"), ("stats", "--x"),
    ("verify", "--d"), ("sum", "--d"), ("roots", "--d"), ("primes", "--d"),
    ("constants", "--d"), ("nagell", "--d"),
])
@pytest.mark.parametrize("value", ["65.7", "nan", "inf", "0x10",
                                   "1e100000000"])
def test_integer_flag_rejects_inexact_value(command, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_verify_with_huge_shift_prints_no_traceback():
    proc = subprocess.run([sys.executable, "-m", "quadprimes", "verify",
                           "--d", "1000000000000", "--x", "1e3",
                           "--prime-bound", "1e4", "--fi-x", "1e4",
                           "--psi-n", "100"], capture_output=True, text=True)
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr


def test_stats_beyond_omega_sieve_limit_exits_2():
    proc = subprocess.run([sys.executable, "-m", "quadprimes", "stats",
                           "--x", "1e15"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


def test_rejected_integer_prints_no_traceback():
    proc = subprocess.run([sys.executable, "-m", "quadprimes", "roots",
                           "--n", "1e100000000"], capture_output=True,
                          text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "argument --n" in proc.stderr


def test_verify_below_x_2_exits_2():
    proc = subprocess.run([sys.executable, "-m", "quadprimes", "verify",
                           "--x", "1"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


def test_psi_beyond_psi_n_limit_exits_2():
    proc = subprocess.run([sys.executable, "-m", "quadprimes", "psi",
                           "--n", "2000001"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.parametrize("command", ["verify", "sum"])
def test_x_beyond_sum_limit_exits_2(command):
    proc = subprocess.run([sys.executable, "-m", "quadprimes", command,
                           "--x", "1e13"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


def test_psi_below_100_exits_2():
    proc = subprocess.run([sys.executable, "-m", "quadprimes", "psi",
                           "--n", "50"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.parametrize("command", ["verify", "constants"])
def test_prime_bound_beyond_sieve_limit_exits_2(command):
    proc = subprocess.run([sys.executable, "-m", "quadprimes", command,
                           "--prime-bound", "1e11"], capture_output=True,
                          text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.parametrize("argv", [["primes", "--n", "1e9"],
                                  ["nagell", "--x", "1e11"]])
def test_beyond_search_bound_exits_2(argv):
    proc = subprocess.run([sys.executable, "-m", "quadprimes", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["roots", "--n", "1e30", "--d", "0"],
    ["roots", "--n", "68314842068663755945783321926605"],
    ["roots", "--n", str(2**40), "--d", str(7 * 2**36)],
])
def test_roots_beyond_roots_limit_exit_2(argv):
    """The error names the --n modulus, not a prime power of it."""
    proc = subprocess.run([sys.executable, "-m", "quadprimes", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"more than 65536 roots mod {exact_int(argv[2])}\n" in proc.stderr


def test_roots_of_modulus_without_roots_print_the_header(capsys):
    # rho(3**24, 3**23) = 0, although 3**11 roots mod 3**23 pass ROOTS_LIMIT
    assert run_cli(capsys, "roots", "--n", "282429536481",
                   "--d", "94143178827") == (0, "modulus,shift,root\n", "")


def test_roots_of_modulus_beyond_factorize_exits_2():
    """A product of two primes near 10**15 and 3 * 10**15: its cofactor after
    the primes up to 97 reaches 2**64, which factorize cannot split."""
    n = "3000000000000148000000000001369"
    proc = subprocess.run([sys.executable, "-m", "quadprimes", "roots",
                           "--n", n], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"error: cannot factor {n}:" in proc.stderr


@pytest.mark.parametrize("argv", [["verify"], ["roots", "--n", "65"]])
def test_out_path_that_cannot_be_opened_exits_2(tmp_path, argv):
    """The path is opened before the computation: verify fails at once, not
    after its whole suite, and without a traceback."""
    dest = tmp_path / "no-such-dir" / "out.csv"
    proc = subprocess.run([sys.executable, "-m", "quadprimes", *argv,
                           "--out", str(dest)], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: cannot write --out {dest}: " \
        "No such file or directory\n"
