import json
import math
import subprocess
import sys

import pytest

from qsum import error_analysis as ea
from qsum.cli import main
from qsum.error_analysis import BoundReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_csv(self, capsys):
        code, out, err = run_cli(capsys, "dist", "--k", "8", "--N", "8", "--M", "3")
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "j,p,alpha"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        assert float(rows[0][1]) == pytest.approx(1 / 9, abs=1e-15)
        assert float(rows[1][1]) == pytest.approx(4 / 9, abs=1e-15)
        assert float(rows[1][2]) == pytest.approx(0.75, abs=1e-14)

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--k", "8", "--N", "8", "--M", "3", "--format", "json"
        )
        payload = json.loads(out)
        assert set(payload) == {"M", "k", "N", "p"}
        assert payload["M"] == 3 and len(payload["p"]) == 3


class TestError:
    def test_integral_sigma_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "error", "--k", "4", "--N", "8", "--M", "4", "--q", "2"
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "k,N,M,q,error"
        assert row == "4,8,4,2,0"

    def test_q_inf_routes_to_sup(self, capsys):
        code, out, _ = run_cli(
            capsys, "error", "--k", "8", "--N", "8", "--M", "3", "--q", "inf"
        )
        assert code == 0
        assert out.strip().split("\n")[1] == "8,8,3,inf,1"

    @pytest.mark.parametrize("text", [" Infinity", "+inf", "1e999"])
    def test_q_inf_spellings(self, capsys, text):
        flags = ("error", "--k", "8", "--N", "8", "--M", "3", "--q")
        assert run_cli(capsys, *flags, text) == run_cli(capsys, *flags, "inf")

    @pytest.mark.parametrize("text", ["nan", "0.5", "0"])
    def test_q_follows_the_library_rule(self, capsys, text):
        # the q rule of numerics._check_q, with its message, and exit code 2
        with pytest.raises(SystemExit) as exc:
            main(["error", "--k", "3", "--N", "7", "--M", "13", "--q", text])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.endswith(
            f"error: argument --q: q must lie in [1, inf), got {float(text)!r}\n"
        )

    def test_near_pole_at_large_M(self, capsys):
        # sigma 1.5e-9 from an integer at M = 20000: past the snap
        # tolerance, so a valid instance with a finite error
        code, out, err = run_cli(
            capsys, "error", "--k", "2947644224045339",
            "--N", "4503599627370496", "--M", "20000", "--q", "1",
        )
        assert code == 0 and err == ""
        error = float(out.strip().split("\n")[1].split(",")[-1])
        assert 0.0 < error < 1e-12

    def test_integer_flags_accept_decimal_literals(self, capsys):
        code, out, _ = run_cli(
            capsys, "error", "--k", "4.0", "--N", "8", "--M", "4.0", "--q", "2"
        )
        assert code == 0
        assert out.strip().split("\n")[1] == "4,8,4,2,0"
        with pytest.raises(SystemExit) as exc:
            main(["error", "--k", "4.5", "--N", "8", "--M", "4", "--q", "2"])
        assert exc.value.code == 2


class TestSweep:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--M-list", "6,22", "--q", "1",
            "--N", "4096", "--count", "128",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "M,q,n_reps,worst_error,argmax_k,argmax_N,normalized_constant"
        assert len(lines) == 3
        m, q, n_reps, worst, k, n, norm = lines[1].split(",")
        assert (m, q, n_reps) == ("6", "1", "0")
        assert float(norm) == pytest.approx(float(worst) * 6 / math.log(6), rel=1e-12)

    def test_reps_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--M-list", "6", "--q", "2",
            "--N", "1024", "--count", "64", "--reps", "3",
        )
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[2] == "3"

    def test_dense_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--M-list", "5", "--q", "1", "--N", "64", "--dense"
        )
        assert code == 0
        assert "dense" in out or float(out.strip().split("\n")[1].split(",")[3]) >= 0

    def test_json_mirrors_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--M-list", "6", "--q", "1",
            "--N", "1024", "--count", "64", "--format", "json",
        )
        (row,) = json.loads(out)
        assert set(row) == {"M", "q", "n_reps", "worst_error", "argmax_k",
                            "argmax_N", "normalized_constant"}


    def test_m_list_follows_the_integer_flag_rule(self, capsys):
        # as --M: decimal literals of integral value pass, others exit 2
        flags = ("--q", "1", "--N", "1024", "--count", "64")
        want = run_cli(capsys, "sweep", "--M-list", "6,22", *flags)
        assert want[0] == 0
        assert run_cli(capsys, "sweep", "--M-list", "6.0, 22,", *flags) == want
        for bad in ("6.5,22", "6,x"):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--M-list", bad, *flags])
            assert exc.value.code == 2

    @pytest.mark.parametrize("N", [2**53 + 1, 2**64 - 1, 2**70])
    def test_grid_n_above_2_53_exits_two(self, capsys, N):
        code, out, err = run_cli(
            capsys, "sweep", "--M-list", "6", "--q", "1", "--N", str(N), "--count", "50"
        )
        assert (code, out) == (2, "")
        assert f"grid N must be at most 2^53, got {N}" in err


class TestReps:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "reps", "--k", "8", "--N", "8", "--M", "3", "--q", "1", "--n", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["error"] == pytest.approx(67 / 243, abs=1e-13)
        assert len(payload["atoms"]) == 2
        assert payload["atoms"][0][1] == pytest.approx(25 / 729, abs=1e-13)


class TestMc:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "mc", "--k", "8", "--N", "8", "--M", "3", "--q", "1",
            "--n", "0", "--runs", "20000", "--seed", "11",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 11 and payload["draws"] == 20000
        assert abs(payload["empirical_error_q"] - 1 / 3) <= 4 * payload["standard_error"]

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--k", "8", "--N", "8", "--M", "3", "--q", "1",
                  "--n", "0", "--runs", "100"])
        assert exc.value.code == 2

    def test_n_above_max_exits_two_like_reps(self, capsys):
        instance = ("--k", "3", "--N", "7", "--M", "13", "--q", "1", "--n", "65")
        code, out, err = run_cli(capsys, "mc", *instance, "--runs", "1000", "--seed", "1")
        assert (code, out, err) == (2, "", "error: n must lie in [0, 64], got 65\n")
        assert run_cli(capsys, "reps", *instance) == (code, out, err)


class TestVerify:
    def test_q1_suite_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "q1", "--trials", "25", "--seed", "7"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,N,M,q,observed,main_term,slack,satisfied"
        assert len(lines) == 26
        assert all(line.endswith(",true") for line in lines[1:])

    def test_reps_suite_deterministic(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--theorem", "reps")
        assert code == 0
        assert len(out.strip().split("\n")) == 5  # header + 2 rows per q

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--theorem", "q1", "--trials", "5", "--seed", "7",
            "--format", "json",
        )
        rows = json.loads(out)
        assert len(rows) == 5
        assert set(rows[0]) == {"k", "N", "M", "q", "observed", "main_term",
                                "slack", "satisfied"}

    def test_seed_required_for_stochastic(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "q1"])
        assert exc.value.code == 2

    def test_needs_theorem_or_all(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2

    def test_violation_exits_one(self, capsys, monkeypatch):
        def broken(inst, integer_tol=1e-9):
            return BoundReport(1.0, 0.0, 0.0, False, (inst.k, inst.N, inst.M, 1.0))

        monkeypatch.setattr(ea, "check_l1_log_bound", broken)
        code, out, err = run_cli(
            capsys, "verify", "--theorem", "q1", "--trials", "3", "--seed", "1"
        )
        assert code == 1
        assert "false" in out
        assert "violated" in err


class TestProcessLevel:
    def test_unknown_flag_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsum.cli", "dist", "--bogus", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_entrypoint_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsum.cli", "error", "--k", "4", "--N", "8",
             "--M", "4", "--q", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.endswith("4,8,4,2,0\n")

    def test_domain_error_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsum.cli", "error", "--k", "9", "--N", "8",
             "--M", "4", "--q", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "error" in proc.stderr


def _csv_cell(value) -> str:
    """How the CSV writer prints a JSON value: floats to 17 digits, bools
    in lowercase, strings and ints as they are."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


class TestJsonMirrorsCsv:
    @pytest.mark.parametrize(
        "argv",
        [
            ("error", "--k", "3", "--N", "17", "--M", "7", "--q", "2"),
            ("error", "--k", "3", "--N", "17", "--M", "7", "--q", "inf"),
            ("sweep", "--M-list", "6,7", "--q", "1.5", "--N", "1024", "--count", "64"),
            ("sweep", "--M-list", "6", "--q", "inf", "--N", "1024", "--count", "64"),
            ("sweep", "--M-list", "6", "--q", "2", "--N", "1024", "--count", "64",
             "--reps", "2"),
            ("mc", "--k", "3", "--N", "17", "--M", "7", "--q", "2", "--n", "1",
             "--runs", "1000", "--seed", "5"),
            ("verify", "--theorem", "q1", "--trials", "4", "--seed", "3"),
            ("verify", "--theorem", "qgt1", "--trials", "5", "--seed", "3"),
        ],
        ids=lambda argv: "-".join(argv[:3]),
    )
    def test_cells_match(self, capsys, argv):
        code_csv, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
        code_json, out_json, _ = run_cli(capsys, *argv, "--format", "json")
        assert code_csv == code_json == 0
        header, *lines = out_csv.rstrip("\n").split("\n")
        payload = json.loads(out_json)
        rows = payload if isinstance(payload, list) else [payload]
        assert len(rows) == len(lines) > 0
        for row, line in zip(rows, lines):
            assert list(row) == header.split(",")
            assert [_csv_cell(v) for v in row.values()] == line.split(",")

    def test_zero_trials(self, capsys):
        argv = ("verify", "--theorem", "q1", "--trials", "0", "--seed", "1")
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, "k,N,M,q,observed,main_term,slack,satisfied\n")
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert (code, json.loads(out)) == (0, [])


class TestNegativeReps:
    def test_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--M-list", "6", "--q", "1", "--N", "4096",
            "--count", "64", "--reps", "-2",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
