"""Command-line interface: formats, exit codes, determinism, config merging."""

import json

import numpy as np
import pytest

from wva_costlab.cli import main

THETA = str(np.pi / 6)
ALPHA = str(-np.pi / 6)
THETA_DOMAIN_ERROR = "wva-costlab: error: --theta must lie in (0, pi/4]"


def read(path):
    return path.read_text(encoding="utf-8")


class TestCurve:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--theta", THETA, "--out", str(out)]) == 0
        lines = read(out).splitlines()
        assert lines[0] == "theta,coherence_l1,alpha,cp_norm,cm_norm,slack"
        first = lines[1].split(",")
        assert float(first[3]) == pytest.approx(1.0, abs=1e-9)
        assert float(first[4]) == pytest.approx(0.25, abs=1e-9)
        cps = [float(line.split(",")[3]) for line in lines[1:]]
        assert cps == sorted(cps)
        assert read(out).endswith("\n")

    def test_maximal_coherence_first_row(self, capsys):
        assert main(["curve", "--theta", str(np.pi / 4)]) == 0
        lines = capsys.readouterr().out.splitlines()
        first = lines[1].split(",")
        assert float(first[3]) == pytest.approx(1.0, abs=1e-9)
        assert float(first[4]) == pytest.approx(0.0, abs=1e-9)

    def test_json_format(self, tmp_path):
        out = tmp_path / "curve.json"
        assert main(["curve", "--theta", THETA, "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(read(out))
        assert rows[0]["cp_norm"] == pytest.approx(1.0, abs=1e-9)
        assert {"theta", "coherence_l1", "alpha", "cp_norm", "cm_norm", "slack"} <= set(
            rows[0]
        )

    def test_invalid_theta_exits_1(self, tmp_path):
        out = tmp_path / "never.csv"
        assert main(["curve", "--theta", "0", "--out", str(out)]) == 1
        assert not out.exists()

    def test_missing_theta_exits_1(self):
        assert main(["curve"]) == 1

    def test_unwritable_path_exits_2(self, tmp_path):
        target = tmp_path / "missing-dir" / "curve.csv"
        assert main(["curve", "--theta", THETA, "--out", str(target)]) == 2


class TestSimulate:
    ARGS = [
        "simulate",
        "--theta",
        THETA,
        "--alpha",
        ALPHA,
        "--g",
        "0.0349",
        "--nu",
        "80",
        "--reps",
        "60",
        "--seed",
        "7",
    ]

    def test_report_keys_and_values(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        payload = json.loads(read(out))
        expected_keys = {
            "g_true",
            "theta",
            "alpha",
            "nu",
            "n_reps",
            "seed",
            "g_est_mean",
            "g_est_var",
            "fm_empirical",
            "fm_exact",
            "p_empirical",
            "p_exact",
            "cp_norm_emp",
            "cm_norm_emp",
            "slack_emp",
            "degenerate",
        }
        assert expected_keys <= set(payload)
        assert payload["nu"] == 80
        assert payload["p_exact"] == pytest.approx(0.2509131, abs=1e-6)
        assert not payload["degenerate"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ta, tb = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a), "--trials-out", str(ta)]) == 0
        assert main(self.ARGS + ["--out", str(b), "--trials-out", str(tb)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert ta.read_bytes() == tb.read_bytes()

    def test_trials_csv_shape(self, tmp_path):
        trials = tmp_path / "trials.csv"
        assert main(self.ARGS + ["--trials-out", str(trials), "--out", str(tmp_path / "r.json")]) == 0
        lines = read(trials).splitlines()
        assert lines[0] == "trial,n_prepared,n_postselected,n_plus,n_minus,g_est"
        assert len(lines) == 61
        trial0 = lines[1].split(",")
        assert trial0[0] == "0" and int(trial0[2]) == 80

    def test_single_rep_reports_nulls(self, tmp_path):
        out = tmp_path / "single.json"
        args = [a if a != "60" else "1" for a in self.ARGS]
        assert main(args + ["--out", str(out)]) == 0
        payload = json.loads(read(out))
        assert payload["g_est_var"] is None
        assert payload["fm_empirical"] is None

    def test_degenerate_zero_coupling(self, tmp_path):
        out = tmp_path / "degenerate.json"
        args = [a if a != "0.0349" else "0.0" for a in self.ARGS]
        assert main(args + ["--out", str(out)]) == 0
        payload = json.loads(read(out))
        assert payload["degenerate"] is True
        assert payload["fm_empirical"] is None

    def test_missing_required_flag_exits_1(self):
        assert main(["simulate", "--theta", THETA]) == 1

    def test_nan_coupling_exits_1(self, capsys):
        args = ["simulate", "--theta", THETA, "--alpha", ALPHA, "--g", "nan", "--reps", "20"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1


    @pytest.mark.parametrize("g", ["-0.05", "1.2"])
    def test_coupling_outside_estimator_range_exits_1(self, g, capsys):
        args = ["simulate", "--theta", THETA, "--alpha", ALPHA, "--g", g, "--reps", "20"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "g_max" in captured.err

    def test_theta_outside_domain_exits_1(self, capsys):
        assert main(["simulate", "--theta", "1.0", "--alpha", ALPHA, "--g", "0.0349"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [THETA_DOMAIN_ERROR]


class TestQfi:
    def test_payload(self, tmp_path):
        out = tmp_path / "qfi.json"
        code = main(
            ["qfi", "--theta", THETA, "--alpha", ALPHA, "--g", "1e-3", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(read(out))
        assert payload["qfi_conventional"] == pytest.approx(4.0)
        assert payload["a_w_real"] == pytest.approx(2.0, abs=1e-9)
        assert payload["f_m_leading"] == pytest.approx(4.0, abs=1e-9)
        assert payload["fm_exact"] == pytest.approx(16.0, abs=1e-2)
        assert payload["region"] == "advantage"

    def test_infinite_alpha_exits_1(self, capsys):
        assert main(["qfi", "--theta", THETA, "--alpha", "inf", "--g", "1e-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("theta", ["1.0", "0", "-0.3", "nan"])
    def test_theta_outside_domain_exits_1(self, theta, capsys):
        assert main(["qfi", "--theta", theta, "--alpha", ALPHA, "--g", "1e-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [THETA_DOMAIN_ERROR]

    def test_non_finite_rate_exits_1(self, capsys):
        assert main(["qfi", "--theta", THETA, "--alpha", ALPHA, "--g", "1e-3", "--rp", "nan"]) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_invalid_scenario_exits_1(self):
        orthogonal = str(np.pi / 6 + np.pi / 2)
        assert main(["qfi", "--theta", THETA, "--alpha", orthogonal, "--g", "0"]) == 1


class TestVerify:
    def test_all_suites_pass(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 0
        payload = json.loads(read(out))
        assert payload["all_passed"] is True
        assert len(payload["suites"]) == 4

    def test_suite_filter(self, tmp_path):
        out = tmp_path / "one.json"
        assert main(["verify", "--suite", "overlap-identity", "--out", str(out)]) == 0
        payload = json.loads(read(out))
        assert [s["name"] for s in payload["suites"]] == ["overlap-identity"]

    def test_theta_grid_override(self, tmp_path):
        out = tmp_path / "grid.json"
        code = main(
            ["verify", "--suite", "tradeoff-bound", "--theta-grid", "3", "--out", str(out)]
        )
        assert code == 0

    def test_published_bound_compat_fails(self, tmp_path):
        out = tmp_path / "compat.json"
        code = main(
            ["verify", "--suite", "tradeoff-bound", "--compat-printed-bound", "--out", str(out)]
        )
        assert code == 3
        payload = json.loads(read(out))
        suite = payload["suites"][0]
        assert suite["passed"] is False
        assert suite["detail"]["sound"] is True
        assert suite["detail"]["saturated"] is False

    def test_unknown_suite_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "bogus"])
        assert err.value.code == 1


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"theta": 0.1, "format": "json"}))
        out = tmp_path / "curve.json"
        code = main(["curve", "--config", str(cfg), "--theta", THETA, "--out", str(out)])
        assert code == 0
        rows = json.loads(read(out))
        assert rows[0]["theta"] == pytest.approx(np.pi / 6)

    def test_config_supplies_missing_values(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"theta": np.pi / 6}))
        out = tmp_path / "curve.csv"
        assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 0

    def test_bad_config_exits_1(self, tmp_path):
        assert main(["curve", "--config", str(tmp_path / "nope.json"), "--theta", THETA]) == 1


class TestArgumentErrors:
    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as err:
            main(["curve", "--bogus", "1"])
        assert err.value.code == 1
