"""Command-line interface: formats, exit codes, determinism, per-subcommand flags."""

import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

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

    def test_missing_theta_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["curve"])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "wva-costlab curve: error: the following arguments are required: --theta\n"
        )

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

    def test_unwritable_report_leaves_no_trials_file(self, tmp_path, capsys):
        trials = tmp_path / "trials.csv"
        report = tmp_path / "missing-dir" / "r.json"
        assert main(self.ARGS + ["--trials-out", str(trials), "--out", str(report)]) == 2
        assert not trials.exists() and list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err.startswith(f"wva-costlab: cannot write {report}")

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

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--theta", THETA])
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.endswith("error: the following arguments are required: --alpha, --g\n")

    def test_all_clipped_campaign_reports_degenerate(self, tmp_path):
        out = tmp_path / "clipped.json"
        args = ["simulate", "--theta", "0.5236", "--alpha", "-0.5236", "--g", "0.05",
                "--nu", "1", "--reps", "50", "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        payload = json.loads(read(out))
        assert payload["degenerate"] is True
        assert payload["g_est_var"] > 0.0
        for key in ("fm_empirical", "cp_norm_emp", "cm_norm_emp", "slack_emp"):
            assert payload[key] is None

    def test_nan_coupling_exits_1(self, capsys):
        args = ["simulate", "--theta", THETA, "--alpha", ALPHA, "--g", "nan", "--reps", "20"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["wva-costlab: error: --g must be finite"]

    def test_nan_alpha_exits_1(self, capsys):
        args = ["simulate", "--theta", THETA, "--alpha", "nan", "--g", "0.05", "--reps", "20"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["wva-costlab: error: --alpha must be finite"]


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
        assert payload["weak_regime_margin"] == pytest.approx(2e-3, rel=1e-6)
        assert payload["in_weak_regime"] is True

    def test_weak_regime_flag_follows_the_margin(self, tmp_path):
        # margin g |A_w| Omega with A_w = 2: inside the limit 0.1 at g = 0.0349, outside at 0.06
        out = tmp_path / "qfi.json"
        for g, margin, inside in (("0.0349", 0.0698, True), ("0.06", 0.12, False)):
            assert main(["qfi", "--theta", THETA, "--alpha", ALPHA, "--g", g, "--out", str(out)]) == 0
            payload = json.loads(read(out))
            assert payload["weak_regime_margin"] == pytest.approx(margin, rel=1e-6)
            assert payload["in_weak_regime"] is inside

    @pytest.mark.parametrize("alpha", ["inf", "-inf"])
    def test_infinite_alpha_exits_1(self, alpha, capsys):
        assert main(["qfi", "--theta", THETA, "--alpha", alpha, "--g", "1e-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "wva-costlab: error: --alpha must be finite\n"

    def test_nan_coupling_names_the_flag(self, capsys):
        assert main(["qfi", "--theta", THETA, "--alpha", ALPHA, "--g", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["wva-costlab: error: --g must be finite"]

    def test_degenerate_postselection_angle_exits_1(self, capsys):
        # alpha = pi/2 - theta: cos(alpha + theta) vanishes and the conditional
        # readout law is undefined, although p and fm_exact are finite there
        argv = ["qfi", "--theta", "0.6283185307179586", "--alpha", "0.9424777960769379"]
        assert main([*argv, "--g", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "wva-costlab: error: conditional_outcome_model: degenerate pre/postselection pair"
        ]

    @pytest.mark.parametrize("flag", ["--alpha", "--g"])
    def test_negative_value_with_an_exponent_is_the_flags_value(self, flag, capsys):
        outputs = []
        for spelling in ("-1e-05", "-0.00001"):
            argv = {"--theta": "0.5", "--alpha": "-0.5", "--g": "0.01", flag: spelling}
            assert main(["qfi", *(token for pair in argv.items() for token in pair)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])[flag[2:]] == -1e-05

    def test_margin_beyond_the_float_range_exits_1(self, capsys):
        assert main(["qfi", "--theta", "0.5", "--alpha", "-0.5", "--g", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "wva-costlab: error: weak_regime_margin: g |A_w| Omega overflows the float range\n"
        )

    def test_two_overlaps_per_query(self, monkeypatch, capsys):
        # the result's a_w and weak_regime_margin each form <sf|si>; in_weak_regime
        # compares the margin the query already has
        module = importlib.import_module("wva_costlab.postselect")
        calls = []
        original = module._overlap
        monkeypatch.setattr(module, "_overlap", lambda *a: calls.append(a) or original(*a))
        assert main(["qfi", "--theta", THETA, "--alpha", ALPHA, "--g", "1e-3"]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("theta", ["1.0", "0", "-0.3", "nan"])
    def test_theta_outside_domain_exits_1(self, theta, capsys):
        assert main(["qfi", "--theta", theta, "--alpha", ALPHA, "--g", "1e-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [THETA_DOMAIN_ERROR]

    def test_invalid_scenario_exits_1(self):
        orthogonal = str(np.pi / 6 + np.pi / 2)
        assert main(["qfi", "--theta", THETA, "--alpha", orthogonal, "--g", "0"]) == 1

    # At g = 4.047e-4 the readout information is F_m too, although its plus
    # outcome has conditional probability 8e-18: only an outcome with p = 0 is skipped.
    @pytest.mark.parametrize(
        "g, fm_exact, region",
        [("1.485e-7", 10965.425272478, "advantage"), ("4.047e-4", 1.98791859e-10, "trivial")],
    )
    def test_pair_inside_the_overlap_floor_reports_null_weak_value_fields(
        self, g, fm_exact, region, capsys
    ):
        # |<sf|si>| = 9.9993e-13 is under the weak value's 1e-12 overlap floor, while
        # |cos(alpha - theta)| = 1.00003e-12 is just over the readout's 1e-12 degeneracy
        # edge. F_m = 4 |<sf|si>|^2 cos^2(alpha + theta) / p^2; eps = |<sf|si>| is the
        # difference of amplitudes near 0.43, so the kernel resolves it to about 1e-4.
        argv = ["qfi", "--theta", "0.5235987755982988", "--alpha", "-1.0471975511975977"]
        assert main([*argv, "--g", g]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("a_w_real", "a_w_imag", "fm_leading", "weak_regime_margin", "in_weak_regime"):
            assert payload[key] is None
        assert payload["fm_exact"] == pytest.approx(fm_exact, rel=1e-3)
        assert payload["f_m_exact"] == pytest.approx(payload["p_exact"] * fm_exact, rel=1e-3)
        assert payload["region"] == region
        assert payload["cfi_conditional"] == pytest.approx(payload["fm_exact"], rel=1e-12)


class TestVerify:
    def test_all_suites_pass(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 0
        payload = json.loads(read(out))
        assert payload["all_passed"] is True
        assert [s["name"] for s in payload["suites"]] == [
            "overlap-identity", "tradeoff-bound", "incoherent-ceiling", "oracle-agreement",
            "conventional-information", "leading-order", "weighted-ceiling",
        ]
        # each suite names its worst point in finite JSON numbers
        located = [v for s in payload["suites"] for v in s["detail"]["worst_at"].values()]
        located += payload["suites"][1]["detail"]["saturation_gap_at"].values()
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in located)

    def test_suite_filter(self, tmp_path):
        out = tmp_path / "one.json"
        assert main(["verify", "--suite", "overlap-identity", "--out", str(out)]) == 0
        payload = json.loads(read(out))
        assert [s["name"] for s in payload["suites"]] == ["overlap-identity"]

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

    @pytest.mark.parametrize("seed, reason", [("-1", "must be >= 0"),
                                              (str(2**64), "must fit in 64 bits")])
    def test_seed_outside_64_bits_exits_1_with_one_line(self, seed, reason, tmp_path, capsys):
        out = tmp_path / "never.json"
        assert main(["verify", "--seed", seed, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"wva-costlab: error: run_suites: seed {reason}\n"
        assert not out.exists()


class TestArgumentErrors:
    """Every invalid argument exits 1 with one error line and writes nothing."""

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert re.fullmatch(r"wva-costlab( \w+)?: error: [^\n]+\n", err), err

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1
        self.assert_one_error_line(capsys)

    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["curve", "--bogus", "1"])
        assert err.value.code == 1
        self.assert_one_error_line(capsys)


class TestConfigValidation:
    """Each value the old config file could set is checked by its flag.

    A bad value exits 1 with one error line naming the flag and writes no file.
    """

    SCENARIO = ["--theta", "0.5", "--alpha", "-0.5", "--g", "0.0349", "--reps", "3"]

    def run(self, tmp_path, capsys, command, *flags):
        out = tmp_path / "out.txt"
        try:
            code = main([command, "--out", str(out), *flags])
        except SystemExit as exit_:
            code = exit_.code
        return code, capsys.readouterr().err, out.exists()

    def assert_rejected(self, result, flag):
        code, err, wrote = result
        assert code == 1
        assert re.fullmatch(r"wva-costlab( \w+)?: error: [^\n]+\n", err), err
        assert flag in err
        assert "Traceback" not in err and not wrote

    def test_non_numeric_theta(self, tmp_path, capsys):
        self.assert_rejected(self.run(tmp_path, capsys, "curve", "--theta", "abc"), "--theta")

    def test_non_integer_nu(self, tmp_path, capsys):
        result = self.run(tmp_path, capsys, "simulate", *self.SCENARIO, "--nu", "x")
        self.assert_rejected(result, "--nu")

    @pytest.mark.parametrize("key, value", [("nu", 5), ("rp", 2)])
    def test_key_of_another_subcommand(self, key, value, tmp_path, capsys):
        result = self.run(tmp_path, capsys, "curve", "--theta", "0.5", f"--{key}", str(value))
        self.assert_rejected(result, f"--{key}")
        assert "unrecognized arguments" in result[1]

    def test_format_outside_choices(self, tmp_path, capsys):
        result = self.run(tmp_path, capsys, "curve", "--theta", "0.5", "--format", "xml")
        self.assert_rejected(result, "--format")

    @pytest.mark.parametrize("value", ["yes", 1, None])
    def test_non_boolean_compat_flag(self, value, tmp_path, capsys):
        flag = f"--compat-printed-bound={value}"
        result = self.run(tmp_path, capsys, "curve", "--theta", "0.5", flag)
        self.assert_rejected(result, "--compat-printed-bound")

    @pytest.mark.parametrize("value", ["bogus", ["overlap-identity", "bogus"], []])
    def test_unknown_suite(self, value, tmp_path, capsys):
        names = [value] if isinstance(value, str) else value
        flags = [flag for name in names for flag in ("--suite", name)] or ["--suite"]
        self.assert_rejected(self.run(tmp_path, capsys, "verify", *flags), "--suite")

    def test_valid_values_parse_as_their_flags(self, tmp_path, capsys):
        flags = ["--theta", "0.5", "--compat-printed-bound", "--format", "json"]
        code, _, wrote = self.run(tmp_path, capsys, "curve", *flags)
        assert code == 0 and wrote
        rows = json.loads(read(tmp_path / "out.txt"))
        assert rows[0]["theta"] == 0.5
        assert max(row["slack"] for row in rows) > 0.1  # the published, unsaturated form
        code, _, _ = self.run(tmp_path, capsys, "verify", "--suite", "overlap-identity", "--seed", "5")
        assert code == 0
        payload = json.loads(read(tmp_path / "out.txt"))
        assert [suite["name"] for suite in payload["suites"]] == ["overlap-identity"]


class TestSubcommandFlags:
    QFI = ["qfi", "--theta", THETA, "--alpha", ALPHA, "--g", "1e-3"]
    SIMULATE = ["simulate", "--theta", THETA, "--alpha", ALPHA, "--g", "0.0349", "--reps", "3"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--theta", THETA, "--nu", "5"],
            ["curve", "--theta", THETA, "--reps", "3"],
            ["curve", "--theta", THETA, "--seed", "9"],
            ["curve", "--theta", THETA, "--trials-out", "trials.csv"],
            ["curve", "--theta", THETA, "--alpha", ALPHA],
            ["curve", "--theta", THETA, "--n", "3"],
            QFI + ["--nu", "5"],
            QFI + ["--rp", "2"],
            QFI + ["--format", "json"],
            QFI + ["--compat-printed-bound"],
            SIMULATE + ["--format", "csv"],
            SIMULATE + ["--compat-printed-bound"],
            SIMULATE + ["--suite", "tradeoff-bound"],
            SIMULATE + ["--rm", "1"],
            ["verify", "--theta", THETA],
            ["verify", "--se", "3"],  # not an abbreviation of --seed
            ["verify", "--rp", "2"],
            ["verify", "--trials-out", "trials.csv"],
            ["curve", "--theta", THETA, "--config", "x.json", "--out", "out.csv"],
            QFI + ["--config", "x.json", "--out", "out.json"],
            SIMULATE + ["--config", "x.json", "--out", "out.json"],
            ["verify", "--config", "x.json", "--out", "out.json"],
            ["verify", "--suite", "tradeoff-bound", "--theta-grid", "3"],  # the panel is fixed
        ],
    )
    def test_flag_of_another_subcommand_exits_1(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert stderr.count("\n") == 1
        assert stderr.startswith("wva-costlab: error: unrecognized arguments")
        assert list(tmp_path.iterdir()) == []

    def test_documented_invocations_parse(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["curve", "--theta", THETA, "--format", "json", "--compat-printed-bound",
                     "--out", out]) == 0
        assert main(self.QFI + ["--out", out]) == 0
        assert main(self.SIMULATE + ["--nu", "20", "--seed", "4", "--trials-out", out + ".csv",
                                     "--out", out]) == 0
        assert main(["verify", "--suite", "overlap-identity", "--seed", "5",
                     "--compat-printed-bound", "--out", out]) == 0


def test_qfi_and_curve_leave_numpy_random_unimported(tmp_path):
    # numpy.random costs every CLI process about 15 ms to import; only the
    # trial sampler needs it, so it is imported on the first trial.
    code = (
        "import sys\n"
        "from wva_costlab.cli import main\n"
        f"assert main(['qfi', '--theta', {THETA!r}, '--alpha', {ALPHA!r}, '--g', '1e-3']) == 0\n"
        f"assert main(['curve', '--theta', {THETA!r}, '--out', {str(tmp_path / 'c.csv')!r}]) == 0\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
