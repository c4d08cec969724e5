import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from qsdctl.cli import main
from qsdctl.errors import HypothesisFailureWarning
from qsdctl.manifest import file_sha256


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypothesisFailureWarning)
        yield


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestValidate:
    def test_clean_model_exit_zero(self, capsys):
        assert main(["validate", "culling"]) == 0
        out = capsys.readouterr().out
        assert "birth-linear-bound: pass" in out
        assert "death-superlinear-lower: pass" in out

    def test_failing_model_still_exit_zero(self, capsys):
        assert main(["validate", "pure_death"]) == 0
        out = capsys.readouterr().out
        assert "death-superlinear-lower: fail" in out

    def test_strict_turns_failures_into_exit_one(self):
        assert main(["validate", "pure_death", "--strict"]) == 1
        assert main(["validate", "culling", "--strict"]) == 0

    def test_unknown_model_exit_one(self, capsys):
        assert main(["validate", "unobtainium"]) == 1
        assert "error:" in capsys.readouterr().err


class TestUsageErrors:
    def test_missing_required_arg(self, capsys):
        # argparse wants exit 2 for usage errors; 2 is reserved, so 1
        assert main(["solve", "culling"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "culling"]) == 1

    def test_bad_rule_spec(self, tmp_path, capsys):
        rc = main(["simulate", "culling", "--x0", "2", "--seed", "1",
                   "--rule", "sometimes:0", "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown rule kind" in capsys.readouterr().err


class TestQsd:
    def test_writes_triple_and_manifest(self, tmp_path, capsys):
        rc = main(["qsd", "culling", "--control", "cull",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        lam_line = [l for l in out.splitlines()
                    if l.startswith("lambda_per_s")][0]
        lam = float(lam_line.split("=")[1])
        assert lam == pytest.approx(0.9290248887341586, abs=1e-9)

        header, rows = read_csv(tmp_path / "qsd.csv")
        assert header == ["state", "pi_prob", "eta_shape"]
        assert len(rows) == 6
        pi = np.array([float(r[1]) for r in rows])
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)

        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["argv"][0] == "qsdctl"
        assert man["argv"][1] == "qsd"
        assert len(man["inputs"]) == 1
        key = str(tmp_path / "qsd.csv")
        assert man["outputs"][key] == file_sha256(tmp_path / "qsd.csv")
        assert man["versions"]["qsdctl"]

    def test_sweep(self, tmp_path):
        rc = main(["qsd", "culling", "--control", "1", "--sweep", "4,6",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == ["level", "lambda_per_s", "lambda_gap_per_s",
                          "tv_to_largest"]
        assert [r[0] for r in rows] == ["4", "6"]
        assert float(rows[1][2]) == 0.0

    def test_control_file(self, tmp_path):
        cf = tmp_path / "controls.txt"
        cf.write_text("keep cull keep cull keep cull\n")
        rc = main(["qsd", "culling", "--control-file", str(cf),
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_control_file_wrong_length(self, tmp_path, capsys):
        cf = tmp_path / "controls.txt"
        cf.write_text("keep cull\n")
        rc = main(["qsd", "culling", "--control-file", str(cf),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "window needs 6" in capsys.readouterr().err


class TestSolve:
    def test_value_and_policy(self, tmp_path, capsys):
        rc = main(["solve", "culling", "--beta", "0.3", "--mode", "min",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "beta_per_s = 0.2999" in out
        assert "hjb_residual" in out
        header, rows = read_csv(tmp_path / "value.csv")
        assert header == ["state", "value", "action"]
        assert rows[0] == ["0", "0", ""]
        assert all(r[2] in ("keep", "cull") for r in rows[1:])

    def test_max_mode_prints_transversality(self, tmp_path, capsys):
        rc = main(["solve", "culling", "--beta", "0.3", "--mode", "max",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "transversality_margin_per_s" in capsys.readouterr().out

    def test_refusal_exit_two(self, tmp_path, capsys):
        rc = main(["solve", "culling", "--beta", "0.95", "--mode", "min",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("refused:")
        assert "[beta exceeds truncated lambda-star]" in err


class TestSimulate:
    def test_summary_deterministic_across_dirs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "culling", "--x0", "3", "--seed", "9",
                "--samples", "40", "--control", "cull", "--paths"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "summary.csv").read_bytes() == \
               (b / "summary.csv").read_bytes()
        assert (a / "paths.csv").read_bytes() == (b / "paths.csv").read_bytes()

    def test_summary_layout(self, tmp_path, capsys):
        rc = main(["simulate", "culling", "--x0", "2", "--seed", "4",
                   "--samples", "10", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "summary.csv")
        assert header == ["trajectory", "terminal", "final_time_s",
                          "final_state", "jump_count", "extinction_time_s"]
        assert len(rows) == 10
        for r in rows:
            assert r[1] in ("absorbed", "horizon-reached",
                            "state-cap-reached")
            if r[1] == "absorbed":
                assert r[3] == "0"
                assert r[5] == r[2]
        man = json.loads((tmp_path / "manifest.json").read_text())
        assert man["seed"] == 4

    def test_rule_goes_through_thinning(self, tmp_path, capsys):
        rc = main(["simulate", "culling", "--x0", "3", "--seed", "5",
                   "--samples", "5", "--rule", "time:0.5,keep,cull",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "5 path(s)" in capsys.readouterr().out

    def test_horizon_passed_through(self, tmp_path):
        rc = main(["simulate", "culling", "--x0", "3", "--seed", "5",
                   "--samples", "20", "--horizon", "0.01",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "summary.csv")
        assert all(float(r[2]) <= 0.01 for r in rows)


class TestRateOpt:
    def test_cross_checked_run(self, tmp_path, capsys):
        rc = main(["rate-opt", "culling", "--objective", "max",
                   "--cross-check", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "control = 111111" in out
        assert "cross_check_gap_per_s = 0" in out
        lam = [l for l in out.splitlines() if l.startswith("lambda")][0]
        assert float(lam.split("=")[1]) == pytest.approx(
            0.9290248887341586, abs=1e-9)
        slack = [l for l in out.splitlines()
                 if l.startswith("certificate_slack")][0]
        floor = [l for l in out.splitlines()
                 if l.startswith("certificate_floor")][0]
        assert float(slack.split("=")[1]) <= float(floor.split("=")[1])
        header, rows = read_csv(tmp_path / "steps.csv")
        assert header == ["step", "lambda_per_s", "control"]
        assert len(rows) >= 1

    def test_min_objective(self, tmp_path, capsys):
        rc = main(["rate-opt", "culling", "--objective", "min",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "control = 000000" in capsys.readouterr().out


class TestLimit:
    def test_ladder_csv(self, tmp_path, capsys):
        rc = main(["limit", "culling", "--objective", "max",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged = true" in out
        assert "inconclusive = false" in out
        header, rows = read_csv(tmp_path / "ladder.csv")
        assert header == ["rung", "beta_per_s", "scaled_value", "abs_error"]
        assert len(rows) == 8
        errs = [float(r[3]) for r in rows if r[3]]
        assert errs[-1] <= errs[0]


class TestTransient:
    def test_survival_and_law(self, tmp_path, capsys):
        rc = main(["transient", "culling", "--control", "cull", "--x", "2",
                   "--times", "0.5,1.0,2.0", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "survival.csv")
        assert header == ["time_s", "survival_prob"]
        assert len(rows) == 3
        surv = [float(r[1]) for r in rows]
        assert all(0 <= s <= 1 for s in surv)
        assert surv == sorted(surv, reverse=True)
        header, rows = read_csv(tmp_path / "law.csv")
        assert header == ["state", "conditional_prob"]
        probs = [float(r[1]) for r in rows]
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_x_validated(self, tmp_path, capsys):
        rc = main(["transient", "culling", "--control", "0", "--x", "9",
                   "--times", "1.0", "--out", str(tmp_path)])
        assert rc == 1
        assert "--x must lie" in capsys.readouterr().err


class TestManifestReplay:
    def test_replay_reproduces_hashes(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        argv = ["qsd", "culling", "--control", "cull"]
        assert main(argv + ["--out", str(out1)]) == 0
        man = json.loads((out1 / "manifest.json").read_text())
        # replay the recorded argv (minus the out dir) into a fresh dir
        recorded = man["argv"][1:]
        recorded[recorded.index(str(out1))] = str(out2)
        assert main(recorded) == 0
        for path, digest in man["outputs"].items():
            twin = out2 / Path(path).name
            assert file_sha256(twin) == digest
