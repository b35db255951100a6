import os

import numpy as np
import pytest
import yaml

from navfuse.cli import main

SCENARIO = {
    "seed": 5,
    "duration_s": 12.0,
    "trajectory": {"type": "circle", "radius": 15.0, "speed": 2.0,
                   "accel": 0.5},
    "imu": {"rate_hz": 50.0, "sigma_gyro": 0.002, "sigma_accel": 0.03,
            "orientation": False},
    "encoder": {"enabled": True, "rate_hz": 25.0, "sigma_v": 0.02,
                "sigma_wz": 0.01},
    "gps": {"enabled": True, "rate_hz": 5.0, "sigma_xy": 0.8,
            "sigma_z": 1.5},
}


def write_scenario(tmp_path, doc=None, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc or SCENARIO))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSimulate:
    def test_outputs_and_determinism(self, tmp_path):
        scen = write_scenario(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", "--scenario", scen, "--out", out1]) == 0
        assert main(["simulate", "--scenario", scen, "--out", out2]) == 0
        for name in ("stream.txt", "truth.txt", "truth_trajectory.txt"):
            assert read(os.path.join(out1, name)) == \
                read(os.path.join(out2, name))

    def test_missing_scenario_is_config_error(self, tmp_path):
        code = main(["simulate", "--scenario",
                     str(tmp_path / "nope.yaml"), "--out",
                     str(tmp_path / "o")])
        assert code == 2

    def test_bad_scenario_is_config_error(self, tmp_path):
        scen = write_scenario(tmp_path, {"trajectory": {"type": "warp"}})
        assert main(["simulate", "--scenario", scen, "--out",
                     str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("gps", [
        {"rate_hz": "fast"}, {"dropouts": [{"end": 3.0}]}, [1, 2],
        {"rate": 1.0}, {"rate_hz": 0},
    ], ids=["value", "missing_key", "section", "unknown_key", "zero_rate"])
    def test_malformed_scenario_is_config_error(self, tmp_path, capsys, gps):
        scen = write_scenario(tmp_path, {**SCENARIO, "gps": gps})
        assert main(["simulate", "--scenario", scen, "--out",
                     str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRunAndEvaluate:
    @pytest.fixture
    def sim_dir(self, tmp_path):
        scen = write_scenario(tmp_path)
        out = str(tmp_path / "sim")
        assert main(["simulate", "--scenario", scen, "--out", out]) == 0
        return out

    def test_run_then_evaluate(self, sim_dir, tmp_path):
        run_out = str(tmp_path / "run")
        code = main(["run", "--stream", os.path.join(sim_dir, "stream.txt"),
                     "--out", run_out])
        assert code == 0
        for name in ("trajectory.txt", "steps.txt", "bias_series.txt",
                     "adaptive_sigma.txt", "diagnostics.txt"):
            assert os.path.exists(os.path.join(run_out, name))
        eval_out = str(tmp_path / "eval")
        code = main([
            "evaluate",
            "--est", os.path.join(run_out, "trajectory.txt"),
            "--ref", os.path.join(sim_dir, "truth_trajectory.txt"),
            "--steps", os.path.join(run_out, "steps.txt"),
            "--out", eval_out,
        ])
        assert code == 0
        metrics = {}
        with open(os.path.join(eval_out, "metrics.txt")) as fh:
            for line in fh:
                key, value = line.split(None, 1)
                metrics[key] = value.strip()
        assert float(metrics["ate_rmse_m"]) < 1.5
        with open(os.path.join(run_out, "steps.txt")) as fh:
            fused = {line.split()[1] for line in fh if line.split()[2] == "1"}
        assert {"gps_pos", "gps_heading", "encoder", "imu_raw"} <= fused
        assert {key for key in metrics if key.startswith("nis_mean_")} == \
            {f"nis_mean_{path}" for path in fused}

    def test_evaluate_reports_nis_of_every_path(self, tmp_path):
        traj = "".join(f"{0.1 * k!r} {k} 0 0 0 0 0 1\n" for k in range(5))
        (tmp_path / "traj.txt").write_text(traj)
        (tmp_path / "steps.txt").write_text(
            "0.1 imu_orientation 1 2.0 2 15.09 accepted\n"
            "0.2 imu_orientation 1 1.0 2 15.09 accepted\n"
            "0.2 gps_heading 0 40.0 1 10.83 gated\n"
            "0.3 ../escape 1 1.0 1 1.0 accepted\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--est", str(tmp_path / "traj.txt"),
                     "--ref", str(tmp_path / "traj.txt"),
                     "--steps", str(tmp_path / "steps.txt"),
                     "--out", str(out)]) == 0
        metrics = dict(line.split() for line in
                       (out / "metrics.txt").read_text().splitlines())
        assert float(metrics["nis_mean_imu_orientation"]) == 0.75
        assert not any("gps_heading" in key or "escape" in key
                       for key in metrics)
        assert sorted(os.listdir(out)) == ["d2_imu_orientation.txt",
                                           "metrics.txt"]

    def test_evaluate_bad_steps_line_is_data_error(self, tmp_path, capsys):
        traj = "".join(f"{0.1 * k!r} {k} 0 0 0 0 0 1\n" for k in range(5))
        (tmp_path / "traj.txt").write_text(traj)
        (tmp_path / "steps.txt").write_text(
            "0.1 imu_orientation 1 high 2 15.09 accepted\n")
        assert main(["evaluate", "--est", str(tmp_path / "traj.txt"),
                     "--ref", str(tmp_path / "traj.txt"),
                     "--steps", str(tmp_path / "steps.txt"),
                     "--out", str(tmp_path / "eval")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "eval").exists()

    def test_evaluate_without_pose_pairs_is_data_error(self, tmp_path,
                                                       capsys):
        (tmp_path / "est.txt").write_text(
            "0.0 0 0 0 0 0 0 1\n0.1 1 0 0 0 0 0 1\n")
        (tmp_path / "ref.txt").write_text(
            "5.0 0 0 0 0 0 0 1\n5.1 1 0 0 0 0 0 1\n")
        assert main(["evaluate", "--est", str(tmp_path / "est.txt"),
                     "--ref", str(tmp_path / "ref.txt"),
                     "--out", str(tmp_path / "eval")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "pose pairs" in err
        assert not (tmp_path / "eval").exists()

    def test_run_determinism_byte_identical(self, sim_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            assert main(["run", "--stream",
                         os.path.join(sim_dir, "stream.txt"),
                         "--out", out]) == 0
            outs.append(out)
        for name in ("trajectory.txt", "steps.txt", "bias_series.txt"):
            assert read(os.path.join(outs[0], name)) == \
                read(os.path.join(outs[1], name))

    def test_ablation_changes_targeted_behavior_only(self, sim_dir,
                                                     tmp_path):
        base_out = str(tmp_path / "base")
        abl_out = str(tmp_path / "abl")
        stream = os.path.join(sim_dir, "stream.txt")
        assert main(["run", "--stream", stream, "--out", base_out]) == 0
        assert main(["run", "--stream", stream, "--out", abl_out,
                     "--disable", "zupt"]) == 0
        base_steps = read(os.path.join(base_out, "steps.txt")).decode()
        abl_steps = read(os.path.join(abl_out, "steps.txt")).decode()
        assert " zupt " in base_steps
        assert " zupt " not in abl_steps

    def test_unknown_ablation_is_config_error(self, sim_dir, tmp_path):
        assert main(["run", "--stream",
                     os.path.join(sim_dir, "stream.txt"),
                     "--out", str(tmp_path / "x"),
                     "--disable", "warp"]) == 2

    def test_corrupt_stream_line_is_data_error(self, tmp_path):
        stream = tmp_path / "bad.txt"
        stream.write_text("0.0 imu 1 2 3 4 5 6\n0.01 imu oops 2 3 4 5 6\n")
        assert main(["run", "--stream", str(stream),
                     "--out", str(tmp_path / "o")]) == 3

    def test_malformed_gps_line_is_data_error(self, tmp_path):
        stream = tmp_path / "bad_gps.txt"
        stream.write_text("0.0 imu 0 0 0 0 0 9.81\n"
                          "0.01 gps 45.0 -75.6 80.0 9 1.0 1.0 8 -1 -1\n")
        assert main(["run", "--stream", str(stream),
                     "--out", str(tmp_path / "o")]) == 3

    def test_out_of_range_gps_fix_is_dropped(self, tmp_path):
        stream = tmp_path / "far_gps.txt"
        stream.write_text("0.0 imu 0 0 0 0 0 9.81\n"
                          "0.01 gps 95.0 -75.6 80.0 1 1.0 1.0 8 -1 -1\n")
        out = tmp_path / "o"
        assert main(["run", "--stream", str(stream), "--out", str(out)]) == 0
        diagnostics = (out / "diagnostics.txt").read_text().split("\n")
        assert "gps_quality_rejected 1" in diagnostics

    def test_config_file_honored(self, sim_dir, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("gnss:\n  enabled: false\n")
        out = str(tmp_path / "nogps")
        assert main(["run", "--stream",
                     os.path.join(sim_dir, "stream.txt"),
                     "--config", str(cfg), "--out", out]) == 0
        steps = read(os.path.join(out, "steps.txt")).decode()
        assert "gps_pos" not in steps

    def test_bad_config_key_is_config_error(self, sim_dir, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("gnss:\n  enambled: false\n")
        assert main(["run", "--stream",
                     os.path.join(sim_dir, "stream.txt"),
                     "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text", ["gnss:\n  sigma_xy: .nan\n",
                                      "vslam:\n  reinit_n: .inf\n"])
    def test_nonfinite_config_value_is_config_error(self, sim_dir, tmp_path,
                                                    text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert main(["run", "--stream",
                     os.path.join(sim_dir, "stream.txt"),
                     "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("gates:\n  gps_pos: 0.0\n", "gate threshold must be > 0"),
        ("adaptive:\n  window: 0\n", "adaptive window must be"),
    ])
    def test_value_the_pipeline_refuses_is_config_error(
            self, sim_dir, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert main(["run", "--stream",
                     os.path.join(sim_dir, "stream.txt"),
                     "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err
        # it names the key: gps_pos, not gps_vel, whose model shares it
        assert text.split()[1].rstrip(":") in err

    def test_retrodiction_ablation_fuses_late_fixes_where_they_arrive(
            self, tmp_path):
        late = {**SCENARIO, "gps": {**SCENARIO["gps"], "delay_s": 0.2}}
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--scenario",
                     write_scenario(tmp_path, late), "--out", sim]) == 0
        diagnostics = []
        for name, extra in (("base", []),
                            ("noretro", ["--disable", "retrodiction"])):
            out = tmp_path / name
            assert main(["run", "--stream", os.path.join(sim, "stream.txt"),
                         "--out", str(out), *extra]) == 0
            assert "gps_pos 1" in (out / "steps.txt").read_text()
            diagnostics.append((out / "diagnostics.txt").read_text())
        assert "retro_replays" in diagnostics[0]
        assert "retro_" not in diagnostics[1]


class TestSweep:
    def test_manifest_chain(self, tmp_path):
        scen = write_scenario(tmp_path)
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump({
            "out": str(tmp_path / "sweep"),
            "runs": [
                {"name": "baseline", "scenario": scen},
                {"name": "no_zupt", "scenario": scen,
                 "disable": ["zupt"]},
            ],
        }))
        assert main(["sweep", "--manifest", str(manifest)]) == 0
        for name in ("baseline", "no_zupt"):
            assert os.path.exists(os.path.join(
                str(tmp_path / "sweep"), name, "eval", "metrics.txt"))

    @pytest.mark.parametrize("doc", [
        [{"name": "a", "scenario": "scenario.yaml"}],  # a list, not a mapping
        {"runs": 5},
        {"runs": [{"name": "a"}]},                      # no scenario
    ])
    def test_malformed_manifest_is_a_config_error(self, tmp_path, capsys,
                                                  doc):
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump(doc))
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_config_the_pipeline_refuses_is_a_config_error(self, tmp_path,
                                                           capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("adaptive:\n  alpha: -0.5\n")
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump(
            {"out": str(tmp_path / "sweep"),
             "runs": [{"name": "a", "scenario": write_scenario(tmp_path),
                       "config": str(cfg)}]}))
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert "adaptive alpha must be" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest_fields, run_fields", [
        ({"out": 5}, {}),
        ({}, {"config": 5}),  # would read and close file descriptor 5
        ({}, {"disable": 5}),
    ])
    def test_mistyped_out_config_or_disable_is_a_config_error(
            self, tmp_path, capsys, manifest_fields, run_fields):
        run = {"name": "a", "scenario": write_scenario(tmp_path),
               **run_fields}
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(yaml.safe_dump(
            {"out": str(tmp_path / "sweep"), "runs": [run],
             **manifest_fields}))
        assert main(["sweep", "--manifest", str(manifest)]) == 2
        assert "manifest" in capsys.readouterr().err
