"""Smoke test of ``tools/accuracy.py``: every benchmark workload, one seed,
at a twentieth of its length (about a second); the tree against itself as
``--base``, plain and with scenario and configuration overrides; and
loop_blackout's former outlier seed at full length."""

import importlib.util
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "accuracy.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("accuracy_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_seed_of_every_workload(capsys):
    tool = load_tool()
    assert tool.main(["--seeds", "1", "--scale", "0.05"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert list(result) == list(tool.workloads.WORKLOADS)
    for name, summary in result.items():
        workload = tool.workloads.WORKLOADS[name]
        assert summary["ate_m"] == [summary["ate_mean_m"]]
        assert 0.0 < summary["ate_mean_m"] < workload.ate_ceiling_m
        assert {"imu_raw", "imu_orientation", "encoder",
                "gps_pos"} <= set(summary["paths"])
        pipe = tool.navfuse.FusionPipeline(
            tool.navfuse.PipelineConfig(workload.config))
        gates = {block.name: block.gate
                 for model in (pipe._imu_models["imu"][1],
                               pipe._encoder_model, pipe._gps_model,
                               pipe._radar_model, pipe._vslam_model)
                 for block, _ in model.parts}
        for path, entry in summary["paths"].items():
            # the gate unrelaxed, the model's own; a relaxed fix's is above
            if path in gates:
                assert entry["gate"] == gates[path], (name, path)
            assert entry["updates"] > 0
            assert 0.0 <= entry["accept_rate"] <= 1.0
            nis = entry["nis_per_dof"]
            assert (nis is None) == (entry["accept_rate"] == 0.0)
            assert nis is None or math.isfinite(nis) and nis >= 0.0
        # the printed table names the workload and each of its paths
        table = "\n".join(lines[:-1])
        assert f"{name}: mean ATE {summary['ate_mean_m']:.4f} m" in table
        gps = summary["paths"]["gps_pos"]
        assert (f"  gps_pos          updates {gps['updates']:>7}  gate "
                f"{gps['gate']:6.2f}  accept ") in table
    assert "vslam" in result["dense_two_delayed"]["paths"]


def test_tree_against_itself_as_base(capsys):
    """loop_blackout, one seed at a twentieth of its length: the same
    source loaded as a second package gives a ratio of one and no
    difference on any path."""
    tool = load_tool()
    alias = tool.paired.ALIAS
    try:
        assert tool.main(["--workload", "loop_blackout", "--seeds", "2",
                          "--scale", "0.05", "--base", str(ROOT)]) == 0
        assert (sys.modules[alias].FusionPipeline
                is not tool.navfuse.FusionPipeline)
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == alias]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])["loop_blackout"]
    assert result["base"] == result["change"]
    assert result["ate_ratio"] == 1.0
    assert {"imu_raw", "encoder", "gps_pos"} <= set(result["delta"])
    for path, delta in result["delta"].items():
        assert delta["accept_rate"] == 0.0, path
        assert delta["nis_per_dof"] in (0.0, None), path
    assert lines[0].startswith("loop_blackout: mean ATE base ")
    assert lines[0].endswith("ratio 1.0000")
    gate = f"{result['change']['paths']['encoder']['gate']:6.2f}"
    assert any(line.startswith(f"  encoder          gate {gate} -> {gate}")
               for line in lines)


def test_loop_blackout_seed_4_stays_under_a_metre():
    """Loop seed 4 at full length, fed through the stream text (about
    3 s).  Its ATE was 2.50 m while every accepted fix moved the GPS
    course anchor: headings read from 0.4 m chords that fix noise had
    stretched past the baseline drove the encoder yaw-rate bias to 0.065
    rad/s by 10 s and into the blackout at 0.016 rad/s, where the truth
    is 0."""
    tool = load_tool()
    run = tool.run_seed(tool.workloads.WORKLOADS["loop_blackout"], 4, 1.0)
    assert run["ate_m"] < 1.0


def test_stamp_order_oracle_replays_nothing():
    """ref_gps_delay seed 1 at a fifth of its length (about a second):
    sorted by stamp, no fix is late, so nothing replays, and no encoder
    update is lost to a replay, so more of them are accepted than in
    arrival order, where replays re-run only the IMU steps (ROADMAP
    item 1)."""
    tool = load_tool()
    workload = tool.workloads.WORKLOADS["ref_gps_delay"]
    arrival = tool.run_seed(workload, 1, 0.2)
    oracle = tool.run_seed(workload, 1, 0.2, stamp_order=True)
    assert arrival["diagnostics"]["retro_replays"] > 0
    assert "retro_replays" not in oracle["diagnostics"]

    def encoder_acceptance(run):
        return run["accepted"]["encoder"] / run["tried"]["encoder"]
    assert encoder_acceptance(oracle) > encoder_acceptance(arrival)


def test_overrides_apply_on_both_trees(capsys):
    """``--sensor`` turns the scenario's GPS off and ``--set`` the
    pipeline's encoder path: neither path is tried on either side, and the
    bench's workload table is left as it was."""
    tool = load_tool()
    alias = tool.paired.ALIAS
    before = tool.workloads.WORKLOADS["loop_blackout"]
    try:
        assert tool.main(["--workload", "loop_blackout", "--seeds", "2",
                          "--scale", "0.05", "--base", str(ROOT),
                          "--sensor", "gps.enabled=false",
                          "--sensor", "trajectory.speed=1.5",
                          "--set", "encoder.enabled=false"]) == 0
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == alias]:
            del sys.modules[name]
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    result = result["loop_blackout"]
    for side in ("base", "change"):
        paths = set(result[side]["paths"])
        assert "imu_raw" in paths
        assert not {"gps_pos", "encoder", "encoder_vz"} & paths
    assert result["ate_ratio"] == 1.0
    assert tool.workloads.WORKLOADS["loop_blackout"] is before
    assert before.sensors["gps"].get("enabled", True) is True
    assert before.config == {}
    workload = tool.overridden(before, [("trajectory.speed", 1.5)],
                               [("zupt.enabled", False)])
    assert workload.trajectory["speed"] == 1.5
    assert workload.config == {"zupt.enabled": False}
    assert before.trajectory.get("speed") != 1.5
    assert tool.key_value("gps.delay_s=0") == ("gps.delay_s", 0)
    assert tool.key_value("name=circle") == ("name", "circle")
