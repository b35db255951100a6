"""Smoke test of ``tools/paired.py``: the tree against itself on
loop_blackout at a twentieth of its length, two rounds (about a second),
its event kinds and its ``parse`` each a row without a gain; two trees
whose events write back different lines are refused."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "paired.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("paired_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_against_itself_is_bit_identical(capsys):
    tool = load_tool()
    try:
        assert tool.main(["--base", str(ROOT), "--scale", "0.05",
                          "--rounds", "2"]) == 0
        # the base is the same source loaded as a second package
        assert (sys.modules[tool.ALIAS].FusionPipeline
                is not tool.navfuse.FusionPipeline)
    finally:
        for name in [n for n in sys.modules
                     if n.split(".")[0] == tool.ALIAS]:
            del sys.modules[name]
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert (result["workload"], result["rounds"]) == ("loop_blackout", 2)
    assert {"imu", "encoder", "gps", "parse"} <= set(result["kinds"])
    assert result["kinds"]["parse"]["events"] == sum(
        row["events"] for kind, row in result["kinds"].items()
        if kind != "parse")
    for kind, row in result["kinds"].items():
        assert row["events"] > 0
        assert row["base_ms"] > 0.0 and row["change_ms"] > 0.0
        # the quartiles of the per-round medians bracket their median
        for side in ("base", "change"):
            assert (0.0 < row[f"{side}_q1_ms"] <= row[f"{side}_ms"]
                    <= row[f"{side}_q3_ms"])
        assert row["won"] in (0.0, 0.5, 1.0)
        assert row["gain"] is False
        assert f"  {kind:<8} {row['events']:>7}" in "\n".join(lines[:-1])
    assert result["max_dx"] == result["max_dp"] == 0.0


def test_trees_whose_events_write_back_differently_are_refused(
        monkeypatch):
    tool = load_tool()
    workload = tool.workloads.WORKLOADS["loop_blackout"]
    text = tool.stream_text(workload, 11, 0.01)
    try:
        base = tool.load_tree(ROOT)
        monkeypatch.setattr(sys.modules[f"{tool.ALIAS}.events"],
                            "event_to_line", lambda event: "")
        with pytest.raises(ValueError, match="write back different lines"):
            tool.paired_rounds(text, workload.config, base, tool.navfuse, 1)
    finally:
        for name in [n for n in sys.modules
                     if n.split(".")[0] == tool.ALIAS]:
            del sys.modules[name]


@pytest.mark.parametrize("change, want", [
    ([1.0] * 10, False),                   # the base's own times
    ([0.9] * 10, True),                    # faster every round
    ([0.9] * 8 + [1.1] * 2, False),        # faster in 8 of 10
    ([0.9] * 9, False),                    # fewer than ten rounds
    ([0.995] * 10, False),                 # inside the base's spread
])
def test_gain_needs_ten_rounds_nine_tenths_won_and_a_gap_over_the_iqr(
        change, want):
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert load_tool().gain(base[:len(change)], change) is want
