"""Smoke test: demos/event_binning.py parses and bins its stream end to end."""

import importlib.util
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "demos" / "event_binning.py"


def test_event_binning_demo_runs(capsys):
    spec = importlib.util.spec_from_file_location("event_binning", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    out = capsys.readouterr().out
    assert "6 events over 1000 us, sensor 3x3" in out
    assert "binned into 2 windows (events per window: [3, 3])" in out
    assert "binned into 4 windows (events per window: [2, 1, 1, 2])" in out
