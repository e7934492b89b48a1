"""Tests of the benchmark harness: its metric list and its calibration.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import calib
import tracing

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_every_metric_the_run_prints():
    per_layer = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == list(tracing.PER_LAYER) + list(tracing.RUN_METRICS)
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == {"setup_s": "s", "run_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def test_calibration_scales_by_the_local_loop_speed():
    clock = calib.Clock()
    nominal, w = calib.NOMINAL_REF_S, calib.WINDOW
    # a machine at nominal speed, then one twice as slow
    clock.ref_samples = [nominal] * (4 * w) + [2 * nominal] * (4 * w)
    clock.segments = [(1.0, w, w), (1.0, w + 1, w + 2), (3.0, 6 * w, 6 * w)]
    scales = clock.scales()
    assert scales == [1.0, 1.0, 0.5]
    assert clock.raw(0, 3) == 5.0
    assert clock.calibrated(0, 3, scales) == 2.0 + 1.5
