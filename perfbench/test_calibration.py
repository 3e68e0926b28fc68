"""Scaling of op times by the calibration kernel, and the per-pass op median."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from calibration import REFERENCE_S, Calibration  # noqa: E402


def test_scale_divides_by_the_mean_kernel_time():
    assert Calibration.scale(1.0, REFERENCE_S, REFERENCE_S) == pytest.approx(1.0)
    assert Calibration.scale(1.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.5)
    assert Calibration.scale(0.3, REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(0.15)


def test_op_median_is_the_median_of_per_pass_medians():
    bench = run.Run([], {})
    # Pooled, the eight samples' median would be (0.04 + 0.08) / 2 = 60 ms.
    bench.passes[False, True] = [[0.01, 0.02, 0.09, 0.10], [0.01, 0.04, 0.08, 0.10]]
    stats = bench.op_stats(False)
    assert stats["op_ms_p50"] == pytest.approx(57.5)
    assert stats["samples"] == 8
    assert stats["decisions_per_s"] == 0
