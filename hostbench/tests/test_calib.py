import sys

import pytest
from calib import REF_NS, CalibrationRefused, Clock, calibrate, reference_table, scale


def test_scale_to_reference_speed():
    # A host at half the reference speed takes twice as long for both the
    # sample and the reference loop: the scaled value is unchanged.
    assert scale(1_000, REF_NS) == 1_000
    assert scale(2_000, 2 * REF_NS) == 1_000
    assert scale(500, REF_NS / 2) == 1_000


def test_scale_rejects_nonpositive_calibration():
    with pytest.raises(ValueError):
        scale(1_000, 0)


def test_calibration_refused_under_trace_hook():
    sys.settrace(lambda *a: None)
    try:
        with pytest.raises(CalibrationRefused):
            calibrate(reference_table())
    finally:
        sys.settrace(None)


def test_calibration_refused_under_profile_hook():
    sys.setprofile(lambda *a: None)
    try:
        with pytest.raises(CalibrationRefused):
            calibrate(reference_table())
    finally:
        sys.setprofile(None)


def test_clock_brackets_each_sample_with_calibrations():
    clock = Clock()
    result, raw, scaled = clock.time(lambda: sum(range(1000)))
    assert result == 499500
    assert len(clock.calibs) == 2
    assert scaled == pytest.approx(raw * REF_NS / ((clock.calibs[0] + clock.calibs[1]) / 2))


def test_settle_runs_outside_the_timed_region():
    clock = Clock()
    settled = []
    result, raw, _ = clock.time(lambda: "done", settle=settled.append)
    assert settled == ["done"] and result == "done"
    assert raw < 50_000_000  # the settle step is not part of the sample

