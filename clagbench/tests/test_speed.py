"""Scaling wall time to the reference speed."""

import time

import pytest

import speed


@pytest.fixture(autouse=True)
def reference_probe_of_a_tenth(monkeypatch):
    monkeypatch.setattr(speed, "REFERENCE_PROBE_S", 0.1)


def test_work_at_reference_speed_counts_in_full_and_probes_not():
    # probes of 0.1 s ending at 1, 2, 3: work 0-0.9, 1-1.9, 2-2.9
    ends, durations = [1.0, 2.0, 3.0], [0.1, 0.1, 0.1]
    assert speed.scaled(ends, durations, 0.0, 3.0) == pytest.approx(2.7)
    assert speed.scaled(ends, durations, 0.5, 1.5) == pytest.approx(0.9)
    # an interval inside one probe holds no work
    assert speed.scaled(ends, durations, 1.92, 1.98) == 0.0


def test_stretches_count_at_the_speed_of_the_probe_after_them():
    # the second probe ran at half speed, so the work before it did too
    ends, durations = [1.0, 2.0, 3.0], [0.1, 0.2, 0.1]
    got = speed.scaled(ends, durations, 0.0, 3.0)
    assert got == pytest.approx(0.9 + 0.8 / 2 + 0.9)
    # on a core faster than the reference, work counts for more
    assert speed.scaled([1.0], [0.05], 0.0, 1.0) == pytest.approx(1.9)


def test_work_after_the_last_probe_counts_at_its_speed():
    assert speed.scaled([1.0], [0.2], 1.0, 2.0) == pytest.approx(0.5)


def test_sampler_probes_until_stopped_and_ends(tmp_path):
    sampler = speed.Sampler(str(tmp_path / "probes.json"))
    sampler.start()
    stop = time.monotonic() + 0.3
    while time.monotonic() < stop:
        pass
    ends, durations = sampler.stop()
    assert sampler.proc.poll() == 0
    assert len(ends) == len(durations) >= 5
    assert ends == sorted(ends)
    assert all(d > 0 for d in durations)
