"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datagen import (
    CADConfig,
    CADTransectGenerator,
    TimeSeries,
    piecewise_series,
    random_walk_series,
)

HOUR = 3600.0


@pytest.fixture(scope="session")
def cad_day():
    """One day of one synthetic CAD sensor plus its ground-truth events."""
    cfg = CADConfig(days=1, seed=101, event_probability=0.9, anomaly_rate=0.0)
    gen = CADTransectGenerator(cfg)
    series = gen.generate(12)
    return series, gen.events


@pytest.fixture(scope="session")
def cad_week():
    """A week of one synthetic CAD sensor (noisier, with anomalies)."""
    cfg = CADConfig(days=7, seed=202)
    gen = CADTransectGenerator(cfg)
    return gen.generate(12)


@pytest.fixture
def simple_series() -> TimeSeries:
    """A tiny hand-checkable series: flat, drop, recover, rise."""
    return piecewise_series(
        breakpoints=[0.0, 600.0, 900.0, 1500.0, 2400.0],
        values=[10.0, 10.0, 4.0, 4.0, 12.0],
        dt=300.0,
    )


@pytest.fixture
def walk_series() -> TimeSeries:
    """A moderate random walk for pipeline tests."""
    return random_walk_series(400, dt=300.0, step_std=0.8, seed=11)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def open_files():
    """``open_files(directory)``: the files under ``directory`` this
    process still holds open (Linux ``/proc/self/fd``)."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")

    def held(directory) -> list:
        root = os.path.realpath(str(directory)) + os.sep
        found = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(os.path.join("/proc/self/fd", fd))
            except OSError:
                continue
            if target.startswith(root):
                found.append(target)
        return found

    return held


@pytest.fixture
def second_build_fails(monkeypatch):
    """Make the second ``SegDiffIndex.build`` of the test raise
    ``StorageError``; returns ``(built, closed)``: the indexes built before
    it and every index closed since."""
    from repro.core.index import SegDiffIndex
    from repro.errors import StorageError

    real_build, real_close = SegDiffIndex.build, SegDiffIndex.close
    built, closed = [], []

    def build(*args, **kw):
        if len(built) == 1:
            raise StorageError("injected: the second child fails")
        built.append(real_build(*args, **kw))
        return built[-1]

    def close(self):
        closed.append(self)
        real_close(self)

    monkeypatch.setattr(SegDiffIndex, "build", build)
    monkeypatch.setattr(SegDiffIndex, "close", close)
    return built, closed
