"""Kernel launch machinery and profiler."""

import numpy as np
import pytest

from repro.exceptions import InvalidLaunchError
from repro.gpu.costmodel import KernelWork
from repro.gpu.device import Device, DeviceProperties, K40
from repro.gpu.kernel import Kernel, LaunchConfig, charge_transfer, launch
from repro.gpu.profiler import LaunchRecord, Profiler

DOUBLER = Kernel(
    "doubler",
    run=lambda x: x * 2,
    work=lambda x: KernelWork(flops=float(x.size), bytes_read=float(x.nbytes), threads=int(x.size)),
)


class TestLaunchConfig:
    def test_cover(self):
        cfg = LaunchConfig.cover(1000, block=256)
        assert cfg.grid == 4 and cfg.threads == 1024

    def test_cover_zero_threads(self):
        assert LaunchConfig.cover(0).grid == 1

    def test_validate_block_too_large(self):
        d = Device()
        with pytest.raises(InvalidLaunchError):
            LaunchConfig(1, 2048).validate(d)

    def test_validate_zero_block(self):
        with pytest.raises(InvalidLaunchError):
            LaunchConfig(1, 0).validate(Device())


class TestLaunch:
    def test_launch_runs_semantics(self):
        d = Device()
        x = np.arange(4.0)
        out = launch(DOUBLER, LaunchConfig.cover(4), x, device=d)
        np.testing.assert_array_equal(out, x * 2)

    def test_launch_advances_clock_and_profiles(self):
        d = Device()
        launch(DOUBLER, LaunchConfig.cover(4), np.arange(4.0), device=d)
        assert d.clock_us >= d.props.launch_overhead_us
        assert d.profiler.launch_count == 1
        rec = d.profiler.records[0]
        assert rec.name == "doubler" and rec.kind == "kernel"

    def test_launch_validates_config(self):
        d = Device()
        with pytest.raises(InvalidLaunchError):
            launch(DOUBLER, LaunchConfig(1, 9999), np.arange(4.0), device=d)

    def test_sequential_launches_accumulate(self):
        d = Device()
        launch(DOUBLER, LaunchConfig.cover(4), np.arange(4.0), device=d)
        t1 = d.clock_us
        launch(DOUBLER, LaunchConfig.cover(4), np.arange(4.0), device=d)
        assert d.clock_us > t1

    def test_charge_transfer(self):
        d = Device()
        dt = charge_transfer(1e6, "h2d", device=d)
        assert dt == pytest.approx(d.props.pcie_latency_us + 100.0, rel=1e-6)
        assert d.profiler.transfer_time_us == pytest.approx(dt)


class TestProfiler:
    def test_aggregates(self):
        p = Profiler()
        p.record(LaunchRecord("k1", "kernel", 0, 5.0, flops=10, bytes=100))
        p.record(LaunchRecord("k1", "kernel", 5, 7.0, flops=20, bytes=200))
        p.record(LaunchRecord("memcpy_h2d", "h2d", 12, 3.0, bytes=50))
        assert p.kernel_time_us == 12.0
        assert p.transfer_time_us == 3.0
        assert p.total_time_us == 15.0
        assert p.launch_count == 2
        agg = p.by_kernel()["k1"]
        assert agg["count"] == 2 and agg["flops"] == 30

    def test_summary_renders(self):
        p = Profiler()
        p.record(LaunchRecord("spmv", "kernel", 0, 5.0, bytes=1e9))
        s = p.summary()
        assert "spmv" in s and "transfers" in s

    def test_end_us(self):
        r = LaunchRecord("k", "kernel", 2.0, 3.0)
        assert r.end_us == 5.0

