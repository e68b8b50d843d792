"""GPU simulator: device memory, cost model, SIMT estimators."""

import numpy as np
import pytest

from repro.exceptions import DeviceOutOfMemoryError, InvalidValueError
from repro.gpu.costmodel import CostModel, KernelWork
from repro.gpu.device import Device, DeviceProperties, K40
from repro.gpu.memory import DeviceAllocator
from repro.gpu.simt import COALESCING, divergence_thread_per_row, divergence_warp_per_row


class TestAllocator:
    def test_alloc_tracks_usage(self):
        a = DeviceAllocator(1024)
        buf = a.alloc(16, np.float64)
        assert a.in_use == 128
        buf.free()
        assert a.in_use == 0

    def test_free_idempotent(self):
        a = DeviceAllocator(1024)
        buf = a.alloc(4, np.float64)
        buf.free()
        buf.free()
        assert a.in_use == 0 and a.stats.free_count == 1

    def test_oom(self):
        a = DeviceAllocator(64)
        with pytest.raises(DeviceOutOfMemoryError) as ei:
            a.alloc(100, np.float64)
        assert ei.value.requested == 800

    def test_gc_returns_memory(self):
        a = DeviceAllocator(1024)
        a.alloc(16, np.float64)  # dropped immediately
        import gc

        gc.collect()
        assert a.in_use == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(InvalidValueError):
            DeviceAllocator(0)

    def test_reset(self):
        a = DeviceAllocator(1024)
        a.alloc(8, np.float64)
        a.reset()
        assert a.in_use == 0 and a.stats.alloc_count == 0


class TestDeviceProperties:
    def test_k40_defaults(self):
        assert K40.total_cores == 15 * 192
        assert K40.peak_gflops == pytest.approx(15 * 192 * 0.745)

    def test_with_derives(self):
        fast = K40.with_(mem_bandwidth_gbps=1000.0)
        assert fast.mem_bandwidth_gbps == 1000.0
        assert K40.mem_bandwidth_gbps == 288.0


class TestCostModel:
    @pytest.fixture
    def cm(self):
        return CostModel(K40)

    def test_launch_overhead_floor(self, cm):
        t = cm.kernel_time_us(KernelWork(flops=1, bytes_read=8, threads=1))
        assert t >= K40.launch_overhead_us

    def test_memory_bound_scales_with_bytes(self, cm):
        t1 = cm.kernel_time_us(
            KernelWork(flops=0, bytes_read=1e6, threads=10**6)
        )
        t2 = cm.kernel_time_us(
            KernelWork(flops=0, bytes_read=2e6, threads=10**6)
        )
        assert t2 > t1
        # Doubling bytes roughly doubles the over-floor portion.
        assert (t2 - K40.launch_overhead_us) == pytest.approx(
            2 * (t1 - K40.launch_overhead_us), rel=1e-6
        )

    def test_compute_bound_scales_with_flops(self, cm):
        t1 = cm.kernel_time_us(KernelWork(flops=1e9, bytes_read=8, threads=10**6))
        t2 = cm.kernel_time_us(KernelWork(flops=2e9, bytes_read=8, threads=10**6))
        assert (t2 - K40.launch_overhead_us) == pytest.approx(
            2 * (t1 - K40.launch_overhead_us), rel=1e-6
        )

    def test_divergence_slows_compute(self, cm):
        base = KernelWork(flops=1e9, bytes_read=8, threads=10**6, divergence=1.0)
        div = KernelWork(flops=1e9, bytes_read=8, threads=10**6, divergence=4.0)
        assert cm.kernel_time_us(div) > cm.kernel_time_us(base)

    def test_coalescing_slows_memory(self, cm):
        base = KernelWork(bytes_read=1e7, threads=10**6, coalescing=1.0)
        scat = KernelWork(bytes_read=1e7, threads=10**6, coalescing=8.0)
        assert cm.kernel_time_us(scat) == pytest.approx(
            K40.launch_overhead_us
            + 8 * (cm.kernel_time_us(base) - K40.launch_overhead_us),
            rel=1e-6,
        )

    def test_occupancy_penalises_small_grids(self, cm):
        small = KernelWork(flops=1e7, bytes_read=8, threads=32)
        big = KernelWork(flops=1e7, bytes_read=8, threads=10**6)
        assert cm.kernel_time_us(small) > cm.kernel_time_us(big)

    def test_ablation_switches(self, cm):
        w = KernelWork(flops=1e9, bytes_read=1e7, threads=64, divergence=8.0, coalescing=8.0)
        full = cm.kernel_time_us(w)
        cm.enable_divergence = False
        cm.enable_coalescing = False
        cm.enable_occupancy = False
        ideal = cm.kernel_time_us(w)
        assert ideal < full

    def test_transfer_time(self, cm):
        t = cm.transfer_time_us(10e6)  # 10 MB over 10 GB/s = 1000 us + latency
        assert t == pytest.approx(K40.pcie_latency_us + 1000.0, rel=1e-6)


class TestSimtEstimators:
    def test_uniform_rows_no_divergence(self):
        lens = np.full(64, 8)
        assert divergence_thread_per_row(lens) == 1.0

    def test_skew_causes_divergence(self):
        lens = np.ones(32)
        lens[0] = 320  # one monster row serialises its warp
        d = divergence_thread_per_row(lens)
        assert d > 5.0

    def test_warp_per_row_short_rows_waste_lanes(self):
        # Rows of length 1: each uses a 32-lane step for 1 useful op.
        lens = np.ones(100)
        assert divergence_warp_per_row(lens) == pytest.approx(32.0)

    def test_warp_per_row_long_rows_efficient(self):
        lens = np.full(10, 320)
        assert divergence_warp_per_row(lens) == pytest.approx(1.0)

    def test_empty_inputs(self):
        assert divergence_thread_per_row(np.array([])) == 1.0
        assert divergence_warp_per_row(np.zeros(5)) == 1.0

    def test_coalescing_classes_ordered(self):
        assert (
            COALESCING["sequential"]
            < COALESCING["segmented"]
            < COALESCING["gather"]
            < COALESCING["scatter"]
            < COALESCING["atomic"]
        )


class TestDevice:
    def test_clock_advances(self):
        d = Device()
        d.advance(5.0)
        d.advance(2.5)
        assert d.clock_us == 7.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            Device().advance(-1.0)

    def test_reset(self):
        d = Device()
        d.advance(10.0)
        d.reset()
        assert d.clock_us == 0.0 and not d.profiler.records
