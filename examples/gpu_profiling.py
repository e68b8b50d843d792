#!/usr/bin/env python
"""Inside the simulated GPU: profiling, memory, cost-model knobs, overlap.

Runs SSSP on the cuda_sim backend and dissects what the "device" did:
per-kernel time/flops/bytes, PCIe traffic, the effect of ablating cost-model
terms, and a two-device overlap demonstration — the observability a real
CUDA backend gives through nvprof, reproduced by the simulator substrate.

Run:  python examples/gpu_profiling.py
"""

import numpy as np

import repro as gb
from repro.backends.dispatch import get_backend
from repro.core import operations as ops
from repro.core.semiring import PLUS_TIMES
from repro.distributed.cluster import SimCluster
from repro.gpu import Kernel, KernelWork, LaunchConfig, launch
from repro.gpu.device import get_device, reset_device


def profile_sssp() -> None:
    g = gb.generators.rmat(scale=11, edge_factor=8, seed=5, weighted=True)
    reset_device()
    get_backend("cuda_sim").evict_all()
    with gb.use_backend("cuda_sim"):
        dist = gb.algorithms.sssp(g, 0)
    dev = gb.gpu.get_device()
    print(f"SSSP on rmat s11 reached {dist.nvals} vertices")
    print(f"simulated device time: {dev.clock_us:.1f} µs "
          f"({dev.profiler.launch_count} kernel launches)\n")
    print(dev.profiler.summary())
    uploads = [r for r in dev.profiler.records if r.kind == "h2d"]
    print(f"\nPCIe: {dev.profiler.h2d_bytes / 1e6:.2f} MB uploaded in {len(uploads)} copies")


def ablate_cost_model() -> None:
    print("\ncost-model ablation on one dense SpMV (modeled µs):")
    g = gb.generators.rmat(scale=11, edge_factor=8, seed=5, weighted=True)
    u = gb.Vector.full(1.0, g.nrows, gb.FP64)
    for label, knobs in [
        ("full model", {}),
        ("no divergence", {"enable_divergence": False}),
        ("no coalescing", {"enable_coalescing": False}),
        ("ideal machine", {
            "enable_divergence": False,
            "enable_coalescing": False,
            "enable_occupancy": False,
        }),
    ]:
        reset_device()
        get_backend("cuda_sim").evict_all()
        dev = get_device()
        for k, v in knobs.items():
            setattr(dev.cost_model, k, v)
        with gb.use_backend("cuda_sim"):
            w = gb.Vector.sparse(gb.FP64, g.nrows)
            ops.mxv(w, g, u, PLUS_TIMES)
        print(f"  {label:14s}: {dev.profiler.kernel_time_us:8.2f}")


def demonstrate_overlap() -> None:
    print("\ndevice overlap (two independent 'halves' of a computation):")
    reset_device()
    dev = get_device()

    half = Kernel(
        "half_work",
        run=lambda x: np.sort(x),
        work=lambda x: KernelWork(
            flops=float(x.size * 20),
            bytes_read=float(x.nbytes * 4),
            threads=int(x.size),
        ),
    )
    data = np.random.default_rng(0).random(1 << 18)
    cfg = LaunchConfig.cover(data.size)

    # Serial: both kernels on one device's timeline.
    launch(half, cfg, data, device=dev)
    launch(half, cfg, data, device=dev)
    serial = dev.clock_us

    # Overlapped: one kernel per device; the barrier joins the two clocks.
    cluster = SimCluster(2)
    for d in cluster.devices:
        launch(half, cfg, data, device=d)
    overlapped = cluster.barrier()
    print(f"  serial:     {serial:8.1f} µs")
    print(f"  two devices:{overlapped:8.1f} µs  "
          f"({serial / overlapped:.2f}x from overlap)")


if __name__ == "__main__":
    profile_sssp()
    ablate_cost_model()
    demonstrate_overlap()
