"""``repro.simgpu`` — a functional bulk-synchronous many-core simulator.

This subpackage is the hardware substrate of the reproduction: a
software model of the OpenCL/CUDA execution environment the paper's
Data Sliding algorithms target.  It provides

* :class:`~repro.simgpu.device.DeviceSpec` and a catalog of the paper's
  six evaluation platforms,
* :class:`~repro.simgpu.buffers.Buffer` global memory with transaction
  accounting and read-before-overwrite race tracking,
* :class:`~repro.simgpu.workgroup.WorkGroup` lock-step kernel contexts
  with barriers, atomics, spins and scratchpad,
* warp-level collectives (shuffle / ballot / popc) in
  :mod:`~repro.simgpu.warp`,
* a cooperative :func:`~repro.simgpu.scheduler.launch` with bounded
  residency, seeded non-deterministic dispatch and deadlock detection,
* :class:`~repro.simgpu.stream.Stream` for multi-kernel pipelines.
"""

from repro.simgpu.buffers import Buffer
from repro.simgpu.counters import LaunchCounters
from repro.simgpu.device import (
    CPU_INTEL,
    CPU_MXPA,
    DEVICES,
    FERMI,
    HAWAII,
    KAVERI,
    KEPLER,
    MAXWELL,
    DeviceSpec,
    get_device,
    list_devices,
)
from repro.simgpu.kernels import copy_kernel, fill_kernel
from repro.simgpu.scheduler import dispatch_order, launch
from repro.simgpu.stream import Stream
from repro.simgpu.timing import TimingResult, replay_timing
from repro.simgpu.workgroup import WorkGroup

__all__ = [
    "Buffer",
    "LaunchCounters",
    "DeviceSpec",
    "DEVICES",
    "get_device",
    "list_devices",
    "FERMI",
    "KEPLER",
    "MAXWELL",
    "HAWAII",
    "KAVERI",
    "CPU_MXPA",
    "CPU_INTEL",
    "dispatch_order",
    "launch",
    "Stream",
    "WorkGroup",
    "TimingResult",
    "replay_timing",
    "copy_kernel",
    "fill_kernel",
]
