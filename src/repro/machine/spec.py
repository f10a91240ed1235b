"""Hardware description dataclasses.

A spec captures exactly the architecture features the paper's analysis
turns on:

* cache hierarchy (capacities and load-to-use latencies) — the random
  density/tally accesses live or die by these;
* memory system (bandwidth, latency, optionally a second fast-but-small
  region like KNL's MCDRAM) — §VII-B;
* node topology (sockets, cores, SMT ways, on-chip core clusters) — the
  NUMA cliff of Fig 3 and the POWER8 step functions;
* atomic support — native vs emulated double-precision atomics (§VIII-A);
* for GPUs: SM count, warp geometry and register file — the occupancy
  arithmetic of §VI-H.

All quantities are datasheet numbers; nothing here is fitted to the paper's
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["MachineKind", "CacheLevel", "MemorySpec", "CPUSpec", "GPUSpec"]


class MachineKind(Enum):
    """Device class."""

    CPU = "cpu"
    GPU = "gpu"


@dataclass(frozen=True)
class CacheLevel:
    """One level of cache.

    Attributes
    ----------
    size_bytes:
        Capacity visible to one thread's accesses (per-core for private
        levels, total for shared levels).
    latency_cycles:
        Load-to-use latency in core clock cycles.
    shared:
        True when the capacity is shared by all cores of a socket.
    """

    size_bytes: int
    latency_cycles: float
    shared: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.latency_cycles <= 0:
            raise ValueError("cache size and latency must be positive")


@dataclass(frozen=True)
class MemorySpec:
    """A memory region (DDR, MCDRAM, GDDR, HBM).

    Attributes
    ----------
    bandwidth_gbs:
        *Achievable* streaming bandwidth in GB/s for the whole device (the
        paper quotes achieved fractions against achievable, not theoretical
        peak).
    latency_ns:
        Unloaded random-access latency.
    capacity_gb:
        Capacity (bounds e.g. MCDRAM residency decisions, §VI-F's 31 GB
        privatised tally).
    """

    bandwidth_gbs: float
    latency_ns: float
    capacity_gb: float
    random_bw_fraction: float = 0.4

    def __post_init__(self) -> None:
        if min(self.bandwidth_gbs, self.latency_ns, self.capacity_gb) <= 0:
            raise ValueError("memory spec fields must be positive")
        if not 0.0 < self.random_bw_fraction <= 1.0:
            raise ValueError("random_bw_fraction must be in (0, 1]")

    def random_bandwidth_gbs(self) -> float:
        """Bandwidth delivered for random cache-line-sized traffic."""
        return self.bandwidth_gbs * self.random_bw_fraction


@dataclass(frozen=True)
class CPUSpec:
    """A CPU node.

    Attributes
    ----------
    name:
        Human-readable device name.
    sockets, cores_per_socket, smt_per_core:
        Node topology; ``smt_per_core`` is 2 for Intel HT, 4 for KNL, 8 for
        POWER8 SMT8.
    clock_ghz:
        Sustained core clock.
    issue_width:
        Double-precision scalar instructions issued per cycle per core
        (a throughput summary, not a full pipeline model).
    vector_width_f64:
        SIMD lanes of float64 (4 for AVX2, 8 for AVX-512, 2 for VSX).
    vector_gather_supported:
        Whether hardware gathers exist (drives Fig 8's CPU-vs-KNL split).
    caches:
        Cache levels, innermost first.
    dram:
        Main memory.
    fast_memory:
        Optional high-bandwidth region (KNL MCDRAM); ``None`` elsewhere.
    numa_latency_multiplier:
        Remote-socket access latency multiplier.
    cores_per_cluster:
        On-chip core-cluster size (POWER8's two 5-core chiplets per
        socket); 0 means no intra-socket clustering.
    cluster_latency_penalty_cycles:
        Added shared-cache latency once threads span clusters.
    atomic_latency_cycles:
        Uncontended atomic RMW cost.
    latency_load_multiplier:
        Ratio of loaded to unloaded random-access latency when the whole
        node issues misses concurrently (ring/mesh congestion and memory
        queueing; published loaded-latency measurements put this around
        1.2–1.4 for ring-based Xeons and above 2 for KNL's mesh — the
        paper's own hypothesis for KNL's disappointing results, §VIII).
    """

    name: str
    sockets: int
    cores_per_socket: int
    smt_per_core: int
    clock_ghz: float
    issue_width: float
    vector_width_f64: int
    vector_gather_supported: bool
    caches: tuple[CacheLevel, ...]
    dram: MemorySpec
    fast_memory: MemorySpec | None = None
    numa_latency_multiplier: float = 1.5
    cores_per_cluster: int = 0
    cluster_latency_penalty_cycles: float = 0.0
    atomic_latency_cycles: float = 20.0
    latency_load_multiplier: float = 1.25

    kind: MachineKind = field(default=MachineKind.CPU, init=False)

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.cores_per_socket < 1 or self.smt_per_core < 1:
            raise ValueError("topology must be positive")
        if self.clock_ghz <= 0 or self.issue_width <= 0:
            raise ValueError("clock and issue width must be positive")

    @property
    def total_cores(self) -> int:
        """Physical cores on the node."""
        return self.sockets * self.cores_per_socket

    @property
    def total_threads(self) -> int:
        """Hardware thread slots on the node."""
        return self.total_cores * self.smt_per_core

    def memory_latency_cycles(
        self, use_fast_memory: bool = False, loaded: bool = True
    ) -> float:
        """Main-memory latency in core cycles (loaded by default)."""
        region = self.fast_memory if (use_fast_memory and self.fast_memory) else self.dram
        mult = self.latency_load_multiplier if loaded else 1.0
        return region.latency_ns * self.clock_ghz * mult

    def bandwidth(self, use_fast_memory: bool = False) -> float:
        """Achievable node bandwidth in GB/s."""
        region = self.fast_memory if (use_fast_memory and self.fast_memory) else self.dram
        return region.bandwidth_gbs


@dataclass(frozen=True)
class GPUSpec:
    """A GPU device.

    Attributes
    ----------
    sms:
        Streaming multiprocessors.
    max_warps_per_sm:
        Hardware warp-slot limit per SM.
    warp_size:
        Threads per warp (32 on NVIDIA).
    registers_per_sm:
        Register-file entries per SM; with ``r`` registers per thread the
        register-limited warp count is ``registers_per_sm / (r × warp_size)``
        — the §VI-H occupancy arithmetic.
    clock_ghz:
        SM clock.
    memory:
        Device memory (GDDR5 / HBM2); bandwidth is *achievable*, matching
        the paper's "% of achievable" figures.
    memory_latency_cycles:
        Global-memory latency in SM cycles.
    native_double_atomics:
        False on Kepler (K20X), where double atomicAdd is emulated with a
        CAS loop; True from Pascal (P100) on.
    atomic_latency_cycles:
        Uncontended atomic cost (native form).
    saturation_warps_per_sm:
        Active warps per SM beyond which memory-level parallelism no longer
        grows (small on Pascal — "the P100 does not require as high
        occupancy as previous architecture generations", §VII-E).
    issue_width:
        Warp-instructions issued per cycle per SM.
    op_kernel_registers:
        Registers per thread the compiler allocates for the Over Particles
        megakernel on this architecture's toolchain — 102 compiling for
        sm_35, 79 for sm_60 (§VI-H, §VII-E).
    """

    name: str
    sms: int
    max_warps_per_sm: int
    warp_size: int
    registers_per_sm: int
    clock_ghz: float
    memory: MemorySpec
    memory_latency_cycles: float
    native_double_atomics: bool
    atomic_latency_cycles: float
    saturation_warps_per_sm: int
    issue_width: float = 2.0
    op_kernel_registers: int = 102

    kind: MachineKind = field(default=MachineKind.GPU, init=False)

    def __post_init__(self) -> None:
        if self.sms < 1 or self.max_warps_per_sm < 1:
            raise ValueError("SM geometry must be positive")
        if self.registers_per_sm < self.warp_size:
            raise ValueError("register file implausibly small")

    def warps_for_registers(self, regs_per_thread: int) -> int:
        """Register-limited resident warps per SM (the occupancy limiter)."""
        if regs_per_thread < 1:
            raise ValueError("need at least one register per thread")
        limited = self.registers_per_sm // (regs_per_thread * self.warp_size)
        return max(1, min(self.max_warps_per_sm, limited))

    def occupancy(self, regs_per_thread: int) -> float:
        """Fraction of warp slots occupied at the given register usage."""
        return self.warps_for_registers(regs_per_thread) / self.max_warps_per_sm
