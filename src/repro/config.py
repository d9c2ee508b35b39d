"""System configuration (Table 2 of the paper) and experiment variants.

All knobs exercised by the evaluation section are fields here, so every
figure is a pure function of a :class:`SystemConfig` plus a workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

__all__ = [
    "ConfigError",
    "MigrationPolicy",
    "InvalidationScheme",
    "DirectoryKind",
    "TLBConfig",
    "GMMUConfig",
    "IRMBConfig",
    "VMCacheConfig",
    "TransFWConfig",
    "InterconnectConfig",
    "UVMConfig",
    "FaultConfig",
    "ChaosEpisode",
    "ChaosTraceSpec",
    "CHAOS_EPISODE_KINDS",
    "SystemConfig",
    "baseline_config",
]


class ConfigError(ValueError):
    """An invalid configuration value, rejected at construction time so
    bad knobs fail with a clear message instead of a downstream crash."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


class MigrationPolicy(str, Enum):
    """Page migration policies from §3.3."""

    FIRST_TOUCH = "first-touch"
    ON_TOUCH = "on-touch"
    ACCESS_COUNTER = "access-counter"


class InvalidationScheme(str, Enum):
    """How PTE shootdowns reach and are applied at each GPU."""

    #: broadcast to all GPUs; eager page-table walks at each (the baseline).
    BROADCAST = "broadcast"
    #: invalidations have zero latency and zero contention (ideal, Fig. 2/11).
    ZERO_LATENCY = "zero-latency"
    #: eager walks, but filtered by a host-side directory (In-PTE only).
    DIRECTORY = "directory"
    #: broadcast, but lazily applied through the IRMB (Lazy only).
    LAZY = "lazy"
    #: directory-filtered + IRMB-lazy (full IDYLL).
    IDYLL = "idyll"


class DirectoryKind(str, Enum):
    """Where IDYLL's residency directory lives (§6.2 vs §6.4)."""

    IN_PTE = "in-pte"
    IN_MEMORY = "in-memory"


@dataclass(frozen=True)
class TLBConfig:
    """One TLB level."""

    entries: int
    associativity: int
    lookup_latency: int

    def __post_init__(self) -> None:
        _require(self.entries >= 1, "TLB entries must be >= 1")
        _require(self.associativity >= 1, "TLB associativity must be >= 1")
        _require(self.lookup_latency >= 0, "TLB lookup latency cannot be negative")
        if self.entries % self.associativity:
            raise ConfigError("TLB entries must be a multiple of associativity")

    @property
    def sets(self) -> int:
        return self.entries // self.associativity


@dataclass(frozen=True)
class GMMUConfig:
    """GPU memory-management unit (Table 2)."""

    walker_threads: int = 8
    walk_latency_per_level: int = 100
    walk_cache_entries: int = 128
    walk_queue_entries: int = 64

    def __post_init__(self) -> None:
        _require(self.walker_threads >= 1, "GMMU needs at least one walker thread")
        _require(self.walk_latency_per_level >= 0, "walk latency cannot be negative")
        _require(self.walk_cache_entries >= 0, "walk cache entries cannot be negative")
        _require(self.walk_queue_entries >= 1, "walk queue needs at least one entry")


@dataclass(frozen=True)
class IRMBConfig:
    """Invalidation Request Merging Buffer geometry (§6.3)."""

    bases: int = 32
    offsets_per_base: int = 16
    #: bits of VPN kept per offset slot (the L1-level index).
    offset_bits: int = 9
    #: ablation: disable spatial merging (every VPN gets its own entry).
    merge_enabled: bool = True

    #: hard cap from §6.3's entry format: one merged entry holds at most
    #: 16 nine-bit offset slots.
    MAX_OFFSETS_PER_BASE = 16

    def __post_init__(self) -> None:
        _require(self.bases >= 1, "IRMB needs at least one base entry")
        _require(
            1 <= self.offsets_per_base <= self.MAX_OFFSETS_PER_BASE,
            f"IRMB offsets_per_base must be in 1..{self.MAX_OFFSETS_PER_BASE} "
            f"(got {self.offsets_per_base})",
        )
        _require(self.offset_bits >= 1, "IRMB offset_bits must be >= 1")

    @property
    def size_bytes(self) -> float:
        """§6.3 arithmetic: base is 4×9 bits, each offset 9 bits."""
        base_bits = 4 * self.offset_bits
        offset_bits = self.offsets_per_base * self.offset_bits
        return (base_bits + offset_bits) * self.bases / 8


@dataclass(frozen=True)
class VMCacheConfig:
    """IDYLL-InMem VM-Cache (§6.4)."""

    entries: int = 64
    associativity: int = 4
    lookup_latency: int = 4
    memory_access_latency: int = 120

    def __post_init__(self) -> None:
        _require(self.entries >= 1, "VM-Cache entries must be >= 1")
        _require(self.associativity >= 1, "VM-Cache associativity must be >= 1")
        if self.entries % self.associativity:
            raise ConfigError("VM-Cache entries must be a multiple of associativity")
        _require(self.lookup_latency >= 0, "VM-Cache lookup latency cannot be negative")
        _require(
            self.memory_access_latency >= 0,
            "VM-Table memory latency cannot be negative",
        )

    @property
    def sets(self) -> int:
        return self.entries // self.associativity


@dataclass(frozen=True)
class TransFWConfig:
    """Trans-FW comparator (§7.5): fingerprint-based remote forwarding."""

    fingerprints: int = 443
    false_positive_rate: float = 0.02
    remote_lookup_latency: int = 100


@dataclass(frozen=True)
class InterconnectConfig:
    """Links (Table 2): NVLink-v2 between GPUs, PCIe-v4 to the host."""

    nvlink_bandwidth_gbps: float = 300.0
    nvlink_latency: int = 200
    pcie_bandwidth_gbps: float = 32.0
    pcie_latency: int = 250
    clock_ghz: float = 1.0

    def __post_init__(self) -> None:
        _require(self.nvlink_bandwidth_gbps > 0, "NVLink bandwidth must be positive")
        _require(self.pcie_bandwidth_gbps > 0, "PCIe bandwidth must be positive")
        _require(self.nvlink_latency >= 0, "NVLink latency cannot be negative")
        _require(self.pcie_latency >= 0, "PCIe latency cannot be negative")
        _require(self.clock_ghz > 0, "clock frequency must be positive")

    def nvlink_cycles(self, num_bytes: int) -> int:
        """Serialisation cycles to push ``num_bytes`` over one NVLink."""
        return max(1, int(num_bytes / self.nvlink_bandwidth_gbps * self.clock_ghz))

    def pcie_cycles(self, num_bytes: int) -> int:
        return max(1, int(num_bytes / self.pcie_bandwidth_gbps * self.clock_ghz))


@dataclass(frozen=True)
class UVMConfig:
    """Host-side UVM driver parameters."""

    fault_batch_size: int = 256
    #: max cycles the driver waits to fill a batch before servicing it.
    fault_batch_timeout: int = 50
    #: host page-table walk latency per fault (host walks are fast, §7.1).
    host_walk_latency: int = 100
    #: per-fault fixed driver processing cost.
    fault_handling_latency: int = 50
    access_counter_threshold: int = 256
    #: trace-scale divisor: simulated traces are orders of magnitude
    #: shorter than the real runs the 256 threshold was tuned for, so the
    #: *effective* threshold is ``max(1, threshold // divisor)``.  Ratios
    #: between thresholds (e.g. Fig. 20's 256 vs 512) are preserved.
    threshold_divisor: int = 128

    def __post_init__(self) -> None:
        _require(self.fault_batch_size >= 1, "fault batch size must be >= 1")
        _require(self.fault_batch_timeout >= 0, "fault batch timeout cannot be negative")
        _require(self.host_walk_latency >= 0, "host walk latency cannot be negative")
        _require(
            self.fault_handling_latency >= 0,
            "fault handling latency cannot be negative",
        )
        _require(self.access_counter_threshold >= 1, "access-counter threshold must be >= 1")
        _require(self.threshold_divisor >= 1, "threshold divisor must be >= 1")

    @property
    def effective_threshold(self) -> int:
        return max(1, self.access_counter_threshold // self.threshold_divisor)


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic fault-injection profile and the protocol-resilience
    knobs that defend against it (DESIGN.md §6).

    All rates are per-message (or per-walk) probabilities drawn from
    seeded RNG streams, so a given (config, workload, seed) triple
    produces the same faults — and the same recovery trace — every run.
    The profile is **disabled by default** (all rates zero): the hardened
    retry protocol, watchdog, and auditors only switch on when a fault
    rate is nonzero or they are explicitly enabled, so unfaulted runs
    are byte-identical to the pre-fault-injection simulator.
    """

    # -- interconnect message perturbation (invalidation + ack packets) --
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    #: upper bound on injected extra delay; delays draw from the lower
    #: half of this range, reorders from the upper half.
    delay_max: int = 2000

    # -- component perturbation -----------------------------------------
    #: probability a GMMU walk stalls for ``walker_stall_cycles`` extra.
    walker_stall_rate: float = 0.0
    walker_stall_cycles: int = 500
    #: probability an accepted invalidation force-evicts the LRU IRMB
    #: entry (artificial overflow pressure).
    irmb_pressure_rate: float = 0.0

    # -- invalidation retry/timeout protocol -----------------------------
    #: cycles the driver waits for an invalidation ack before retrying.
    ack_timeout: int = 5_000
    #: exponential backoff multiplier per retry.
    retry_backoff: int = 2
    #: cap on the backed-off per-attempt timeout.
    ack_timeout_max: int = 40_000
    #: retries before the driver gives up and marks the GPU suspect.
    max_retries: int = 6
    #: consecutive first-attempt acks that clear a GPU's suspect state.
    suspect_recovery: int = 8

    # -- liveness watchdog -----------------------------------------------
    #: None = auto (watchdog on iff the fault profile is enabled).
    watchdog_enabled: Optional[bool] = None
    #: cycles between watchdog checks.
    watchdog_interval: int = 5_000
    #: no forward progress over this many cycles => abort.
    watchdog_stall_window: int = 250_000
    #: an invalidation unacked for this many cycles => abort.
    ack_deadline: int = 300_000

    # -- invariant auditors ----------------------------------------------
    #: cycles between periodic invariant audits (0 = quiesce-only).
    audit_interval: int = 0
    #: None = auto (quiesce audit on iff the fault profile is enabled).
    audit_on_quiesce: Optional[bool] = None

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate", "duplicate_rate", "reorder_rate",
                     "walker_stall_rate", "irmb_pressure_rate"):
            rate = getattr(self, name)
            _require(0.0 <= rate <= 1.0, f"fault {name} must be in [0, 1] (got {rate})")
        _require(self.delay_max >= 1, "fault delay_max must be >= 1")
        _require(self.walker_stall_cycles >= 0, "walker stall cycles cannot be negative")
        _require(self.ack_timeout >= 1, "ack_timeout must be >= 1 cycle")
        _require(self.retry_backoff >= 1, "retry_backoff must be >= 1")
        _require(self.ack_timeout_max >= self.ack_timeout,
                 "ack_timeout_max must be >= ack_timeout")
        _require(self.max_retries >= 0, "max_retries cannot be negative")
        _require(self.suspect_recovery >= 1, "suspect_recovery must be >= 1")
        _require(self.watchdog_interval >= 1, "watchdog_interval must be >= 1")
        _require(self.watchdog_stall_window >= self.watchdog_interval,
                 "watchdog_stall_window must be >= watchdog_interval")
        _require(self.ack_deadline >= self.ack_timeout,
                 "ack_deadline must be >= ack_timeout")
        _require(self.audit_interval >= 0, "audit_interval cannot be negative")

    @property
    def enabled(self) -> bool:
        """Is any fault actually being injected?"""
        return any((
            self.drop_rate, self.delay_rate, self.duplicate_rate,
            self.reorder_rate, self.walker_stall_rate, self.irmb_pressure_rate,
        ))

    @property
    def watchdog_active(self) -> bool:
        if self.watchdog_enabled is not None:
            return self.watchdog_enabled
        return self.enabled

    @property
    def quiesce_audit_active(self) -> bool:
        if self.audit_on_quiesce is not None:
            return self.audit_on_quiesce
        return self.enabled

    def retry_timeout(self, attempt: int) -> int:
        """Bounded exponential backoff: attempt 0 waits ``ack_timeout``,
        each retry multiplies by ``retry_backoff`` up to the cap."""
        return min(self.ack_timeout * self.retry_backoff ** attempt, self.ack_timeout_max)


#: episode kinds a failure trace may schedule.  Link kinds target a link
#: name (``pcie2.down``); component kinds target a GPU (``gpu1``).
CHAOS_EPISODE_KINDS = ("link_down", "degraded", "walker_stall_storm", "irmb_wave")

_LINK_EPISODE_KINDS = ("link_down", "degraded")


@dataclass(frozen=True)
class ChaosEpisode:
    """One scheduled fault episode from a failure trace.

    The episode is *active* over ``[start, start + duration)``; how its
    ``severity`` is interpreted depends on the kind (DESIGN.md §10):

    * ``link_down`` — the target link is out of service: protocol
      messages routed over it are dropped, bulk transfers stall until
      the episode ends (severity is recorded but the outage is total);
    * ``degraded`` — the target link is lossy: protocol messages are
      dropped with probability ``severity`` and bulk transfers pick up
      severity-scaled jitter;
    * ``walker_stall_storm`` — each GMMU walk on the target GPU stalls
      an extra ``walker_stall_cycles`` with probability ``severity``;
    * ``irmb_wave`` — each invalidation accepted by the target GPU's
      IRMB force-evicts the LRU entry with probability ``severity``.
    """

    eid: int
    kind: str
    target: str
    start: int
    duration: int
    severity: float

    def __post_init__(self) -> None:
        _require(self.eid >= 0, "chaos episode id cannot be negative")
        if self.kind not in CHAOS_EPISODE_KINDS:
            raise ConfigError(
                f"unknown chaos episode kind {self.kind!r}; "
                f"have {list(CHAOS_EPISODE_KINDS)}"
            )
        _require(bool(self.target), "chaos episode needs a target")
        _require(self.start >= 1, "chaos episode start must be >= 1")
        _require(self.duration >= 1, "chaos episode duration must be >= 1")
        _require(
            0.0 < self.severity <= 1.0,
            f"chaos episode severity must be in (0, 1] (got {self.severity})",
        )

    @property
    def end(self) -> int:
        return self.start + self.duration

    @property
    def is_link_episode(self) -> bool:
        return self.kind in _LINK_EPISODE_KINDS


@dataclass(frozen=True)
class ChaosTraceSpec:
    """A loaded failure trace: topology identity plus its episodes.

    The spec is embedded in :class:`SystemConfig` (so checkpoints and
    result-cache keys carry the *content* of the trace, not a path that
    may have changed) and in every trace file header.  ``fingerprint``
    pins the topology the trace was generated for; the loader refuses a
    trace whose fingerprint does not match the simulated topology
    (:func:`repro.interconnect.topology.topology_fingerprint`).
    """

    seed: int
    horizon: int
    num_gpus: int
    fingerprint: str
    episodes: tuple = ()

    def __post_init__(self) -> None:
        _require(self.horizon >= 1, "chaos trace horizon must be >= 1")
        _require(self.num_gpus >= 1, "chaos trace num_gpus must be >= 1")
        _require(bool(self.fingerprint), "chaos trace needs a topology fingerprint")
        if not isinstance(self.episodes, tuple):
            raise ConfigError("chaos trace episodes must be a tuple")
        previous = -1
        for episode in self.episodes:
            if not isinstance(episode, ChaosEpisode):
                raise ConfigError("chaos trace episodes must be ChaosEpisode objects")
            if episode.start < previous:
                raise ConfigError("chaos trace episodes must be sorted by start time")
            previous = episode.start
            if episode.end > self.horizon:
                raise ConfigError(
                    f"chaos episode {episode.eid} ends at {episode.end}, "
                    f"past the trace horizon {self.horizon}"
                )
        ids = [e.eid for e in self.episodes]
        if len(set(ids)) != len(ids):
            raise ConfigError("chaos episode ids must be unique")


@dataclass(frozen=True)
class SystemConfig:
    """Full multi-GPU system configuration (Table 2 defaults)."""

    num_gpus: int = 4
    cus_per_gpu: int = 64
    page_size: int = 4096
    l1_tlb: TLBConfig = field(default_factory=lambda: TLBConfig(32, 32, 1))
    l2_tlb: TLBConfig = field(default_factory=lambda: TLBConfig(512, 16, 10))
    gmmu: GMMUConfig = field(default_factory=GMMUConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    uvm: UVMConfig = field(default_factory=UVMConfig)
    irmb: IRMBConfig = field(default_factory=IRMBConfig)
    vm_cache: VMCacheConfig = field(default_factory=VMCacheConfig)
    transfw: TransFWConfig = field(default_factory=TransFWConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: scheduled failure trace driving time-varying per-link/per-GPU
    #: fault episodes (None = uniform-rate profile in ``faults`` only).
    chaos_trace: Optional[ChaosTraceSpec] = None

    migration_policy: MigrationPolicy = MigrationPolicy.ACCESS_COUNTER
    invalidation_scheme: InvalidationScheme = InvalidationScheme.BROADCAST
    directory_kind: DirectoryKind = DirectoryKind.IN_PTE
    #: host-PTE unused bits available to the in-PTE directory (§6.2: 11).
    directory_bits: int = 11
    #: enable read-duplication page replication instead of migration (§7.4).
    page_replication: bool = False
    #: enable the Trans-FW far-fault forwarder (§7.5).
    transfw_enabled: bool = False
    #: ablation: let demand L2 misses that hit the IRMB bypass the local
    #: walk and fault directly (§6.3 scenario three).
    irmb_bypass_enabled: bool = True
    #: ablation: write buffered invalidations back when a walker is free
    #: (False = only capacity evictions propagate).
    lazy_idle_writeback: bool = True

    #: batched fast-path replay of uncontended TLB-hitting access runs
    #: (observationally equivalent to the pure event path; ``repro run
    #: --no-fastpath`` and this flag both force the event path).
    fastpath_enabled: bool = True
    #: upper bound on accesses one merged replay pass commits, across
    #: all parked lanes; part of the cache key so tuning it can never
    #: serve stale results.
    fastpath_batch_limit: int = 4096

    #: local DRAM access latency (cycles) for data and page-table reads.
    dram_latency: int = 100
    #: per-CU in-flight memory request window (latency-hiding depth).
    inflight_per_cu: int = 32
    #: per-GPU simulated CUs (trace lanes); scaled-down stand-in for 64 CUs.
    trace_lanes: int = 8

    def __post_init__(self) -> None:
        _require(self.num_gpus >= 1, "num_gpus must be >= 1 (a zero-GPU system cannot run)")
        _require(self.cus_per_gpu >= 1, "cus_per_gpu must be >= 1")
        _require(self.page_size >= 1, "page_size must be positive")
        if self.page_size & (self.page_size - 1):
            raise ConfigError("page_size must be a power of two")
        _require(self.directory_bits >= 1, "directory_bits must be >= 1")
        _require(self.dram_latency >= 0, "dram_latency cannot be negative")
        _require(self.inflight_per_cu >= 1, "inflight_per_cu must be >= 1")
        _require(self.trace_lanes >= 1, "trace_lanes must be >= 1")
        if self.chaos_trace is not None and self.chaos_trace.num_gpus != self.num_gpus:
            raise ConfigError(
                f"chaos trace was generated for {self.chaos_trace.num_gpus} "
                f"GPUs, config has {self.num_gpus}"
            )

    # -- convenience constructors for the evaluation's variants ---------

    def with_scheme(self, scheme: InvalidationScheme) -> "SystemConfig":
        return replace(self, invalidation_scheme=scheme)

    def with_policy(self, policy: MigrationPolicy) -> "SystemConfig":
        return replace(self, migration_policy=policy)

    def with_gpus(self, n: int) -> "SystemConfig":
        return replace(self, num_gpus=n)

    def with_irmb(self, bases: int, offsets: int) -> "SystemConfig":
        return replace(self, irmb=replace(self.irmb, bases=bases, offsets_per_base=offsets))

    def with_walker_threads(self, n: int) -> "SystemConfig":
        return replace(self, gmmu=replace(self.gmmu, walker_threads=n))

    def with_l2_tlb(self, entries: int, associativity: int) -> "SystemConfig":
        return replace(self, l2_tlb=TLBConfig(entries, associativity, self.l2_tlb.lookup_latency))

    def with_threshold(self, threshold: int) -> "SystemConfig":
        return replace(self, uvm=replace(self.uvm, access_counter_threshold=threshold))

    def with_page_size(self, page_size: int) -> "SystemConfig":
        return replace(self, page_size=page_size)

    def with_directory_bits(self, bits: int) -> "SystemConfig":
        return replace(self, directory_bits=bits)

    def with_fastpath(self, enabled: bool) -> "SystemConfig":
        return replace(self, fastpath_enabled=enabled)

    def with_chaos(self, trace: Optional[ChaosTraceSpec]) -> "SystemConfig":
        """Attach (or detach, with None) a scheduled failure trace."""
        return replace(self, chaos_trace=trace)

    def with_faults(self, faults: Optional[FaultConfig] = None, **overrides) -> "SystemConfig":
        """Attach a fault profile (or override fields of the current one)."""
        if faults is None:
            faults = replace(self.faults, **overrides)
        elif overrides:
            faults = replace(faults, **overrides)
        return replace(self, faults=faults)


def baseline_config(num_gpus: int = 4, **overrides) -> SystemConfig:
    """The Table-2 baseline: access-counter migration, broadcast shootdown."""
    return replace(SystemConfig(num_gpus=num_gpus), **overrides) if overrides else SystemConfig(
        num_gpus=num_gpus
    )
