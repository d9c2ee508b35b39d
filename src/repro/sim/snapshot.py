"""Deterministic checkpoint/restore for a running simulation.

The simulator's processes are Python generators, which cannot be
pickled, so checkpoints are taken only at **quiescent instants**: cycles
at which every pending calendar entry is one of a small set of
*classifiable* continuations whose state is pure data —

* a trace lane blocked in a compute gap (its own timed resume),
* a window-slot release for an in-flight fast access,
* the liveness watchdog's or invariant auditor's next periodic tick,
* the retry timer of an invalidation already acked (droppable: it
  returns at once when it fires),
* the checkpoint controller's own next tick (respawned on restore).

Everything else — a page walk, a migration, an invalidation exchange, a
link transfer — means the system is mid-episode and the snapshot is
refused (:class:`NotQuiescent`); the controller simply retries a few
hundred cycles later.  Because every other component's in-flight state
is provably empty at such an instant, the full simulation reduces to a
plain data payload: component ``snapshot()`` dicts plus a symbolic
calendar of ``(time, seq, kind, lane)`` entries.

Restore builds a **fresh** :class:`~repro.gpu.system.MultiGPUSystem`
from the pickled config/seed (its background service loops block in
their prologues exactly as the original's did), restores every
component in place, and rebuilds the calendar with the *original*
``(time, seq)`` keys, so all same-cycle tie-breaks replay identically.
Window releases go back verbatim.  Each suspended process — a lane in
its gap, a supervisor's next tick — is restarted *from* the entry it
was waiting on (``Engine.process(generator, at=(time, seq))``), so its
first step runs exactly where the original process would have resumed;
every other unfinished lane re-enters :meth:`~repro.gpu.cu.Lane.run` at
once, at its window, parked, or draining.  The result: continuing a
restored run — even in a different process — produces field-for-field
identical statistics and byte-identical event traces to the
uninterrupted run.

An **emergency** snapshot (``exact=False``) relaxes all of this for
watchdog/auditor aborts: in-flight episodes are dropped, every
unfinished lane is normalised to re-issue its current access, and
restore sanitises translation state against the host page table.  The
result is lossy but consistent — a crashed run can be re-examined or
resumed (typically with fault injection disabled).

On-disk format: ``RCKP`` magic, format version, payload length, a
SHA-256 digest, then the pickled payload — written to a temp file,
fsynced and atomically renamed, so a checkpoint file is either complete
and verifiable or not there at all.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from typing import Dict, List, Optional, Tuple

from ..uvm.driver import _Invalidation
from .engine import Process
from .process import Resource
from .trace import TraceRecorder

__all__ = [
    "CheckpointError",
    "NotQuiescent",
    "CheckpointController",
    "snapshot_system",
    "restore_system",
    "resume_run",
    "save_checkpoint",
    "load_checkpoint",
]

FORMAT_MAGIC = b"RCKP"
#: 2: TraceBuffer no longer pickles a numpy column cache.
#: 3: every payload carries the driver's invalidation tracker, and GPUs
#: no longer carry the sequence numbers of invalidations they received.
FORMAT_VERSION = 3
_HEADER = struct.Struct("<4sIQ")  # magic, version, payload length
_DIGEST_LEN = 32


class CheckpointError(RuntimeError):
    """A checkpoint could not be taken, written, read, or restored."""


class NotQuiescent(CheckpointError):
    """The simulation is mid-episode; an exact snapshot is impossible at
    this instant.  Retry after the in-flight work drains."""


# ----------------------------------------------------------------------
# Quiescence
# ----------------------------------------------------------------------

def _gauge_block(system) -> Optional[str]:
    """Cheap fast-reject: the first raised in-flight gauge, or None."""
    engine = system.engine
    if engine._ready:
        return "ready queue not empty"
    driver = system.driver
    if driver._inflight_faults:
        return "fault episodes in flight"
    if driver._gates:
        return "migration gates closed"
    if driver._migrating:
        return "migrations in flight"
    if driver.tracker.has_pending():
        return "invalidations in flight"
    if len(driver.fault_queue):
        return "fault queue not empty"
    for res in (driver.host_walkers, driver._batch_slots):
        if res._in_use or res._waiters:
            return "host walker/batch slots busy"
    if system.interconnect.inflight:
        return "link transfers in flight"
    for gpu in system.gpus:
        if gpu.gmmu._any_inflight:
            return f"gpu{gpu.gpu_id} GMMU walks in flight"
        if any(m._pending for m in gpu.l1_mshrs) or gpu.l2_mshr._pending:
            return f"gpu{gpu.gpu_id} MSHR entries pending"
        lazy = gpu.lazy
        if lazy is not None and (lazy._queued or lazy._inflight_walks):
            return f"gpu{gpu.gpu_id} lazy writeback walks in flight"
    for lane in system._lanes:
        if lane._slow:
            return "slow accesses in flight"
    return None


def _classify_calendar(system) -> Tuple[List[tuple], Dict[int, List[int]]]:
    """Reduce the event heap to symbolic ``(time, seq, kind, lane)``
    entries, or raise :class:`NotQuiescent` on the first entry that is
    not pure data.  Also returns each lane's pending window-release
    times in calendar order."""
    lane_index = {id(lane): idx for idx, lane in enumerate(system._lanes)}
    proc_index = {
        id(proc): lane_index[id(lane)]
        for proc, lane in system._lane_procs.items()
    }
    window_index = {
        id(lane._window): idx
        for idx, lane in enumerate(system._lanes)
        if lane._window is not None
    }
    watchdog_proc = system._watchdog._proc if system._watchdog is not None else None
    audit_proc = system._audit_proc
    chaos_proc = system.chaos._proc if system.chaos is not None else None
    controller_proc = system._controller._proc if system._controller is not None else None

    symbols: List[tuple] = []
    release_times: Dict[int, List[int]] = {}
    for entry in sorted(system.engine._heap):
        time, seq, fn = entry[0], entry[1], entry[2]
        owner = getattr(fn, "__self__", None)
        if owner is None:
            raise NotQuiescent(f"unclassifiable calendar entry {fn!r}")
        cls = owner.__class__
        if cls is _Invalidation:
            if owner.pending.acked:
                continue  # an acked invalidation's retry timer: a no-op
            raise NotQuiescent("invalidation retry timer live")
        if cls is Process:
            idx = proc_index.get(id(owner))
            if idx is not None:
                symbols.append((time, seq, "lane", idx))
                continue
            if owner is watchdog_proc:
                symbols.append((time, seq, "watchdog", None))
                continue
            if owner is audit_proc:
                symbols.append((time, seq, "audit", None))
                continue
            if owner is chaos_proc:
                symbols.append((time, seq, "chaos", None))
                continue
            if owner is controller_proc:
                continue  # the restore spawns its own controller
            raise NotQuiescent("non-lane process timer in flight")
        if cls is Resource and fn.__func__ is Resource.release:
            idx = window_index.get(id(owner))
            if idx is not None:
                symbols.append((time, seq, "release", idx))
                release_times.setdefault(idx, []).append(time)
                continue
            raise NotQuiescent("non-window resource release in flight")
        raise NotQuiescent(f"unclassifiable calendar entry owner {owner!r}")
    return symbols, release_times


def _lane_states(system, release_times: Dict[int, List[int]]) -> List[dict]:
    fastpath = system.fastpath
    parked = fastpath._parked if fastpath is not None else {}
    proc_of = {id(lane): proc for proc, lane in system._lane_procs.items()}
    states: List[dict] = []
    for idx, lane in enumerate(system._lanes):
        proc = proc_of.get(id(lane))
        if proc is None or proc._triggered:
            states.append({"phase": "done"})
            continue
        releases = release_times.get(idx, [])
        window = lane._window
        in_use = window._in_use if window is not None else 0
        if lane in parked:
            rec = parked[lane]
            states.append({
                "phase": "parked", "index": rec.index, "arrival": rec.arrival,
                "ring": list(rec.ring), "backed": rec.backed,
                "in_use": in_use, "releases": releases,
            })
            continue
        # A lane restored from its gap entry that has not fired yet has
        # an unstarted generator: no wait target, and only run()'s
        # parameters (among them ``i``) in its frame.
        frame = proc._gen.gi_frame
        index = frame.f_locals["i"] if frame is not None else lane._n
        if proc._waiting_on is None:
            states.append({
                "phase": "gap", "index": index,
                "in_use": in_use, "releases": releases,
            })
        elif index >= lane._n:
            states.append({
                "phase": "drain", "index": index, "remaining": len(releases),
                "in_use": in_use, "releases": releases,
            })
        else:
            states.append({
                "phase": "window", "index": index,
                "in_use": in_use, "releases": releases,
            })
    return states


# ----------------------------------------------------------------------
# Emergency (lossy) snapshots
# ----------------------------------------------------------------------

def _emergency_lane_states(system) -> List[dict]:
    """Normalise every unfinished lane to re-issue its current access
    with an empty window; in-flight accesses are dropped."""
    fastpath = system.fastpath
    parked = fastpath._parked if fastpath is not None else {}
    proc_of = {id(lane): proc for proc, lane in system._lane_procs.items()}
    states: List[dict] = []
    for lane in system._lanes:
        proc = proc_of.get(id(lane))
        if proc is None or proc._triggered:
            states.append({"phase": "done"})
            continue
        if lane in parked:
            index = parked[lane].index
        else:
            frame = proc._gen.gi_frame
            index = frame.f_locals.get("i", 0) if frame is not None else 0
        if index >= lane._n:
            states.append({"phase": "done"})
        else:
            states.append({
                "phase": "restart", "index": index,
                "in_use": 0, "releases": [],
            })
    return states


def _clear_transients(system) -> None:
    """Drop every in-flight episode so the component snapshot guards
    pass.  Only queues and gauges are touched — never statistics — so
    the partial-stats collection after an abort is unaffected."""
    driver = system.driver
    driver._gates.clear()
    driver._migrating.clear()
    driver._inflight_faults = 0
    while len(driver.fault_queue):
        ok, _item = driver.fault_queue.try_get()
        if not ok:
            break
    driver.tracker._pending.clear()
    driver.tracker._pending_pairs.clear()
    for res in (driver.host_walkers, driver._batch_slots):
        res._in_use = 0
        res._waiters.clear()
    interconnect = system.interconnect
    interconnect.inflight = 0
    for links in (interconnect._nvlink_out, interconnect._pcie_up,
                  interconnect._pcie_down):
        for link in links.values():
            link._free_at = 0
    for gpu in system.gpus:
        gmmu = gpu.gmmu
        gmmu._queue.clear()
        gmmu._busy = 0
        gmmu._inval_inflight = gmmu._inval_since = 0
        gmmu._any_inflight = gmmu._any_since = 0
        for mshr in gpu.l1_mshrs:
            mshr._pending.clear()
        gpu.l2_mshr._pending.clear()
        lazy = gpu.lazy
        if lazy is not None:
            lazy._queued.clear()
            lazy._inflight_walks.clear()
    if system.fastpath is not None:
        system.fastpath._parked.clear()
        system.fastpath._parked_windows.clear()
        system.engine.batcher = None


def _sanitize_restored(system) -> None:
    """Bring an emergency-restored system back to a consistent state:
    drop host mappings whose frame is not actually resident (aborted
    mid-migration), then drop every GPU-held translation the host page
    table no longer backs (aborted mid-invalidation)."""
    from ..memory import pte as pte_bits
    from ..memory.physmem import PhysicalMemory

    driver = system.driver
    host_pt = driver.host_page_table
    replicas = driver.replicas
    num_gpus = len(system.gpus)
    for vpn in list(host_pt.valid_vpns()):
        ppn = pte_bits.ppn(host_pt.entry(vpn))
        owner = PhysicalMemory.owner_of(ppn)
        if not 0 <= owner < num_gpus or system.gpus[owner].memory.vpn_of(ppn) != vpn:
            host_pt.invalidate(vpn)
    for gpu in system.gpus:
        if gpu.irmb is not None:
            gpu.irmb._entries.clear()

        def stale(vpn: int, word: int) -> bool:
            host_word = host_pt.translate(vpn)
            ppn = pte_bits.ppn(word)
            if host_word is not None and pte_bits.ppn(host_word) == ppn:
                return False
            if (replicas.has_replica(vpn, gpu.gpu_id)
                    and replicas.replica_ppn(vpn, gpu.gpu_id) == ppn):
                return False
            return True

        for tlb in list(gpu.l1_tlbs) + [gpu.l2_tlb]:
            for entry_set in tlb._sets:
                for vpn in [v for v, w in list(entry_set.items()) if stale(v, w)]:
                    del entry_set[vpn]
        for vpn in list(gpu.page_table.valid_vpns()):
            if stale(vpn, gpu.page_table.entry(vpn)):
                gpu.page_table.invalidate(vpn)


# ----------------------------------------------------------------------
# Snapshot / restore
# ----------------------------------------------------------------------

def snapshot_system(system, workload, exact: bool = True) -> dict:
    """Capture the full simulation as a pure-data payload.

    Raises :class:`NotQuiescent` when ``exact`` and the instant is not
    checkpointable.  ``exact=False`` takes the lossy emergency snapshot
    instead (see module docstring); it clears in-flight queues/gauges on
    the (aborted) live system but never touches statistics.
    """
    engine = system.engine
    if exact:
        reason = _gauge_block(system)
        if reason is not None:
            raise NotQuiescent(reason)
        calendar, release_times = _classify_calendar(system)
        lanes = _lane_states(system, release_times)
        watchdog = system._watchdog.snapshot() if system._watchdog is not None else None
    else:
        lanes = _emergency_lane_states(system)
        _clear_transients(system)
        calendar = []
        watchdog = None
    return {
        "version": FORMAT_VERSION,
        "exact": exact,
        "config": system.config,
        "seed": system.seed,
        "workload": workload,
        "now": engine._now,
        "seq": engine._seq,
        "calendar": calendar,
        "lanes": lanes,
        "master_done": system._master_done,
        "finish_time": system.finish_time,
        "audits_run": system.audits_run,
        "watchdog": watchdog,
        "driver": system.driver.snapshot(),
        "gpus": [gpu.snapshot() for gpu in system.gpus],
        "interconnect": system.interconnect.snapshot(),
        "injector": system.injector.snapshot() if system.injector is not None else None,
        "chaos": system.chaos.snapshot() if system.chaos is not None else None,
        "tracer": system.tracer.snapshot() if system.tracer.enabled else None,
    }


def restore_system(payload: dict, override_config=None, tracer=None):
    """Rebuild a runnable system from a snapshot payload.

    Returns ``(system, workload)``; continue with
    ``system._finish(workload)`` (see :func:`resume_run`).
    ``override_config`` substitutes a different
    :class:`~repro.config.SystemConfig` — the supported use is disabling
    fault injection when resuming an emergency checkpoint.
    """
    from ..gpu.cu import Lane
    from ..gpu.system import MultiGPUSystem

    if payload.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint version {payload.get('version')!r} != {FORMAT_VERSION}"
        )
    config = override_config if override_config is not None else payload["config"]
    workload = payload["workload"]
    recorder = tracer
    if recorder is None and payload.get("tracer") is not None:
        recorder = TraceRecorder(capacity=payload["tracer"]["capacity"])
    system = MultiGPUSystem(config, payload["seed"], tracer=recorder)
    engine = system.engine
    engine._now = payload["now"]
    if recorder is not None and payload.get("tracer") is not None:
        recorder.restore(payload["tracer"])

    system.driver.restore(payload["driver"])
    for gpu, state in zip(system.gpus, payload["gpus"]):
        gpu.restore(state)
    system.interconnect.restore(payload["interconnect"])
    if system.injector is not None and payload.get("injector") is not None:
        system.injector.restore(payload["injector"])
    system.audits_run = payload["audits_run"]
    system.finish_time = payload["finish_time"]
    if not payload.get("exact", True):
        _sanitize_restored(system)

    lanes: List[Lane] = []
    for gpu, gpu_traces in zip(system.gpus, workload.traces):
        for lane_id, trace in enumerate(gpu_traces):
            lanes.append(Lane(gpu, lane_id, trace))
        gpu.attach_lanes(len(gpu_traces))
    lane_states = payload["lanes"]
    if len(lanes) != len(lane_states):
        raise CheckpointError(
            f"workload has {len(lanes)} lanes, checkpoint has {len(lane_states)}"
        )
    for lane, state in zip(lanes, lane_states):
        system._lanes.append(lane)
        if state["phase"] == "done":
            continue
        lane.attach_window(in_use=state.get("in_use", 0))
        lane._releases.clear()
        lane._releases.extend(state.get("releases", ()))

    # Rebuild the calendar with the original (time, seq) keys.  The
    # releases arrive sorted ascending, which is a valid binary min-heap,
    # so no heapify (and no re-sequencing) is needed.  Every other entry
    # is a suspended process's resume: ``at`` maps its lane index or
    # supervisor name to the key the process restarts from.
    heap: List[tuple] = []
    at: Dict[object, Tuple[int, int]] = {}
    for time, seq, kind, idx in payload["calendar"]:
        if kind == "release":
            heap.append((time, seq, lanes[idx]._window.release, ()))
        elif kind == "lane":
            at[idx] = (time, seq)
        elif kind in ("watchdog", "audit", "chaos"):
            at[kind] = (time, seq)
        else:
            raise CheckpointError(f"unknown calendar symbol {kind!r}")
    engine._heap[:] = heap
    engine._seq = payload["seq"]

    alive: List[Process] = []
    for idx, (lane, state) in enumerate(zip(lanes, lane_states)):
        phase = state["phase"]
        if phase == "done":
            continue
        # A gap lane waits for its window once its gap entry fires; an
        # emergency restart re-issues its access at once.
        entry = "window" if phase in ("gap", "restart") else phase
        generator = lane.run(
            state["index"], entry,
            arrival=state.get("arrival", 0),
            ring=state.get("ring"),
            backed=state.get("backed", 0),
            remaining=state.get("remaining", 0),
        )
        proc = engine.process(generator, at=at.get(idx))
        system._lane_procs[proc] = lane
        alive.append(proc)

    if payload["master_done"]:
        system._master_done = True
        for gpu in system.gpus:
            if gpu.lazy is not None:
                gpu.lazy.stop()
    else:
        system._spawn_master(alive)

    master_done = payload["master_done"]
    chaos_state = payload.get("chaos")
    system._spawn_supervisors(
        at,
        watchdog=("watchdog" in at or not master_done),
        audit=("audit" in at or not master_done),
        # A finalized controller exited its loop before the snapshot; keep
        # its record-keeping (below) but spawn no process for it.
        chaos=("chaos" in at
               or not (chaos_state or {}).get("finalized", False)),
    )
    if system._watchdog is not None and payload.get("watchdog") is not None:
        system._watchdog.restore(payload["watchdog"])
    if system.timeline is not None and chaos_state is not None:
        if system.chaos is None:
            from ..faults.schedule import ChaosController

            system.chaos = ChaosController(system, system.timeline, start=False)
        system.chaos.restore(chaos_state)
    return system, workload


def resume_run(source, checkpoint_every=None, checkpoint_dir=None,
               override_config=None, tracer=None):
    """Load a checkpoint (path or payload), restore, and run to
    completion.  Returns ``(system, result)``."""
    if isinstance(source, dict):
        payload = source
    else:
        payload = load_checkpoint(source)
    system, workload = restore_system(
        payload, override_config=override_config, tracer=tracer
    )
    if checkpoint_every:
        system._controller = CheckpointController(
            system, workload, checkpoint_every, checkpoint_dir
        )
    result = system._finish(workload)
    return system, result


# ----------------------------------------------------------------------
# On-disk format
# ----------------------------------------------------------------------

def dumps_checkpoint(payload: dict) -> bytes:
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        _HEADER.pack(FORMAT_MAGIC, FORMAT_VERSION, len(blob))
        + hashlib.sha256(blob).digest()
        + blob
    )


def save_checkpoint(payload: dict, path) -> str:
    """Atomically write ``payload`` to ``path`` (temp + fsync + rename)."""
    path = os.fspath(path)
    data = dumps_checkpoint(payload)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_checkpoint(path) -> dict:
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if len(data) < _HEADER.size + _DIGEST_LEN:
        raise CheckpointError(f"checkpoint {path!r} is truncated")
    magic, version, length = _HEADER.unpack_from(data)
    if magic != FORMAT_MAGIC:
        raise CheckpointError(f"{path!r} is not a checkpoint file")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has format version {version}, expected {FORMAT_VERSION}"
        )
    start = _HEADER.size + _DIGEST_LEN
    blob = data[start:]
    if len(blob) != length:
        raise CheckpointError(
            f"checkpoint {path!r} is truncated ({len(blob)}/{length} payload bytes)"
        )
    digest = data[_HEADER.size:start]
    if hashlib.sha256(blob).digest() != digest:
        raise CheckpointError(f"checkpoint {path!r} failed digest verification")
    payload = pickle.loads(blob)
    if not isinstance(payload, dict) or payload.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"checkpoint {path!r} has an invalid payload")
    return payload


# ----------------------------------------------------------------------
# Controller
# ----------------------------------------------------------------------

class CheckpointController:
    """Engine process that writes a checkpoint every ``every`` cycles.

    When the instant is not quiescent the controller retries after a
    fixed delay (deterministic: the retry cadence depends only on
    simulation state, never on wall-clock).  The controller's calendar
    entries only *insert* events — it consumes no simulated resources
    and emits no trace records — so running with checkpoints enabled is
    observationally identical to running without.
    """

    RETRY_DELAY = 250

    def __init__(self, system, workload, every: int, directory) -> None:
        if not directory:
            raise CheckpointError("checkpointing requires a checkpoint directory")
        self.system = system
        self.workload = workload
        self.every = max(1, int(every))
        self.directory = os.fspath(directory)
        self.written = 0
        self.retries = 0
        self.last_path: Optional[str] = None
        self._proc = system.engine.process(self._loop())

    def _loop(self):
        system = self.system
        while True:
            yield self.every
            if not self._active():
                return
            while True:
                try:
                    payload = snapshot_system(system, self.workload)
                except NotQuiescent:
                    self.retries += 1
                    yield self.RETRY_DELAY
                    if not self._active():
                        return
                    continue
                self._write(payload)
                break

    def _active(self) -> bool:
        """Keep checkpointing while the workload runs — and, in a chaos
        campaign, while the episode controller is still live: the
        campaign phase outlives the lanes, and its mid-episode state
        (timeline cursor, open recovery records) is exactly what a
        resumable long-horizon run needs captured."""
        if self.system.still_active():
            return True
        chaos = getattr(self.system, "chaos", None)
        return chaos is not None and not chaos.finished

    def _write(self, payload: dict) -> None:
        path = os.path.join(
            self.directory, f"ckpt-{self.system.engine.now:012d}.ckpt"
        )
        save_checkpoint(payload, path)
        self.written += 1
        self.last_path = path

    def write_emergency(self, workload) -> Optional[str]:
        """Best-effort lossy checkpoint on abort; returns the path or
        None if even the emergency snapshot failed."""
        try:
            payload = snapshot_system(self.system, workload, exact=False)
            path = os.path.join(self.directory, "emergency.ckpt")
            save_checkpoint(payload, path)
            self.last_path = path
            return path
        except Exception:
            return None
