"""Checkpoint/restore for a running simulation: a pickle of the system.

A checkpoint is the live object graph, ``pickle.dumps((system,
workload))``.  :class:`CheckpointController` takes one every ``every``
cycles from a calendar entry, inside
:meth:`~repro.sim.engine.Engine.run`, and any such tick cuts the run
cleanly:

* The engine pops a calendar entry only when its ready queue is empty,
  so at a tick no zero-delay work is pending and no callback is half
  done.  Everything in flight — a lane's compute gap or parked replay
  state, page walks, link transfers, fault batches, migrations,
  shootdowns and their retry timers, the supervisors' next ticks — is a
  calendar entry or a waiter holding a bound method, and pickles as
  data.  The fast path's replay state does too, even when the tick runs
  inside its :meth:`~repro.sim.engine.Engine.run_batch_until`.
* The controller is detached from the system and the engine is marked
  as not running for the dump, so the checkpoint holds neither.  Its
  own calendar entry has already been popped.

Restore is ``pickle.loads`` followed by ``system._finish(workload)``
(:func:`resume_run`).  The calendar keeps its ``(time, seq)`` keys, so
every same-cycle tie breaks as before, and the resumed run — in this
process or another — gives a result field-for-field equal to the
uninterrupted run's, with byte-identical event traces when tracing is
on.

A pickle names classes and attributes, so only the code that wrote a
checkpoint can load it.  The frame carries the package-source digest
that the result cache keys on
(:func:`~repro.experiments.cache.code_version`), and
:func:`load_checkpoint` refuses a file written under other source, or
in another format, before it unpickles anything.

On-disk format: ``RCKP`` magic, format version, the code digest, the
payload length, a SHA-256 digest of the payload, then the pickled
payload — written to a temp file, fsynced and atomically renamed, so a
checkpoint file is either complete and verifiable or not there at all.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile

from ..experiments.cache import code_version

__all__ = [
    "CheckpointError",
    "CheckpointController",
    "resume_run",
    "save_checkpoint",
    "load_checkpoint",
    "loads_checkpoint",
]

FORMAT_MAGIC = b"RCKP"
#: 2: TraceBuffer no longer pickles a numpy column cache.
#: 3: every payload carries the driver's invalidation tracker, and GPUs
#: no longer carry the sequence numbers of invalidations they received.
#: 4: the payload is the pickled ``(system, workload)`` pair, and the
#: header carries the package-source digest.
FORMAT_VERSION = 4
_PREFIX = struct.Struct("<4sI")  # magic, version: every format starts so
_HEADER = struct.Struct("<4sI16sQ")  # magic, version, code digest, length
_DIGEST_LEN = 32


class CheckpointError(RuntimeError):
    """A checkpoint could not be taken, written, read, or restored."""


def dumps_checkpoint(payload) -> bytes:
    """Frame the pickle of ``payload`` (a ``(system, workload)`` pair)."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        _HEADER.pack(FORMAT_MAGIC, FORMAT_VERSION, code_version().encode(), len(blob))
        + hashlib.sha256(blob).digest()
        + blob
    )


def save_checkpoint(payload, path) -> str:
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


def loads_checkpoint(data: bytes, name: str = "checkpoint"):
    """Verify the frame of ``data``, then unpickle its ``(system,
    workload)`` pair."""
    if len(data) < _PREFIX.size:
        raise CheckpointError(f"{name} is truncated")
    magic, version = _PREFIX.unpack_from(data)
    if magic != FORMAT_MAGIC:
        raise CheckpointError(f"{name} is not a checkpoint file")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{name} has format version {version}, expected {FORMAT_VERSION}"
        )
    start = _HEADER.size + _DIGEST_LEN
    if len(data) < start:
        raise CheckpointError(f"{name} is truncated")
    _magic, _version, code, length = _HEADER.unpack_from(data)
    if code != code_version().encode():
        raise CheckpointError(
            f"{name} was written by other package source "
            f"({code.decode(errors='replace')}, this is {code_version()})"
        )
    blob = data[start:]
    if len(blob) != length:
        raise CheckpointError(
            f"{name} is truncated ({len(blob)}/{length} payload bytes)"
        )
    if hashlib.sha256(blob).digest() != data[_HEADER.size:start]:
        raise CheckpointError(f"{name} failed digest verification")
    payload = pickle.loads(blob)
    if not (isinstance(payload, tuple) and len(payload) == 2):
        raise CheckpointError(f"{name} has an invalid payload")
    return payload


def load_checkpoint(path):
    """Read and verify a checkpoint file; returns ``(system, workload)``."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    return loads_checkpoint(data, f"checkpoint {path!r}")


def resume_run(path, checkpoint_every=None, checkpoint_dir=None):
    """Load a checkpoint and run it to completion, checkpointing again
    every ``checkpoint_every`` cycles if asked.  Returns ``(system,
    result)``."""
    system, workload = load_checkpoint(path)
    if checkpoint_every:
        system._controller = CheckpointController(
            system, workload, checkpoint_every, checkpoint_dir
        )
    return system, system._finish(workload)


class CheckpointController:
    """Periodic callback that writes a checkpoint every ``every`` cycles,
    counted from the ready-queue entry its constructor makes, while the
    run (or, in a chaos campaign, its episode bookkeeping) is live.

    Its calendar entries only read the system — they consume no
    simulated resources and emit no trace records — so a run that
    checkpoints is observationally identical to one that does not.
    """

    def __init__(self, system, workload, every: int, directory) -> None:
        if not directory:
            raise CheckpointError("checkpointing requires a checkpoint directory")
        # Digest the source now, at run start, so the stamp names the
        # code this process imported even if the files change mid-run.
        code_version()
        self.system = system
        self.workload = workload
        self.every = max(1, int(every))
        self.directory = os.fspath(directory)
        self.written = 0
        engine = system.engine
        engine.schedule(0, engine.defer, self.every, self.tick)

    def tick(self) -> None:
        """Checkpoint now and arm the next tick; stop once the run is
        over."""
        if not self._active():
            return
        system = self.system
        engine = system.engine
        path = os.path.join(self.directory, f"ckpt-{engine.now:012d}.ckpt")
        # Detached for the dump: the checkpoint holds neither this
        # controller nor a running engine, whose resumed run() would
        # refuse to start.
        controller, system._controller = system._controller, None
        running, engine._running = engine._running, False
        try:
            save_checkpoint((system, self.workload), path)
        finally:
            system._controller = controller
            engine._running = running
        self.written += 1
        engine.defer(self.every, self.tick)

    def _active(self) -> bool:
        """Keep checkpointing while the workload runs — and, in a chaos
        campaign, while the episode controller is still live: the
        campaign phase outlives the lanes, and its mid-episode state
        (timeline cursor, open recovery records) is exactly what a
        resumable long-horizon run needs captured."""
        if self.system.still_active():
            return True
        chaos = self.system.chaos
        return chaos is not None and not chaos.finished
