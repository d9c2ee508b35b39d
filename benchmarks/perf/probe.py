"""Host-speed probe: report host seconds at a reference CPU speed.

On a host whose CPUs are shared with other machines' work, the same
simulation can take twice as long from one minute to the next.  A
probe process per CPU, pinned there at the lowest priority, runs a
fixed pure-Python kernel (heap, dict, random numbers; no simulator
code, so a change to the program cannot move it) in short bursts
between sleeps.  On a CPU that a measured process keeps busy it
gets about 1% of the time, in slices interleaved with the measured
work, so it runs at whatever speed the host gives that CPU at that
moment.  Its rate, kernel iterations per CPU second of its own, over a
measured interval gives the factor that turns the interval's host
seconds into reference seconds::

    reference seconds = host seconds x probe rate / REFERENCE_RATE

Time the program spends waiting on a timer does not speed up or slow
down with the host, so it must not be normalised.

Each probe publishes (iterations, CPU seconds) through a 16-byte file
that it and the measuring process map into memory.
"""

from __future__ import annotations

import heapq
import mmap
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

#: kernel iterations per probe-CPU second of the reference CPU.
REFERENCE_RATE = 1.0e6

_BURST = 300
_PAUSE_S = 0.01


def _counters(path: Path):
    """(mmap, float view of its two slots) over ``path``."""
    with open(path, "r+b") as fh:
        buf = mmap.mmap(fh.fileno(), 16)
    return buf, memoryview(buf).cast("d")


def _kernel(path: Path, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    _, slots = _counters(path)
    rng = random.Random(cpu)
    heap: list = []
    table: dict = {}
    done, busy = 0, 0.0
    while True:
        start = time.thread_time()
        for i in range(done, done + _BURST):
            heapq.heappush(heap, (rng.random(), i))
            table[i & 4095] = table.get(i & 4095, 0) + 1
            if len(heap) > 512:
                heapq.heappop(heap)
        done += _BURST
        busy += time.thread_time() - start
        slots[1] = busy
        slots[0] = done
        time.sleep(_PAUSE_S)


Mark = Tuple[float, List[float]]


class SpeedProbe:
    """One probe process per CPU in ``cpu_set``; a context manager.
    ``directory`` holds the counter files while the probes run."""

    def __init__(self, cpu_set: Sequence[int], directory: Path) -> None:
        self._paths = [Path(directory) / f"probe-{os.getpid()}-{cpu}" for cpu in cpu_set]
        self._maps, self._slots, self._procs = [], [], []
        try:
            for path, cpu in zip(self._paths, cpu_set):
                path.write_bytes(bytes(16))
                buf, slots = _counters(path)
                self._maps.append(buf)
                self._slots.append(slots)
                self._procs.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), str(path), str(cpu)]
                ))
            deadline = time.monotonic() + 30.0
            while not all(slots[0] for slots in self._slots):
                if time.monotonic() > deadline:
                    raise RuntimeError("speed probe did not start")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def _read(self) -> List[float]:
        return [value for slots in self._slots for value in slots]

    def mark(self) -> Mark:
        return time.perf_counter(), self._read()

    def factor(self, since: Mark, slot: Optional[int] = None) -> float:
        """Probe rate since ``since`` over the reference rate, from every
        probe or only the one in ``slot``.  An interval too short for a
        probe burst waits for the next one."""
        part = slice(None) if slot is None else slice(slot, slot + 1)
        before = since[1]
        deadline = time.monotonic() + 5.0
        while True:
            now = self._read()
            busy = sum(now[1::2][part]) - sum(before[1::2][part])
            if busy > 0.0 or time.monotonic() > deadline:
                break
            time.sleep(0.002)
        if busy <= 0.0:
            raise RuntimeError("speed probe stopped reporting")
        done = sum(now[0::2][part]) - sum(before[0::2][part])
        return done / busy / REFERENCE_RATE

    def seconds(self, since: Mark, slot: Optional[int] = None) -> float:
        """Reference seconds elapsed since ``since``."""
        return (time.perf_counter() - since[0]) * self.factor(since, slot)

    def close(self) -> None:
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.wait(10.0)
        for slots, buf in zip(self._slots, self._maps):
            slots.release()
            buf.close()
        for path in self._paths:
            path.unlink(missing_ok=True)

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def cpus(count: int) -> List[int]:
    """The first ``count`` CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))[:count]


if __name__ == "__main__":
    _kernel(Path(sys.argv[1]), int(sys.argv[2]))
