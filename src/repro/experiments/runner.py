"""Experiment runner with cross-experiment result caching.

Most figures share runs (every figure needs the 4-GPU baseline, several
need full IDYLL), so the runner memoises :class:`SimulationResult` by
``(workload key, config)``.  One process-wide default runner lets the
whole benchmark suite share a single cache.

Trace sizing is controlled by environment variables so CI and laptops
can trade fidelity for time:

* ``REPRO_LANES``     — trace lanes per GPU (default 4)
* ``REPRO_ACCESSES``  — accesses per lane (default 1200)
* ``REPRO_SEED``      — workload seed (default 7)
* ``REPRO_CACHE``     — set to ``0`` to disable the on-disk result
  cache for the process-wide default runner
* ``REPRO_CACHE_DIR`` — on-disk cache location (default
  ``~/.cache/repro``)

The actual simulation entry point is the module-level :func:`simulate`
— a plain picklable function of explicit parameters, so parallel
workers (:mod:`repro.experiments.parallel`) and tests that stub the
simulator out both target one seam.
"""

from __future__ import annotations

import os
import sys
import warnings
from typing import Dict, Optional, Tuple

from ..config import SystemConfig
from ..metrics.collector import SimulationResult
from ..workloads.base import Workload
from ..workloads.dnn import DNN_MODELS, build_dnn_workload
from ..workloads.suite import APPS, build_workload
from .cache import ResultCache, cache_key

__all__ = [
    "ExperimentRunner",
    "build_app_workload",
    "default_runner",
    "lane_budget",
    "simulate",
]


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring malformed environment variable {name}={raw!r}; "
            f"using default {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default


def lane_budget(accesses_per_lane: int, num_gpus: int) -> int:
    """Accesses per lane, tapered for very large systems so the 16- and
    32-GPU sweeps stay tractable (documented in EXPERIMENTS.md)."""
    if num_gpus <= 8:
        return accesses_per_lane
    return max(200, accesses_per_lane * 8 // num_gpus)


def build_app_workload(
    app: str,
    *,
    num_gpus: int,
    page_size: int,
    scale: float,
    lanes: int,
    accesses_per_lane: int,
    seed: int,
) -> Workload:
    """Build the traces for one application (suite app or DNN model)."""
    budget = lane_budget(accesses_per_lane, num_gpus)
    if app in APPS:
        return build_workload(
            app,
            num_gpus=num_gpus,
            lanes=lanes,
            accesses_per_lane=budget,
            seed=seed,
            scale=scale,
            page_size=page_size,
        )
    if app in DNN_MODELS:
        return build_dnn_workload(
            app,
            num_gpus=num_gpus,
            lanes=lanes,
            accesses_per_lane=budget,
            seed=seed,
        )
    raise KeyError(f"unknown workload {app!r}")


def simulate(
    app: str,
    config: SystemConfig,
    scale: float = 1.0,
    *,
    lanes: int,
    accesses_per_lane: int,
    seed: int,
    workload: Optional[Workload] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume_from: Optional[str] = None,
) -> SimulationResult:
    """Run one simulation — the single entry point every runner (serial,
    parallel worker, bench harness) funnels through.

    Deterministic in all arguments: equal inputs produce an equal
    :class:`SimulationResult`, which is what makes both the in-memory
    memo and the on-disk cache sound.  The checkpoint arguments do not
    participate in cache keys: a checkpointed (or resumed) run produces
    the same result as an uninterrupted one (see
    :mod:`repro.sim.snapshot`), so they are observability knobs, not
    inputs.  For the same reason a checkpoint that cannot be loaded
    (other package source wrote it, or it is damaged) is not an error
    here: the run starts over from the beginning.
    """
    if resume_from is not None:
        from ..sim.snapshot import CheckpointError, resume_run

        try:
            system, result = resume_run(
                resume_from,
                checkpoint_every=checkpoint_every,
                checkpoint_dir=checkpoint_dir,
            )
        except CheckpointError as exc:
            print(
                f"[repro] WARNING: cannot resume (checkpoint={resume_from}): "
                f"{exc}; running app={app} from the start",
                file=sys.stderr,
            )
        else:
            if result.aborted:
                print(
                    f"[repro] WARNING: resumed run aborted "
                    f"(checkpoint={resume_from}): {result.abort_reason}",
                    file=sys.stderr,
                )
            return result
    if workload is None:
        workload = build_app_workload(
            app,
            num_gpus=config.num_gpus,
            page_size=config.page_size,
            scale=scale,
            lanes=lanes,
            accesses_per_lane=accesses_per_lane,
            seed=seed,
        )
    # Imported here, not at the top: `repro list`, a warm `repro figure`
    # and the job server import this module without simulating.
    from ..gpu.system import MultiGPUSystem

    system = MultiGPUSystem(config, seed=seed)
    result = system.run(
        workload, checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir
    )
    if result.aborted:
        # The watchdog or an invariant auditor killed the run.  The
        # partial statistics are still flushed into the result (marked
        # ``aborted``) so the figure benches can decide what to do with
        # it — but never silently.
        print(
            f"[repro] WARNING: run aborted "
            f"(app={app}, scheme={config.invalidation_scheme.value}, "
            f"gpus={config.num_gpus}): {result.abort_reason}",
            file=sys.stderr,
        )
    return result


class ExperimentRunner:
    """Builds workloads and runs systems, memoising both."""

    def __init__(
        self,
        lanes: Optional[int] = None,
        accesses_per_lane: Optional[int] = None,
        seed: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.lanes = lanes if lanes is not None else _env_int("REPRO_LANES", 4)
        self.accesses_per_lane = (
            accesses_per_lane
            if accesses_per_lane is not None
            else _env_int("REPRO_ACCESSES", 1200)
        )
        self.seed = seed if seed is not None else _env_int("REPRO_SEED", 7)
        #: optional on-disk cache consulted between the in-memory memo
        #: and an actual simulation (None = memory-only, the historical
        #: behaviour).
        self.cache = cache
        self._workloads: Dict[Tuple, Workload] = {}
        self._results: Dict[Tuple, SimulationResult] = {}

    # -- workloads -----------------------------------------------------------

    def _lane_budget(self, num_gpus: int) -> int:
        return lane_budget(self.accesses_per_lane, num_gpus)

    def workload(
        self,
        app: str,
        num_gpus: int = 4,
        page_size: int = 4096,
        scale: float = 1.0,
    ) -> Workload:
        """Build (or fetch the memoised) traces for one application."""
        key = ("app", app, num_gpus, page_size, scale, self.lanes, self.seed,
               self._lane_budget(num_gpus))
        if key not in self._workloads:
            self._workloads[key] = build_app_workload(
                app,
                num_gpus=num_gpus,
                page_size=page_size,
                scale=scale,
                lanes=self.lanes,
                accesses_per_lane=self.accesses_per_lane,
                seed=self.seed,
            )
        return self._workloads[key]

    # -- runs ---------------------------------------------------------------

    def run(
        self,
        app: str,
        config: SystemConfig,
        scale: float = 1.0,
    ) -> SimulationResult:
        """Run ``app`` on ``config`` (memoised, then disk-cached)."""
        key = ("run", app, scale, self.lanes, self.seed,
               self._lane_budget(config.num_gpus), config)
        result = self._results.get(key)
        if result is None:
            disk_key = None
            if self.cache is not None:
                disk_key = self.disk_key(app, config, scale)
                result = self.cache.get(disk_key)
            if result is None:
                workload = self.workload(
                    app, num_gpus=config.num_gpus, page_size=config.page_size,
                    scale=scale,
                )
                result = simulate(
                    app,
                    config,
                    scale=scale,
                    lanes=self.lanes,
                    accesses_per_lane=self.accesses_per_lane,
                    seed=self.seed,
                    workload=workload,
                )
                if self.cache is not None:
                    self.cache.put(disk_key, result)
            self._results[key] = result
        return result

    def disk_key(self, app: str, config: SystemConfig, scale: float = 1.0) -> str:
        """Content hash identifying one run in the on-disk cache."""
        return cache_key(
            app,
            config,
            scale=scale,
            lanes=self.lanes,
            accesses_per_lane=self.accesses_per_lane,
            seed=self.seed,
        )

    def cached_runs(self) -> int:
        """Number of memoised simulation results (for tests)."""
        return len(self._results)


_DEFAULT: Optional[ExperimentRunner] = None


def default_runner() -> ExperimentRunner:
    """Process-wide shared runner (shared cache across all benches).

    Gets the persistent on-disk cache by default so figure-suite re-runs
    are served from ``~/.cache/repro``; export ``REPRO_CACHE=0`` for
    memory-only operation.
    """
    global _DEFAULT
    if _DEFAULT is None:
        cache = None if os.environ.get("REPRO_CACHE") == "0" else ResultCache()
        _DEFAULT = ExperimentRunner(cache=cache)
    return _DEFAULT
