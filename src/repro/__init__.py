"""IDYLL reproduction (MICRO 2023): multi-GPU page translation with
lightweight PTE invalidations.

Public entry points:

* :class:`repro.config.SystemConfig` / :func:`repro.config.baseline_config`
* :class:`repro.gpu.MultiGPUSystem` — build and :meth:`run` a system
* :func:`repro.workloads.build_workload` — the Table-3 applications
* :mod:`repro.experiments` — one function per paper figure/table

The names below are resolved on first access (PEP 562), so importing a
light submodule such as :mod:`repro.cli` does not load the simulator.
"""

from importlib import import_module

#: public name -> submodule that defines it.
_EXPORTS = {
    "DirectoryKind": "config",
    "InvalidationScheme": "config",
    "MigrationPolicy": "config",
    "SystemConfig": "config",
    "baseline_config": "config",
    "MultiGPUSystem": "gpu.system",
    "SimulationResult": "metrics.collector",
    "build_dnn_workload": "workloads.dnn",
    "build_workload": "workloads.suite",
}

__all__ = list(_EXPORTS)

__version__ = "1.0.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
