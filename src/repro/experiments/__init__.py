"""Experiment harness: one entry point per table/figure of the paper.

The names below are resolved on first access (PEP 562): importing this
package does not load the figures, the sweep supervisor or the
simulator behind them.
"""

from importlib import import_module

_FIGURES = [
    "table3_mpki",
    "fig01_invalidation_overhead",
    "fig02_migration_policies",
    "fig04_page_sharing",
    "fig05_walker_request_mix",
    "fig06_demand_latency_no_inval",
    "fig07_migration_waiting_share",
    "fig11_overall_performance",
    "fig12_demand_latency_idyll",
    "fig13_invalidation_requests",
    "fig14_migration_waiting_idyll",
    "fig15_irmb_sizes",
    "fig16_ptw_threads",
    "fig17_l2_tlb_2048",
    "fig18_gpu_scaling",
    "fig19_unused_bits",
    "fig20_counter_threshold",
    "fig21_large_pages",
    "fig22_page_replication",
    "fig23_transfw",
    "fig24_dnn",
]

#: public name -> submodule that defines it.
_EXPORTS = {
    "ExperimentRunner": "runner",
    "ParallelRunner": "parallel",
    "ResultCache": "cache",
    "cache_key": "cache",
    "code_version": "cache",
    "default_runner": "runner",
    "lane_budget": "runner",
    "simulate": "runner",
    **{name: "figures" for name in _FIGURES},
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
