"""The default model must pass its own coherence auditor.

Six default-size runs (4 GPUs x 4 lanes x 1200 accesses, seed 1, no
faults injected) are audited every 2,000 cycles and at quiesce, one
per invalidation scheme plus an on-touch run.  Each must finish
without an auditor abort and retire every access.

Far faults are capped at ten times what these runs raise, so a
livelock (two GPUs stealing a page from each other forever) fails the
test instead of hanging it.
"""

from __future__ import annotations

import pytest

from repro.config import InvalidationScheme, MigrationPolicy, baseline_config
from repro.experiments.runner import build_app_workload
from repro.gpu.system import MultiGPUSystem
from repro.sim.engine import SimulationAbort
from repro.uvm.driver import UVMDriver

GPUS, LANES, ACCESSES, SEED = 4, 4, 1200, 1
AUDIT_INTERVAL = 2000

#: about ten times the most far faults any of these runs raises
#: (9,318, PR/idyll/on-touch).
MAX_FAR_FAULTS = 100_000

_S = InvalidationScheme

#: name -> (app, scheme, migration policy)
RUNS = {
    "PR/broadcast": ("PR", _S.BROADCAST, MigrationPolicy.ACCESS_COUNTER),
    "KM/directory": ("KM", _S.DIRECTORY, MigrationPolicy.ACCESS_COUNTER),
    "PR/lazy": ("PR", _S.LAZY, MigrationPolicy.ACCESS_COUNTER),
    "PR/idyll": ("PR", _S.IDYLL, MigrationPolicy.ACCESS_COUNTER),
    "C2D/zero-latency": ("C2D", _S.ZERO_LATENCY, MigrationPolicy.ACCESS_COUNTER),
    "PR/idyll/on-touch": ("PR", _S.IDYLL, MigrationPolicy.ON_TOUCH),
}


@pytest.fixture
def far_fault_cap(monkeypatch):
    raise_far_fault = UVMDriver.raise_far_fault

    def capped(self, *args, **kwargs):
        if self.stats.counter("far_faults").value >= MAX_FAR_FAULTS:
            raise SimulationAbort(f"more than {MAX_FAR_FAULTS} far faults: livelock")
        return raise_far_fault(self, *args, **kwargs)

    monkeypatch.setattr(UVMDriver, "raise_far_fault", capped)


@pytest.mark.parametrize("name", list(RUNS))
def test_default_run_is_audit_clean(name, far_fault_cap):
    app, scheme, policy = RUNS[name]
    config = (
        baseline_config(GPUS)
        .with_scheme(scheme)
        .with_policy(policy)
        .with_faults(audit_interval=AUDIT_INTERVAL, audit_on_quiesce=True)
    )
    workload = build_app_workload(
        app, num_gpus=GPUS, page_size=config.page_size, scale=1.0,
        lanes=LANES, accesses_per_lane=ACCESSES, seed=SEED,
    )
    system = MultiGPUSystem(config, seed=SEED)
    result = system.run(workload)
    assert not result.aborted, result.abort_reason
    assert result.accesses == workload.total_accesses()
    assert system.audits_run > 1
