"""The default model must pass its own coherence auditor.

Six default-size runs (4 GPUs x 4 lanes x 1200 accesses, seed 1, no
faults injected) are audited every 2,000 cycles and at quiesce, one
per invalidation scheme plus an on-touch run.  Each must finish
without an auditor abort and retire every access.

Far faults are capped at ten times what these runs raise, so a
livelock (two GPUs stealing a page from each other forever) fails the
test instead of hanging it.

Each run's result is also pinned by digest.  Full 256-fault batches,
IRMB capacity pressure and deep MSHR coalescing appear at this size but
not in the 300-access runs of ``test_model_digest.py``, so a plumbing
change that moves the model only at default size fails here.  A
deliberate model change replaces ``RESULT_DIGESTS``; the failure
prints the new digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import InvalidationScheme, MigrationPolicy, baseline_config
from repro.experiments.runner import build_app_workload
from repro.gpu.system import MultiGPUSystem
from repro.metrics.export import result_to_json_bytes
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

#: name -> sha256 of the run's ``result_to_json_bytes``.
RESULT_DIGESTS = {
    "PR/broadcast": "895ae829fccc405243dfd7ed4b63ba21d64a1e459d14483547dc262b60b1ff14",
    "KM/directory": "3be8925e119b093a5181a3158ea7cfcd1df326f91bd8da43d257a2c54a536c3b",
    "PR/lazy": "d062653645ea9234df7b2f25e07b1f7d543a5e2f539dbb7e7730f64ff4808d0a",
    "PR/idyll": "7a46f410b085a715222aefe241c86df9011f24e9fd5861a6098330a5deb72c86",
    "C2D/zero-latency": "02ca11826383eb50ccd57f6743af669cc53f8714713b958c95bc80ab06f0d92e",
    "PR/idyll/on-touch": "fe4a7bbb261ec54f73aa516ffb14151e067cf867dfbe3828cb3b2ff800427bd1",
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
    digest = hashlib.sha256(result_to_json_bytes(result)).hexdigest()
    assert digest == RESULT_DIGESTS[name], f"model moved at default size: {name!r}: {digest!r}"
