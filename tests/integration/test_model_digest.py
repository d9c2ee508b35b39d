"""Pin the simulated model: one digest per small run, over every arm
the access, walk and fault chains take.

Each run is 4 GPUs x 4 lanes x 300 accesses at seed 7.  Its entry pins
the sha256 of the canonical result bytes (``result_to_json_bytes``) and
the sha256 of every component's ``StatsGroup.snapshot()``, keyed by
group name.  Zero-valued entries are dropped from the stats snapshot,
so binding a counter earlier (or later) is not a model change; any
moved count, latency sample or histogram bucket is.

A refactor of the simulator's plumbing must leave this table as it is.
A deliberate model change replaces it: on a mismatch the test prints
the full new table, ready to paste over ``EXPECTED``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.config import (
    DirectoryKind,
    InvalidationScheme,
    MigrationPolicy,
    baseline_config,
)
from repro.experiments.runner import build_app_workload
from repro.faults.profiles import parse_fault_spec
from repro.gpu.system import MultiGPUSystem
from repro.metrics.export import result_to_json_bytes
from repro.sim.stats import StatsGroup

GPUS, LANES, ACCESSES, SEED = 4, 4, 300, 7

_S = InvalidationScheme
_P = MigrationPolicy


def _config(scheme, **overrides):
    return replace(baseline_config(GPUS).with_scheme(scheme), **overrides)


#: name -> (app, config).  Every arm of the per-access, per-walk and
#: per-fault chains: the five schemes on two apps, the three migration
#: policies, the in-memory directory, Trans-FW, replication, 2 MB
#: pages, the pure event path, and the hardened (faulted) protocol.
RUNS = {
    **{f"KM/{s.value}": ("KM", _config(s)) for s in _S},
    **{f"PR/{s.value}": ("PR", _config(s)) for s in _S},
    "KM/idyll/first-touch": ("KM", _config(_S.IDYLL, migration_policy=_P.FIRST_TOUCH)),
    "KM/idyll/on-touch": ("KM", _config(_S.IDYLL, migration_policy=_P.ON_TOUCH)),
    "PR/broadcast/on-touch": ("PR", _config(_S.BROADCAST, migration_policy=_P.ON_TOUCH)),
    "KM/idyll/in-memory": ("KM", _config(_S.IDYLL, directory_kind=DirectoryKind.IN_MEMORY)),
    "KM/broadcast/transfw": ("KM", _config(_S.BROADCAST, transfw_enabled=True)),
    "KM/idyll/transfw": ("KM", _config(_S.IDYLL, transfw_enabled=True)),
    "PR/idyll/replication": ("PR", _config(_S.IDYLL, page_replication=True)),
    "MM/broadcast/replication": ("MM", _config(_S.BROADCAST, page_replication=True)),
    "ST/idyll/2mb": ("ST", _config(_S.IDYLL, page_size=2 * 1024 * 1024)),
    "KM/idyll/no-fastpath": ("KM", _config(_S.IDYLL, fastpath_enabled=False)),
    "KM/idyll/faults-light": (
        "KM", _config(_S.IDYLL).with_faults(parse_fault_spec("light")),
    ),
    "PR/broadcast/faults-light": (
        "PR", _config(_S.BROADCAST).with_faults(parse_fault_spec("light")),
    ),
}


def _stats_groups(root) -> dict:
    """Every StatsGroup reachable from ``root`` through repro objects,
    keyed by group name (a group shared by two owners counts once)."""
    found, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, StatsGroup):
            assert found.setdefault(obj.name, obj) is obj, f"two groups named {obj.name}"
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
            continue
        if not type(obj).__module__.startswith("repro."):
            continue
        attrs = list(getattr(obj, "__dict__", {}).values())
        for cls in type(obj).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if hasattr(obj, slot):
                    attrs.append(getattr(obj, slot))
        stack.extend(attrs)
    return found


def _nonzero(snapshot: dict) -> dict:
    return {
        "counters": {n: v for n, v in snapshot["counters"].items() if v},
        "latencies": {n: v for n, v in snapshot["latencies"].items() if v[0]},
        "histograms": {
            n: {k: w for k, w in b.items() if w}
            for n, b in snapshot["histograms"].items()
            if any(b.values())
        },
    }


def _digest(app: str, config) -> tuple:
    workload = build_app_workload(
        app, num_gpus=GPUS, page_size=config.page_size, scale=1.0,
        lanes=LANES, accesses_per_lane=ACCESSES, seed=SEED,
    )
    system = MultiGPUSystem(config, seed=SEED)
    result = system.run(workload)
    stats = {
        name: _nonzero(group.snapshot())
        for name, group in sorted(_stats_groups(system).items())
    }
    stats = {name: snap for name, snap in stats.items() if any(snap.values())}
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":")).encode()
    return (
        hashlib.sha256(result_to_json_bytes(result)).hexdigest(),
        hashlib.sha256(blob).hexdigest(),
    )


EXPECTED = {
    'KM/broadcast': (
        '3556f5927e150ea02b668d48ad4d45c11f19e8cad932ba041e40cc0c91ef7c9d',
        '24f07c27e38dbfe9c6302f91b6c570604f33a564ae5dcfef9379a8c9d8319961',
    ),
    'KM/zero-latency': (
        'f6163e331366910dcbea34125c9cd96083ef39ba55479f602521b6d4905f5f90',
        '10d6d7aafe5c2a93d72f1c751cd75b9c09923b9bb5a10e1e48e680bae0bdc8fa',
    ),
    'KM/directory': (
        '592404b39fbb550cf893342f72703b86460497e1a187ff489576a3bcf05711a0',
        'f09272ff0eb8663c23682af108b630050e39ee6cf15ca4b8edd3b5079a924951',
    ),
    'KM/lazy': (
        'eefcbe7667eee5d9696d4a667686c89ecc12fe86f9a9f84cf3a8dda63d0c935b',
        'e6a14c8cd82b7de8fa2d652c9203618636935cb2b3356b515d66d10196640d89',
    ),
    'KM/idyll': (
        '9927eb537ed7463f8637c6069bfb2fed49e62edec050355f55c686a22cb90176',
        '483c1fc276610ff3d49905921028208f9ce17039e11d6b9670ca588e678668de',
    ),
    'PR/broadcast': (
        '1841577336f8291ff2d897d8462d48ee66c8ad857e8d3c5917508815cf73be62',
        'c5a02bcc2f26ec2571f2a6479d8d20e4cf2f6ab136e6397f489726eb33754b05',
    ),
    'PR/zero-latency': (
        '33fac28b96fa37d06b0d81b9b025a516cfa8dd920eea738ddd0aa51a9ee10086',
        '5ff340171a1ff4665f878c527a0e1a6cabbf2ff251d0f7d99692010109a7a090',
    ),
    'PR/directory': (
        'e7d4adbf1741cd8fceef8dd48e193966da95d8a7c468afbacae3b3eaf3cd4590',
        '9af479d718725125cfd916adce48b13976fea7a024de4c708e6a32328abb4349',
    ),
    'PR/lazy': (
        '2aa0fb66fbdc6f6e5cb985f79b2c4ef8666413349db4387db7e3244c4f37ac93',
        '6ef08b5e2154528ab197abc55132c6ffb8c5b55c9374442bd66cb85d2880accf',
    ),
    'PR/idyll': (
        '4889c94631145186e4773cebaed32fe1b98ad2e5367d5b6d385af5e689f74476',
        '6173902ddbaca414b8f7d39d00970f546c749ea9c4af1f38c9cece31b9308131',
    ),
    'KM/idyll/first-touch': (
        '1cb2eba7414c4f6b54fa415367bbf0a06d6ec0f79c84b5d5d3a6f14b5f239eb0',
        '8a2b9e54d87b73cdeab400047a27100963cfdc2563bff0082ec8b2a6907c66a5',
    ),
    'KM/idyll/on-touch': (
        'ebeedb52bbcd8e03d3f940a215988719c9fb0d5fd160c53db1e85b6e53159dbf',
        '910877c0e4fd981c9c2f201a13db2597aaa1aa125add89a920416cdd2d71893d',
    ),
    'PR/broadcast/on-touch': (
        'e3ee728a46523c0ad86bd9909149c2f53be6f48470a4066f70df8f79db8df956',
        '420203b2b998e63c85e1b949f44d07beb5c0c2a06b550eadd33363654f200e02',
    ),
    'KM/idyll/in-memory': (
        '89af5f4b2d6dbb1194833dc46ba3e2bbc674447e0166cd82aa5642b456c51be0',
        'cbb61894b39f58dfe23ed6b5db2a9d85154b511f2c0923d23a783493637665ce',
    ),
    'KM/broadcast/transfw': (
        '389b60ed1674da80cf5eda66e3d72ddb57533810755265911cda588aa7438919',
        '116515f2994a6e16c900285ee6da5336b718fa96d58194b59761bc215f1d7394',
    ),
    'KM/idyll/transfw': (
        'd8abd2e094e6b47b11232f5a17041bcf04e7131ecd83fc6b53c17bfa27b90141',
        '7f8efa29acd0ea3c36dc93c4021ab749120f3b5cc7131e841494191b906b5f24',
    ),
    'PR/idyll/replication': (
        'f5488b9322750656d8cd15c2d42eed2f859f795526392693a5a410ea9413144e',
        'f123c76f913a4f7630829566359aee000ad03c9ccbb84694560a9e50d1f7d60d',
    ),
    'MM/broadcast/replication': (
        '9a7dad884b03fe8a62279d58014720bdb555504b0ac3928f461c43dd8f1e04be',
        'ec1f5d68e16cdafbf94938420aedc3ca79b499a19970e18f059fa43f32e439fc',
    ),
    'ST/idyll/2mb': (
        '889522ba849d7d3485e21212b53e7bbf75160da4c9f3076d3d986a7240f7305d',
        'bbde1c70a3e2c134f579b0712c6656295d06655455e73231414bb7dc9b8d33e3',
    ),
    'KM/idyll/no-fastpath': (
        '9927eb537ed7463f8637c6069bfb2fed49e62edec050355f55c686a22cb90176',
        '483c1fc276610ff3d49905921028208f9ce17039e11d6b9670ca588e678668de',
    ),
    'KM/idyll/faults-light': (
        '5dd70fa9ffd1727f07a0d369964850d52fb020319a17a919ccac7f7725d1a8bb',
        '18d74fe0f53af37fa9242df072f3783b4cc764f8259d650a78837ec82e13a999',
    ),
    'PR/broadcast/faults-light': (
        'b2016ce7abe38954e5ae8aa7291a96541c65ede39d3ad040762ea551f9e6a79b',
        '571971b3c0ea56223d7449b531f93eb67b0fb2c50bfb1fa9cbf28b4150737ca4',
    ),
}


def test_model_digests_unchanged():
    actual = {name: _digest(app, config) for name, (app, config) in RUNS.items()}
    if actual != EXPECTED:
        table = "\n".join(f"    {name!r}: {digests!r}," for name, digests in actual.items())
        changed = sorted(n for n in actual if actual[n] != EXPECTED.get(n))
        pytest.fail(
            f"model digest changed for {changed}.\n"
            "If the model change is deliberate, replace EXPECTED with:\n"
            f"EXPECTED = {{\n{table}\n}}"
        )
