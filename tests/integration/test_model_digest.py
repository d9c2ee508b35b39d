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
        'cb3c8211100e68c24958ca0aa9038125685fee1e5047ddb4593e297bdc966dfd',
        '9aa87dbf00336943ed07940f76f49f3886fd2f46e5a6f41e60775963d0cd18dc',
    ),
    'KM/zero-latency': (
        '5e9e807ac6a5a19f71b0769b7b8149381f72bc11b5c35bccd77b4e19eef08ed3',
        'c9a6470f713b899935831210f5c771375e87e3ed5c1e76fe6fe62edbfdbaa6d9',
    ),
    'KM/directory': (
        '5c5c9159e56c577a9e4db9760d6c63fa90e2ba51a844a597defb10ff15ef778a',
        '05c46b3a4d53a3ccbc7444513a29ed4aef11bac1fc1d753bdf723063d31423f6',
    ),
    'KM/lazy': (
        '5b4252a90e3a5226a07534828cded50a5d9abfdf97629604b5aa51843eb2459e',
        '2b587299f7ad00a7a168943cbc68ff1825bda7fc9472d2ac962c495e62c8c245',
    ),
    'KM/idyll': (
        '9843bcf96df6b70aa4a135946814f1585a3d9a7d793fff97f1a77e378dddf404',
        '851fc9c7f21fa06a0264bdf02f5e8538b3b4f84b005f295af539e8915725b3d6',
    ),
    'PR/broadcast': (
        '12076581d2a95728adf51151f92d135eda60b7b3004a73245101b4899b64a284',
        '7a743b15ec6beadf79f1b9d3799d218e1e1dcb0d1862f93c00dd6ddce98ff6e6',
    ),
    'PR/zero-latency': (
        '7f4801828a3d8633ad281b90c305649bb936e2102dc23a3f4dc583bfb66e396b',
        '7b884642335121247bb72ee8c520cfb63420492b8c72f50b191a504f38fe9337',
    ),
    'PR/directory': (
        '2781165d4440ef12401c78b7db4f46bee0509db64496c720823d243306ea7744',
        '701b321d2b4acbafd6b74f10ba4ad23a2fb87b61a680843543bee12358afe164',
    ),
    'PR/lazy': (
        '18e1851c1111a0ad73cf3340f33ce0e86392bb920b3fc900fe63194ec6fa46b5',
        '4b120fa4738aa1da6945f61b2864a00ec19fdd0d36bed650fa5001a66b105a48',
    ),
    'PR/idyll': (
        'ad835edd64e15cadaa0cdc5d88d0d9e203e0be289d8be4eb7f0065c46ebfdde8',
        'be520040da8395c7a3a4d4c118fd9ee79692fb9838e43c655360b1c7f3d51cdd',
    ),
    'KM/idyll/first-touch': (
        '7b1a2caf557f82ba972c4494be4e75f2482f5eaae3b1e28c325dce9e8d51497e',
        'f362c76191d011283a00d9df8cd011e67fc78f74372576ee4901df1a12b789f8',
    ),
    'KM/idyll/on-touch': (
        '304d1c8ab89a2e6987d9c171638243042226a4ed30b37d1e568be30054312fad',
        '24a4f6d14480e8d9e36947049d875ebfe52c376242e1e8ad6a59767822e71ab4',
    ),
    'PR/broadcast/on-touch': (
        'f6aff318c665065642f748ac5f9be2e5343b6654e6e5f3b5b304fca8c6f78907',
        'c6ffb24aec0d9dc86f8920f6653459a9bba64fced26872eae11484653263a411',
    ),
    'KM/idyll/in-memory': (
        'b245165f2038fc67c6c4525214b7ab116ed6d756743270694372958e0dd7bf28',
        '5cd0449c9e8d70beff52ea9ca842ee2e9184118db00654134f74e287b159c753',
    ),
    'KM/broadcast/transfw': (
        '1a6cb06f5d519453c88c53567338646c788de20c40be4b3db1e3c72886b5cee9',
        '2d7a15f7169b532f1ecc15c91c5cab62664d71f299600f56d912f92f787a3a2c',
    ),
    'KM/idyll/transfw': (
        '6d82a9cab0c4a53a0bb58814efc4e78cb4c3c4ae7e04a96143f78f3851991f8e',
        '409557030575b2b9bbec772fc56c597765ef1719589b7b648dd8379623f90109',
    ),
    'PR/idyll/replication': (
        '4926115f179ba490b52f2fec3d6a7959bb21214eee5be1cc35bbb60f481266d2',
        '97b889e370d72737abe0d1b4f8c061bdab1905d3af0495f5c8fe9dcc7f2b3006',
    ),
    'MM/broadcast/replication': (
        'a0fae45ca869355f6b7ccbd91fc14a27ebf966f17875f8edfe03c74a013d552b',
        '2dad856e46c3b50ec3fca82c7e73d9d3c9b55a1babc85a691417b63fa7edf21c',
    ),
    'ST/idyll/2mb': (
        '11a8197c99363880b31a456dcd6e5c8b05fcf95419ab85d9a82b847e5d635ad3',
        '8f3c4c692cb1dd70390eb64d31b91e6833bc1ea8d1833745edc7916383e99307',
    ),
    'KM/idyll/no-fastpath': (
        '9843bcf96df6b70aa4a135946814f1585a3d9a7d793fff97f1a77e378dddf404',
        '851fc9c7f21fa06a0264bdf02f5e8538b3b4f84b005f295af539e8915725b3d6',
    ),
    'KM/idyll/faults-light': (
        '38131b62f29f004be78aa1a7ea22352583248ca1a4795953b7322be46a96331d',
        '2a531dee42ba4001322b9f90b184dc2476423981b8cffc3d842df4f5312eb42b',
    ),
    'PR/broadcast/faults-light': (
        'f22ececd19d4309b3b479345c9896b457d349d23317a9845a009bf379aa02455',
        'fd73016809f123d4bfee0659a048c6e9e2f479a573e5f9476b8f9a0e5426c947',
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
