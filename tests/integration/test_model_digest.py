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
        'b19c1ce82b75382fe1cf933c86b3d4cff918f5dd7b046ae68a776cb81b87643a',
        '59493bfb4bfe4d7d3d854f35e055576aef7112da7823960a8e01de67637be2bd',
    ),
    'KM/zero-latency': (
        '6532c7de75802d12d328ceac052c8f3aa468c0290ff0479da30109b61a27e539',
        '308afdadd08e32fe664cb6a53e9a70f5ef9e7b977e3e62ec72e172d8c5b3201a',
    ),
    'KM/directory': (
        '2c920e106c92d6a0c12050543019982836aeeaf3b3faeabb887cbaacc46fabfe',
        '1feb575d4a04e35f42c173202b2096b0d5ec3e7fa83a847eadb2e8606760d8fe',
    ),
    'KM/lazy': (
        '70e306aa2f8fc8bb0c819c147585d1272abc6e5206d344aba6ca4101741910ed',
        'a01e3e025a0e815783b2523ac6767dd6492be373ca70e8f6da60c8b9fce6ffe9',
    ),
    'KM/idyll': (
        'cff5c3cbc9cb098b2f95d56e3eb13bc63f271ea67f4d0d67bcc9fee68be2be6d',
        'ef6803bc246885024387ce725d9506ce626db5d5474f9c308ce7c15e66743eee',
    ),
    'PR/broadcast': (
        '1bc80aa6ad03e76cc9e170cd0356d3d2fcac6b556434540f86152fc547e74a02',
        '3f46028a3a8cb9c8d8d8635240f5190792b463d942ff1265a2fef21c9da76e6b',
    ),
    'PR/zero-latency': (
        'ba5c696394d7325f0927c2ca65d02a9180b72fa4934356be8b0926e9c665318f',
        '2192f6cb25e106964bce7b9295b9851b4033ef5369f2034ba2c8b62aefb8c132',
    ),
    'PR/directory': (
        '623450d964d674fef6e6b0949134cdd45165fad32d839c8f38ec6e07e3bdbeca',
        '13d078b9150f1299ff6ec34e7c3297c4920936be2ae80ed55d3bb1829e1cf86e',
    ),
    'PR/lazy': (
        'ef6b3e93295ef395ab30c6f40d919a33d37a85c889d79a1095da81a2891d99fb',
        'aaa0926076f9ad949990e9b0b923c3ee9d25b6db5fbf9dbe8fa4f1080a3aa4fb',
    ),
    'PR/idyll': (
        '1e5b34512360140627ccb82781717cd10fe65cbf2381ee2aeb8ddb248f72223d',
        '94bc3534d4ccb1ec5096955827427b20eb0a527152c7cd832b7c5a56374d0963',
    ),
    'KM/idyll/first-touch': (
        '1cb2eba7414c4f6b54fa415367bbf0a06d6ec0f79c84b5d5d3a6f14b5f239eb0',
        '8a2b9e54d87b73cdeab400047a27100963cfdc2563bff0082ec8b2a6907c66a5',
    ),
    'KM/idyll/on-touch': (
        '2b552d57ba3a1290c3330859a37d775261cfcd6ec7334c9107dc82c5bbab1acb',
        'e11c88e5cc6d4c7bf1eb4df8362929262471c2924393d8578a2d1110583ae4a5',
    ),
    'PR/broadcast/on-touch': (
        'fe47fb80d12a48f13121d4f71d40d20c2a61d57f95a80d5130e6fe92ec2788df',
        '34e17e908b602afa2a1a21de8e5247cfafb815c4559a23ecb4a716b676375348',
    ),
    'KM/idyll/in-memory': (
        'fb9a78dee12b3c5d2b00509f09c167a075e4a1a2a8350bbddf54f801ee809034',
        '69cbdb622f28dcc647b76ae8e8d7c3141134cd6f3071b540673d0ac47b0d77a4',
    ),
    'KM/broadcast/transfw': (
        '679113393315b81e0eeb6ba40587ac3ab7399809f9f1ecb36d6cbbd48d7af54d',
        '6a192faa6d39a1b50c05bb795952b81b67860f5dda62411d7fb2dc956da3a460',
    ),
    'KM/idyll/transfw': (
        '4b68bb4ce83ce04f7e40c21b2f073515dd5db1bac2beb30d62d4817b81614a92',
        'b338e58b73fe509c3062c33f50e99c88637cdab979402e7c8036367b029ca3d3',
    ),
    'PR/idyll/replication': (
        'b4e1b7daf519f21e51b14ef76fd7162d237517ef8d1405f3f73a199e2d2c1bff',
        'bec12bbe68ba06bdeab167797a405c6c0bf711c3ab5ee10394362b12ae4e39ff',
    ),
    'MM/broadcast/replication': (
        '9a7dad884b03fe8a62279d58014720bdb555504b0ac3928f461c43dd8f1e04be',
        'ec1f5d68e16cdafbf94938420aedc3ca79b499a19970e18f059fa43f32e439fc',
    ),
    'ST/idyll/2mb': (
        '11a8197c99363880b31a456dcd6e5c8b05fcf95419ab85d9a82b847e5d635ad3',
        '8f3c4c692cb1dd70390eb64d31b91e6833bc1ea8d1833745edc7916383e99307',
    ),
    'KM/idyll/no-fastpath': (
        'cff5c3cbc9cb098b2f95d56e3eb13bc63f271ea67f4d0d67bcc9fee68be2be6d',
        'ef6803bc246885024387ce725d9506ce626db5d5474f9c308ce7c15e66743eee',
    ),
    'KM/idyll/faults-light': (
        'de42a8e2c67a67fe4827e35e9cb86989c9094c91df87a654a7a9831611a5d7fe',
        '5129d8b64fe1c5d7ad18419410c350ded94bc4dcafe941dc223469c6cc5d0d6e',
    ),
    'PR/broadcast/faults-light': (
        'f8535b786823403e4964b7ea8be85ef60188b22e2cae72e0326388d88761b3f8',
        '56362448bead82fdf79ab611f3b057dceff817cc356dfdc08d128ef1073c4089',
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
