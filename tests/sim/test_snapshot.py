"""Checkpoint file format: framing, validation, atomicity, controller."""

import hashlib
import pickle

import pytest

from repro.experiments.cache import code_version
from repro.sim.snapshot import (
    _DIGEST_LEN,
    _HEADER,
    FORMAT_MAGIC,
    FORMAT_VERSION,
    CheckpointController,
    CheckpointError,
    dumps_checkpoint,
    load_checkpoint,
    save_checkpoint,
)


def _payload():
    """Stands in for the ``(system, workload)`` pair."""
    return ({"now": 1234, "gpus": [{"x": 1}]}, {"name": "w"})


def _framed(blob, version=FORMAT_VERSION, code=None):
    code = code_version() if code is None else code
    return (
        _HEADER.pack(FORMAT_MAGIC, version, code.encode(), len(blob))
        + hashlib.sha256(blob).digest()
        + blob
    )


class TestFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "a.ckpt"
        save_checkpoint(_payload(), path)
        assert load_checkpoint(path) == _payload()

    def test_frame_layout(self):
        data = dumps_checkpoint(_payload())
        magic, version, code, length = _HEADER.unpack_from(data)
        assert magic == FORMAT_MAGIC
        assert version == FORMAT_VERSION
        assert code == code_version().encode()
        assert len(data) == _HEADER.size + _DIGEST_LEN + length

    def test_no_temp_files_left(self, tmp_path):
        save_checkpoint(_payload(), tmp_path / "a.ckpt")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")


class TestValidation:
    def test_truncated_header(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(b"RC")
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "a.ckpt"
        data = dumps_checkpoint(_payload())
        path.write_bytes(data[:-3])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.ckpt"
        data = dumps_checkpoint(_payload())
        path.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(_framed(pickle.dumps(_payload()), FORMAT_VERSION + 9))
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(path)

    def test_stale_version(self, tmp_path):
        # A version-1 file pickles TraceBuffer with a ``_np`` slot the
        # class no longer has; the header check must reject it before
        # unpickling can fail some other way.
        path = tmp_path / "a.ckpt"
        path.write_bytes(_framed(pickle.dumps({"version": 1, "now": 0}), 1))
        with pytest.raises(CheckpointError, match="format version 1"):
            load_checkpoint(path)

    def test_format_2_is_stale(self, tmp_path):
        # A version-2 file of an unfaulted run has no invalidation
        # tracker in its driver state and keeps each GPU's received
        # sequence numbers; the header check must reject it before
        # restore trips over either.
        path = tmp_path / "a.ckpt"
        path.write_bytes(_framed(pickle.dumps({"version": 2, "now": 0}), 2))
        with pytest.raises(CheckpointError, match="format version 2"):
            load_checkpoint(path)

    def test_other_package_source_is_refused_before_unpickling(self, tmp_path):
        # A pickle names classes and attributes, so only the source that
        # wrote a checkpoint may load it.  The payload here is not even a
        # pickle: the code digest must reject the file before unpickling.
        path = tmp_path / "a.ckpt"
        other = "0" * 16 if code_version() != "0" * 16 else "1" * 16
        path.write_bytes(_framed(b"not a pickle", code=other))
        with pytest.raises(CheckpointError, match="other package source"):
            load_checkpoint(path)

    def test_bit_flip_fails_digest(self, tmp_path):
        path = tmp_path / "a.ckpt"
        data = bytearray(dumps_checkpoint(_payload()))
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_non_dict_payload_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(dumps_checkpoint(["not", "a", "dict"]))
        with pytest.raises(CheckpointError, match="invalid payload"):
            load_checkpoint(path)


class TestController:
    def test_requires_directory(self):
        from repro.config import SystemConfig
        from repro.gpu.system import MultiGPUSystem

        system = MultiGPUSystem(SystemConfig(num_gpus=1))
        with pytest.raises(CheckpointError, match="directory"):
            CheckpointController(system, workload=None, every=100, directory=None)

    def test_checkpoint_names_sort_by_cycle(self, tmp_path):
        # One checkpoint at exactly every ``every`` cycles while the run
        # is live, named by zero-padded cycle, so lexicographic order is
        # chronological across a change in digit count.
        from repro.config import SystemConfig
        from repro.gpu.system import MultiGPUSystem
        from repro.workloads.base import Workload

        wl = Workload(name="w", traces=[[[(1500, 1, False)] * 8]])
        system = MultiGPUSystem(SystemConfig(num_gpus=1))
        result = system.run(wl, checkpoint_every=700, checkpoint_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        cycles = [int(name[len("ckpt-"):-len(".ckpt")]) for name in names]
        assert cycles == list(range(700, result.exec_time, 700))
        assert cycles[0] < 1000 < cycles[-1]
        assert system._controller.written == len(names)

    def test_run_requires_dir_via_system(self, tmp_path):
        from repro.config import SystemConfig
        from repro.gpu.system import MultiGPUSystem
        from repro.workloads.base import Workload

        wl = Workload(name="w", traces=[[[(10, 1, False)]]])
        system = MultiGPUSystem(SystemConfig(num_gpus=1))
        with pytest.raises(CheckpointError):
            system.run(wl, checkpoint_every=100, checkpoint_dir=None)

    def test_source_is_digested_at_run_start(self, tmp_path, monkeypatch):
        # The stamp names the code this process imported: it is taken
        # when the controller is armed, not at the first dump, by which
        # time the files on disk may have changed.
        from repro.config import SystemConfig
        from repro.experiments import cache
        from repro.gpu.system import MultiGPUSystem

        monkeypatch.setattr(cache, "_CODE_VERSION", None)
        system = MultiGPUSystem(SystemConfig(num_gpus=1))
        CheckpointController(system, workload=None, every=100, directory=tmp_path)
        assert cache._CODE_VERSION is not None
        assert not list(tmp_path.iterdir())
