"""Checkpoint file format: framing, validation, atomicity, controller."""

import hashlib
import os
import pickle

import pytest

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
    return {"version": FORMAT_VERSION, "now": 1234, "gpus": [{"x": 1}]}


def _framed(payload, version):
    blob = pickle.dumps(payload)
    return (
        _HEADER.pack(FORMAT_MAGIC, version, len(blob))
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
        magic, version, length = _HEADER.unpack_from(data)
        assert magic == FORMAT_MAGIC
        assert version == FORMAT_VERSION
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
        path.write_bytes(_framed(_payload(), FORMAT_VERSION + 9))
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(path)

    def test_stale_version(self, tmp_path):
        # A version-1 file pickles TraceBuffer with a ``_np`` slot the
        # class no longer has; the header check must reject it before
        # unpickling can fail some other way.
        path = tmp_path / "a.ckpt"
        path.write_bytes(_framed({"version": 1, "now": 0}, 1))
        with pytest.raises(CheckpointError, match="format version 1"):
            load_checkpoint(path)

    def test_format_2_is_stale(self, tmp_path):
        # A version-2 file of an unfaulted run has no invalidation
        # tracker in its driver state and keeps each GPU's received
        # sequence numbers; the header check must reject it before
        # restore trips over either.
        path = tmp_path / "a.ckpt"
        path.write_bytes(_framed({"version": 2, "now": 0}, 2))
        with pytest.raises(CheckpointError, match="format version 2"):
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
        # zero-padded cycle numbers keep lexicographic == chronological.
        from repro.sim.snapshot import CheckpointController as C

        assert "ckpt-000000001000.ckpt" < "ckpt-000000010000.ckpt"
        assert C.RETRY_DELAY > 0

    def test_run_requires_dir_via_system(self, tmp_path):
        from repro.config import SystemConfig
        from repro.gpu.system import MultiGPUSystem
        from repro.workloads.base import Workload

        wl = Workload(name="w", traces=[[[(10, 1, False)]]])
        system = MultiGPUSystem(SystemConfig(num_gpus=1))
        with pytest.raises(CheckpointError):
            system.run(wl, checkpoint_every=100, checkpoint_dir=None)
