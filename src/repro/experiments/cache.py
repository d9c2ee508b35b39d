"""Persistent, content-addressed result cache.

Simulation runs are pure functions of ``(workload parameters, system
configuration, simulator code)``: identical inputs always reproduce the
same :class:`~repro.metrics.collector.SimulationResult`.  That makes
results safe to memoise *across processes* — a figure suite re-run, a
parallel sweep, and CI can all share one on-disk cache.

Keys are ``sha256`` digests over a canonical JSON rendering of every
input that can influence the run, plus a hash of the package's own
source files.  Any code edit therefore invalidates the whole cache;
coarse, but always sound, and rebuilding is exactly one figure-suite
run.

Layout: ``<root>/<key[:2]>/<key>.pkl`` — one framed, pickled
``SimulationResult`` per entry, written atomically (``os.replace``) so
concurrent workers racing on the same key can never leave a torn file.

Entries are *framed* against torn or bit-rotted files: ``RPC1`` magic,
a little-endian ``u64`` payload length, a 32-byte ``sha256`` digest of
the payload, then the pickle itself.  :meth:`ResultCache.get` verifies
all three before unpickling; anything short, overlong, or with a
mismatched digest is reported with a :class:`RuntimeWarning` and
treated as a miss (the run is recomputed and the entry overwritten) —
never an ``UnpicklingError`` escaping into a sweep.  Pre-framing
legacy entries fail the magic check and are likewise recomputed.

The root directory defaults to ``~/.cache/repro`` (respecting
``XDG_CACHE_HOME``) and is overridden by ``REPRO_CACHE_DIR``.

A cache can additionally be backed by a *shared remote* directory
(``remote=`` / ``REPRO_CACHE_REMOTE``) — a network filesystem mount, an
rsync target, or any directory several hosts can reach.  The remote
holds the same ``<key[:2]>/<key>.pkl`` layout.  On a local miss,
:meth:`ResultCache.get` pulls the remote entry, revalidates the full
RPC1 frame (the network hop is exactly where torn or truncated bytes
appear), installs it locally via the same atomic tmp+rename dance, and
serves it; :meth:`ResultCache.put` pushes every new entry to the remote
so any worker on any host can serve any hit.  Remote I/O failures are
never fatal: a broken remote degrades the cache to local-only with a
warning.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import struct
import tempfile
import warnings
from pathlib import Path
from typing import Any, Optional

from ..config import SystemConfig
from ..metrics.collector import SimulationResult

__all__ = [
    "ENTRY_MAGIC",
    "ResultCache",
    "cache_key",
    "code_version",
    "default_cache_dir",
    "default_remote_dir",
]

#: cache-entry frame: magic + u64 payload length, then a sha256 digest
#: of the payload, then the pickled result.
ENTRY_MAGIC = b"RPC1"
_ENTRY_HEADER = struct.Struct("<4sQ")
_DIGEST_LEN = 32

#: memoised per process — the package source does not change mid-run.
_CODE_VERSION: Optional[str] = None

#: shared-remote degradation warnings already emitted by this process.
#: A dead or corrupt remote tier would otherwise warn once per failed
#: get/put — thousands of identical lines across a sweep — when the
#: operator only needs to hear "degraded to local-only" once.
_REMOTE_WARNED: set = set()


def _warn_remote_once(tag: str, message: str, stacklevel: int = 2) -> None:
    """Emit a shared-remote degradation warning at most once per process
    (per failure kind)."""
    if tag in _REMOTE_WARNED:
        return
    _REMOTE_WARNED.add(tag)
    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel + 1)


def _reset_remote_warnings() -> None:
    """Test hook: re-arm the once-per-process degradation warnings."""
    _REMOTE_WARNED.clear()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def default_remote_dir() -> Optional[Path]:
    """``$REPRO_CACHE_REMOTE`` as a path, or None (no shared backend)."""
    env = os.environ.get("REPRO_CACHE_REMOTE")
    return Path(env) if env else None


def code_version() -> str:
    """Digest of every ``.py`` file in the ``repro`` package.

    Folding the code into the key means a cache can never serve results
    produced by a different simulator version — the staleness failure
    mode that plagues hand-rolled "delete the cache when you remember"
    schemes.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        digest = hashlib.sha256()
        package_root = Path(__file__).resolve().parents[1]
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def _jsonify(obj: Any) -> Any:
    """JSON fallback for config values (str-Enums, mostly)."""
    value = getattr(obj, "value", None)
    if value is not None:
        return value
    raise TypeError(f"cannot canonicalise {obj!r} for a cache key")


def cache_key(
    app: str,
    config: SystemConfig,
    *,
    scale: float,
    lanes: int,
    accesses_per_lane: int,
    seed: int,
) -> str:
    """Stable digest of one run's full input space.

    Uses ``sha256`` over canonical JSON rather than Python's ``hash()``
    (which is salted per process and therefore useless on disk).

    The whole ``SystemConfig`` is folded in via ``asdict``, so every
    new knob — including replay-tier selection like
    ``fastpath_enabled`` / ``fastpath_batch_limit`` — invalidates cached
    results automatically; results must never be shared across replay
    tiers even though the tiers are equivalence-tested, because a
    kernel bug would otherwise be *served from cache* after the fix.
    """
    payload = {
        "app": app,
        "scale": scale,
        "lanes": lanes,
        "accesses_per_lane": accesses_per_lane,
        "seed": seed,
        "config": dataclasses.asdict(config),
        "code": code_version(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_jsonify)
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """On-disk store of pickled :class:`SimulationResult` objects.

    ``remote`` names a shared directory (same layout) used as a second
    tier: local miss → validated pull from remote; local put → push to
    remote.  Defaults to ``REPRO_CACHE_REMOTE`` when unset; pass
    ``remote=False`` to force local-only regardless of environment.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        *,
        remote: Any = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        if remote is False:
            self.remote: Optional[Path] = None
        elif remote is None:
            self.remote = default_remote_dir()
        else:
            self.remote = Path(remote)
        self.hits = 0
        self.misses = 0
        self.remote_hits = 0
        self.remote_pushes = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _remote_path(self, key: str) -> Optional[Path]:
        if self.remote is None:
            return None
        return self.remote / key[:2] / f"{key}.pkl"

    def _validate(self, blob: bytes) -> bytes:
        """Return the verified pickle payload or raise ``ValueError``."""
        if len(blob) < _ENTRY_HEADER.size + _DIGEST_LEN:
            raise ValueError("truncated header")
        magic, length = _ENTRY_HEADER.unpack_from(blob)
        if magic != ENTRY_MAGIC:
            raise ValueError(f"bad magic {magic!r} (legacy or foreign file)")
        payload = blob[_ENTRY_HEADER.size + _DIGEST_LEN:]
        if len(payload) != length:
            raise ValueError(f"payload length {len(payload)} != recorded {length}")
        digest = blob[_ENTRY_HEADER.size:_ENTRY_HEADER.size + _DIGEST_LEN]
        if hashlib.sha256(payload).digest() != digest:
            raise ValueError("payload digest mismatch")
        return payload

    def get(self, key: str) -> Optional[SimulationResult]:
        """Cached result for ``key``, or None on a miss.

        A torn, truncated, bit-flipped, or legacy-format entry is
        *never* an exception: it warns and counts as a miss, so the run
        is recomputed and the next :meth:`put` overwrites the damage.
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            blob = self._fetch_remote(key)
            if blob is None:
                self.misses += 1
                return None
        try:
            payload = self._validate(blob)
            result = pickle.loads(payload)
        except (ValueError, pickle.PickleError, EOFError,
                AttributeError, ImportError, MemoryError) as exc:
            warnings.warn(
                f"discarding corrupt result-cache entry {path}: {exc}; "
                f"the run will be recomputed",
                RuntimeWarning,
                stacklevel=2,
            )
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _fetch_remote(self, key: str) -> Optional[bytes]:
        """Pull ``key`` from the shared backend, validate the RPC1
        frame, and install it locally (atomic rename) before returning
        the raw blob.  Any remote or validation failure is a miss — a
        corrupt shared entry must never poison local state, so the
        local install only happens after the frame checks out."""
        rpath = self._remote_path(key)
        if rpath is None:
            return None
        try:
            blob = rpath.read_bytes()
        except OSError:
            return None
        try:
            self._validate(blob)
        except ValueError as exc:
            _warn_remote_once(
                "pull",
                f"ignoring corrupt shared-cache entry {rpath}: {exc}; "
                f"the run will be recomputed (further shared-cache pull "
                f"failures this process will degrade silently)",
                stacklevel=3,
            )
            return None
        self._write_atomic(self._path(key), blob)
        self.remote_hits += 1
        return blob

    def put(self, key: str, result: SimulationResult) -> None:
        """Store ``result`` atomically; concurrent writers of the same
        key are benign (last rename wins, both files are identical).
        With a shared backend configured, the framed blob is also
        pushed remotely so peers on other hosts hit without computing;
        a failed push degrades to local-only with a warning."""
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        header = _ENTRY_HEADER.pack(ENTRY_MAGIC, len(payload))
        digest = hashlib.sha256(payload).digest()
        blob = header + digest + payload
        self._write_atomic(self._path(key), blob)
        rpath = self._remote_path(key)
        if rpath is not None:
            if self._write_atomic(rpath, blob):
                self.remote_pushes += 1
            else:
                _warn_remote_once(
                    "push",
                    f"failed to push cache entry to shared backend {self.remote}; "
                    f"continuing local-only (further push failures this "
                    f"process will degrade silently)",
                    stacklevel=2,
                )

    @staticmethod
    def _write_atomic(path: Path, blob: bytes) -> bool:
        """tmp + fsync + rename in ``path``'s own directory, so readers
        racing a writer (local peers or remote pullers) can only ever
        observe a complete frame."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        except OSError:
            return False
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            return True
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in list(self.root.glob("*/*.pkl")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
