"""Content-addressed snapshot caching.

Batfish's continuous-validation workload (§4.3, §5.1) re-analyzes the
same snapshot many times — differential runs compare a candidate
against a baseline that was already simulated, and the §6 benchmarks
re-run identical networks. A content-addressed disk cache turns those
repeats from O(full pipeline) into O(hash lookup):

* **Key = content, not name.** The cache key is SHA-256 over the sorted
  ``(filename, config_text)`` pairs plus an *engine version* fingerprint
  (a hash of every source file of the ``repro`` package). Editing one
  byte of any config, or of any analysis code, changes the key and
  invalidates the entry; nothing is ever invalidated by time.
* **Two artifact kinds, written only for sessions built from text.**
  ``snapshot`` entries hold the parsed vendor-independent model (Stage 1
  output); ``dataplane`` entries hold the computed
  :class:`~repro.routing.engine.DataPlane` (Stage 2 output), keyed
  additionally by the convergence settings and policy semantics that
  shaped the simulation. They are what a restarted service or a
  repeated CI run reads back. Nothing else pays for its store: a delta
  session derives from its base in memory (unchanged files keep the
  base's parsed devices, :mod:`repro.delta`) and its key never repeats,
  and a question's coverage record lives and dies with the session it
  ran on (``Session.coverage_records``).
* **Location.** ``REPRO_CACHE_DIR`` (default ``.repro_cache/``).
  Writes are atomic (temp file + rename), so concurrent processes — the
  parallel benchmark drivers — can share one cache directory.
* **Bounded size.** ``REPRO_CACHE_MAX_BYTES`` (or ``max_bytes=``) caps
  the directory: after each store, least-recently-used entries are
  evicted until the total fits. Hits refresh recency (mtime), so a
  long-running service keeps its hot snapshots and sheds cold ones.
  Unset/empty means unbounded (the one-shot CLI default).

The cache stores pickles of this package's own objects; entries are an
implementation detail, not an interchange format.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from typing import Dict, Optional

from repro import obs

#: Bump to invalidate every existing cache entry on format changes.
CACHE_FORMAT = "repro-cache/v1"

_ENGINE_VERSION: Optional[str] = None


def engine_version() -> str:
    """Fingerprint of the analysis code: SHA-256 over the bytes of every
    ``*.py`` file of the installed ``repro`` package, path-sorted.

    Computed once per process. Any code edit — a parser fix, a changed
    preference rule — yields a new version, so stale simulations can
    never be served after the model changes.
    """
    global _ENGINE_VERSION
    if _ENGINE_VERSION is None:
        import repro

        package_root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256(CACHE_FORMAT.encode())
        for directory, dirnames, filenames in sorted(os.walk(package_root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                digest.update(os.path.relpath(path, package_root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _ENGINE_VERSION = digest.hexdigest()
    return _ENGINE_VERSION


def snapshot_key(configs: Dict[str, str], salt: str = "") -> str:
    """Content address of a snapshot: configs + engine version (+ salt
    for artifacts that also depend on analysis parameters)."""
    digest = hashlib.sha256(engine_version().encode())
    for filename in sorted(configs):
        digest.update(b"\x00file\x00")
        digest.update(filename.encode())
        digest.update(b"\x00")
        digest.update(configs[filename].encode())
    if salt:
        digest.update(b"\x00salt\x00")
        digest.update(salt.encode())
    return digest.hexdigest()


def default_cache_dir() -> str:
    return os.environ.get("REPRO_CACHE_DIR", "").strip() or ".repro_cache"


def default_max_bytes() -> Optional[int]:
    """Size cap from ``REPRO_CACHE_MAX_BYTES`` (unset/empty = unbounded)."""
    env = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        raise ValueError(
            f"REPRO_CACHE_MAX_BYTES must be an integer, got {env!r}"
        ) from None
    return value if value > 0 else None


class SnapshotCache:
    """A directory of content-addressed pipeline artifacts."""

    def __init__(self, root: Optional[str] = None, max_bytes: Optional[int] = None):
        self.root = root or default_cache_dir()
        self.max_bytes = max_bytes if max_bytes is not None else default_max_bytes()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, f"{kind}-{key}.pkl")

    def load(self, kind: str, key: str):
        """The cached object, or ``None`` on a miss (absent entry, or an
        entry written by an incompatible pickle/code state)."""
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        # Unpickling corrupt or stale bytes can raise nearly anything
        # (UnpicklingError, ValueError, KeyError, ImportError, ...); a
        # damaged entry must degrade to a miss, never crash analysis.
        except Exception:
            self.misses += 1
            obs.add("cache.miss")
            obs.add(f"cache.miss.{kind}")
            return None
        self.hits += 1
        if self.max_bytes is not None:
            # Refresh recency so LRU eviction spares hot entries.
            try:
                os.utime(path)
            except OSError:
                pass
        obs.add("cache.hit")
        obs.add(f"cache.hit.{kind}")
        return value

    def store(self, kind: str, key: str, value) -> None:
        """Atomically persist an artifact (temp file + rename)."""
        os.makedirs(self.root, exist_ok=True)
        path = self._path(kind, key)
        fd, temp_path = tempfile.mkstemp(
            dir=self.root, prefix=f".{kind}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, path)
            obs.add("cache.store")
            obs.add(f"cache.store.{kind}")
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self._evict_over_budget(keep=path)

    def _evict_over_budget(self, keep: Optional[str] = None) -> None:
        """Delete least-recently-used entries until the directory fits
        ``max_bytes`` (no-op when unbounded).

        The just-written entry (``keep``) is never evicted, so a single
        oversized artifact still caches — the budget then empties the
        rest of the directory around it. Nothing else needs sparing: a
        live session holds its stages in memory and reads an entry at
        most once, when it is built.
        """
        if self.max_bytes is None:
            return
        entries = []
        total = 0
        for name in os.listdir(self.root):
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(self.root, name)
            try:
                status = os.stat(path)
            except OSError:
                continue  # concurrently evicted by another process
            entries.append((status.st_mtime, status.st_size, path))
            total += status.st_size
        entries.sort()  # oldest mtime first = least recently used
        for mtime, size, path in entries:
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.evictions += 1
            obs.add("cache.evict")

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if not os.path.isdir(self.root):
            return 0
        for entry in os.listdir(self.root):
            if entry.endswith((".pkl", ".tmp")):
                try:
                    os.unlink(os.path.join(self.root, entry))
                    removed += 1
                except OSError:
                    pass
        return removed

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def resolve_cache(cache) -> Optional[SnapshotCache]:
    """Normalize a user-facing cache argument.

    ``None``/``False`` disable caching; ``True`` uses the default
    directory; a string is a directory; a :class:`SnapshotCache` is
    used as-is.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return SnapshotCache()
    if isinstance(cache, str):
        return SnapshotCache(cache)
    if isinstance(cache, SnapshotCache):
        return cache
    raise TypeError(f"cannot interpret cache argument: {cache!r}")
