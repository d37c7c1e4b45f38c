"""Two-tier content-addressed plan cache.

Tier 1 is an in-process LRU over raw artifact bytes; tier 2 is an
on-disk store (default ``~/.cache/repro-plans``, override with the
``REPRO_PLAN_CACHE`` environment variable; ``REPRO_PLAN_CACHE=0`` or
``off`` disables caching entirely).  Entries are *self-validating*: the
file header carries a SHA-256 of the payload, and a load that fails the
magic, length, or digest check — bit rot, torn write, truncation —
evicts the entry and reports a miss, exactly like the checkpoint store's
corruption handling (:mod:`repro.parallel.checkpoint`).  Writes are
atomic (temp file + ``os.replace``) so a crashed writer can never leave
a half-entry another process would read.

The cache stores opaque ``bytes`` keyed by hex digests; what the bytes
*are* (pickled parse/analysis/kernel artifacts) is the pipeline's
business (:mod:`repro.compile.pipeline`).  Because every payload is
re-deserialized per hit, hits hand out fresh objects — callers mutating
a compiled kernel can never poison the cache.
"""

from __future__ import annotations

import os
import tempfile
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from hashlib import sha256

_MAGIC = b"REPRO-PLAN v1\n"


def atomic_write(path: str, payload: bytes) -> None:
    """Publish *payload* at *path* via temp file + ``os.replace``: a
    crashed or interrupted writer leaves the old content or none, never a
    torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def default_cache_dir() -> str:
    """``$REPRO_PLAN_CACHE`` if set to a path, else
    ``$XDG_CACHE_HOME/repro-plans``, else ``~/.cache/repro-plans``."""
    env = os.environ.get("REPRO_PLAN_CACHE")
    if env and env.lower() not in ("0", "off", "false", "no"):
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-plans")


def cache_disabled_by_env() -> bool:
    """True when ``REPRO_PLAN_CACHE`` is set to a kill-switch value
    (``0``/``off``/``false``/``no``) — CI and tests use this to force
    every compilation cold."""
    return os.environ.get("REPRO_PLAN_CACHE", "").lower() in (
        "0", "off", "false", "no",
    )


@dataclass
class PlanCacheStats:
    """Counters surfaced by ``python -m repro.eval diffstats`` and the
    bench harness's ``--cold``/``--warm`` modes."""

    lru_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    lru_evictions: int = 0
    disk_evictions: int = 0
    corrupt_evictions: int = 0
    io_errors: int = 0

    @property
    def hits(self) -> int:
        return self.lru_hits + self.disk_hits

    def as_dict(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "lru_hits": self.lru_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
            "puts": self.puts,
            "lru_evictions": self.lru_evictions,
            "disk_evictions": self.disk_evictions,
            "corrupt_evictions": self.corrupt_evictions,
            "io_errors": self.io_errors,
        }

    def delta(self, since: "PlanCacheStats") -> dict:
        now, then = self.as_dict(), since.as_dict()
        return {k: now[k] - then[k] for k in now if k != "hit_rate"}

    def snapshot(self) -> "PlanCacheStats":
        return PlanCacheStats(**{
            f.name: getattr(self, f.name)
            for f in self.__dataclass_fields__.values()  # type: ignore[attr-defined]
        })


@dataclass
class PlanCacheConfig:
    directory: str | None = None  # None: memory-only (no disk tier)
    max_lru_entries: int = 128
    max_disk_bytes: int = 512 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.max_lru_entries < 0:
            raise ValueError("max_lru_entries must be non-negative")
        if self.max_disk_bytes <= 0:
            raise ValueError("max_disk_bytes must be positive")


class PlanCache:
    """The two-tier store.  Thread-safe; multi-process-safe on the disk
    tier (content-addressed filenames + atomic replace make concurrent
    writers idempotent)."""

    def __init__(self, config: PlanCacheConfig | None = None):
        self.config = config or PlanCacheConfig(directory=default_cache_dir())
        self.stats = PlanCacheStats()
        self._lru: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.Lock()
        #: chaos/test hook: called as ``fault_hook(op, digest)`` at the top
        #: of disk operations; an ``OSError`` it raises (ENOSPC, EIO, ...)
        #: takes the same degraded path a real disk fault would
        self.fault_hook = None

    # -- paths -------------------------------------------------------------
    def _path(self, digest: str) -> str | None:
        if self.config.directory is None:
            return None
        return os.path.join(self.config.directory, digest[:2], digest + ".plan")

    def _generation_path(self) -> str | None:
        if self.config.directory is None:
            return None
        return os.path.join(self.config.directory, "generation")

    def _generation(self) -> int:
        """Monotone clear() counter shared by every process on this cache
        directory.  ``_disk_put`` reads it before and after its atomic
        rename: a concurrent ``clear()`` bumps it, so a put that would
        otherwise *resurrect* a just-cleared entry notices and removes
        its own file instead."""
        path = self._generation_path()
        if path is None:
            return 0
        try:
            with open(path, "rb") as fh:
                return int(fh.read().strip() or 0)
        except (OSError, ValueError):
            return 0

    def _bump_generation(self) -> None:
        path = self._generation_path()
        if path is None:
            return
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            atomic_write(path, str(self._generation() + 1).encode())
        except OSError:
            with self._lock:
                self.stats.io_errors += 1

    # -- lookup ------------------------------------------------------------
    def get(self, digest: str) -> bytes | None:
        """The payload for *digest*, or None.  LRU first, then disk; disk
        hits are promoted into the LRU."""
        with self._lock:
            payload = self._lru.get(digest)
            if payload is not None:
                self._lru.move_to_end(digest)
                self.stats.lru_hits += 1
                return payload
        payload = self._disk_get(digest)
        with self._lock:
            if payload is None:
                self.stats.misses += 1
                return None
            self.stats.disk_hits += 1
            self._lru_put(digest, payload)
        return payload

    def _disk_get(self, digest: str) -> bytes | None:
        path = self._path(digest)
        if path is None or not os.path.exists(path):
            return None
        try:
            if self.fault_hook is not None:
                self.fault_hook("disk_get", digest)
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            # a concurrent evictor (budget enforcement, clear()) unlinked
            # the entry between the exists() check and the open — a plain
            # miss, not an IO fault
            return None
        except OSError:
            with self._lock:
                self.stats.io_errors += 1
            return None
        payload = self._validate(blob)
        if payload is None:
            # corrupt entry: evict so the slot recompiles transparently
            with self._lock:
                self.stats.corrupt_evictions += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return payload

    @staticmethod
    def _validate(blob: bytes) -> bytes | None:
        """Check magic + digest + length; None means corrupt."""
        if not blob.startswith(_MAGIC):
            return None
        head_end = blob.find(b"\n", len(_MAGIC))
        if head_end < 0:
            return None
        header = blob[len(_MAGIC):head_end].split(b" ")
        if len(header) != 2:
            return None
        want_sha, want_len = header
        payload = blob[head_end + 1:]
        try:
            if len(payload) != int(want_len):
                return None
        except ValueError:
            return None
        if sha256(payload).hexdigest().encode() != want_sha:
            return None
        return payload

    # -- store -------------------------------------------------------------
    def put(self, digest: str, payload: bytes) -> None:
        with self._lock:
            self.stats.puts += 1
            self._lru_put(digest, payload)
        self._disk_put(digest, payload)

    def _lru_put(self, digest: str, payload: bytes) -> None:
        # caller holds the lock
        if self.config.max_lru_entries == 0:
            return
        self._lru[digest] = payload
        self._lru.move_to_end(digest)
        while len(self._lru) > self.config.max_lru_entries:
            self._lru.popitem(last=False)
            self.stats.lru_evictions += 1

    def _disk_put(self, digest: str, payload: bytes) -> None:
        path = self._path(digest)
        if path is None:
            return
        blob = (
            _MAGIC
            + sha256(payload).hexdigest().encode()
            + b" " + str(len(payload)).encode() + b"\n"
            + payload
        )
        generation = self._generation()
        try:
            if self.fault_hook is not None:
                self.fault_hook("disk_put", digest)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            atomic_write(path, blob)
        except OSError:
            # a read-only or full cache dir degrades to memory-only
            with self._lock:
                self.stats.io_errors += 1
            return
        if self._generation() != generation:
            # a clear() ran concurrently with this put; honoring it means
            # this entry must not survive ("resurrection" would hand out a
            # plan the caller explicitly invalidated)
            try:
                os.unlink(path)
            except OSError:
                pass
            return
        self._enforce_disk_budget()

    def _enforce_disk_budget(self) -> None:
        """Evict oldest entries (by mtime) once the disk tier exceeds its
        byte budget.  Best-effort: racing evictors are harmless."""
        entries = self._disk_entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.config.max_disk_bytes:
            return
        for path, size, _mtime in sorted(entries, key=lambda e: e[2]):
            try:
                os.unlink(path)
            except FileNotFoundError:
                # a concurrent evictor (or clear()) already removed it —
                # the bytes are gone either way
                total -= size
                if total <= self.config.max_disk_bytes:
                    return
                continue
            except OSError:
                continue
            with self._lock:
                self.stats.disk_evictions += 1
            total -= size
            if total <= self.config.max_disk_bytes:
                return

    def _disk_entries(self) -> list[tuple[str, int, float]]:
        root = self.config.directory
        if root is None or not os.path.isdir(root):
            return []
        out = []
        for dirpath, _dirs, files in os.walk(root):
            for name in files:
                if not name.endswith(".plan"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                out.append((path, st.st_size, st.st_mtime))
        return out

    # -- introspection / maintenance ---------------------------------------
    def bytes_on_disk(self) -> int:
        return sum(size for _, size, _ in self._disk_entries())

    def disk_entries(self) -> int:
        return len(self._disk_entries())

    def lru_entries(self) -> int:
        with self._lock:
            return len(self._lru)

    def clear_lru(self) -> None:
        with self._lock:
            self._lru.clear()

    def clear(self) -> None:
        """Drop both tiers (tests / explicit invalidation).

        The generation marker is bumped *before* the sweep: an in-flight
        ``_disk_put`` in another thread or process re-checks it after its
        atomic rename and removes its own entry, so a concurrent put can
        never resurrect an entry this clear was supposed to remove."""
        self._bump_generation()
        self.clear_lru()
        for path, _size, _mtime in self._disk_entries():
            try:
                os.unlink(path)
            except OSError:
                pass

    def stray_tmp_files(self) -> list[str]:
        """Leftover ``*.tmp`` files under the disk tier (there should be
        none: writers unlink their temp file on every failure path — the
        chaos harness asserts this after every fault scenario)."""
        root = self.config.directory
        if root is None or not os.path.isdir(root):
            return []
        out = []
        for dirpath, _dirs, files in os.walk(root):
            out.extend(
                os.path.join(dirpath, name)
                for name in files if name.endswith(".tmp")
            )
        return out

    def as_dict(self) -> dict:
        out = self.stats.as_dict()
        out["lru_entries"] = self.lru_entries()
        out["disk_entries"] = self.disk_entries()
        out["bytes_on_disk"] = self.bytes_on_disk()
        out["directory"] = self.config.directory
        return out


# ---------------------------------------------------------------------------
# process-wide default cache
# ---------------------------------------------------------------------------

_ACTIVE: "PlanCache | None" = None
_ACTIVE_LOCK = threading.Lock()
_DISABLED = 0  # reentrant disable depth


def active_cache() -> "PlanCache | None":
    """The cache :func:`repro.codegen.compile_kernel` consults, or None
    when caching is disabled (env kill switch or :func:`cache_disabled`)."""
    global _ACTIVE
    if _DISABLED or cache_disabled_by_env():
        return None
    with _ACTIVE_LOCK:
        if _ACTIVE is None:
            _ACTIVE = PlanCache()
        return _ACTIVE


def set_active_cache(cache: "PlanCache | None") -> "PlanCache | None":
    """Install *cache* as the process default; returns the previous one."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        prev, _ACTIVE = _ACTIVE, cache
        return prev


class use_cache:
    """Context manager: route ``compile_kernel`` through *cache* (a
    :class:`PlanCache`, or None to disable) for the dynamic extent."""

    def __init__(self, cache: "PlanCache | None"):
        self._cache = cache
        self._prev: "PlanCache | None" = None
        self._prev_disabled = 0

    def __enter__(self) -> "PlanCache | None":
        global _DISABLED
        self._prev = set_active_cache(self._cache)
        self._prev_disabled = _DISABLED
        _DISABLED = 1 if self._cache is None else 0
        return self._cache

    def __exit__(self, *exc) -> None:
        global _DISABLED
        set_active_cache(self._prev)
        _DISABLED = self._prev_disabled


def cache_disabled() -> "use_cache":
    """``with cache_disabled(): ...`` — force cold compiles (the fuzzer
    and mutation-style harnesses use this so throwaway sources don't
    churn the store)."""
    return use_cache(None)


@contextmanager
def scratch_cache():
    """``with scratch_cache() as cache: ...`` — a throw-away
    :class:`PlanCache` in a fresh temporary directory, active for the
    block; the directory is removed on exit.  For reports that must not
    read or leave state in the user's cache."""
    with tempfile.TemporaryDirectory(prefix="repro-plans-") as directory:
        cache = PlanCache(PlanCacheConfig(directory=directory))
        with use_cache(cache):
            yield cache
