"""A content-addressed compile cache with memory and disk tiers.

Sweeps, autotuning runs, and benchmark suites compile the *same traced
program* under the *same options* dozens of times per process (every
figure bench re-traces its configurations, the autotuner compiles each
candidate once per tuning call, ...). The cache keys each compile by a
SHA-256 digest of the program's trace content — the chunk-DAG
operations, the collective's shape, the protocol and instance count —
plus every :class:`~repro.core.compiler.CompilerOptions` field that can
change the produced IR (including the scheduler policy's
``policy_key``). Tracers, validation, and dump settings are
deliberately excluded: they never change the output.

Two tiers:

* **Memory** — an LRU-bounded ``OrderedDict`` in front, always present.
* **Disk** (:class:`DiskCacheTier`, optional) — content-addressed JSON
  files under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``),
  written via atomic renames so concurrent worker processes and repeat
  CLI invocations never observe a torn entry, and LRU-bounded by total
  bytes (``REPRO_CACHE_MAX_BYTES``, default 256 MiB). The process-wide
  :func:`default_compile_cache` carries a disk tier, which is how a
  second ``repro-tools sweep`` invocation — or a pool of evaluation
  workers — reuses the first one's compiles.

Both tiers hold an IR in its frozen form (:func:`~repro.core.ir.
freeze_ir`): a store freezes the caller's IR once, and the disk tier
writes the frozen rows as compact JSON values. A hit expands the
frozen rows into a fresh :class:`~repro.core.ir.MscclIr` without
parsing anything, so every caller gets a private IR it may freely
mutate — a cache hit is byte-identical (XML serialization) to a cold
compile but can never alias another caller's IR or the cached entry. A
disk hit parses its file once and decodes it straight into the frozen
form, which is promoted into memory.

Hit/miss counters are kept per cache and surfaced two ways: bumped on
the compile's tracer (``compile_cache.hits`` / ``compile_cache.misses``
/ ``compile_cache.disk_hits`` counters) and exported by
:func:`repro.observe.metrics_dict` from the process-wide default cache
(:func:`default_compile_cache`).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, NamedTuple, Optional

from .collectives import (AllGather, AllReduce, AllToAll, AllToNext,
                          Broadcast, Collective, Gather, Reduce,
                          ReduceScatter, Scatter)
from .errors import ProgramError
from .ir import (FrozenIr, MscclIr, decode_frozen_ir, encode_frozen_ir,
                 expand_ir, freeze_ir)
from .program import MSCCLProgram

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"
DEFAULT_DISK_BYTES = 256 * 1024 * 1024
# How long a ``.write-*.part`` temp file may sit in the cache directory
# before eviction treats it as an orphan from a crashed/killed writer
# and removes it. Until then its bytes count toward the LRU budget.
DEFAULT_PART_GRACE_SECONDS = 60.0
# The disk entry layout: bump it whenever the document or
# ``encode_frozen_ir``'s rows change, so older entries become misses.
# Entries from before the field existed (IR JSON nested as a string)
# carry none and miss too.
ENTRY_FORMAT_VERSION = 2


class CacheEntry(NamedTuple):
    """One cached compile: the frozen IR and its collective."""

    frozen_ir: FrozenIr
    collective: Collective


def program_digest(program: MSCCLProgram) -> str:
    """SHA-256 of the program's trace content.

    Two programs digest equal exactly when their chunk DAGs record the
    same operations in the same order over the same collective shape —
    the inputs the deterministic compiler pipeline sees. Builder
    identity is irrelevant: re-tracing the same algorithm yields the
    same digest.
    """
    collective = program.collective
    doc = {
        "name": program.name,
        "protocol": program.protocol,
        "instances": program.instances,
        "collective": {
            "kind": type(collective).__name__,
            "name": collective.name,
            "num_ranks": collective.num_ranks,
            "in_place": collective.in_place,
            "sizing_chunks": collective.sizing_chunks(),
            "output_chunks": [
                collective.output_chunks(rank)
                for rank in range(collective.num_ranks)
            ],
            "input_chunks": [
                0 if collective.in_place else collective.input_chunks(rank)
                for rank in range(collective.num_ranks)
            ],
        },
        "scratch_chunks": [
            program.scratch_chunks(rank)
            for rank in range(program.num_ranks)
        ],
        "ops": [
            (
                op.kind,
                _span_key(op.src),
                _span_key(op.dst),
                op.channel,
                None if op.parallel is None
                else (op.parallel.group_id, op.parallel.instances),
            )
            for op in program.dag.ops
        ],
    }
    payload = json.dumps(doc, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _span_key(span):
    if span is None:
        return None
    rank, buffer, index, count = span
    return (rank, buffer.value, index, count)


def options_digest(options) -> str:
    """A stable key over every output-affecting CompilerOptions field."""
    scheduler = getattr(options, "scheduler", None)
    policy_key = ("default" if scheduler is None
                  else getattr(scheduler, "policy_key",
                               type(scheduler).__qualname__))
    doc = {
        "instr_fusion": options.instr_fusion,
        "verify": options.verify,
        "audit": options.audit,
        "optimize": options.optimize,
        "max_threadblocks": options.max_threadblocks,
        "num_slots": options.num_slots,
        "scheduler": policy_key,
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


# Collectives a disk entry can round-trip: plain shape parameters fully
# describe them. Custom collectives carry arbitrary callables, so their
# entries stay in the memory tier only.
_SERIALIZABLE_COLLECTIVES = {
    cls.__name__: cls
    for cls in (AllReduce, AllGather, ReduceScatter, AllToAll, AllToNext,
                Broadcast, Reduce, Gather, Scatter)
}


def collective_to_doc(collective: Collective) -> Optional[Dict]:
    """JSON-safe reconstruction parameters, or None if not storable."""
    cls = _SERIALIZABLE_COLLECTIVES.get(type(collective).__name__)
    if cls is None or type(collective) is not cls:
        return None
    doc = {
        "kind": type(collective).__name__,
        "num_ranks": collective.num_ranks,
        "chunk_factor": collective.chunk_factor,
        "in_place": collective.in_place,
        "reduce_op": collective.reduce_op,
    }
    root = getattr(collective, "root", None)
    if root is not None:
        doc["root"] = root
    return doc


def collective_from_doc(doc: Dict) -> Collective:
    """Rebuild a collective stored by :func:`collective_to_doc`."""
    cls = _SERIALIZABLE_COLLECTIVES[doc["kind"]]
    kwargs = {
        "num_ranks": doc["num_ranks"],
        "chunk_factor": doc["chunk_factor"],
        "in_place": doc["in_place"],
        "reduce_op": doc["reduce_op"],
    }
    if "root" in doc:
        kwargs["root"] = doc["root"]
    return cls(**kwargs)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


class DiskCacheTier:
    """Persistent content-addressed entries shared across processes.

    Every entry is one JSON file named by the SHA-256 of its cache key:
    ``{"version", "key", "collective", "ir"}``, where ``ir`` holds the
    frozen IR's compact rows (:func:`~repro.core.ir.encode_frozen_ir`).
    Writes go to a temp file in the same directory and land via
    ``os.replace``, so a reader (or a concurrent writer) never sees a
    torn entry — the worst outcome of a write race is that the last
    writer wins with a byte-identical payload. Corrupt, truncated,
    malformed or other-version files are treated as misses and deleted
    best-effort.

    The tier is LRU-bounded by total bytes: lookups bump the entry's
    mtime, and stores evict oldest-mtime files until the directory fits
    ``max_bytes`` again (the entry just written is never evicted).
    Eviction also accounts for ``.write-*.part`` temp files: a live one
    (a concurrent writer mid-store) counts toward the byte budget, and
    one older than ``part_grace_seconds`` — orphaned by a crashed or
    killed writer, since a healthy store renames within milliseconds —
    is deleted on the spot.

    Counter bumps and eviction hold a lock so concurrent threads in one
    process never race them; cross-process safety comes from the atomic
    renames alone.
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 max_bytes: Optional[int] = None,
                 part_grace_seconds: float = DEFAULT_PART_GRACE_SECONDS):
        if max_bytes is None:
            env = os.environ.get(CACHE_BYTES_ENV, "").strip()
            max_bytes = int(env) if env else DEFAULT_DISK_BYTES
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if part_grace_seconds < 0:
            raise ValueError("part_grace_seconds must be >= 0")
        self.directory = (Path(directory) if directory is not None
                          else default_cache_dir())
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.part_grace_seconds = part_grace_seconds
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.orphans_removed = 0
        self._lock = threading.RLock()

    def path_for(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()
        return self.directory / f"{digest}.json"

    def lookup(self, key: str) -> Optional[CacheEntry]:
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            self._bump("misses")
            return None
        try:
            doc = json.loads(text)
            if doc["version"] != ENTRY_FORMAT_VERSION:
                raise ValueError("entry from another format version")
            if doc["key"] != key:
                raise ValueError("cache key collision or stale entry")
            # Decoding validates every row, so a damaged IR payload is
            # a miss here, not a crash in the caller's materialize().
            entry = CacheEntry(decode_frozen_ir(doc["ir"]),
                               collective_from_doc(doc["collective"]))
        except (ValueError, KeyError, TypeError, ProgramError,
                RecursionError):
            self._bump("misses")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._bump("hits")
        try:
            os.utime(path)  # LRU bump
        except OSError:
            pass
        return entry

    def _bump(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def store(self, key: str, entry: CacheEntry) -> bool:
        """Persist one entry; False if its collective cannot round-trip."""
        doc_collective = collective_to_doc(entry.collective)
        if doc_collective is None:
            return False
        payload = json.dumps({
            "version": ENTRY_FORMAT_VERSION,
            "key": key,
            "collective": doc_collective,
            "ir": encode_frozen_ir(entry.frozen_ir),
        }, separators=(",", ":"))
        path = self.path_for(key)
        fd, tmp = tempfile.mkstemp(dir=str(self.directory),
                                   prefix=".write-", suffix=".part")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self._evict(keep=path)
        return True

    def _sweep_part_files(self) -> int:
        """Reap orphaned temp files; returns live ``.part`` bytes.

        A ``.part`` older than the grace period was abandoned by a
        crashed/killed writer (a healthy store renames within
        milliseconds) and is removed. Younger ones belong to an
        in-flight writer: they stay, but their bytes count toward the
        budget so a burst of concurrent writers cannot silently blow
        past ``max_bytes``.
        """
        live_bytes = 0
        now = time.time()
        for path in self.directory.glob(".write-*.part"):
            try:
                stat = path.stat()
            except OSError:
                continue  # the writer finished (renamed) or unlinked it
            if now - stat.st_mtime > self.part_grace_seconds:
                try:
                    path.unlink()
                except OSError:
                    continue
                with self._lock:
                    self.orphans_removed += 1
            else:
                live_bytes += stat.st_size
        return live_bytes

    def _evict(self, keep: Path) -> None:
        with self._lock:
            entries = []
            total = self._sweep_part_files()
            for path in self.directory.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue  # raced with another process's eviction
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
            entries.sort(key=lambda row: row[0])
            for _mtime, size, path in entries:
                if total <= self.max_bytes:
                    break
                if path == keep:
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                self.evictions += 1

    def entry_count(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def total_bytes(self) -> int:
        """Entry bytes plus any in-flight writers' ``.part`` bytes."""
        total = 0
        for pattern in ("*.json", ".write-*.part"):
            for path in self.directory.glob(pattern):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
        return total

    def clear(self) -> None:
        for pattern in ("*.json", ".write-*.part"):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.orphans_removed = 0

    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "orphans_removed": self.orphans_removed,
            "entries": self.entry_count(),
            "bytes": self.total_bytes(),
            "dir": str(self.directory),
        }


class CompileCache:
    """LRU-bounded content-addressed store of compiled IRs.

    ``disk`` attaches a persistent :class:`DiskCacheTier` behind the
    memory tier: lookups fall through to it on a memory miss (promoting
    the entry back into memory), stores write through to it. After a
    lookup, :attr:`last_hit_tier` says which tier served it
    (``"memory"``, ``"disk"``, or None on a miss).

    The cache is thread-safe: the memory tier and the hit/miss counters
    are guarded by a lock (the plan service's executor threads and the
    tuner both hammer one instance), and ``last_hit_tier`` is
    thread-local, so each thread reads the tier of *its own* last
    lookup, never a concurrent one's. A disk lookup reads and decodes
    its file outside the lock, so memory hits in other threads never
    queue behind it.
    """

    def __init__(self, maxsize: int = 256,
                 disk: Optional[DiskCacheTier] = None):
        self.maxsize = maxsize
        self.disk = disk
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()
        self._tier_local = threading.local()

    @property
    def last_hit_tier(self) -> Optional[str]:
        """Tier of the calling thread's most recent lookup."""
        return getattr(self._tier_local, "tier", None)

    @last_hit_tier.setter
    def last_hit_tier(self, tier: Optional[str]) -> None:
        self._tier_local.tier = tier

    def key_for(self, program: MSCCLProgram, options) -> str:
        return program_digest(program) + "/" + options_digest(options)

    def lookup(self, key: str) -> Optional[CacheEntry]:
        """The entry for ``key`` (bumping hit/miss counters)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if entry is not None:
            self.last_hit_tier = "memory"
            return entry
        if self.disk is not None:
            entry = self.disk.lookup(key)
        with self._lock:
            if entry is not None:
                self._put(key, entry)
                self.hits += 1
            else:
                self.misses += 1
        self.last_hit_tier = None if entry is None else "disk"
        return entry

    def store(self, key: str, ir: MscclIr,
              collective: Collective) -> None:
        """Cache ``ir``; later edits to ``ir`` never reach a hit."""
        entry = CacheEntry(freeze_ir(ir), collective)
        with self._lock:
            self._put(key, entry)
        if self.disk is not None:
            self.disk.store(key, entry)

    def _put(self, key: str, entry: CacheEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def materialize(self, entry: CacheEntry) -> MscclIr:
        """A fresh, privately-owned IR for a hit."""
        return expand_ir(entry.frozen_ir)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.last_hit_tier = None

    def stats(self) -> Dict[str, float]:
        """JSON-safe counters for dashboards and BENCH artifacts."""
        with self._lock:
            hits, misses = self.hits, self.misses
            entries = len(self._entries)
        total = hits + misses
        stats: Dict[str, float] = {
            "hits": hits,
            "misses": misses,
            "entries": entries,
            "hit_rate": round(hits / total, 4) if total else 0.0,
        }
        if self.disk is not None:
            stats["disk"] = self.disk.stats()
        return stats


_DEFAULT_CACHE: Optional[CompileCache] = None
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_compile_cache() -> CompileCache:
    """The process-wide cache shared by sweeps, tuning, and benches.

    Created lazily on first use so ``REPRO_CACHE_DIR`` /
    ``REPRO_CACHE_MAX_BYTES`` are read at call time, with a persistent
    disk tier attached; when the cache directory cannot be created
    (read-only home, sandbox), the cache quietly runs memory-only.
    Creation is race-free: concurrent first callers (the plan service's
    executor threads) all observe the same instance, never two caches
    splitting the hit counters.
    """
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        with _DEFAULT_CACHE_LOCK:
            if _DEFAULT_CACHE is None:
                try:
                    disk: Optional[DiskCacheTier] = DiskCacheTier()
                except (OSError, ValueError):
                    disk = None
                _DEFAULT_CACHE = CompileCache(disk=disk)
    return _DEFAULT_CACHE


def reset_default_compile_cache() -> None:
    """Drop the process-wide cache so the next use re-reads the env.

    The disk tier's files survive — this models a fresh process (tests
    use it to exercise the persistent tier without subprocesses).
    """
    global _DEFAULT_CACHE
    with _DEFAULT_CACHE_LOCK:
        _DEFAULT_CACHE = None
