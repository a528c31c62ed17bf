"""Tests for the persistent on-disk compile-cache tier."""

import functools
import json
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.core import (
    CompileCache,
    CompilerOptions,
    DiskCacheTier,
    compile_program,
)
from repro.core import cache as cache_module
from repro.core.cache import (
    ENTRY_FORMAT_VERSION,
    CacheEntry,
    collective_to_doc,
    default_cache_dir,
    default_compile_cache,
    reset_default_compile_cache,
)
from repro.core.collectives import AllReduce, Custom
from repro.core.ir import MscclIr, decode_frozen_ir, expand_ir, freeze_ir
from tests.conftest import build_ring_allreduce


def _compile_cached(cache):
    """Compile the 4-rank ring through ``cache``; returns the algo."""
    program = build_ring_allreduce(4)
    return compile_program(program, CompilerOptions(cache=cache))


def _padded_entry(tag):
    """An entry whose disk encoding takes a little over 2000 bytes."""
    ir = MscclIr(name=f"{tag}-" + "x" * 2000, collective="allreduce",
                 protocol="Simple", num_ranks=4, in_place=True)
    return CacheEntry(freeze_ir(ir), AllReduce(4, chunk_factor=4,
                                               in_place=True))


class TestDiskRoundTrip:
    def test_survives_across_cache_instances(self, tmp_path):
        first = CompileCache(disk=DiskCacheTier(tmp_path))
        cold = _compile_cached(first)
        assert first.misses == 1 and first.hits == 0
        assert first.disk.entry_count() == 1

        # A brand-new cache over the same directory models a fresh
        # process: the memory tier is empty, the disk tier serves.
        second = CompileCache(disk=DiskCacheTier(tmp_path))
        warm = _compile_cached(second)
        assert second.hits == 1 and second.misses == 0
        assert second.last_hit_tier == "disk"
        assert warm.ir.to_xml() == cold.ir.to_xml()

    def test_hit_promotes_into_memory(self, tmp_path):
        cache = CompileCache(disk=DiskCacheTier(tmp_path))
        _compile_cached(cache)
        fresh = CompileCache(disk=DiskCacheTier(tmp_path))
        _compile_cached(fresh)  # disk hit, promoted
        _compile_cached(fresh)  # now a memory hit
        assert fresh.last_hit_tier == "memory"
        assert fresh.disk.hits == 1

    def test_disk_hit_decodes_its_entry_once(self, tmp_path, monkeypatch):
        cold = _compile_cached(CompileCache(disk=DiskCacheTier(tmp_path)))
        decodes = []
        decode = cache_module.decode_frozen_ir

        def counting_decode(doc):
            decodes.append(doc)
            return decode(doc)

        def refuse(text):
            raise AssertionError("a disk hit parsed IR JSON")

        monkeypatch.setattr(cache_module, "decode_frozen_ir",
                            counting_decode)
        monkeypatch.setattr(MscclIr, "from_json", staticmethod(refuse))
        fresh = CompileCache(disk=DiskCacheTier(tmp_path))
        warm = _compile_cached(fresh)
        assert fresh.last_hit_tier == "disk"
        assert len(decodes) == 1
        assert warm.ir.to_xml() == cold.ir.to_xml()

    def test_default_cache_reset_models_fresh_process(self):
        reset_default_compile_cache()
        try:
            cache = default_compile_cache()
            assert cache.disk is not None, (
                "conftest points REPRO_CACHE_DIR at a tmpdir, so the "
                "default cache must carry a disk tier"
            )
            _compile_cached(cache)
            reset_default_compile_cache()
            again = default_compile_cache()
            _compile_cached(again)
            assert again.last_hit_tier == "disk"
        finally:
            reset_default_compile_cache()


class TestCorruptEntries:
    def _entry_path(self, tmp_path):
        cache = CompileCache(disk=DiskCacheTier(tmp_path))
        _compile_cached(cache)
        (path,) = list(tmp_path.glob("*.json"))
        return path

    def test_garbage_file_is_a_miss_not_a_crash(self, tmp_path):
        path = self._entry_path(tmp_path)
        path.write_text("not json {{{")
        cache = CompileCache(disk=DiskCacheTier(tmp_path))
        _compile_cached(cache)
        assert cache.misses == 1
        assert cache.disk.misses == 1
        # The damaged entry was dropped and re-stored by the compile.
        assert json.loads(path.read_text())["ir"]

    def test_truncated_file_is_a_miss(self, tmp_path):
        path = self._entry_path(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        cache = CompileCache(disk=DiskCacheTier(tmp_path))
        _compile_cached(cache)
        assert cache.disk.misses == 1

    def test_valid_json_damaged_ir_is_a_miss(self, tmp_path):
        path = self._entry_path(tmp_path)
        doc = json.loads(path.read_text())
        doc["ir"] = {"definitely": "not an IR"}
        path.write_text(json.dumps(doc))
        cache = CompileCache(disk=DiskCacheTier(tmp_path))
        _compile_cached(cache)
        assert cache.disk.misses == 1

    def test_key_mismatch_is_a_miss(self, tmp_path):
        path = self._entry_path(tmp_path)
        doc = json.loads(path.read_text())
        doc["key"] = "someone-else's-key"
        path.write_text(json.dumps(doc))
        tier = DiskCacheTier(tmp_path)
        cache = CompileCache(disk=tier)
        _compile_cached(cache)
        assert tier.misses == 1


def _src_rows(doc):
    """(row list, index) of every instruction row with a src span."""
    return [(tb[4], index) for gpu in doc["ir"][5] for tb in gpu[4]
            for index, row in enumerate(tb[4]) if row[2] is not None]


def _legacy(doc):
    # The layout before format versions: the IR's to_json() text nested
    # as a string.
    ir = expand_ir(decode_frozen_ir(doc.pop("ir")))
    doc["ir_json"] = ir.to_json()
    del doc["version"]


def _set_version(value):
    def damage(doc):
        doc["version"] = value
    return damage


def _no_ranks(doc):
    doc["collective"]["num_ranks"] = 0


# Damage to a whole entry document.
DOC_DAMAGE = {
    "legacy ir_json entry": _legacy,
    "collective with no ranks": _no_ranks,
    "entry is a list": lambda doc: [doc],
    "version too new": _set_version(ENTRY_FORMAT_VERSION + 1),
    "version too old": _set_version(1),
    "version as string": _set_version(str(ENTRY_FORMAT_VERSION)),
}


def _set_column(column, value):
    def damage(rows, index):
        rows[index][column] = value
    return damage


def _replace_row(value):
    def damage(rows, index):
        rows[index] = value
    return damage


def _unknown_buffer(rows, index):
    rows[index][2][0] = "registers"


# Damage to one instruction row (columns: 1 op, 2 src, 4 count,
# 6 lo_den, 8 hi_den).
ROW_DAMAGE = {
    "row too short": lambda rows, index: rows[index].pop(),
    "row too long": lambda rows, index: rows[index].append(0),
    "row is an object": _replace_row({"step": 0}),
    "row is a string": _replace_row("cpy"),
    "row is null": _replace_row(None),
    "unknown op": _set_column(1, "teleport"),
    "unknown buffer": _unknown_buffer,
    "zero lo denominator": _set_column(6, 0),
    "zero hi denominator": _set_column(8, 0),
    "float count": _set_column(4, 1.5),
    "string count": _set_column(4, "2"),
    "boolean count": _set_column(4, True),
    "null count": _set_column(4, None),
}


@functools.lru_cache(maxsize=None)
def _real_entry():
    """(key, entry text) of the 4-rank ring's real disk entry."""
    with tempfile.TemporaryDirectory() as directory:
        cache = CompileCache(disk=DiskCacheTier(directory))
        _compile_cached(cache)
        (path,) = Path(directory).glob("*.json")
        key = cache.key_for(build_ring_allreduce(4), CompilerOptions())
        return key, path.read_text()


def _lookup_mutated(directory, mutate):
    """Write the real entry damaged by ``mutate`` (in place, or by
    returning a replacement document), look it up once."""
    key, text = _real_entry()
    doc = json.loads(text)
    replacement = mutate(doc)
    if replacement is not None:
        doc = replacement
    tier = DiskCacheTier(directory)
    path = tier.path_for(key)
    path.write_text(json.dumps(doc))
    return tier, path, tier.lookup(key)


def _assert_counted_miss(tier, path, entry):
    assert entry is None
    assert (tier.hits, tier.misses) == (0, 1)
    assert not path.exists()


class TestMalformedEntries:
    @pytest.mark.parametrize("damage", sorted(DOC_DAMAGE))
    def test_bad_document_is_a_counted_miss(self, tmp_path, damage):
        _assert_counted_miss(*_lookup_mutated(tmp_path, DOC_DAMAGE[damage]))

    @pytest.mark.parametrize("damage", sorted(ROW_DAMAGE))
    def test_bad_row_is_a_counted_miss(self, tmp_path, damage):
        def mutate(doc):
            ROW_DAMAGE[damage](*_src_rows(doc)[0])
        _assert_counted_miss(*_lookup_mutated(tmp_path, mutate))

    def test_undamaged_entry_hits(self, tmp_path):
        tier, path, entry = _lookup_mutated(tmp_path, lambda doc: None)
        assert entry is not None
        assert (tier.hits, tier.misses) == (1, 0)
        assert path.exists()

    @seed(20230325)
    @settings(max_examples=40, deadline=None)
    @given(damage=st.sampled_from(sorted(ROW_DAMAGE)), data=st.data())
    def test_bad_row_anywhere_is_a_counted_miss(self, damage, data):
        def mutate(doc):
            ROW_DAMAGE[damage](*data.draw(st.sampled_from(_src_rows(doc))))
        with tempfile.TemporaryDirectory() as directory:
            _assert_counted_miss(*_lookup_mutated(Path(directory), mutate))

    @seed(20230326)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_arbitrary_mutation_never_raises(self, data):
        # Replace or drop any one value anywhere in a real entry: the
        # lookup either misses (counted, file deleted) or hits with an
        # IR that expands and serializes.
        def mutate(doc):
            parent, where, node = None, None, doc
            while (isinstance(node, (list, dict)) and node
                   and data.draw(st.integers(0, 5)) > 0):
                where = data.draw(st.sampled_from(
                    sorted(node) if isinstance(node, dict)
                    else range(len(node))))
                parent, node = node, node[where]
            if parent is None:
                return
            if data.draw(st.booleans()):
                del parent[where]
            else:
                parent[where] = data.draw(_LEAVES)
        with tempfile.TemporaryDirectory() as directory:
            tier, path, entry = _lookup_mutated(Path(directory), mutate)
            if entry is None:
                _assert_counted_miss(tier, path, entry)
            else:
                assert (tier.hits, tier.misses) == (1, 0)
                expand_ir(entry.frozen_ir).to_xml()


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.integers(),
    st.floats(), st.text(max_size=4),
    st.sampled_from(["s", "r", "cpy", "input", "output", "scratch"]),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


class TestEviction:
    def test_oldest_entries_evicted_to_fit_budget(self, tmp_path):
        tier = DiskCacheTier(tmp_path, max_bytes=5000)
        for index in range(4):
            tier.store(f"key-{index}", _padded_entry(index))
        assert tier.total_bytes() <= 5000
        assert tier.evictions >= 1
        # The most recent store always survives.
        assert tier.path_for("key-3").exists()

    def test_budget_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCacheTier(tmp_path, max_bytes=0)


class TestConcurrentWriters:
    def test_racing_stores_never_tear(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        # Lookups validate the IR payload, so the raced entry must be a
        # real one.
        algo = compile_program(build_ring_allreduce(4),
                               CompilerOptions())
        entry = CacheEntry(
            freeze_ir(algo.ir),
            AllReduce(4, chunk_factor=4, in_place=True),
        )
        errors = []

        def hammer():
            try:
                for _ in range(25):
                    tier.store("shared-key", entry)
                    looked = tier.lookup("shared-key")
                    assert looked is not None
                    assert looked.frozen_ir == entry.frozen_ir
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # No .part temp files left behind.
        assert not list(tmp_path.glob("*.part"))


class TestPartFileSweep:
    def _backdate(self, path, seconds):
        import os
        import time
        stamp = time.time() - seconds
        os.utime(path, (stamp, stamp))

    def test_stale_orphans_swept_on_eviction(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        orphan = tmp_path / ".write-dead00.part"
        orphan.write_text("z" * 500)
        self._backdate(orphan, 3600)  # far past the grace period
        tier.store("key-live", _padded_entry("live"))
        assert not orphan.exists()
        assert tier.orphans_removed == 1
        assert tier.stats()["orphans_removed"] == 1
        # The real entry is untouched.
        assert tier.path_for("key-live").exists()

    def test_fresh_part_files_survive_and_count(self, tmp_path):
        tier = DiskCacheTier(tmp_path, max_bytes=5000)
        inflight = tmp_path / ".write-busy00.part"
        inflight.write_text("z" * 4000)  # mtime == now: a live writer
        tier.store("key-a", _padded_entry("a"))
        tier.store("key-b", _padded_entry("b"))
        # The live temp file was never reaped, but its bytes pressed
        # the budget: an entry had to go to make room.
        assert inflight.exists()
        assert tier.orphans_removed == 0
        assert tier.evictions >= 1
        assert tier.path_for("key-b").exists()
        assert tier.total_bytes() >= 4000

    def test_clear_removes_part_files(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        (tmp_path / ".write-dead00.part").write_text("z")
        tier.store("key", _padded_entry("x"))
        tier.clear()
        assert tier.total_bytes() == 0
        assert not list(tmp_path.glob(".write-*.part"))

    def test_negative_grace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DiskCacheTier(tmp_path, part_grace_seconds=-1.0)


class TestCompileCacheThreadSafety:
    def test_threaded_hammer_keeps_counters_exact(self):
        algo = compile_program(build_ring_allreduce(4), CompilerOptions())
        collective = AllReduce(4, chunk_factor=4, in_place=True)
        cache = CompileCache(maxsize=64)
        threads, iters, keyspace = 8, 50, 8
        errors = []

        def hammer(seed):
            try:
                for i in range(iters):
                    key = f"key-{(seed + i) % keyspace}"
                    if cache.lookup(key) is None:
                        cache.store(key, algo.ir, collective)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        workers = [threading.Thread(target=hammer, args=(n,))
                   for n in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        # Every lookup was either a hit or a miss — nothing lost to a
        # counter race.
        assert cache.hits + cache.misses == threads * iters
        assert len(cache) == keyspace

    def test_last_hit_tier_is_thread_local(self):
        algo = compile_program(build_ring_allreduce(4), CompilerOptions())
        collective = AllReduce(4, chunk_factor=4, in_place=True)
        cache = CompileCache()
        cache.store("present", algo.ir, collective)
        cache.lookup("present")
        assert cache.last_hit_tier == "memory"
        seen = {}

        def other_thread():
            cache.lookup("absent")
            seen["tier"] = cache.last_hit_tier

        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        # The other thread's miss never clobbered this thread's view.
        assert seen["tier"] is None
        assert cache.last_hit_tier == "memory"

    def test_disk_read_does_not_block_memory_hits(self, tmp_path):
        algo = compile_program(build_ring_allreduce(4), CompilerOptions())
        tier = DiskCacheTier(tmp_path)
        cache = CompileCache(disk=tier)
        cache.store("warm", algo.ir, AllReduce(4, chunk_factor=4,
                                               in_place=True))
        reading, release = threading.Event(), threading.Event()
        disk_lookup = tier.lookup

        def stalled_lookup(key):
            reading.set()
            release.wait(30)
            return disk_lookup(key)

        tier.lookup = stalled_lookup
        slow = threading.Thread(target=cache.lookup, args=("on-disk?",))
        slow.start()
        try:
            assert reading.wait(30)
            served = []
            fast = threading.Thread(
                target=lambda: served.append(cache.lookup("warm")))
            fast.start()
            fast.join(10)
            # The memory hit finished while the disk read still stalls.
            assert not fast.is_alive()
            assert served[0] is not None
            assert slow.is_alive()
        finally:
            release.set()
            slow.join(30)
        assert not slow.is_alive()
        assert (cache.hits, cache.misses) == (1, 1)

    def test_racing_disk_and_memory_lookups_keep_counters_exact(
            self, tmp_path):
        algo = compile_program(build_ring_allreduce(4), CompilerOptions())
        collective = AllReduce(4, chunk_factor=4, in_place=True)
        stored = [f"key-{n}" for n in range(6)]
        warm = CompileCache(disk=DiskCacheTier(tmp_path))
        for key in stored:
            warm.store(key, algo.ir, collective)
        # A fresh memory tier: each stored key's first lookups race to
        # the disk, later ones hit memory; two keys are never stored.
        cache = CompileCache(disk=DiskCacheTier(tmp_path))
        keys = stored + ["absent-0", "absent-1"]
        threads, iters = 8, 40
        errors = []

        def hammer(seed):
            try:
                for i in range(iters):
                    key = keys[(seed + i) % len(keys)]
                    entry = cache.lookup(key)
                    assert (entry is None) == key.startswith("absent")
            except Exception as error:  # pragma: no cover
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer, args=(n,))
                       for n in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not errors
        absent = threads * iters * 2 // len(keys)
        assert cache.misses == absent
        assert cache.hits == threads * iters - absent
        assert cache.disk.misses == absent
        assert cache.disk.hits >= len(stored)
        assert len(cache) == len(stored)

    def test_default_cache_creation_is_race_free(self):
        reset_default_compile_cache()
        try:
            barrier = threading.Barrier(8)
            instances = []

            def grab():
                barrier.wait()
                instances.append(default_compile_cache())

            workers = [threading.Thread(target=grab) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            assert len(instances) == 8
            assert all(c is instances[0] for c in instances)
        finally:
            reset_default_compile_cache()


class TestCustomCollectives:
    def _custom(self):
        return Custom(
            num_ranks=2, chunk_factor=1,
            postcondition_fn=lambda rank: {0: {0}},
        )

    def test_custom_collective_stays_memory_only(self, tmp_path):
        assert collective_to_doc(self._custom()) is None
        tier = DiskCacheTier(tmp_path)
        entry = CacheEntry(_padded_entry("custom").frozen_ir,
                           self._custom())
        assert tier.store("custom-key", entry) is False
        assert tier.entry_count() == 0

    def test_plain_collective_is_storable(self):
        doc = collective_to_doc(AllReduce(8, chunk_factor=8,
                                          in_place=True))
        assert doc["kind"] == "AllReduce"


class TestDefaultDirectory:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
        assert default_cache_dir() == tmp_path / "cachedir"
