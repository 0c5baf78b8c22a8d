"""CompileCache disk persistence: round trips and corruption handling.

Any damaged cache file — flipped bit, truncation, foreign schema version,
garbage — must load as an *empty* cache (a miss, counted in
``robust.cache.corrupt``), never as an exception or, worse, silently
wrong entries.
"""

from __future__ import annotations

import pickle

import pytest

from repro.obs.metrics import disable_metrics, enable_metrics
from repro.perf import CompileCache
from repro.perf.cache import _CACHE_MAGIC
from repro.sched import paper_machine
from repro.service.ops import sweep_op

from tests.conftest import FIG1_SOURCE


@pytest.fixture()
def warm_cache():
    cache = CompileCache()
    compiled = cache.compile(FIG1_SOURCE)
    cache.schedules(compiled, paper_machine(4, 1))
    return cache


def corrupt_count(fn):
    registry = enable_metrics()
    try:
        result = fn()
    finally:
        disable_metrics()
    return result, registry.counters.get("robust.cache.corrupt", 0)


class TestRoundTrip:
    def test_saved_entries_replay_as_hits(self, tmp_path, warm_cache):
        path = tmp_path / "cache.bin"
        warm_cache.save(path)
        loaded, corrupt = corrupt_count(lambda: CompileCache.load(path))
        assert corrupt == 0
        assert len(loaded) == len(warm_cache) == 2
        loaded.compile(FIG1_SOURCE)  # same key -> hit, no recompilation
        assert loaded.stats.compile_hits == 1
        assert loaded.stats.compile_misses == 0

    def test_missing_file_is_a_cold_start_not_corruption(self, tmp_path):
        loaded, corrupt = corrupt_count(lambda: CompileCache.load(tmp_path / "nope"))
        assert len(loaded) == 0
        assert corrupt == 0

    def test_max_entries_trims_on_load(self, tmp_path, warm_cache):
        path = tmp_path / "cache.bin"
        warm_cache.save(path)
        loaded = CompileCache.load(path, max_entries=1)
        assert len(loaded._compiled) <= 1 and len(loaded._schedules) <= 1

    def test_save_is_atomic(self, tmp_path, warm_cache):
        path = tmp_path / "cache.bin"
        warm_cache.save(path)
        assert not path.with_name(path.name + ".tmp").exists()


class TestCorruption:
    def load_expecting_corrupt(self, path):
        loaded, corrupt = corrupt_count(lambda: CompileCache.load(path))
        assert len(loaded) == 0, "a damaged file must load as an empty cache"
        assert corrupt == 1
        return loaded

    def test_bit_flip_in_the_body(self, tmp_path, warm_cache):
        path = tmp_path / "cache.bin"
        warm_cache.save(path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01  # flip one bit mid-pickle
        path.write_bytes(bytes(raw))
        self.load_expecting_corrupt(path)

    def test_short_read(self, tmp_path, warm_cache):
        path = tmp_path / "cache.bin"
        warm_cache.save(path)
        path.write_bytes(path.read_bytes()[:25])  # magic survives, digest doesn't
        self.load_expecting_corrupt(path)

    def test_bad_magic(self, tmp_path, warm_cache):
        path = tmp_path / "cache.bin"
        warm_cache.save(path)
        path.write_bytes(b"NOTCACHE" + path.read_bytes()[8:])
        self.load_expecting_corrupt(path)

    def test_file_of_the_previous_layout_is_a_miss(self, tmp_path, warm_cache):
        """Files written before schedules were frozen carry magic
        ``RPROCCH1``; they load empty, and a sweep over one recompiles and
        prints the right table."""
        path = tmp_path / "cache.bin"
        warm_cache.save(path)
        path.write_bytes(b"RPROCCH1" + path.read_bytes()[8:])  # digest intact
        self.load_expecting_corrupt(path)
        expected = sweep_op(["QCD"], n=20, no_cache=True).stdout
        assert sweep_op(["QCD"], n=20, cache_file=str(path)).stdout == expected

    def test_wrong_schema_version(self, tmp_path):
        import hashlib
        from collections import OrderedDict

        body = pickle.dumps(
            {
                "schema_version": 999,
                "compiled": OrderedDict(),
                "schedules": OrderedDict(),
            }
        )
        path = tmp_path / "cache.bin"
        # well-formed envelope (magic + matching digest), stale contract
        path.write_bytes(_CACHE_MAGIC + hashlib.sha256(body).digest() + body)
        self.load_expecting_corrupt(path)

    def test_unpicklable_garbage(self, tmp_path):
        import hashlib

        body = b"this is not a pickle"
        path = tmp_path / "cache.bin"
        path.write_bytes(_CACHE_MAGIC + hashlib.sha256(body).digest() + body)
        self.load_expecting_corrupt(path)
