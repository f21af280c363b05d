"""Content-addressed result cache: LRU tier, disk tier, keying."""

import json

from repro.engine import MISS, ResultCache, cache_key, machine_fingerprint


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key("spec", 1) == cache_key("spec", 1)

    def test_spec_and_seed_sensitive(self):
        keys = {cache_key("a", 1), cache_key("a", 2), cache_key("b", 1)}
        assert len(keys) == 3

    def test_fingerprint_fields(self):
        fp = machine_fingerprint()
        assert {"code_version", "python", "implementation",
                "platform", "machine"} <= set(fp)


class TestMemoryTier:
    def test_get_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get("k") is MISS
        cache.put("k", "t", {"v": 1})
        assert cache.get("k") == {"v": 1}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_none_result_is_not_a_miss(self):
        cache = ResultCache(capacity=4)
        cache.put("k", "t", None)
        assert cache.get("k") is None

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", "t", 1)
        cache.put("b", "t", 2)
        assert cache.get("a") == 1  # refresh a; b is now oldest
        cache.put("c", "t", 3)
        assert cache.get("b") is MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1


class TestDiskTier:
    def test_survives_across_instances(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = ResultCache(capacity=4, disk_path=path)
        first.put("k", "t", [1, 2, 3])

        second = ResultCache(capacity=4, disk_path=path)
        assert second.get("k") == [1, 2, 3]
        assert second.stats.disk_hits == 1
        # promoted into memory: second lookup is a memory hit
        assert second.get("k") == [1, 2, 3]
        assert second.stats.hits == 1

    def test_last_duplicate_wins(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(capacity=4, disk_path=path)
        cache.put("k", "t", "old")
        cache.put("k", "t", "new")
        fresh = ResultCache(capacity=4, disk_path=path)
        assert fresh.get("k") == "new"

    def test_torn_line_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(capacity=4, disk_path=path)
        cache.put("good", "t", 7)
        with open(path, "a") as handle:
            handle.write('{"key": "torn", "res')  # killed mid-write
        fresh = ResultCache(capacity=4, disk_path=path)
        assert fresh.get("good") == 7
        assert fresh.get("torn") is MISS

    def test_torn_line_counted(self, tmp_path):
        # Without its newline the fragment is the file's last line: the
        # next put must still start a line of its own.
        fragments = ('{"key": "torn", "res\n', '{"key": "torn", "res')
        for i, fragment in enumerate(fragments):
            path = tmp_path / f"cache{i}.jsonl"
            cache = ResultCache(capacity=4, disk_path=path)
            cache.put("first", "t", 1)
            with open(path, "a") as handle:
                handle.write(fragment)
            cache.put("second", "t", 2)
            fresh = ResultCache(capacity=4, disk_path=path)
            assert fresh.get("first") == 1
            assert fresh.get("second") == 2, repr(fragment)
            assert fresh.stats.disk_hits == 2
            assert fresh.stats.torn_lines == 1
            assert fresh.stats.to_dict()["torn_lines"] == 1

    def test_clear_truncates(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(capacity=4, disk_path=path)
        cache.put("k", "t", 1)
        cache.clear()
        assert cache.get("k") is MISS
        assert path.read_text() == ""
        assert cache.disk_entries == 0

    def test_records_are_json_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ResultCache(capacity=4, disk_path=path).put("k", "mytask", {"a": 1})
        record = json.loads(path.read_text().splitlines()[0])
        assert record["key"] == "k"
        assert record["task"] == "mytask"
        assert record["result"] == {"a": 1}
