import pytest

from sparsecube.blockio import MAX_BLOCK_SIZE, BlockReader, BytesReader, SimCache
from sparsecube.errors import FormatError


@pytest.fixture
def datafile(tmp_path):
    p = tmp_path / "blob.bin"
    p.write_bytes(bytes(range(256)) * 40)  # 10240 bytes = 2.5 blocks of 4096
    return p


def read(cache, key, data):
    """One live read of the block `key`, which holds `data`: `get`, and on a
    miss `put`, as `BlockReader.read_at` does.  Returns what the read gives."""
    cached = cache.get(key)
    if cached is None:
        cache.put(key, data)
        return data
    return cached


class TestSimCache:
    def test_hit_miss_counting(self):
        cache = SimCache(capacity=1 << 20)
        assert cache.get(("f", 0)) is None
        assert cache.misses == 1 and cache.hits == 0
        cache.put(("f", 0), bytes([1]))
        assert cache.misses == 1 and cache.hits == 0
        assert cache.get(("f", 0)) == bytes([1])
        assert cache.misses == 1 and cache.hits == 1
        assert read(cache, ("f", 0), bytes([2])) == bytes([1])
        assert cache.misses == 1 and cache.hits == 2

    def test_lru_eviction(self):
        block = bytes(4096)
        cache = SimCache(capacity=2 * 4096)
        read(cache, ("f", 0), block)
        read(cache, ("f", 1), block)
        read(cache, ("f", 0), block)  # refresh 0
        read(cache, ("f", 2), block)  # evicts 1
        assert cache.resident_blocks == 2
        read(cache, ("f", 1), block)
        assert cache.misses == 4  # 0, 1, 2, then 1 again after eviction

    def test_zero_capacity_caches_nothing(self):
        cache = SimCache(capacity=0)
        for _ in range(3):
            read(cache, ("f", 0), b"z")
        assert cache.misses == 3
        assert cache.used_bytes == 0

    def test_set_capacity_shrinks(self):
        cache = SimCache(capacity=4 * 4096)
        for i in range(4):
            read(cache, ("f", i), bytes(4096))
        cache.set_capacity(2 * 4096)
        assert cache.resident_blocks == 2

    def test_used_counts_actual_bytes(self):
        cache = SimCache(capacity=1 << 20)
        read(cache, ("a", 0), bytes(4096))
        read(cache, ("b", 0), bytes(100))  # short tail block
        assert cache.used_bytes == 4196

    def test_block_too_large_for_capacity_not_stored(self):
        cache = SimCache(capacity=10)
        read(cache, ("f", 0), bytes(100))
        assert cache.used_bytes == 0
        read(cache, ("f", 0), bytes(100))
        assert cache.misses == 2

    def test_put_keeps_a_block_already_resident(self):
        cache = SimCache(capacity=1 << 20)
        read(cache, ("f", 0), bytes([1]))
        cache.put(("f", 0), bytes([2]))
        assert (cache.get(("f", 0)), cache.used_bytes) == (bytes([1]), 1)


class TestBlockReader:
    def test_read_matches_file(self, datafile):
        raw = datafile.read_bytes()
        with BlockReader(datafile) as r:
            assert r.read_at(0, 10) == raw[:10]
            assert r.read_at(4090, 6) == raw[4090:4096]  # ends at a boundary
            assert r.read_at(4096, 4096) == raw[4096:8192]  # a whole block
            assert r.read_at(10230, 10) == raw[10230:]
            assert -(-r.file_size // r.block_size) == 3

    @pytest.mark.parametrize("size", [0, -1, MAX_BLOCK_SIZE + 1, 10**12, 10**23, 2**64])
    def test_block_size_outside_its_bound_rejected(self, datafile, size):
        with pytest.raises(ValueError, match=f"^block size {size} is not in 1..{MAX_BLOCK_SIZE}$"):
            BlockReader(datafile, block_size=size)

    def test_block_size_at_its_bound(self, datafile):
        raw = datafile.read_bytes()
        with BlockReader(datafile, block_size=MAX_BLOCK_SIZE) as r:
            assert r.file_size <= r.block_size and r.read_at(4090, 12) == raw[4090:4102]

    def test_read_past_end_raises(self, datafile):
        with BlockReader(datafile) as r:
            with pytest.raises(ValueError):
                r.read_at(10235, 10)

    @pytest.mark.parametrize("offset, length", [(-4100, 8), (-8, 8), (-1, 1), (10235, 10), (0, -1)])
    def test_read_outside_file_raises(self, datafile, offset, length):
        raw = datafile.read_bytes()
        cache = SimCache(capacity=1 << 20)
        with BlockReader(datafile, cache=cache) as f, BytesReader(raw, "blob") as m:
            for r in (f, m):
                with pytest.raises(ValueError, match="outside file"):
                    r.read_at(offset, length)
        assert (cache.hits, cache.misses) == (0, 0)

    @pytest.mark.parametrize("offset, length", [(4090, 12), (4095, 2), (100, 8200), (0, 4097)])
    def test_read_across_a_block_boundary_raises(self, datafile, offset, length):
        raw = datafile.read_bytes()
        cache = SimCache(capacity=1 << 20)
        with BlockReader(datafile, cache=cache) as f, BytesReader(raw, "blob") as m:
            for r in (f, m):
                with pytest.raises(ValueError, match="across its 4096-octet blocks"):
                    r.read_at(offset, length)
        assert (cache.hits, cache.misses) == (0, 0)

    @pytest.mark.parametrize("offset", [0, 4096, 5000, 10240])
    def test_empty_read_touches_no_block(self, datafile, offset):
        cache = SimCache(capacity=1 << 20)
        with BlockReader(datafile, cache=cache) as r:
            assert r.read_at(offset, 0) == b""
        assert (cache.hits, cache.misses) == (0, 0)

    @pytest.mark.parametrize("offset", [8192, 10000, 10239])
    def test_read_ending_at_eof_in_short_tail_block(self, datafile, offset):
        raw = datafile.read_bytes()
        cache = SimCache(capacity=1 << 20)
        with BlockReader(datafile, cache=cache) as f, BytesReader(raw, "blob") as m:
            for r in (f, m):
                assert r.read_at(offset, 10240 - offset) == raw[offset:]
        assert (cache.misses, cache.resident_blocks, cache.used_bytes) == (1, 1, 2048)

    def test_cache_interception(self, datafile):
        cache = SimCache(capacity=1 << 20)
        with BlockReader(datafile, cache=cache, name="blob") as r:
            r.read_at(0, 8)
            assert (cache.hits, cache.misses) == (0, 1)
            r.read_at(8, 8)
            assert (cache.hits, cache.misses) == (1, 1)
            r.read_at(4090, 6)  # the end of block 0
            assert (cache.hits, cache.misses) == (2, 1)
            r.read_at(4096, 6)  # the start of block 1
            assert (cache.hits, cache.misses) == (2, 2)

    def test_cached_reads_bypass_file(self, datafile):
        cache = SimCache(capacity=1 << 20)
        r = BlockReader(datafile, cache=cache, name="blob")
        first = r.read_at(0, 16)
        r.close()  # fd gone; hits must still be served
        assert r.read_at(0, 16) == first

    def test_determinism(self, datafile):
        def run():
            cache = SimCache(capacity=2 * 4096)
            with BlockReader(datafile, cache=cache, name="blob") as r:
                for off in (0, 5000, 9000, 100, 8200, 4100):
                    r.read_at(off, 64)
            return cache.hits, cache.misses

        assert run() == run()

    def test_bytes_reader_reads_like_the_file(self, datafile):
        raw = datafile.read_bytes()
        reads = [(0, 10), (4090, 6), (4096, 4096), (10230, 10), (8192, 2048), (8, 8)]
        with BlockReader(datafile) as f, BytesReader(raw, "blob") as m:
            assert (m.file_size, m.block_size) == (f.file_size, f.block_size)
            assert [m.read_at(o, n) for o, n in reads] == [f.read_at(o, n) for o, n in reads]
            assert [m.read_at(o, n) for o, n in reads] == [raw[o : o + n] for o, n in reads]
            with pytest.raises(ValueError):
                m.read_at(10235, 10)

    def test_contents_bypass_the_cache(self, datafile):
        raw = datafile.read_bytes()
        cache = SimCache(capacity=1 << 20)
        with BlockReader(datafile, cache=cache) as r:
            r.read_at(0, 8)
            assert r.contents() == raw
        assert BytesReader(raw, "blob").contents() == raw
        assert (cache.hits, cache.misses, cache.resident_blocks) == (0, 1, 1)

    def test_contents_of_a_file_cut_short_is_format_error(self, tmp_path):
        path = tmp_path / "cut"
        path.write_bytes(bytes(10000))
        with BlockReader(path) as r:
            path.write_bytes(bytes(9999))
            with pytest.raises(FormatError, match="holds 9999 octets, not 10000"):
                r.contents()

    def test_block_of_a_file_cut_short_is_format_error(self, datafile):
        cache = SimCache(capacity=1 << 20)
        with BlockReader(datafile, cache=cache, name="blob") as r:
            with open(datafile, "r+b") as f:
                f.truncate(10237)
            assert r.read_at(0, 8) == bytes(range(8))  # a whole block still reads
            with pytest.raises(FormatError, match="blob block 2 holds 2045 octets, not 2048"):
                r.read_at(8192, 8)
        assert (cache.misses, cache.resident_blocks) == (2, 1)
