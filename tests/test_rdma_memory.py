"""Tests for registered memory regions."""

import pytest

from repro import Cluster, ClusterConfig
from repro.errors import RemoteAccessError
from repro.rdma.memory import MemoryRegion


def test_read_write_roundtrip():
    region = MemoryRegion(1024, 4096)
    region.write(100, b"hello")
    assert region.read(100, 5) == b"hello"


def test_unwritten_memory_reads_zero():
    region = MemoryRegion(1024, 4096)
    assert region.read(0, 16) == bytes(16)


def test_region_grows_on_demand():
    region = MemoryRegion(16, 1 << 22)
    region.write(1 << 21, b"deep")
    assert region.read(1 << 21, 4) == b"deep"
    assert len(region) >= (1 << 21) + 4


def test_growth_capped_at_max():
    region = MemoryRegion(16, 1024)
    with pytest.raises(RemoteAccessError):
        region.write(2048, b"x")


def test_negative_offsets_rejected():
    region = MemoryRegion(16, 1024)
    with pytest.raises(RemoteAccessError):
        region.read(-1, 4)
    with pytest.raises(RemoteAccessError):
        region.write(-1, b"x")


@pytest.mark.parametrize(
    "access",
    [
        lambda region: region.read_u64(-8),
        lambda region: region.write_u64(-8, 5),
        lambda region: region.compare_and_swap(-8, 0, 5),
        lambda region: region.fetch_and_add(-8, 1),
    ],
    ids=["read_u64", "write_u64", "compare_and_swap", "fetch_and_add"],
)
def test_word_accesses_reject_negative_offsets(access):
    """A negative offset must not reach struct, which would count it back
    from the end of the materialised buffer and touch its last word."""
    region = MemoryRegion(1024, 4096)
    region.write(0, b"\x01" * 64)
    materialised = len(region._buf)
    last_word = region.read(materialised - 8, 8)
    with pytest.raises(RemoteAccessError):
        access(region)
    assert region.read(materialised - 8, 8) == last_word


def test_a_negative_atomic_offset_fails_the_verb():
    cluster = Cluster(ClusterConfig(num_memory_servers=1, seed=3))
    region = cluster.memory_server(0).region
    region.write(0, b"\x01" * 64)
    last = len(region._buf) - 8
    before = region.read_u64(last)
    with pytest.raises(RemoteAccessError):
        cluster.execute(cluster.new_compute_server().qp(0).fetch_and_add(-8, 1))
    assert region.read_u64(last) == before


def test_u64_roundtrip():
    region = MemoryRegion(64, 1024)
    region.write_u64(8, 0xDEADBEEF12345678)
    assert region.read_u64(8) == 0xDEADBEEF12345678


def test_u64_wraps_at_64_bits():
    region = MemoryRegion(64, 1024)
    region.write_u64(0, (1 << 64) + 5)
    assert region.read_u64(0) == 5


class TestLazyRegion:
    """The logical length is the configured size; bytes are materialised
    only as far as an access reaches, and the rest read as zeros."""

    def test_fresh_region_has_its_initial_length(self):
        region = MemoryRegion(1 << 21, 1 << 28)
        assert len(region) == 1 << 21
        assert len(region._buf) == 0

    def test_untouched_bytes_read_as_zeros(self):
        region = MemoryRegion(1 << 21, 1 << 22)
        region.write(8, b"x")
        deep = (1 << 21) - 64
        assert region.read(deep, 64) == bytes(64)
        assert bytes(region.read_view(deep - 64, 64)) == bytes(64)
        assert region.read_u64(deep - 256) == 0
        assert region.compare_and_swap(deep - 512, 1, 2) == (False, 0)
        assert region.fetch_and_add(deep - 768, 5) == 0
        assert region.read_u64(deep - 768) == 5
        assert region.read(8, 1) == b"x"
        assert len(region) == 1 << 21

    def test_access_materialises_no_further_than_needed(self):
        region = MemoryRegion(1 << 21, 1 << 22)
        region.write_u64(0, 1)
        assert len(region._buf) == 1 << 16
        region.write(200_000, b"page")
        assert len(region._buf) == 200_004
        region.read(0, len(region))
        assert len(region._buf) == len(region) == 1 << 21

    def test_logical_length_grows_in_whole_chunks(self):
        region = MemoryRegion(1 << 21, 1 << 24)
        region.write((1 << 21) + (3 << 20), b"far")
        assert len(region) == (1 << 21) + (4 << 20)
        assert region.read((1 << 21) + (3 << 20), 3) == b"far"

    def test_wipe_zeros_and_keeps_length(self):
        region = MemoryRegion(1 << 21, 1 << 22)
        region.write(4096, b"data")
        region.wipe()
        assert len(region) == 1 << 21
        assert region.read(4096, 4) == bytes(4)

    def test_reads_at_the_materialised_end_return_every_byte(self):
        """The access path tests the materialised end as a kept int: a read
        ending on it or one byte past it returns exactly *length* bytes
        after every growth step, after a wipe and on a mirror the primary
        grew. A stale end would cut ``view[offset:end]`` short, silently."""
        region = MemoryRegion(1 << 21, 1 << 23)
        mirror = MemoryRegion(1 << 21, 1 << 23)
        region.attach_mirror(mirror)

        def check(target):
            end = len(target._buf)
            for length in (1, 8, 1024):
                for stop in (end, end + 1):
                    data = target.read(stop - length, length)
                    view = target.read_view(stop - length, length)
                    assert len(data) == view.nbytes == length
                    assert bytes(view) == data
                    view.release()
            assert len(target._buf) >= end + 1

        for offset in (0, 70_000, 300_000, (1 << 21) + 5, (5 << 20) + 3):
            region.write(offset, b"grow")
            for target in (region, mirror):
                check(target)
                assert target.read(offset, 4) == b"grow"
        region.wipe()
        check(region)
        assert region.read((5 << 20) + 3, 4) == bytes(4)
        assert mirror.read((5 << 20) + 3, 4) == b"grow"

    def test_live_view_blocks_materialising_inside_the_logical_length(self):
        region = MemoryRegion(1 << 21, 1 << 22)
        view = region.read_view(0, 16)
        with pytest.raises(BufferError):
            region.write(1 << 20, b"grow")
        assert len(region) == 1 << 21
        view.release()
        region.write(1 << 20, b"grow")
        assert region.read(1 << 20, 4) == b"grow"
        assert len(region) == 1 << 21


class TestReadView:
    """The zero-copy view path behind the engine's fast READ."""

    def test_view_is_readonly_and_aliases_live_buffer(self):
        region = MemoryRegion(1024, 4096)
        region.write(100, b"hello")
        view = region.read_view(100, 5)
        assert isinstance(view, memoryview)
        assert view.readonly
        assert bytes(view) == b"hello"
        # No copy was taken: a later write shows through the same view.
        region.write(100, b"world")
        assert bytes(view) == b"world"
        view.release()

    def test_view_never_copies_large_reads(self):
        # Equality with read() proves content; identity of the underlying
        # buffer proves zero-copy (obj is the region's own bytearray).
        region = MemoryRegion(1 << 16, 1 << 20)
        region.write(4096, bytes(range(256)) * 2)
        view = region.read_view(4096, 512)
        assert bytes(view) == region.read(4096, 512)
        assert view.obj is region._buf
        view.release()

    def test_live_caller_view_blocks_growth(self):
        region = MemoryRegion(64, 1 << 22)
        view = region.read_view(0, 16)
        with pytest.raises(BufferError):
            region.write(1 << 20, b"grow")
        # Dropping the view unblocks growth (the cached master is
        # released internally; only caller-held slices pin the buffer).
        view.release()
        region.write(1 << 20, b"grow")
        assert region.read(1 << 20, 4) == b"grow"

    def test_internal_master_view_does_not_block_growth(self):
        # read()/read_view() build a cached master view internally; that
        # cache alone must never prevent the region from growing.
        region = MemoryRegion(64, 1 << 22)
        assert region.read(0, 8) == bytes(8)
        bytes(region.read_view(0, 8))
        region.write(1 << 20, b"ok")
        assert region.read(1 << 20, 2) == b"ok"

    def test_view_extends_region_like_read(self):
        region = MemoryRegion(16, 4096)
        view = region.read_view(0, 64)  # past the end: zero-filled growth
        assert bytes(view) == bytes(64)
        assert len(region) >= 64

    def test_negative_view_rejected(self):
        region = MemoryRegion(16, 1024)
        with pytest.raises(RemoteAccessError):
            region.read_view(-1, 4)
        with pytest.raises(RemoteAccessError):
            region.read_view(0, -4)


class TestAtomics:
    def test_cas_success(self):
        region = MemoryRegion(64, 1024)
        region.write_u64(0, 10)
        swapped, old = region.compare_and_swap(0, 10, 20)
        assert swapped and old == 10
        assert region.read_u64(0) == 20

    def test_cas_failure_returns_current_value(self):
        region = MemoryRegion(64, 1024)
        region.write_u64(0, 10)
        swapped, old = region.compare_and_swap(0, 11, 20)
        assert not swapped and old == 10
        assert region.read_u64(0) == 10

    def test_fetch_and_add_returns_old(self):
        region = MemoryRegion(64, 1024)
        region.write_u64(0, 100)
        assert region.fetch_and_add(0, 5) == 100
        assert region.read_u64(0) == 105

    def test_fetch_and_add_wraps(self):
        region = MemoryRegion(64, 1024)
        region.write_u64(0, (1 << 64) - 1)
        assert region.fetch_and_add(0, 1) == (1 << 64) - 1
        assert region.read_u64(0) == 0

    def test_lock_word_protocol(self):
        """The version/lock discipline used by optimistic lock coupling:
        CAS sets bit 0, FAA(+1) releases and bumps the version."""
        region = MemoryRegion(64, 1024)
        version = region.read_u64(0)
        assert version % 2 == 0
        swapped, _ = region.compare_and_swap(0, version, version | 1)
        assert swapped
        # Second locker fails while the bit is set.
        swapped2, observed = region.compare_and_swap(0, version, version | 1)
        assert not swapped2 and observed == version | 1
        region.fetch_and_add(0, 1)
        assert region.read_u64(0) == version + 2
