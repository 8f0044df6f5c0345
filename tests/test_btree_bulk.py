"""Tests for bottom-up bulk loading."""

import cProfile
import gc
import hashlib

import pytest

from repro import Cluster, ClusterConfig, check_tree
from repro.btree import BLinkTree, bulk_load, is_null, key_columns
from repro.btree.inmemory import InMemoryAccessor, InMemoryRootRef, drive
from repro.btree.pointers import encode_pointer
from repro.config import TreeConfig
from repro.errors import IndexError_
from repro.experiments.common import DESIGNS, build_index
from repro.index.partitioning import HashPartitioner, RangePartitioner, mix64
from repro.nam.allocator import ALLOC_WORD_OFFSET
from repro.workloads import generate_dataset
from repro.workloads.datagen import skew_fractions


class DictSink:
    """Multi-server page sink over plain dicts: it hands out runs like a
    region's bump word and splits each run image back into its pages, so
    the traversal tests below read single pages."""

    def __init__(self, page_size=256, num_servers=4):
        self.page_size = page_size
        self.pages = {}
        self._next = {sid: page_size for sid in range(num_servers)}

    def alloc_run(self, server_id, pages):
        offset = self._next[server_id]
        self._next[server_id] += pages * self.page_size
        return offset

    def write_run(self, server_id, offset, data):
        assert len(data) % self.page_size == 0
        for start in range(0, len(data), self.page_size):
            page = data[start:start + self.page_size]
            self.pages[encode_pointer(server_id, offset + start)] = page


class SinkAccessor(InMemoryAccessor):
    """Read-only accessor over a DictSink's pages (for traversal checks)."""

    def __init__(self, sink):
        super().__init__(page_size=sink.page_size)
        for raw, data in sink.pages.items():
            self._pages[raw] = bytearray(data)


class FixedRoot(InMemoryRootRef):
    def __init__(self, accessor, root_raw):
        self.accessor = accessor
        self._root = root_raw


def load(pairs, num_servers=4, page_size=256, **kwargs):
    sink = DictSink(page_size, num_servers)
    result = bulk_load(
        *key_columns(pairs),
        sink,
        place_leaf=lambda i: i % num_servers,
        place_inner=lambda level, i: (level + i) % num_servers,
        **kwargs,
    )
    return result, sink


def tree_over(result, sink, **kw):
    accessor = SinkAccessor(sink)
    return BLinkTree(accessor, FixedRoot(accessor, result.root_raw), **kw)


def test_empty_load_produces_single_empty_leaf():
    result, sink = load([])
    assert result.num_leaves == 1
    assert result.height == 1
    tree = tree_over(result, sink)
    assert drive(tree.lookup(5)) == []


def test_single_pair():
    result, sink = load([(10, 100)])
    tree = tree_over(result, sink)
    assert drive(tree.lookup(10)) == [100]


def test_loaded_tree_is_valid_and_complete():
    pairs = [(k * 2, k) for k in range(1000)]
    result, sink = load(pairs)
    tree = tree_over(result, sink)
    report = drive(check_tree(tree))
    assert report.ok, report.violations
    assert report.entries == 1000
    assert report.leaves == result.num_leaves
    assert drive(tree.range_scan(0, 2000)) == pairs
    for key, value in pairs[::97]:
        assert drive(tree.lookup(key)) == [value]


def test_unsorted_input_rejected():
    with pytest.raises(IndexError_, match="sorted"):
        load([(5, 1), (3, 2)])


def test_fill_factor_controls_leaf_count():
    pairs = [(k, k) for k in range(500)]
    full, _ = load(pairs, **{"fill": 1.0})
    loose, _ = load(pairs, **{"fill": 0.5})
    assert loose.num_leaves > full.num_leaves


def test_round_robin_placement_balances_servers():
    pairs = [(k, k) for k in range(2000)]
    result, _ = load(pairs, num_servers=4)
    counts = result.pages_per_server
    assert len(counts) == 4
    assert max(counts.values()) - min(counts.values()) <= result.height + 2


def test_duplicate_runs_never_straddle_leaves():
    pairs = sorted([(k // 6, k) for k in range(600)])
    result, sink = load(pairs)
    tree = tree_over(result, sink)
    for key in (0, 17, 50, 99):
        assert len(drive(tree.lookup(key))) == 6
    report = drive(check_tree(tree))
    assert report.ok, report.violations


def test_oversized_duplicate_run_rejected():
    capacity = 13  # fanout(256)
    pairs = [(7, payload) for payload in range(capacity + 1)]
    with pytest.raises(IndexError_, match="equal keys"):
        load(pairs)


def test_min_height_forces_inner_root():
    result, sink = load([(1, 1)], min_height=2)
    assert result.height == 2
    accessor = SinkAccessor(sink)
    root = drive(accessor.read_node(result.root_raw))
    assert root.is_inner
    assert root.level == 1
    tree = tree_over(result, sink)
    assert drive(tree.lookup(1)) == [1]


class TestHeadNodes:
    def test_heads_installed_per_group(self):
        pairs = [(k, k) for k in range(1000)]
        result, sink = load(pairs, head_interval=4)
        assert result.num_heads == -(-result.num_leaves // 4)

    def test_leaves_point_at_their_group_head(self):
        pairs = [(k, k) for k in range(500)]
        result, sink = load(pairs, head_interval=4)
        accessor = SinkAccessor(sink)
        node = drive(accessor.read_node(result.root_raw))
        while node.is_inner:
            node = drive(accessor.read_node(node.values[0]))
        seen_heads = set()
        count = 0
        while True:
            assert not is_null(node.head)
            head = drive(accessor.read_node(node.head))
            assert head.is_head
            seen_heads.add(node.head)
            count += 1
            if is_null(node.right):
                break
            node = drive(accessor.read_node(node.right))
        assert count == result.num_leaves
        assert len(seen_heads) == result.num_heads

    def test_head_entries_map_first_keys_to_leaves(self):
        pairs = [(k, k) for k in range(400)]
        result, sink = load(pairs, head_interval=8)
        accessor = SinkAccessor(sink)
        node = drive(accessor.read_node(result.root_raw))
        while node.is_inner:
            node = drive(accessor.read_node(node.values[0]))
        head = drive(accessor.read_node(node.head))
        for first_key, leaf_ptr in zip(head.keys, head.values):
            leaf = drive(accessor.read_node(leaf_ptr))
            assert leaf.is_leaf
            assert leaf.keys[0] == first_key

    def test_prefetching_scan_equals_serial_scan(self):
        pairs = [(k, k) for k in range(800)]
        result, sink = load(pairs, head_interval=4)
        serial = tree_over(result, sink, use_head_nodes=False)
        prefetching = tree_over(result, sink, use_head_nodes=True,
                                prefetch_window=4)
        assert drive(prefetching.range_scan(100, 700)) == drive(
            serial.range_scan(100, 700)
        )


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_one_shot_pairs_leave_the_bytes_of_their_list(design):
    """``key_columns`` reads its input once, so a generator of pairs builds
    exactly what the list of the same pairs builds."""

    def regions(pairs):
        cluster = Cluster(ClusterConfig(seed=7))
        DESIGNS[design].build(cluster, "idx", *key_columns(pairs), key_space=800)
        return [bytes(server.region.read(0, len(server.region)))
                for server in cluster.memory_servers]

    assert regions((k * 8, k) for k in range(100)) == regions(
        [(k * 8, k) for k in range(100)]
    )


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_build_refuses_a_keyword_it_does_not_take(design):
    """``head_interval`` is no build keyword (``TreeConfig`` sets the head
    interval); a build must refuse it, not build with the default."""
    cluster = Cluster(ClusterConfig(seed=7))
    with pytest.raises(TypeError, match="head_interval"):
        DESIGNS[design].build(
            cluster, "idx", *key_columns([(8, 1)]), key_space=800, head_interval=0
        )


# ---- what a build leaves in the cluster, pinned byte for byte -------------

#: Keys on a gap of 8 below 8 000, minus those that hash to server 3, in a
#: key space of 16 000: uniform range partitioning leaves servers 2 and 3
#: empty, the skewed one servers 1-3, and hash partitioning server 3.
_SPARSE_KEYS = [key for key in range(0, 8_000, 8) if mix64(key) % 4 != 3]

#: ``name -> (sorted pairs, key space)`` of the pinned builds.
BUILD_DATASETS = {
    "20000": (generate_dataset(20_000).pairs(), 160_000),
    "37": (generate_dataset(37).pairs(), 296),
    # Runs of five equal keys: 42 pairs a leaf is no multiple of five, so
    # every leaf boundary is pushed past a run.
    "duplicates": ([(8 * (i // 5), i) for i in range(3_000)], 8 * 600),
    "empty-partition": ([(key, i) for i, key in enumerate(_SPARSE_KEYS)], 16_000),
}
PARTITIONINGS = ("range", "skewed", "hash")
HEAD_INTERVALS = {"default": TreeConfig().head_node_interval, "none": 0}


def build_digest(design, partitioning, heads, dataset, **config):
    """sha256 over what building *dataset* leaves behind: every memory
    server's region and its backup regions, each region's allocator word
    and the index's root/control words."""
    pairs, key_space = BUILD_DATASETS[dataset]
    tree = TreeConfig(head_node_interval=HEAD_INTERVALS[heads])
    cluster = Cluster(ClusterConfig(seed=7, tree=tree, **config))
    num_servers = cluster.num_memory_servers
    partitioner = {
        "range": None,
        "skewed": RangePartitioner.from_fractions(key_space, skew_fractions(num_servers)),
        "hash": HashPartitioner(num_servers),
    }[partitioning]
    index = DESIGNS[design].build(
        cluster, "pinned", *key_columns(pairs), partitioner=partitioner, key_space=key_space
    )
    roots = getattr(index, "roots", None) or {0: index.root_location}
    regions = []
    for server in cluster.memory_servers:
        for logical, region in [(None, server.region), *sorted(server.backup_regions.items())]:
            regions.append((
                server.server_id,
                logical,
                hashlib.sha256(region.read(0, len(region))).hexdigest(),
                region.read_u64(ALLOC_WORD_OFFSET),
            ))
    control = [
        (logical, location.server_id, location.offset,
         cluster.memory_server(location.server_id).region.read_u64(location.offset))
        for logical, location in sorted(roots.items())
    ]
    return hashlib.sha256(repr((regions, control)).encode()).hexdigest()


BUILD_CASES = [
    (design, partitioning, heads, dataset, {})
    for design in sorted(DESIGNS)
    for partitioning in PARTITIONINGS
    for heads in HEAD_INTERVALS
    for dataset in BUILD_DATASETS
] + [
    ("hybrid", "range", "default", dataset, {"replication_factor": 2})
    for dataset in BUILD_DATASETS
]


def _case_id(case):
    design, partitioning, heads, dataset, config = case
    replicated = "/rf2" if config else ""
    return f"{design}/{partitioning}/{heads}/{dataset}{replicated}"


#: ``case id -> build_digest`` recorded before bulk loading moved from
#: pairs to key columns; every byte a build writes must stay the same. The
#: fine-grained design ignores the partitioner and the coarse-grained one
#: the head interval, so their rows repeat across those axes.
BUILD_PINS = {
    "coarse-grained/range/default/20000":
        "153817d7ca84f9624605b2dca090028aee6223be8c79ca8ccbf25fe8aa99294c",
    "coarse-grained/range/default/37":
        "69be6909f6d40927fbe45a67207f20a59687ff0179d1a7264c13d804e0d21de5",
    "coarse-grained/range/default/duplicates":
        "d87e9cbaa292053be8d53b535c0fdccc59c7299306775148267ff58e595c9a41",
    "coarse-grained/range/default/empty-partition":
        "79704830c19d779f98bdf0482217d346854a438ab5c5f0364bb486100b2caffe",
    "coarse-grained/range/none/20000":
        "153817d7ca84f9624605b2dca090028aee6223be8c79ca8ccbf25fe8aa99294c",
    "coarse-grained/range/none/37":
        "69be6909f6d40927fbe45a67207f20a59687ff0179d1a7264c13d804e0d21de5",
    "coarse-grained/range/none/duplicates":
        "d87e9cbaa292053be8d53b535c0fdccc59c7299306775148267ff58e595c9a41",
    "coarse-grained/range/none/empty-partition":
        "79704830c19d779f98bdf0482217d346854a438ab5c5f0364bb486100b2caffe",
    "coarse-grained/skewed/default/20000":
        "a0b2d78426393fcacc0f005dc2ea68252c8fe8b8f98dab3b9e4a79eb82d11c7b",
    "coarse-grained/skewed/default/37":
        "6447588baa37abd5971351f28ab658fe33b89af637a8ebff7d04ba6a02e04094",
    "coarse-grained/skewed/default/duplicates":
        "5a375dbc7bb3efe17ed3b1dbff2370df7a4dfb491e5c15585801c8bbb93d85eb",
    "coarse-grained/skewed/default/empty-partition":
        "ac576743ffd4224af1aa01c0f74ecfa4b347c45da2232cf96d545e98bbe19295",
    "coarse-grained/skewed/none/20000":
        "a0b2d78426393fcacc0f005dc2ea68252c8fe8b8f98dab3b9e4a79eb82d11c7b",
    "coarse-grained/skewed/none/37":
        "6447588baa37abd5971351f28ab658fe33b89af637a8ebff7d04ba6a02e04094",
    "coarse-grained/skewed/none/duplicates":
        "5a375dbc7bb3efe17ed3b1dbff2370df7a4dfb491e5c15585801c8bbb93d85eb",
    "coarse-grained/skewed/none/empty-partition":
        "ac576743ffd4224af1aa01c0f74ecfa4b347c45da2232cf96d545e98bbe19295",
    "coarse-grained/hash/default/20000":
        "8da9d6db96036281f7b11a2e15bdb7d592fd69f02f2510a49b98b6305ae67c85",
    "coarse-grained/hash/default/37":
        "bb3e1b82e145087c45941d2e46af420dc99867ade812abe529b1eb3e8bdeb68d",
    "coarse-grained/hash/default/duplicates":
        "7f0d878805a14d5a8f806a12c8e6448976704587c8bc1f8cece64303ff10368c",
    "coarse-grained/hash/default/empty-partition":
        "0d153c64cdc6d175574647b32dbc2023adbfd6c5f6c547502ab5f5e610898476",
    "coarse-grained/hash/none/20000":
        "8da9d6db96036281f7b11a2e15bdb7d592fd69f02f2510a49b98b6305ae67c85",
    "coarse-grained/hash/none/37":
        "bb3e1b82e145087c45941d2e46af420dc99867ade812abe529b1eb3e8bdeb68d",
    "coarse-grained/hash/none/duplicates":
        "7f0d878805a14d5a8f806a12c8e6448976704587c8bc1f8cece64303ff10368c",
    "coarse-grained/hash/none/empty-partition":
        "0d153c64cdc6d175574647b32dbc2023adbfd6c5f6c547502ab5f5e610898476",
    "fine-grained/range/default/20000":
        "7d084fe051c57d38a962476c099b38f4506a152152babded16878511aa779463",
    "fine-grained/range/default/37":
        "13f3415555a7199bb83c91f96ff4eef41322dad8ff27f0ccede1254a5a0731a1",
    "fine-grained/range/default/duplicates":
        "26eb345982b758a829113a36d23b3535853ac3014379bbeef400c693dd5f3bb9",
    "fine-grained/range/default/empty-partition":
        "9a6d2ed80bc173286281f036dd9cf0d199466ff268534ccdf4f193570b1a9ae0",
    "fine-grained/range/none/20000":
        "0cc40f1fda05f627ab6cd9c218a64fe2d719f17c10e396ee58f3fcaa1700d5ee",
    "fine-grained/range/none/37":
        "13f3415555a7199bb83c91f96ff4eef41322dad8ff27f0ccede1254a5a0731a1",
    "fine-grained/range/none/duplicates":
        "68d6c11679cd9009b918f8bcc6873ee0948f3435ed98dd6b922c928708dd153e",
    "fine-grained/range/none/empty-partition":
        "a13f99f9e6cf660c10baa25891a92c14781ecebfe8b2cdc979d8fa584ca1a685",
    "fine-grained/skewed/default/20000":
        "7d084fe051c57d38a962476c099b38f4506a152152babded16878511aa779463",
    "fine-grained/skewed/default/37":
        "13f3415555a7199bb83c91f96ff4eef41322dad8ff27f0ccede1254a5a0731a1",
    "fine-grained/skewed/default/duplicates":
        "26eb345982b758a829113a36d23b3535853ac3014379bbeef400c693dd5f3bb9",
    "fine-grained/skewed/default/empty-partition":
        "9a6d2ed80bc173286281f036dd9cf0d199466ff268534ccdf4f193570b1a9ae0",
    "fine-grained/skewed/none/20000":
        "0cc40f1fda05f627ab6cd9c218a64fe2d719f17c10e396ee58f3fcaa1700d5ee",
    "fine-grained/skewed/none/37":
        "13f3415555a7199bb83c91f96ff4eef41322dad8ff27f0ccede1254a5a0731a1",
    "fine-grained/skewed/none/duplicates":
        "68d6c11679cd9009b918f8bcc6873ee0948f3435ed98dd6b922c928708dd153e",
    "fine-grained/skewed/none/empty-partition":
        "a13f99f9e6cf660c10baa25891a92c14781ecebfe8b2cdc979d8fa584ca1a685",
    "fine-grained/hash/default/20000":
        "7d084fe051c57d38a962476c099b38f4506a152152babded16878511aa779463",
    "fine-grained/hash/default/37":
        "13f3415555a7199bb83c91f96ff4eef41322dad8ff27f0ccede1254a5a0731a1",
    "fine-grained/hash/default/duplicates":
        "26eb345982b758a829113a36d23b3535853ac3014379bbeef400c693dd5f3bb9",
    "fine-grained/hash/default/empty-partition":
        "9a6d2ed80bc173286281f036dd9cf0d199466ff268534ccdf4f193570b1a9ae0",
    "fine-grained/hash/none/20000":
        "0cc40f1fda05f627ab6cd9c218a64fe2d719f17c10e396ee58f3fcaa1700d5ee",
    "fine-grained/hash/none/37":
        "13f3415555a7199bb83c91f96ff4eef41322dad8ff27f0ccede1254a5a0731a1",
    "fine-grained/hash/none/duplicates":
        "68d6c11679cd9009b918f8bcc6873ee0948f3435ed98dd6b922c928708dd153e",
    "fine-grained/hash/none/empty-partition":
        "a13f99f9e6cf660c10baa25891a92c14781ecebfe8b2cdc979d8fa584ca1a685",
    "hybrid/range/default/20000":
        "4661662d463884963195dd899cf3524d54d40cf8c9f266bf86c7fec90c92e9d1",
    "hybrid/range/default/37":
        "9c63d7f3d500f6b1de49fd42e60a7555a5eec6cc6618744ad792212191825733",
    "hybrid/range/default/duplicates":
        "06687cd8f66eaca66521470025a2e999310528280097d347db05be9fd77404ac",
    "hybrid/range/default/empty-partition":
        "5f7f8c42177ec4c49d37eab922296985ac7a998889a9f502dbd407c8c4532955",
    "hybrid/range/none/20000":
        "559c02bd3217e3e395534cdb0d90171805a3952b423e7af3876421112ec868b8",
    "hybrid/range/none/37":
        "9c63d7f3d500f6b1de49fd42e60a7555a5eec6cc6618744ad792212191825733",
    "hybrid/range/none/duplicates":
        "be16f85bfb1978315d1200638bf284a2cc21c1c96c67d50297577ce7dbb5aff0",
    "hybrid/range/none/empty-partition":
        "1496674e25b80b2b333085f2517ad5145814b17d493609ed4bb89d5f2a85184e",
    "hybrid/skewed/default/20000":
        "bc924f295530aeb94ac7cc2cd078aae1abc4b7997272b65d37d53224e8a8419e",
    "hybrid/skewed/default/37":
        "54ad4f9528691dbbbb95e202c52883933abb889b825c9804f8c8fa597e3ac22b",
    "hybrid/skewed/default/duplicates":
        "560123d634e30ac44baa0d07b8c9d5429fb4c96a44bc5196095d5b1481cfe7a9",
    "hybrid/skewed/default/empty-partition":
        "55071f598ea4606c596427ca953b2e0df1f5dbd25128505cc0eded4b80e3fa56",
    "hybrid/skewed/none/20000":
        "3c2b7723400959d5790ae517a5f30dfdbd4f24530a015cbe23d30fbc6d9ce7f1",
    "hybrid/skewed/none/37":
        "54ad4f9528691dbbbb95e202c52883933abb889b825c9804f8c8fa597e3ac22b",
    "hybrid/skewed/none/duplicates":
        "11252cf489bcb5177ab0c5f0bd2734a59017ef1c07757f2772b08731f9b8935e",
    "hybrid/skewed/none/empty-partition":
        "5271b49e5a0e399135ed70df351a0b4dbe27ef4d8f98b564e4f1553feec7ce95",
    "hybrid/hash/default/20000":
        "155f4e207077161caa35ef3a3df17985ee8e0480aed498a7f1b17721b30e1a77",
    "hybrid/hash/default/37":
        "6d9ad9b6bc7604d2c0ef4939c5f9db0ca4a08cf81fb00077444165a9cb4dbd22",
    "hybrid/hash/default/duplicates":
        "9ddf3641d6dcdd341f47a1d223303dc57733b9f03bdf87e4c37c471b6546c9a5",
    "hybrid/hash/default/empty-partition":
        "d6dc3934296ec6e4e23a49637d4b086797ed079355db50ff07dee24037909400",
    "hybrid/hash/none/20000":
        "bd6d4c38963de9fc0d997ce9368dd8ad3e4244d8deed1dcba2934fbe8ea7dcdf",
    "hybrid/hash/none/37":
        "6d9ad9b6bc7604d2c0ef4939c5f9db0ca4a08cf81fb00077444165a9cb4dbd22",
    "hybrid/hash/none/duplicates":
        "1abd600cfa0b913dae0aa3f1717f4a535e267da2e8d04556b98a702c5017d08d",
    "hybrid/hash/none/empty-partition":
        "4c258ba09e6b32e70409d64ce758debffda6a35e0de5eb87c7ae93097d4d73cb",
    "hybrid/range/default/20000/rf2":
        "dea70701b90ef34bfb28cc5269cb223e24fb27859735b11895c1efcc41f26960",
    "hybrid/range/default/37/rf2":
        "951ef086b9f22806840932524e31ada7ff49ec259303a749ebf890b1ac071361",
    "hybrid/range/default/duplicates/rf2":
        "7eb808b5c1e8828dfb381ca36849a4ceb04d5c49680ba362b67d6f4280bbd085",
    "hybrid/range/default/empty-partition/rf2":
        "509b669634a63b734d8c935f7e1701990e2cf56f3b82c25fe4d3b5c070532998",
}


@pytest.mark.parametrize("case", BUILD_CASES, ids=_case_id)
def test_build_leaves_the_recorded_bytes(case):
    design, partitioning, heads, dataset, config = case
    assert build_digest(design, partitioning, heads, dataset, **config) == (
        BUILD_PINS[_case_id(case)]
    )


#: Ceiling on cProfile calls per loaded key of a 20 000-key ``build_index``,
#: ``dataset.columns()`` and the column check included: 0.168 / 0.186 /
#: 0.268 now, when a level is one allocation and one write per server and
#: the leaves are encoded vectorised; 0.786 / 0.855 / 0.907 when a build
#: allocated, encoded and wrote page by page; 4.98 / 1.07 / 5.13 when it
#: partitioned, checked and sliced pair by pair. Calls are summed over the
#: profiler's raw entries (``pstats`` would merge the two lambdas on one
#: line of a placement), with the cyclic collector off, so no finalizer or
#: ``gc`` callback an earlier test left behind lands in the profile; they
#: repeat to the last digit from run to run (counted on CPython 3.11).
CALLS_PER_KEY = {
    "coarse-grained": 0.17,
    "fine-grained": 0.19,
    "hybrid": 0.27,
}


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_build_calls_per_loaded_key(design):
    cluster = Cluster(ClusterConfig(seed=7))
    dataset = generate_dataset(20_000)
    gc.collect()
    gc.disable()
    try:
        profiler = cProfile.Profile()
        profiler.runcall(build_index, cluster, design, dataset)
    finally:
        gc.enable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    per_key = calls / dataset.num_keys
    print(f"\n{design}: {calls} calls, {per_key:.3f} per loaded key")
    assert per_key <= CALLS_PER_KEY[design], (
        f"{design} builds make {per_key:.3f} calls per loaded key, "
        f"ceiling {CALLS_PER_KEY[design]}"
    )
