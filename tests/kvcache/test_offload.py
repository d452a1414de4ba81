"""Unit tests for the tiered residency (``repro.kvcache.offload``).

The equivalence wall (``test_offload_equivalence.py``) proves whole-engine
bit-exactness; these tests pin the mechanics underneath it — the two arena
backends, frame assignment and victim selection, spill/restore byte
round-trips, pinning, bulk prefetch restore, logical growth, telemetry, and
the knob plumbing through :class:`~repro.kvcache.paged.PagedKVStore`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kvcache.offload import (
    SPILL_BACKENDS,
    CompressedSpillArena,
    MmapSpillArena,
    TieredResidency,
)
from repro.kvcache.paged import BlockPool, PageTable, PagedKVStore, PoolExhausted

HEADS, D_HEAD, PAGE = 2, 4, 4


def make_pool(**kwargs):
    kwargs.setdefault("page_size", PAGE)
    kwargs.setdefault("n_pages", 8)
    kwargs.setdefault("tier0_pages", 3)
    return BlockPool(HEADS, D_HEAD, **kwargs)


def record_nbytes(pool):
    """Bytes of one spill record: the page's slab slices, nothing else."""
    return sum(slab[:, :PAGE].nbytes for slab in pool.residency.slabs.values())


def seeded_table(pool, n_tokens, rng):
    table = PageTable()
    keys = rng.standard_normal((HEADS, n_tokens, D_HEAD))
    values = rng.standard_normal((HEADS, n_tokens, D_HEAD))
    positions = np.broadcast_to(np.arange(n_tokens), (HEADS, n_tokens))
    pool.extend(table, keys, values, positions)
    return table, keys, values


class TestArenas:
    @pytest.mark.parametrize("mmap", [False, True], ids=SPILL_BACKENDS)
    def test_store_load_roundtrip_is_byte_exact(self, mmap):
        arena = MmapSpillArena(record_nbytes=64) if mmap else CompressedSpillArena()
        payloads = {p: bytes([p % 256]) * 64 for p in (0, 3, 17)}
        for page, payload in payloads.items():
            arena.store(page, payload)
        assert len(arena) == 3
        assert sorted(arena.keys()) == [0, 3, 17]
        for page, payload in payloads.items():
            assert page in arena
            assert arena.load(page) == payload
        arena.drop(3)
        assert 3 not in arena and len(arena) == 2
        arena.drop(3)  # idempotent
        arena.close()

    @pytest.mark.parametrize("mmap", [False, True], ids=SPILL_BACKENDS)
    def test_overwrite_replaces_record(self, mmap):
        arena = MmapSpillArena(record_nbytes=16) if mmap else CompressedSpillArena()
        arena.store(5, b"a" * 16)
        arena.store(5, b"b" * 16)
        assert arena.load(5) == b"b" * 16
        assert len(arena) == 1
        arena.close()

    def test_mmap_grows_by_doubling_and_reuses_slots(self):
        arena = MmapSpillArena(record_nbytes=8)
        for page in range(20):  # crosses the 8-record floor and one doubling
            arena.store(page, page.to_bytes(1, "little") * 8)
        assert arena._capacity >= 20
        for page in range(20):
            assert arena.load(page) == page.to_bytes(1, "little") * 8
        arena.drop(0)
        arena.store(99, b"z" * 8)  # freed slot is reused lowest-first
        assert arena._slots[99] == 0
        assert arena.nbytes() == 20 * 8
        arena.close()

    def test_mmap_rejects_wrong_record_size(self):
        arena = MmapSpillArena(record_nbytes=8)
        with pytest.raises(ValueError, match="arena records are 8"):
            arena.store(0, b"too short")
        arena.close()
        with pytest.raises(ValueError):
            MmapSpillArena(record_nbytes=0)

    def test_compressed_nbytes_tracks_compressed_size(self):
        arena = CompressedSpillArena()
        arena.store(0, b"\x00" * 4096)
        assert 0 < arena.nbytes() < 4096  # zeros compress
        arena.close()
        assert len(arena) == 0


class TestTieredPoolMechanics:
    def test_slabs_sized_to_frames_not_pages(self):
        pool = make_pool()
        assert pool.n_pages == 8
        assert pool.residency.n_frames == 3
        assert pool.n_slots == 3 * PAGE  # physical slots = frames
        assert pool.residency.contiguous is False  # frames move: no zero-copy view

    @pytest.mark.parametrize("backend", SPILL_BACKENDS)
    def test_spill_restore_roundtrip_reproduces_bytes(self, backend):
        pool = make_pool(spill_backend=backend)
        rng = np.random.default_rng(0)
        table, keys, values = seeded_table(pool, 6 * PAGE, rng)  # > frames
        assert len(pool.residency.arena) == 6 - pool.residency.n_frames
        got_k = pool.keys_view(table)
        got_v = pool.values_view(table)
        assert got_k.tobytes() == keys.tobytes()
        assert got_v.tobytes() == values.tobytes()
        assert pool.check_invariants(owners=[table]) == []

    def test_victim_selection_is_lru_by_default(self):
        pool = make_pool()
        rng = np.random.default_rng(1)
        table, _, _ = seeded_table(pool, 3 * PAGE, rng)
        a, b, c = table.pages
        tier = pool.residency
        tier.base(a)  # touch: a is now the hottest
        tier.base(b)
        tier.base(c)
        tier.base(a)
        assert tier._choose_victim() == b  # coldest of the residents

    def test_spill_ranker_outranks_recency(self):
        pool = make_pool()
        rng = np.random.default_rng(2)
        table, _, _ = seeded_table(pool, 3 * PAGE, rng)
        a, b, c = table.pages
        pool.residency.base(a)  # LRU would evict b next…
        pool.spill_ranker = lambda page: 0 if page == c else 1
        assert pool.residency._choose_victim() == c  # …but the ranker marks c coldest

    def test_all_frames_pinned_raises_pool_exhausted(self):
        pool = make_pool()
        rng = np.random.default_rng(3)
        table, _, _ = seeded_table(pool, 3 * PAGE, rng)
        tier = pool.residency
        tier.pin(table.pages)
        with pytest.raises(PoolExhausted, match="tier-0 frames exhausted"):
            tier._choose_victim()
        tier.unpin(table.pages)
        assert tier._pins == {}

    @pytest.mark.parametrize("kv_dtype", [None, "int8"], ids=["fp64", "int8"])
    def test_rows_longer_than_tier0_compact_like_all_resident(self, kv_dtype):
        # Compaction streams the row page by page instead of needing it all
        # resident at once, and matches the all-resident pool bit for bit.
        pool = make_pool(kv_dtype=kv_dtype)
        ref = make_pool(kv_dtype=kv_dtype, tier0_pages=None)
        rng = np.random.default_rng(4)
        table, keys, values = seeded_table(pool, 5 * PAGE, rng)
        ref_table = PageTable()
        ref.extend(ref_table, keys, values, np.broadcast_to(np.arange(5 * PAGE), (HEADS, 5 * PAGE)))
        indices = np.stack(
            [np.sort(rng.choice(5 * PAGE, size=3 * PAGE, replace=False)) for _ in range(HEADS)]
        )
        assert pool.gather(table, indices) == ref.gather(ref_table, indices)
        assert pool.keys_view(table).tobytes() == ref.keys_view(ref_table).tobytes()
        assert pool.values_view(table).tobytes() == ref.values_view(ref_table).tobytes()
        assert pool.check_invariants(owners=[table]) == []

    def test_restore_pages_bulk_prefetch(self):
        pool = make_pool()
        rng = np.random.default_rng(5)
        table, _, _ = seeded_table(pool, 6 * PAGE, rng)
        tier = pool.residency
        spilled = [p for p in table.pages if p in tier.arena]
        assert len(spilled) == 3
        restored = pool.restore_pages(table.pages)
        assert restored == tier.n_frames  # as many as tier-0 holds
        assert all(tier.page_state(p) == "resident" for p in spilled)
        assert tier._pins == {}  # prefetch pins are transient
        # Already-resident, out-of-range and unknown pages are no-ops.
        assert pool.restore_pages(spilled + [-1, 10_000]) == 0
        assert pool.check_invariants(owners=[table]) == []

    def test_release_frees_frames_and_arena_records(self):
        pool = make_pool()
        rng = np.random.default_rng(6)
        table, _, _ = seeded_table(pool, 6 * PAGE, rng)
        pool.release_table(table)
        tier = pool.residency
        assert len(tier.arena) == 0
        assert sorted(tier._free_frames) == list(range(tier.n_frames))
        assert pool.check_invariants() == []

    def test_logical_growth_keeps_frames_fixed(self):
        pool = make_pool(n_pages=4, growable=True)
        rng = np.random.default_rng(7)
        table, keys, _ = seeded_table(pool, 10 * PAGE, rng)  # forces _grow
        assert pool.n_pages >= 10
        assert pool.residency.n_frames == 3  # growth buys spillable capacity only
        assert pool.keys_view(table).tobytes() == keys.tobytes()
        assert pool.check_invariants(owners=[table]) == []

    def test_tier_usage_telemetry_counts_traffic(self):
        pool = make_pool()
        rng = np.random.default_rng(8)
        table, _, _ = seeded_table(pool, 6 * PAGE, rng)
        tier = pool.residency
        usage = tier.usage()
        assert usage["tier0_frames"] == 3
        assert usage["resident_pages"] == 3
        assert usage["spilled_pages"] == 3
        assert usage["spills"] >= 3 and usage["spill_bytes"] > 0
        payload_nbytes = record_nbytes(pool)
        assert usage["spill_bytes"] == usage["spills"] * payload_nbytes
        pool.keys_view(table)  # forces restores
        after = tier.usage()
        assert after["restores"] > 0
        assert after["restore_bytes"] == after["restores"] * payload_nbytes
        states = {tier.page_state(p) for p in range(pool.n_pages)}
        assert states <= {"resident", "spilled", "free"}

    def test_spill_hook_fault_leaves_state_unchanged(self):
        pool = make_pool()
        rng = np.random.default_rng(9)
        table, _, _ = seeded_table(pool, 3 * PAGE, rng)
        tier = pool.residency
        before = {
            "frames": tier._page_frame.copy(),
            "arena": sorted(tier.arena.keys()),
            "spills": tier.n_spills,
        }

        def boom():
            raise RuntimeError("injected spill fault")

        pool.spill_hook = boom
        bad = PageTable()
        keys = rng.standard_normal((HEADS, PAGE, D_HEAD))
        positions = np.broadcast_to(np.arange(PAGE), (HEADS, PAGE))
        with pytest.raises(RuntimeError, match="injected spill fault"):
            pool.extend(bad, keys, keys, positions)  # needs a frame -> spills
        # The transfer fault fired before any mutation: residency maps, the
        # arena and the spill counters are exactly as they were.
        assert np.array_equal(tier._page_frame, before["frames"])
        assert sorted(tier.arena.keys()) == before["arena"]
        assert tier.n_spills == before["spills"]
        pool.spill_hook = None
        pool.release_table(bad)  # the caller unwinds its own failed alloc
        assert pool.check_invariants(owners=[table]) == []


class TestTieredInt8Pool:
    def test_spill_record_carries_codes_only(self):
        # Quantization parameters are indexed by logical page and stay in
        # RAM: a record is the page's int8 codes plus its int64 positions.
        pool = make_pool(kv_dtype="int8", dtype=np.float64)
        rng = np.random.default_rng(10)
        table, keys, values = seeded_table(pool, 6 * PAGE, rng)
        usage = pool.residency.usage()
        assert record_nbytes(pool) == HEADS * PAGE * (2 * D_HEAD + 8)
        assert usage["spill_bytes"] == usage["spills"] * record_nbytes(pool)
        # Round-trip through the arena: dequantized reads equal an
        # all-resident int8 pool writing the same history.
        ref = make_pool(kv_dtype="int8", dtype=np.float64, tier0_pages=None)
        ref_table = PageTable()
        positions = np.broadcast_to(np.arange(6 * PAGE), (HEADS, 6 * PAGE))
        ref.extend(ref_table, keys, values, positions)
        assert pool.keys_view(table).tobytes() == ref.keys_view(ref_table).tobytes()
        assert pool.check_invariants(owners=[table]) == []


class TestKnobPlumbing:
    @pytest.mark.parametrize(
        "backend, arena_cls",
        [
            (None, CompressedSpillArena),
            ("compressed", CompressedSpillArena),
            ("mmap", MmapSpillArena),
        ],
    )
    def test_spill_backend_selects_arena(self, backend, arena_cls):
        pool = make_pool(spill_backend=backend)
        assert type(pool.residency.arena) is arena_cls
        pool.residency.arena.close()

    def test_store_builds_tiered_pools(self):
        store = PagedKVStore(
            2, HEADS, D_HEAD, page_size=PAGE, n_pages=8, growable=False,
            tier0_pages=3, spill_backend="mmap",
        )
        assert store.tier0_frames() == 3
        for pool in store.pools:
            assert isinstance(pool.residency, TieredResidency)
            assert pool.residency.spill_backend == "mmap"
            assert type(pool.residency.arena) is MmapSpillArena
        usage = store.usage()
        assert usage["tier"]["tier0_frames"] == 3
        assert usage["tier"]["resident_pages"] == 0

    def test_store_without_offload_has_no_tier(self):
        store = PagedKVStore(2, HEADS, D_HEAD, page_size=PAGE, n_pages=8)
        assert store.tier0_frames() is None
        assert "tier" not in store.usage()
        for pool in store.pools:
            assert pool.restore_pages([0, 1]) == 0  # same surface, nothing spilled

    def test_all_resident_pool_never_fires_spill_callbacks(self):
        pool = make_pool(tier0_pages=None)

        def boom(*_):
            raise AssertionError("spill callback fired with every page resident")

        pool.spill_hook = boom
        pool.spill_ranker = boom
        rng = np.random.default_rng(12)
        table, keys, _ = seeded_table(pool, 6 * PAGE, rng)
        keep = np.broadcast_to(np.arange(0, 6 * PAGE, 2), (HEADS, 3 * PAGE))
        pool.gather(table, keep)
        assert pool.keys_view(table).tobytes() == keys[:, ::2].tobytes()
        assert pool.restore_pages(table.pages) == 0
        assert pool.residency.usage() == {}
