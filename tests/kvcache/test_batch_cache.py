"""Unit tests for the batched paged KV cache (`repro.kvcache.batch`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CachePolicyConfig
from repro.core.policies import H2OPolicy
from repro.kvcache.batch import BatchedCacheManager, BatchedLayerKVCache
from repro.kvcache.cache import LayerKVCache
from repro.kvcache.paged import PoolExhausted
from repro.models.tensor_ops import softmax

HEADS, D_HEAD = 4, 8


def _prompt(rng, t):
    keys = rng.normal(size=(1, HEADS, t, D_HEAD))
    values = rng.normal(size=(1, HEADS, t, D_HEAD))
    positions = np.broadcast_to(np.arange(t), (1, HEADS, t))
    return keys, values, positions


def _row_matches_reference(batched: BatchedLayerKVCache, row: int, ref: LayerKVCache):
    keys, values, positions = batched.row_view(row)
    assert batched.tables[row].length == ref.length
    np.testing.assert_array_equal(keys, ref.keys)
    np.testing.assert_array_equal(values, ref.values)
    np.testing.assert_array_equal(positions, ref.positions)


class TestBatchedLayerKVCache:
    def test_join_append_matches_single_sequence_cache(self):
        rng = np.random.default_rng(0)
        batched = BatchedLayerKVCache(max_batch=3, n_heads=HEADS, d_head=D_HEAD)
        refs = []
        for row, t in enumerate((6, 4, 9)):
            keys, values, positions = _prompt(rng, t)
            batched.join_row(row, keys, values, positions)
            refs.append(LayerKVCache.from_prompt(keys, values))
        for step in range(3):
            k = rng.normal(size=(3, HEADS, D_HEAD))
            v = rng.normal(size=(3, HEADS, D_HEAD))
            positions = np.asarray([6 + step, 4 + step, 9 + step])
            batched.append_rows(3, k, v, positions)
            for row, ref in enumerate(refs):
                ref.append(k[row : row + 1], v[row : row + 1], int(positions[row]))
        for row, ref in enumerate(refs):
            _row_matches_reference(batched, row, ref)

    def test_suffix_gather_is_pointer_bump(self):
        rng = np.random.default_rng(1)
        batched = BatchedLayerKVCache(max_batch=1, n_heads=HEADS, d_head=D_HEAD)
        keys, values, positions = _prompt(rng, 10)
        batched.join_row(0, keys, values, positions)
        ref = LayerKVCache.from_prompt(keys, values)
        pages_before = list(batched.tables[0].pages)
        suffix = np.broadcast_to(np.arange(3, 10), (1, HEADS, 7))
        evicted = batched.gather_row(0, suffix)
        ref.gather(suffix)
        assert evicted == 3
        # Pointer bump, no compaction: the same physical pages, offset moved.
        assert batched.tables[0].offset == 3
        assert batched.tables[0].pages == pages_before
        _row_matches_reference(batched, 0, ref)

    def test_suffix_gather_frees_fully_skipped_pages(self):
        rng = np.random.default_rng(11)
        ps = 16
        batched = BatchedLayerKVCache(max_batch=1, n_heads=HEADS, d_head=D_HEAD)
        keys, values, positions = _prompt(rng, 3 * ps)
        batched.join_row(0, keys, values, positions)
        free_before = batched.pool.free_pages
        # Drop the oldest 2*ps tokens: two whole leading pages return to the pool.
        suffix = np.broadcast_to(np.arange(2 * ps, 3 * ps), (1, HEADS, ps))
        batched.gather_row(0, suffix)
        assert batched.pool.free_pages == free_before + 2
        assert batched.tables[0].offset == 0
        ref = LayerKVCache.from_prompt(keys, values)
        ref.gather(suffix)
        _row_matches_reference(batched, 0, ref)

    def test_scattered_gather_matches_reference(self):
        rng = np.random.default_rng(2)
        batched = BatchedLayerKVCache(max_batch=1, n_heads=HEADS, d_head=D_HEAD)
        keys, values, positions = _prompt(rng, 12)
        batched.join_row(0, keys, values, positions)
        ref = LayerKVCache.from_prompt(keys, values)
        selection = np.sort(
            np.stack([rng.choice(12, size=6, replace=False) for _ in range(HEADS)])[
                None
            ],
            axis=-1,
        )
        batched.gather_row(0, selection)
        ref.gather(selection)
        _row_matches_reference(batched, 0, ref)

    def test_gather_after_suffix_shift_uses_relative_indices(self):
        rng = np.random.default_rng(3)
        batched = BatchedLayerKVCache(max_batch=1, n_heads=HEADS, d_head=D_HEAD)
        keys, values, positions = _prompt(rng, 10)
        batched.join_row(0, keys, values, positions)
        ref = LayerKVCache.from_prompt(keys, values)
        suffix = np.broadcast_to(np.arange(2, 10), (1, HEADS, 8))
        batched.gather_row(0, suffix)
        ref.gather(suffix)
        scattered = np.sort(
            np.stack([rng.choice(8, size=4, replace=False) for _ in range(HEADS)])[
                None
            ],
            axis=-1,
        )
        batched.gather_row(0, scattered)
        ref.gather(scattered)
        _row_matches_reference(batched, 0, ref)

    def test_gather_rejects_out_of_range(self):
        rng = np.random.default_rng(4)
        batched = BatchedLayerKVCache(max_batch=1, n_heads=HEADS, d_head=D_HEAD)
        keys, values, positions = _prompt(rng, 5)
        batched.join_row(0, keys, values, positions)
        with pytest.raises(IndexError):
            batched.gather_row(0, np.full((1, HEADS, 2), 7))

    def test_free_row_moves_last_row_and_releases_pages(self):
        rng = np.random.default_rng(5)
        batched = BatchedLayerKVCache(max_batch=3, n_heads=HEADS, d_head=D_HEAD)
        refs = []
        for row, t in enumerate((5, 7, 6)):
            keys, values, positions = _prompt(rng, t)
            batched.join_row(row, keys, values, positions)
            refs.append(LayerKVCache.from_prompt(keys, values))
        free_before = batched.pool.free_pages
        batched.free_row(0, 2)  # retire row 0; row 2 moves into it
        _row_matches_reference(batched, 0, refs[2])
        _row_matches_reference(batched, 1, refs[1])
        assert batched.tables[2].length == 0
        assert batched.pool.free_pages > free_before  # row 0's pages returned

    def test_padded_batch_pads_to_longest_row(self):
        rng = np.random.default_rng(6)
        batched = BatchedLayerKVCache(max_batch=2, n_heads=HEADS, d_head=D_HEAD)
        contents = []
        for row in range(2):
            keys, values, positions = _prompt(rng, 8)
            batched.join_row(row, keys, values, positions)
            contents.append((keys, values))
        # Row 0 suffix-evicts; row 1 stays put → ragged lengths.
        batched.gather_row(0, np.broadcast_to(np.arange(3, 8), (1, HEADS, 5)))
        keys_view, values_view, pos_view, lengths, max_len = batched.padded_batch(
            2, rotated=False
        )
        assert max_len == 8
        np.testing.assert_array_equal(lengths, [5, 8])
        np.testing.assert_array_equal(keys_view[0, :, :5], contents[0][0][0, :, 3:])
        np.testing.assert_array_equal(keys_view[1], contents[1][0][0])
        np.testing.assert_array_equal(pos_view[1, 0], np.arange(8))

    def test_single_row_padded_batch_is_zero_copy(self):
        rng = np.random.default_rng(9)
        batched = BatchedLayerKVCache(max_batch=2, n_heads=HEADS, d_head=D_HEAD)
        keys, values, positions = _prompt(rng, 8)
        batched.join_row(0, keys, values, positions)
        keys_view, _, _, _, _ = batched.padded_batch(1, rotated=False)
        # The contiguous fast path returns a view of the pool slab itself.
        assert keys_view.base is batched.pool.residency.slabs["k"]

    def test_rotated_slab_matches_single_sequence_rotation(self):
        rng = np.random.default_rng(7)
        rope_dims = D_HEAD
        batched = BatchedLayerKVCache(
            max_batch=2, n_heads=HEADS, d_head=D_HEAD, rope_dims=rope_dims
        )
        refs = []
        for row, t in enumerate((6, 4)):
            keys, values, positions = _prompt(rng, t)
            batched.join_row(row, keys, values, positions)
            refs.append(
                LayerKVCache.from_prompt(keys, values, rope_dims=rope_dims)
            )
        k = rng.normal(size=(2, HEADS, D_HEAD))
        batched.append_rows(2, k, k.copy(), np.asarray([6, 4]))
        for row, ref in enumerate(refs):
            ref.append(k[row : row + 1], k[row : row + 1].copy(), (6, 4)[row])
        rotated, _, _, lengths, _ = batched.padded_batch(2, rotated=True)
        for row, ref in enumerate(refs):
            length = int(lengths[row])
            np.testing.assert_array_equal(
                rotated[row, :, :length], ref.rotated_keys()[0]
            )

    def test_capacity_grows_preserving_contents(self):
        rng = np.random.default_rng(8)
        batched = BatchedLayerKVCache(
            max_batch=1, n_heads=HEADS, d_head=D_HEAD, capacity=16
        )
        keys, values, positions = _prompt(rng, 10)
        batched.join_row(0, keys, values, positions)
        ref = LayerKVCache.from_prompt(keys, values)
        for step in range(20):  # forces at least one page allocation
            k = rng.normal(size=(1, HEADS, D_HEAD))
            batched.append_rows(1, k, k.copy(), np.asarray([10 + step]))
            ref.append(k[0:1], k[0:1].copy(), 10 + step)
        assert batched.capacity >= 30
        _row_matches_reference(batched, 0, ref)

    def test_join_row_shared_maps_prefix_pages(self):
        rng = np.random.default_rng(10)
        ps = 16
        batched = BatchedLayerKVCache(max_batch=2, n_heads=HEADS, d_head=D_HEAD)
        keys, values, positions = _prompt(rng, 2 * ps + 5)
        batched.join_row(0, keys, values, positions)
        shared_pages = batched.tables[0].pages[:2]
        suffix = _prompt(rng, 7)
        suffix_pos = np.broadcast_to(
            np.arange(2 * ps, 2 * ps + 7), (1, HEADS, 7)
        )
        batched.join_row_shared(1, shared_pages, 2 * ps, suffix[0], suffix[1], suffix_pos)
        # The mapped pages are physically shared between both rows.
        assert batched.tables[1].pages[:2] == shared_pages
        assert all(batched.pool.refcounts[p] == 2 for p in shared_pages)
        k1, v1, p1 = batched.row_view(1)
        np.testing.assert_array_equal(k1[:, :, : 2 * ps], keys[:, :, : 2 * ps])
        np.testing.assert_array_equal(k1[:, :, 2 * ps :], suffix[0])
        # Evicting on row 1 copy-on-writes: row 0's view of the prefix survives.
        batched.gather_row(
            1,
            np.sort(
                np.stack(
                    [rng.choice(2 * ps + 7, size=9, replace=False) for _ in range(HEADS)]
                )[None],
                axis=-1,
            ),
        )
        k0, _, _ = batched.row_view(0)
        np.testing.assert_array_equal(k0, keys)


class TestJoinUnwind:
    def test_join_unwinds_fully_when_prompt_eviction_exhausts_pool(self):
        """The prompt-phase eviction copy-on-writes away from registered pages
        and can exhaust a fixed pool *after* the row was admitted; the join
        must unwind the whole admission, not leave a phantom row behind."""
        rng = np.random.default_rng(13)
        ps = 8
        manager = BatchedCacheManager(
            n_layers=1,
            n_heads=HEADS,
            d_head=D_HEAD,
            max_batch=2,
            page_size=ps,
            max_pool_tokens=3 * ps,  # exactly the prompt — nothing for COW
        )
        t = 3 * ps
        keys = rng.normal(size=(1, HEADS, t, D_HEAD))
        logits = rng.normal(size=(1, HEADS, t, t))
        logits = np.where(np.triu(np.ones((t, t), dtype=bool), k=1)[None, None], -np.inf, logits)
        policy = H2OPolicy(CachePolicyConfig(kv_fraction=0.5, recent_ratio=0.5))
        tokens = rng.integers(0, 50, size=t)
        with pytest.raises(PoolExhausted):
            manager.join(
                [(keys, keys.copy())],
                [softmax(logits, axis=-1)],
                [logits],
                max_new_tokens=4,
                policy=policy,
                prompt_token_ids=tokens,  # registers → pages become shared
            )
        assert manager.n_active == 0
        assert manager.policies == [] and manager.stats == []
        # The row's refs are gone; only the registry still pins the pages,
        # and those are reclaimable on demand.
        assert manager.registry.reclaimable_pages() == 3
        manager.registry.reclaim(3)
        assert manager.store.pools[0].free_pages == manager.store.pools[0].n_pages
