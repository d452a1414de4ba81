"""Cache manager: connects decoder layers, KV caches and eviction policies.

The manager owns one :class:`LayerKVCache` per decoder layer and a single
eviction policy.  During incremental decoding each decoder block interacts
with the manager through a :class:`LayerCacheView`, which implements the
``BatchedLayerDecodeCache`` protocol expected by
:meth:`repro.models.block.DecoderBlock.decode_step_batch` (one query row per
batch row, all of equal length):

1. ``append`` stores the new token's key/value;
2. ``attention_view`` exposes keys/values plus positional indices in either
   original or renumbered form;
3. ``observe`` hands the step's attention logits/probabilities to the policy,
   which may return a selection of entries to retain; the manager applies the
   selection (to one layer, or to all layers for shared score functions).

A speculative verify pass runs the same kernel through a
:class:`VerifyCacheView` instead: the ``S`` draft tokens of the one sequence
become ``S`` query rows over its cache.
"""

from __future__ import annotations

import numpy as np

from repro.core.policies import EvictionPolicy
from repro.kvcache.cache import LayerKVCache
from repro.kvcache.paged import DEFAULT_PAGE_SIZE, PagedKVStore, PageTable, pages_needed
from repro.kvcache.stats import CacheStats

__all__ = ["CacheManager", "LayerCacheView", "VerifyCacheView", "verify_rows"]


def verify_rows(
    keys: np.ndarray,
    values: np.ndarray,
    key_positions: np.ndarray | None,
    first_query: int,
    n_queries: int,
    keys_rotated: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
    """The attention view of a verify pass over one sequence's cache.

    ``keys``/``values`` (``(heads, L, d)``) hold the sequence with its last
    ``n_queries`` tokens just appended.  They are broadcast zero-copy to
    ``S = n_queries`` rows; ``lengths[i]`` is the causal cache length query
    ``i`` may attend over — the cache a sequential decode step would have
    seen.  Query positions start at original position ``first_query``;
    ``key_positions=None`` selects renumbered positions (Keyformer (New
    Pos)), where query ``i`` sits at ``lengths[i] - 1``.
    """
    n_heads, length = keys.shape[:2]
    lengths = np.arange(length - n_queries + 1, length + 1)
    if key_positions is None:
        key_positions = np.broadcast_to(np.arange(length), (n_heads, length))
        query_positions = lengths - 1
    else:
        query_positions = np.arange(first_query, first_query + n_queries)
    keys, values, key_positions = (
        np.broadcast_to(x, (n_queries,) + x.shape) for x in (keys, values, key_positions)
    )
    return keys, values, key_positions, query_positions, lengths, keys_rotated


class LayerCacheView:
    """Per-layer decode facade of the solo manager (one query row per batch row)."""

    def __init__(self, manager: "CacheManager", layer_idx: int):
        self.manager = manager
        self.layer_idx = layer_idx

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Store the new token's key/value in this layer's cache."""
        self.manager.append(self.layer_idx, k, v)

    def attention_view(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
        """Keys/values plus positional indices and per-row lengths."""
        return self.manager.attention_view(self.layer_idx)

    def observe(self, logits: np.ndarray, probs: np.ndarray) -> None:
        """Hand the step's attention tensors to the eviction policy."""
        self.manager.observe(self.layer_idx, logits, probs)


class VerifyCacheView:
    """Per-layer speculative-verify facade of the solo manager.

    ``append`` writes the ``S``-token draft block in one page-span write,
    ``attention_view`` returns the sequence as ``S`` query rows (see
    :func:`verify_rows`), and ``observe`` does nothing: the verify path is
    only sound for a no-eviction target policy, so nothing may shrink the
    cache between appends (rejected tokens are rolled back by
    :meth:`CacheManager.commit_verify` instead).
    """

    def __init__(self, manager: "CacheManager", layer_idx: int):
        self.manager = manager
        self.layer_idx = layer_idx
        self._n_queries = 0

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append the draft block's KV (``(S, heads, d_head)``) in one write."""
        self.manager.append_block(self.layer_idx, k, v)
        self._n_queries = k.shape[0]

    def attention_view(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
        """The block's ``S`` query rows over this layer's cache."""
        return self.manager.verify_view(self.layer_idx, self._n_queries)

    def observe(self, logits: np.ndarray, probs: np.ndarray) -> None:
        """Nothing to observe: a verify target never evicts."""


class CacheManager:
    """Owns per-layer KV caches and drives one eviction policy.

    Parameters
    ----------
    dtype:
        Storage/compute dtype of the KV slabs (default ``float64``; the
        model's ``compute_dtype`` is plumbed through here by the generator).
    rope_dims:
        When positive and ``positional_mode == "original"``, per-layer caches
        maintain incrementally updated *rotated* keys so the attention step
        never re-rotates unchanged cache entries.
    kv_dtype:
        Page storage format of the store this manager builds: ``None``
        (default) keeps full-precision pages — the bit-exact golden mode —
        while ``"int8"`` stores quantized pages (see
        :mod:`repro.kvcache.quant`).  Ignored when ``store`` is passed.
    """

    def __init__(
        self,
        policy: EvictionPolicy,
        n_layers: int,
        n_heads: int,
        d_head: int,
        positional_mode: str | None = None,
        dtype: np.dtype | str | None = None,
        rope_dims: int = 0,
        page_size: int = DEFAULT_PAGE_SIZE,
        store: PagedKVStore | None = None,
        kv_dtype: str | None = None,
    ):
        self.policy = policy
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.d_head = d_head
        self.positional_mode = positional_mode or policy.config.positional_mode
        if self.positional_mode not in ("original", "new"):
            raise ValueError(f"unknown positional mode {self.positional_mode!r}")
        self.dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        # Rotated-key caching is only sound when rotations are keyed to the
        # (stable) original positions; renumbered mode re-rotates per step.
        self.rope_dims = int(rope_dims) if self.positional_mode == "original" else 0
        self.page_size = int(page_size)
        if store is not None:
            # A caller-supplied store lets two managers share one set of
            # block pools — the speculative decoder's target and drafter
            # hold their own page tables over the same physical pages.  With
            # a fixed (non-growable) store, allocations can surface
            # ``PoolExhausted``; the serving engine answers that with
            # preemption, solo callers should pass a growable store.
            self.page_size = store.page_size
        self.kv_dtype = store.kv_dtype if store is not None else kv_dtype
        self._shared_store = store
        self.store: PagedKVStore | None = store
        self.caches: list[LayerKVCache] = []
        self.stats = CacheStats(n_layers=n_layers, n_heads=n_heads, d_head=d_head)
        self.prompt_len = 0
        self.generation_step = 0
        self.current_position = 0
        self._step_lengths: list[int] = []
        self._qpos_array: np.ndarray | None = None

    def _build_store(self, batch_size: int, capacity: int) -> None:
        """One growable :class:`PagedKVStore` per generation run — the single
        storage substrate every per-layer cache view writes into."""
        if self._shared_store is not None:
            self.store = self._shared_store
            return
        pages = max(pages_needed(capacity, self.page_size), 1) * max(batch_size, 1) + 1
        self.store = PagedKVStore(
            self.n_layers,
            self.n_heads,
            self.d_head,
            page_size=self.page_size,
            dtype=self.dtype,
            rope_dims=self.rope_dims,
            n_pages=pages,
            growable=True,
            kv_dtype=self.kv_dtype,
        )

    def _make_cache_kwargs(self, max_new_tokens: int, initial_len: int) -> dict:
        return {
            "dtype": self.dtype,
            "capacity": initial_len + max_new_tokens + 1,
            "rope_dims": self.rope_dims,
        }

    # ------------------------------------------------------------------
    # prompt phase
    # ------------------------------------------------------------------
    def initialize_from_prompt(
        self,
        prompt_kv: list[tuple[np.ndarray, np.ndarray]],
        prompt_attn: list[np.ndarray],
        prompt_logits: list[np.ndarray],
        max_new_tokens: int,
    ) -> None:
        """Seed the caches from prompt-phase tensors and apply the initial eviction.

        Parameters
        ----------
        prompt_kv:
            Per-layer ``(keys, values)`` of shape ``(B, H, T, d_head)``.
        prompt_attn:
            Per-layer post-softmax attention of shape ``(B, H, T, T)``.
        prompt_logits:
            Per-layer masked unnormalized logits of shape ``(B, H, T, T)``.
        max_new_tokens:
            Expected generation length ``T`` (drives the τ schedule).
        """
        if len(prompt_kv) != self.n_layers:
            raise ValueError(f"expected {self.n_layers} layers of prompt KV, got {len(prompt_kv)}")
        keys0 = prompt_kv[0][0]
        batch_size, _, prompt_len, _ = keys0.shape
        self.prompt_len = prompt_len
        self.generation_step = 0
        self.current_position = prompt_len  # original position of the next token
        self._qpos_array = None
        self.stats = CacheStats(
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_head=self.d_head,
            batch_size=batch_size,
            prompt_len=prompt_len,
        )

        self.policy.setup(self.n_layers, self.n_heads, batch_size, prompt_len, max_new_tokens)

        cache_kwargs = self._make_cache_kwargs(max_new_tokens, prompt_len)
        self._build_store(batch_size, cache_kwargs["capacity"])
        self.caches = [
            LayerKVCache.from_prompt(
                keys, values, pool=self.store.pool(layer), **cache_kwargs
            )
            for layer, (keys, values) in enumerate(prompt_kv)
        ]
        self.stats.kv_token_bytes = self.store.pools[0].kv_token_nbytes()
        self.stats.total_appended += prompt_len * self.n_layers

        self._apply_prompt_selections(prompt_attn, prompt_logits, prompt_len)

    def _apply_prompt_selections(
        self, prompt_attn: list[np.ndarray], prompt_logits: list[np.ndarray], prompt_len: int
    ) -> None:
        """Run the policy's prompt-phase eviction over freshly seeded caches."""
        positions = np.arange(prompt_len)
        shared_selection: np.ndarray | None = None
        for layer_idx in range(self.n_layers):
            selection = self.policy.initial_selection(
                layer_idx, prompt_attn[layer_idx], prompt_logits[layer_idx], positions
            )
            if selection is None:
                continue
            if getattr(self.policy, "shared_selection", False):
                shared_selection = selection
            else:
                self._apply_selection(layer_idx, selection)
        if shared_selection is not None:
            for layer_idx in range(self.n_layers):
                self._apply_selection(layer_idx, shared_selection)

    def initialize_mapped(
        self,
        source_tables: list[list["PageTable"]],
        prompt_attn: list[np.ndarray],
        prompt_logits: list[np.ndarray],
        max_new_tokens: int,
    ) -> None:
        """Seed by *mapping* another manager's page tables (self-speculation).

        ``source_tables`` holds, per layer, the page tables of a sequence
        already resident in this manager's (shared) store — typically the
        speculative target right after its prompt forward.  Instead of
        copying the prompt KV, each layer cache clones the source table and
        retains its pages; the drafter's prompt-phase eviction then
        copy-on-writes into private pages, so target and drafter share
        physical prompt pages exactly as long as their contents agree.
        """
        if self._shared_store is None:
            raise RuntimeError("initialize_mapped requires a shared store")
        if len(source_tables) != self.n_layers:
            raise ValueError(
                f"expected {self.n_layers} layers of tables, got {len(source_tables)}"
            )
        self.store = self._shared_store
        batch_size = len(source_tables[0])
        prompt_len = source_tables[0][0].length
        self.prompt_len = prompt_len
        self.generation_step = 0
        self.current_position = prompt_len
        self._qpos_array = None
        self.stats = CacheStats(
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_head=self.d_head,
            batch_size=batch_size,
            prompt_len=prompt_len,
        )
        self.policy.setup(self.n_layers, self.n_heads, batch_size, prompt_len, max_new_tokens)
        self.caches = [
            LayerKVCache.map_tables(self.store.pool(layer), tables, rope_dims=self.rope_dims)
            for layer, tables in enumerate(source_tables)
        ]
        self.stats.kv_token_bytes = self.store.pools[0].kv_token_nbytes()
        self.stats.total_appended += prompt_len * self.n_layers
        try:
            self._apply_prompt_selections(prompt_attn, prompt_logits, prompt_len)
        except Exception:
            # A mid-eviction failure (PoolExhausted from a copy-on-write
            # gather, or an injected allocation fault) must not leak the
            # freshly mapped pages — release them so the caller can preempt
            # or quarantine with the pool intact.
            self.release()
            raise

    def initialize_empty(self, batch_size: int, max_new_tokens: int, prompt_len: int = 1) -> None:
        """Start decoding with empty caches (used in unit tests and microbenchmarks)."""
        self.prompt_len = 0
        self.generation_step = 0
        self.current_position = 0
        self._qpos_array = None
        self.policy.setup(
            self.n_layers, self.n_heads, batch_size, max(prompt_len, 1), max_new_tokens
        )
        cache_kwargs = self._make_cache_kwargs(max_new_tokens, 0)
        self._build_store(batch_size, cache_kwargs["capacity"])
        self.caches = [
            LayerKVCache.empty(
                batch_size, self.n_heads, self.d_head, pool=self.store.pool(layer), **cache_kwargs
            )
            for layer in range(self.n_layers)
        ]
        self.stats = CacheStats(
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_head=self.d_head,
            batch_size=batch_size,
            prompt_len=0,
        )
        self.stats.kv_token_bytes = self.store.pools[0].kv_token_nbytes()

    # ------------------------------------------------------------------
    # decode phase
    # ------------------------------------------------------------------
    def layer_view(self, layer_idx: int) -> LayerCacheView:
        """The per-layer facade handed to ``DecoderBlock.decode_step_batch``."""
        if not (0 <= layer_idx < self.n_layers):
            raise IndexError(f"layer index {layer_idx} out of range")
        return LayerCacheView(self, layer_idx)

    def layer_views(self) -> list[LayerCacheView]:
        """Views for all layers, in order."""
        return [self.layer_view(i) for i in range(self.n_layers)]

    def query_positions(self) -> np.ndarray:
        """Original position of every row's next token, shape ``(B,)``."""
        if self._qpos_array is None:
            # One array per decoding step, shared by every layer.
            self._qpos_array = np.full(
                self.caches[0].batch_size, self.current_position, dtype=np.int64
            )
        return self._qpos_array

    def append(self, layer_idx: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append the current token's key/value to one layer's cache."""
        self.caches[layer_idx].append(k, v, self.current_position)
        self.stats.total_appended += 1

    def attention_view(
        self, layer_idx: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
        """``(keys, values, key_positions, query_positions, lengths, keys_rotated)``.

        Every row holds the same number of live entries, so ``lengths`` is
        constant and nothing is padded.  With rotated-key caching active,
        ``keys`` are already RoPE-rotated at their original positions
        (``keys_rotated=True``) and the attention step skips its own key
        rotation.
        """
        cache = self.caches[layer_idx]
        lengths = np.full(cache.batch_size, cache.length)
        keys_rotated = self.rope_dims > 0
        keys = cache.rotated_keys() if keys_rotated else cache.keys
        if self.positional_mode == "original":
            key_positions = cache.retained_original_positions()
            query_positions = self.query_positions()
        else:
            key_positions = cache.renumbered_positions()
            query_positions = lengths - 1
        self._step_lengths.append(cache.length)
        return keys, cache.values, key_positions, query_positions, lengths, keys_rotated

    def observe(self, layer_idx: int, logits: np.ndarray, probs: np.ndarray) -> None:
        """Run the policy on the step's attention tensors; apply evictions."""
        cache = self.caches[layer_idx]
        selection = self.policy.step_selection(
            layer_idx,
            logits,
            probs,
            cache.retained_original_positions(),
            self.generation_step + 1,
        )
        if selection is None:
            return
        if getattr(self.policy, "shared_selection", False):
            for idx in range(self.n_layers):
                self._apply_selection(idx, selection)
        else:
            self._apply_selection(layer_idx, selection)

    def advance(self) -> None:
        """Mark the end of a decoding step (one token processed by all layers)."""
        if self._step_lengths:
            self.stats.record_step(self._step_lengths)
            self._step_lengths = []
        self.generation_step += 1
        self.current_position += 1
        self._qpos_array = None

    # ------------------------------------------------------------------
    # speculative verify phase
    # ------------------------------------------------------------------
    def verify_views(self) -> list[VerifyCacheView]:
        """Per-layer verify facades (see :class:`VerifyCacheView`)."""
        return [VerifyCacheView(self, i) for i in range(self.n_layers)]

    def append_block(self, layer_idx: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append ``S`` consecutive tokens to one layer's cache in one write.

        ``k``/``v`` have shape ``(S, heads, d_head)`` — the verify pass's
        row-exact projections of the draft block.  Tokens land at original
        positions ``current_position .. current_position + S``; eager RoPE
        rotation happens per token inside the pool (bit-identical to
        appending them one at a time).
        """
        cache = self.caches[layer_idx]
        if cache.batch_size != 1:
            raise RuntimeError("the verify path decodes one sequence at a time")
        s = k.shape[0]
        positions = np.arange(self.current_position, self.current_position + s)
        pos_bht = np.broadcast_to(positions, (1, self.n_heads, s))
        cache.extend(
            k.transpose(1, 0, 2)[None], v.transpose(1, 0, 2)[None], pos_bht
        )
        self.stats.total_appended += s

    def verify_view(
        self, layer_idx: int, n_queries: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
        """Verify-pass attention view over the last ``n_queries`` appended
        tokens: the sequence as ``S`` query rows (see :func:`verify_rows`)."""
        cache = self.caches[layer_idx]
        rotated = self.rope_dims > 0
        keys = cache.rotated_keys() if rotated else cache.keys
        key_positions = None
        if self.positional_mode == "original":
            key_positions = cache.retained_original_positions()[0]
        return verify_rows(
            keys[0],
            cache.values[0],
            key_positions,
            self.current_position,
            n_queries,
            rotated,
        )

    def commit_verify(self, n_committed: int, n_appended: int) -> None:
        """Finalize one verify round: roll back the rejected tail and advance.

        The verify pass appended ``n_appended`` KV entries per layer; only the
        first ``n_committed`` correspond to tokens that actually entered the
        committed sequence, so the last ``n_appended - n_committed`` are
        truncated (pages back to the free list via the refcount machinery).
        Position/step counters advance by the committed count, exactly as
        ``n_committed`` sequential ``advance`` calls would.
        """
        drop = n_appended - n_committed
        if drop < 0:
            raise ValueError("cannot commit more tokens than were appended")
        if drop:
            for cache in self.caches:
                cache.truncate(drop)
        self.stats.record_backdated_steps(
            [cache.length for cache in self.caches], n_committed
        )
        self.generation_step += n_committed
        self.current_position += n_committed
        self._step_lengths = []
        self._qpos_array = None

    def release(self) -> None:
        """Return every cached page to the store (drafter teardown)."""
        for cache in self.caches:
            cache.release()
        self.caches = []

    def reorder(self, batch_indices: np.ndarray) -> None:
        """Reorder the batch/beam dimension of every cache and of the policy state."""
        for cache in self.caches:
            cache.reorder(batch_indices)
        self.policy.reorder(batch_indices)

    # ------------------------------------------------------------------
    def _apply_selection(self, layer_idx: int, selection: np.ndarray) -> None:
        cache = self.caches[layer_idx]
        evicted_before = cache.total_evicted
        cache.gather(selection)
        self.stats.total_evicted += cache.total_evicted - evicted_before

    # ------------------------------------------------------------------
    def cache_lengths(self) -> list[int]:
        """Current per-layer cache lengths."""
        return [cache.length for cache in self.caches]

    def total_kv_bytes(self, dtype_bytes: int | None = None) -> int:
        """Current resident KV-cache size across all layers.

        Defaults to the actual storage dtype (see ``LayerKVCache.nbytes``);
        pass ``dtype_bytes`` to model a different deployment dtype.
        """
        return sum(cache.nbytes(dtype_bytes) for cache in self.caches)
