"""KV-cache data structures and the cache managers that apply eviction policies.

Storage is paged: both the solo cache (:class:`LayerKVCache`) and the serving
batch cache (:class:`BatchedLayerKVCache`) are thin views over per-layer
:class:`BlockPool` page pools with ref-counted, copy-on-write pages — see
:mod:`repro.kvcache.paged`.  Each pool composes a page codec and a residency,
both picked from its options at construction.  A ``kv_dtype="int8"`` knob
selects the :class:`Int8Codec` (int8 pages with per-page/per-head scales, see
:mod:`repro.kvcache.quant`) without changing any cache-facing API.

An ``admission_policy="wtinylfu"`` knob swaps the prefix registry's LRU
leaf-first reclaim for frequency-aware W-TinyLFU admission
(:class:`FrequencySketch` + :class:`WTinyLFUAdmissionPolicy`, see
:mod:`repro.kvcache.admission`) so hot shared prompt prefixes survive scan
bursts of unique prompts.

A ``tier0_pages`` knob selects the :class:`TieredResidency` — **tiered KV
offload** (:mod:`repro.kvcache.offload`): each pool keeps only that many pages
resident in its tier-0 slabs and spills cold pages byte-exactly to a tier-1
arena (``spill_backend="compressed"`` or ``"mmap"``), restoring them
transparently on access — outputs stay bit-identical with offload on or off.
"""

from repro.kvcache.admission import (
    ADMISSION_POLICIES,
    FrequencySketch,
    WTinyLFUAdmissionPolicy,
    resolve_admission_policy,
)
from repro.kvcache.batch import BatchedCacheManager, BatchedLayerKVCache, BatchedLayerView
from repro.kvcache.cache import LayerKVCache
from repro.kvcache.manager import CacheManager, LayerCacheView
from repro.kvcache.paged import (
    DEFAULT_PAGE_SIZE,
    BlockPool,
    PagedKVStore,
    PageTable,
    PoolExhausted,
    PrefixMatch,
    PrefixRegistry,
    check_kv_options,
    chunk_digest,
)
from repro.kvcache.offload import (
    SPILL_BACKENDS,
    AllResident,
    CompressedSpillArena,
    MmapSpillArena,
    TieredResidency,
)
from repro.kvcache.quant import IdentityCodec, Int8Codec
from repro.kvcache.stats import CacheStats

__all__ = [
    "ADMISSION_POLICIES",
    "FrequencySketch",
    "WTinyLFUAdmissionPolicy",
    "resolve_admission_policy",
    "LayerKVCache",
    "CacheManager",
    "LayerCacheView",
    "CacheStats",
    "BatchedLayerKVCache",
    "BatchedCacheManager",
    "BatchedLayerView",
    "BlockPool",
    "PageTable",
    "PagedKVStore",
    "PoolExhausted",
    "PrefixMatch",
    "PrefixRegistry",
    "IdentityCodec",
    "Int8Codec",
    "SPILL_BACKENDS",
    "AllResident",
    "TieredResidency",
    "CompressedSpillArena",
    "MmapSpillArena",
    "check_kv_options",
    "chunk_digest",
    "DEFAULT_PAGE_SIZE",
]
