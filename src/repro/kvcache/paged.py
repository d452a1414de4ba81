"""Paged KV-cache storage: block pools, page tables and prefix sharing.

This module is the single storage substrate under both cache front-ends
(:class:`~repro.kvcache.cache.LayerKVCache` for solo/beam decoding and
:class:`~repro.kvcache.batch.BatchedLayerKVCache` for the continuous-batching
engine).  Instead of one private slab per sequence, every decoder layer owns a
:class:`BlockPool` of fixed-size **pages** (``page_size`` token slots each,
holding keys, values, original positions and — when ``rope_dims > 0`` —
eagerly rotated keys), and every sequence holds one :class:`PageTable` per
layer mapping its logical token axis onto pool pages:

* **append** writes one token slot (allocating a page only on a boundary);
* **gather** (eviction) keeps its fast paths — identity is a no-op, a pure
  suffix selection is an O(1) offset bump that frees whole leading pages —
  and otherwise compacts through a flat row-gather into (re)allocated pages;
* **ref-counting + copy-on-write** let two sequences map the same physical
  page: a page is only written in place when its refcount is 1, so sharing a
  prompt prefix (or duplicating a beam) can never corrupt a neighbour;
* **materialization** resolves a page table back into the dense
  ``(heads, length, d_head)`` tensors attention consumes, with a zero-copy
  slab view when the pages happen to be physically contiguous (the common
  case for a solo sequence) and a page-gather copy otherwise.

Pages within one pool share the token-major layout ``(heads, n_pages *
page_size, d_head)``, so "physically contiguous pages" literally means a
contiguous token axis — exactly the slab layout the attention einsum's memory
locality depends on.  What a page stores (the compute dtype, or int8 codes)
is the pool's page codec (:mod:`repro.kvcache.quant`); where it lives (always
in the slabs, or in tier-0 frames in front of a spill arena) is its residency
(:mod:`repro.kvcache.offload`).  Both are picked once, when the pool is built.

:class:`PrefixRegistry` implements vLLM-style prefix caching on top of the
ref-counts: page-aligned chunks of prompt token ids are hashed (chained, so a
chunk is only reachable through its full prefix) to the physical pages that
hold their KV, and a new request whose prompt starts with a registered chunk
chain maps those pages instead of recomputing them.  Registered pages are
pinned by a registry refcount and reclaimed LRU-first when the pool runs dry.

Everything here is storage bookkeeping — no floating-point arithmetic beyond
the (bit-exact, elementwise) eager RoPE rotation of new keys — which is what
keeps the paged backend bit-identical to the historical slab backend.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.kvcache.admission import resolve_admission_policy
from repro.kvcache.quant import CODECS, IdentityCodec
from repro.models.positional import RopeTable, get_rope_table

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "chunk_digest",
    "PoolExhausted",
    "PoolIntegrityError",
    "PageTable",
    "BlockPool",
    "PagedKVStore",
    "PrefixMatch",
    "PrefixRegistry",
    "check_kv_options",
]

DEFAULT_PAGE_SIZE = 16


def pages_needed(n_tokens: int, page_size: int) -> int:
    """Pages required to hold ``n_tokens`` token slots (ceil division)."""
    return -(-int(n_tokens) // page_size)


class PoolExhausted(RuntimeError):
    """Raised when a fixed-size pool cannot allocate and nothing is reclaimable."""


class PoolIntegrityError(RuntimeError):
    """A pool-integrity audit (:meth:`BlockPool.check_invariants`) failed."""


def tag_fault_row(exc: BaseException, row: int) -> None:
    """Tag ``exc`` with the batch row whose work raised it (best effort).

    Row-scoped loops over a batch (pool appends, per-row policy observation)
    call this so the serving engine's quarantine handler can attribute an
    arbitrary mid-batch exception to the one row it belongs to.  First
    writer wins: an exception propagating through nested row loops keeps
    the innermost attribution.
    """
    if getattr(exc, "fault_row", None) is None:
        try:
            exc.fault_row = row
        except AttributeError:
            pass  # exceptions with __slots__ cannot carry the tag


class PageTable:
    """Per-sequence (per-layer) mapping of the logical token axis onto pages.

    ``pages`` lists physical page ids in logical order; the live tokens occupy
    slots ``offset .. offset + length`` of the concatenated pages.  A nonzero
    ``offset`` arises from the suffix-eviction fast path (sliding-window
    policies dropping the oldest tokens bump the offset instead of copying).
    """

    __slots__ = ("pages", "offset", "length")

    def __init__(self) -> None:
        self.pages: list[int] = []
        self.offset = 0
        self.length = 0

    @property
    def end(self) -> int:
        """One past the last live slot (in concatenated-page coordinates)."""
        return self.offset + self.length

    def allocated(self, page_size: int) -> int:
        """Total token slots covered by this table's pages."""
        return len(self.pages) * page_size

    def clone(self) -> "PageTable":
        """Shallow copy sharing the same physical pages (caller must retain)."""
        table = PageTable()
        table.pages = list(self.pages)
        table.offset = self.offset
        table.length = self.length
        return table


def check_kv_options(
    kv_dtype: str | None,
    tier0_pages: int | None = None,
    spill_backend: str | None = None,
) -> type:
    """Validate a pool's storage options; return the page-codec class.

    The one place ``kv_dtype``, ``tier0_pages`` and ``spill_backend`` are
    checked: ``kv_dtype`` is ``None``/``"native"`` (full precision) or
    ``"int8"``; ``spill_backend`` needs ``tier0_pages`` and is
    ``"compressed"`` or ``"mmap"``; ``tier0_pages`` is at least 2, because
    copy-on-write resolves a source and a destination frame at once.
    """
    # Imported on use: offload.py imports this module's PoolExhausted.
    from repro.kvcache.offload import SPILL_BACKENDS

    if kv_dtype not in CODECS:
        raise ValueError(f"unknown kv_dtype {kv_dtype!r}; expected None, 'native' or 'int8'")
    if spill_backend is not None and tier0_pages is None:
        raise ValueError(
            "spill_backend requires tier0_pages — KV offload is enabled "
            "by the tier-0 page budget"
        )
    if tier0_pages is not None and int(tier0_pages) < 2:
        raise ValueError("tier0_pages must be >= 2")
    if spill_backend is not None and spill_backend not in SPILL_BACKENDS:
        raise ValueError(
            f"unknown spill_backend {spill_backend!r}; expected one of {SPILL_BACKENDS}"
        )
    return CODECS[kv_dtype]


class BlockPool:
    """Fixed-size KV pages for one decoder layer.

    The pool owns the bookkeeping — page tables, refcounts, the free heap,
    copy-on-write — and every walk over a table's live region (writes,
    eviction compaction, reads).  Two collaborators, chosen once here from
    the constructor's options, decide the rest:

    * ``codec`` (:mod:`repro.kvcache.quant`) — the page format: the compute
      dtype itself (``kv_dtype=None``) or int8 codes with per-page affine
      parameters (``kv_dtype="int8"``);
    * ``residency`` (:mod:`repro.kvcache.offload`) — where a page lives: in
      slabs sized to the whole page space (``tier0_pages=None``), or in
      ``tier0_pages`` resident frames in front of a ``spill_backend`` arena.

    Slabs are token-major — ``(n_heads, n_slots, d_head)`` for keys/values/
    rotated keys and ``(n_heads, n_slots)`` for the per-head original
    positions — so under the all-resident layout a run of consecutive page
    ids is a contiguous token axis and materializes as a zero-copy view.

    Parameters
    ----------
    growable:
        When true (solo generation) the pool doubles on demand like the old
        slabs did.  When false (the serving engine's memory-aware mode) an
        allocation that cannot be satisfied first asks the ``reclaimer`` (the
        prefix registry) to drop cold pinned pages and then raises
        :class:`PoolExhausted`, which the engine turns into preemption.
    """

    def __init__(
        self,
        n_heads: int,
        d_head: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        n_pages: int = 64,
        dtype: np.dtype | str = np.float64,
        rope_dims: int = 0,
        rope_table: RopeTable | None = None,
        growable: bool = True,
        kv_dtype: str | None = None,
        tier0_pages: int | None = None,
        spill_backend: str | None = None,
    ):
        from repro.kvcache.offload import AllResident, TieredResidency

        if page_size <= 0:
            raise ValueError("page_size must be positive")
        if n_pages <= 0:
            raise ValueError("n_pages must be positive")
        codec_cls = check_kv_options(kv_dtype, tier0_pages, spill_backend)
        self.n_heads = int(n_heads)
        self.d_head = int(d_head)
        self.page_size = int(page_size)
        self.dtype = np.dtype(dtype)
        self.rope_dims = int(rope_dims)
        self.rope_table = rope_table
        if self.rope_dims > 0 and rope_table is None:
            self.rope_table = get_rope_table(self.rope_dims)
        self.growable = growable
        self.reclaimer: Callable[[int], int] | None = None
        #: Optional fault-injection callback consulted at the top of every
        #: allocation (see :class:`repro.serving.faults.FaultInjector`); it
        #: raises to simulate an allocation failure before any state mutates.
        self.fault_hook: Callable[[], None] | None = None
        #: Optional fault-injection callback fired before every spill and
        #: restore transfer (the ``spill_io`` injection point); it raises
        #: *before* any state mutates.  Never fires when every page is resident.
        self.spill_hook: Callable[[], None] | None = None
        #: Optional spill-victim ranking (lower rank spills first) —
        #: typically :meth:`PrefixRegistry.spill_ranker`, which keeps
        #: W-TinyLFU-protected prefix pages resident longest.  Never consulted
        #: when every page is resident.
        self.spill_ranker: Callable[[int], int] | None = None
        streams = ("k", "v", "kr") if self.rope_dims > 0 else ("k", "v")
        self.codec = codec_cls(self.dtype, self.n_heads, n_pages, self.page_size, streams)
        self.residency = (
            AllResident(self, n_pages)
            if tier0_pages is None
            else TieredResidency(self, n_pages, int(tier0_pages), spill_backend)
        )
        #: Reads and writes may span several consecutive pages in one slice.
        self._merge_runs = self.codec.raw and self.residency.contiguous
        self.refcounts = np.zeros(n_pages, dtype=np.int64)
        self._free = list(range(n_pages))
        heapq.heapify(self._free)
        #: Pages currently mapped by more than one owner.  Zero means no
        #: copy-on-write can ever be needed — the solo-decode steady state —
        #: so the per-append/per-gather exclusivity checks reduce to one
        #: integer comparison.
        self._n_shared = 0

    # ------------------------------------------------------------------
    # geometry / accounting
    # ------------------------------------------------------------------
    @property
    def n_pages(self) -> int:
        """Total pages in the pool (free and mapped)."""
        return self.refcounts.shape[0]

    @property
    def n_slots(self) -> int:
        """Token slots the slabs hold (``page_size`` per resident page)."""
        return self.residency.slabs["k"].shape[1]

    @property
    def free_pages(self) -> int:
        """Pages currently on the free list."""
        return len(self._free)

    @property
    def used_pages(self) -> int:
        """Pages currently mapped by at least one owner."""
        return self.n_pages - len(self._free)

    @property
    def shared_pages(self) -> int:
        """Pages mapped by more than one owner (sequences and/or registry)."""
        return self._n_shared

    def pages_for(self, n_tokens: int) -> int:
        """Pages needed to hold ``n_tokens`` token slots."""
        return pages_needed(n_tokens, self.page_size)

    def kv_token_nbytes(self) -> float:
        """Key+value storage bytes one cached token occupies (all heads), as
        the codec stores it — so memory accounting (``LayerKVCache.nbytes``,
        :meth:`repro.perfmodel.memory.MemoryModel.measured_kv_bytes`)
        reflects what is actually resident."""
        return self.codec.kv_token_nbytes(self.n_heads, self.d_head, self.page_size)

    def page_nbytes(self) -> float:
        """Resident bytes of one page of this pool (the codec's
        ``estimate_page_nbytes``)."""
        return self.codec.estimate_page_nbytes(
            self.n_heads, self.d_head, self.page_size, self.dtype, self.rope_dims
        )

    def nbytes(self) -> int:
        """Resident bytes of this pool's slabs — keys, values, rotated keys
        and positions — plus the codec's per-page state."""
        slabs = self.residency.slabs.values()
        return sum(slab.nbytes for slab in slabs) + self.codec.nbytes()

    def restore_pages(self, pages: Iterable[int]) -> int:
        """Bulk-restore spilled ``pages`` ahead of a read (engine prefetch);
        returns the number restored — always 0 when every page is resident."""
        return self.residency.restore_pages(pages)

    # ------------------------------------------------------------------
    # allocation / refcounting
    # ------------------------------------------------------------------
    def _grow(self, min_pages: int) -> None:
        new_pages = max(min_pages, 2 * self.n_pages)
        self.residency.grow(new_pages)
        self.codec.grow(new_pages)
        for page in range(self.n_pages, new_pages):
            heapq.heappush(self._free, page)
        self.refcounts = np.concatenate(
            [self.refcounts, np.zeros(new_pages - self.n_pages, dtype=np.int64)]
        )

    def alloc(self, n: int) -> list[int]:
        """Allocate ``n`` pages (refcount 1 each, codec state reset), lowest
        ids first.

        Lowest-first keeps a freshly seeded sequence on a physically
        contiguous run of pages, which is what the zero-copy materialization
        fast path relies on.
        """
        if n <= 0:
            return []
        if self.fault_hook is not None:
            # Fires before any mutation, so an injected allocation fault
            # leaves the pool exactly as it was.
            self.fault_hook()
        if len(self._free) < n:
            if self.growable:
                self._grow(self.used_pages + n)
            elif self.reclaimer is not None:
                self.reclaimer(n - len(self._free))
        if len(self._free) < n:
            raise PoolExhausted(
                f"pool out of pages: need {n}, have {len(self._free)} free "
                f"of {self.n_pages}"
            )
        pages = [heapq.heappop(self._free) for _ in range(n)]
        self.refcounts[pages] = 1
        self.codec.reset(pages)
        return pages

    def retain(self, pages: Iterable[int]) -> None:
        """Bump the refcount of every page in ``pages``."""
        for page in pages:
            count = self.refcounts[page] + 1
            self.refcounts[page] = count
            if count == 2:
                self._n_shared += 1

    def release(self, pages: Iterable[int]) -> None:
        """Drop one reference per page; free pages return to the free list
        (and give up their frame or arena record)."""
        for page in pages:
            count = self.refcounts[page] - 1
            if count < 0:
                raise RuntimeError(f"page {page} released more times than retained")
            self.refcounts[page] = count
            if count == 0:
                heapq.heappush(self._free, page)
                self.residency.free(page)
            elif count == 1:
                self._n_shared -= 1

    def release_table(self, table: PageTable) -> None:
        """Release every page a table maps and reset it to empty."""
        self.release(table.pages)
        table.pages = []
        table.offset = 0
        table.length = 0

    # ------------------------------------------------------------------
    # integrity auditing
    # ------------------------------------------------------------------
    def check_invariants(
        self,
        owners: Sequence[PageTable] | None = None,
        pinned: Iterable[int] = (),
        label: str = "pool",
    ) -> list[str]:
        """Audit the pool's bookkeeping; returns violation strings (empty = clean).

        Internal consistency is always checked: non-negative refcounts, a
        duplicate-free free list containing exactly the refcount-zero pages,
        and the shared-page counter matching the refcounts.  When ``owners``
        is not ``None`` it must be the **complete** enumeration of live page
        tables mapping this pool; together with ``pinned`` (one entry per
        registry pin, duplicates allowed) the per-page reference totals are
        then cross-checked exactly — any mismatch is a leaked or corrupted
        page.  The codec and the residency then audit their own state.
        ``label`` prefixes each violation for multi-pool reports.
        """
        violations: list[str] = []
        n_pages = self.n_pages
        refcounts = self.refcounts

        negative = np.flatnonzero(refcounts < 0)
        if negative.size:
            violations.append(f"{label}: negative refcounts at pages {negative.tolist()}")

        free_counts: dict[int, int] = {}
        for page in self._free:
            free_counts[page] = free_counts.get(page, 0) + 1
        for page, count in free_counts.items():
            if not 0 <= page < n_pages:
                violations.append(f"{label}: free-list page {page} out of range")
            elif count > 1:
                violations.append(f"{label}: page {page} on the free list {count} times")
            elif refcounts[page] != 0:
                violations.append(
                    f"{label}: page {page} is free but has refcount {int(refcounts[page])}"
                )
        lost = [
            page
            for page in np.flatnonzero(refcounts == 0).tolist()
            if page not in free_counts
        ]
        if lost:
            violations.append(
                f"{label}: pages {lost} have refcount 0 but are not on the free list"
            )

        n_shared_actual = int((refcounts >= 2).sum())
        if self._n_shared != n_shared_actual:
            violations.append(
                f"{label}: shared-page counter {self._n_shared} != "
                f"{n_shared_actual} pages with refcount >= 2"
            )

        violations.extend(self.codec.audit(n_pages, label))
        violations.extend(self.residency.audit(label))
        if owners is None:
            return violations

        expected = np.zeros(n_pages, dtype=np.int64)
        for t, table in enumerate(owners):
            if not 0 <= table.offset < max(self.page_size, 1) and table.pages:
                violations.append(
                    f"{label}: table {t} offset {table.offset} outside [0, page_size)"
                )
            if table.length < 0 or table.end > table.allocated(self.page_size):
                violations.append(
                    f"{label}: table {t} spans {table.end} slots but maps only "
                    f"{table.allocated(self.page_size)}"
                )
            for page in table.pages:
                if not 0 <= page < n_pages:
                    violations.append(f"{label}: table {t} maps page {page} out of range")
                else:
                    expected[page] += 1
        for page in pinned:
            if not 0 <= page < n_pages:
                violations.append(f"{label}: pinned page {page} out of range")
            else:
                expected[page] += 1
        mismatched = np.flatnonzero(expected != refcounts)
        for page in mismatched.tolist():
            violations.append(
                f"{label}: page {page} refcount {int(refcounts[page])} != "
                f"{int(expected[page])} live references (tables + pins)"
            )
        return violations

    # ------------------------------------------------------------------
    # walking the live region
    # ------------------------------------------------------------------
    def _runs(
        self, table: PageTable, start: int, n: int, merge: bool
    ) -> Iterator[tuple[int, int, int, int]]:
        """Yield ``(done, page, slot, span)`` chunks covering concatenated-page
        slots ``start .. start + n`` of ``table``: ``span`` tokens from slab
        ``slot`` onwards, ``done`` tokens into the walk, in logical ``page``.

        The one walk every read and write takes.  With ``merge`` a chunk
        extends across consecutive page ids (one slice memcpy per physically
        contiguous run); without it chunks stop at page boundaries — int8
        pages carry their own parameters and tier-0 frames land anywhere.
        The slot is resolved lazily, as each chunk is reached, so a tiered
        residency restores a page just for its own chunk.
        """
        ps = self.page_size
        pages = table.pages
        # Plain page arithmetic when every page is resident (no call per run).
        base = None if self.residency.contiguous else self.residency.base
        i, within = divmod(start, ps)
        done = 0
        while done < n:
            j = i + 1
            if merge:
                while j < len(pages) and pages[j] == pages[j - 1] + 1:
                    j += 1
            span = min((j - i) * ps - within, n - done)
            page = pages[i]
            slot = (page * ps if base is None else base(page)) + within
            yield done, page, slot, span
            done += span
            i, within = j, 0

    def _is_contiguous(self, table: PageTable) -> bool:
        """True when the table's pages form one ascending run of page ids."""
        pages = table.pages
        if len(pages) <= 1:
            return True
        first = pages[0]
        return all(pages[i] == first + i for i in range(1, len(pages)))

    def _exclusive(self, table: PageTable) -> bool:
        if self._n_shared == 0:
            return True
        return all(self.refcounts[page] == 1 for page in table.pages)

    # ------------------------------------------------------------------
    # writes: seed / extend / append
    # ------------------------------------------------------------------
    def _write_span(self, table: PageTable, start: int, streams) -> None:
        """Write dense ``(name, array)`` streams into concatenated-page slots
        ``start ..`` of ``table`` (pages must already exist).  Positions are
        stored as-is; keys/values/rotated keys go through the codec.  Slabs
        are looked up here, after any allocation that may have grown them."""
        slabs = self.residency.slabs
        for name, data in streams:
            if data is None:
                continue
            codec = IdentityCodec if name == "pos" else self.codec
            merge = codec.raw and self.residency.contiguous
            for done, page, slot, span in self._runs(table, start, data.shape[1], merge):
                codec.encode(name, page, slabs[name], slot, data[:, done : done + span])

    def extend(
        self,
        table: PageTable,
        keys: np.ndarray,
        values: np.ndarray,
        positions: np.ndarray,
        reserve_tokens: int = 0,
    ) -> None:
        """Bulk-append ``keys``/``values`` of shape ``(heads, T, d_head)`` with
        per-head ``positions`` of shape ``(heads, T)`` at the table's end.

        Seeding a fresh table is ``extend`` on an empty one.  ``reserve_tokens``
        pre-allocates capacity beyond the written tokens (the historical
        ``capacity`` constructor argument of the slab caches).
        """
        t = keys.shape[1]
        needed_slots = max(table.end + t, table.offset + reserve_tokens)
        needed_pages = self.pages_for(max(needed_slots, 1))
        if needed_pages > len(table.pages):
            table.pages.extend(self.alloc(needed_pages - len(table.pages)))
        if t == 0:
            return
        start = table.end
        ps = self.page_size
        if table.pages and start < table.allocated(ps):
            # The first written slot lands inside the current last page; COW
            # it if shared (e.g. right after a beam duplicated this table).
            self._copy_on_write(table, start // ps)
        k_rot = None
        if self.rope_dims > 0:
            k_rot = self.rope_table.rotate(keys, positions)
        streams = (("k", keys), ("v", values), ("pos", positions), ("kr", k_rot))
        self._write_span(table, start, streams)
        table.length += t

    def _copy_on_write(self, table: PageTable, page_index: int) -> None:
        """Give ``table`` an exclusive copy of its ``page_index``-th page.

        The source page is pinned so resolving the destination's slot cannot
        evict it mid-copy, and a fault while resolving either slot (an
        injected ``spill_io``) releases the fresh page instead of stranding
        its refcount — the page is only published into the table after the
        copy landed.
        """
        if self._n_shared == 0:
            return
        page = table.pages[page_index]
        if self.refcounts[page] == 1:
            return
        self.residency.pin((page,))
        try:
            (fresh,) = self.alloc(1)
            try:
                ps = self.page_size
                src = self.residency.base(page)
                dst = self.residency.base(fresh)
                for slab in self.residency.slabs.values():
                    slab[:, dst : dst + ps] = slab[:, src : src + ps]
                self.codec.copy_page(page, fresh)
            except BaseException:
                self.release([fresh])
                raise
            table.pages[page_index] = fresh
            self.release([page])
        finally:
            self.residency.unpin((page,))

    def append(self, table: PageTable, k: np.ndarray, v: np.ndarray, position: int) -> None:
        """Append one token (``k``/``v`` of shape ``(heads, d_head)``)."""
        page, slot = self._append_slot(table)
        self._store_token(page, slot, k, v, int(position))
        table.length += 1

    def _store_token(
        self, page: int, slot: int, k: np.ndarray, v: np.ndarray, position: int
    ) -> None:
        """Write one token's key/value/position (plus eager rotation) into a
        resolved slab slot of ``page``."""
        slabs = self.residency.slabs
        slabs["pos"][:, slot] = position
        k_rot = None
        if self.rope_dims > 0:
            k_rot = self.rope_table.rotate_uniform(k, position)
        if self.codec.raw:
            # Solo-decode hot path: three direct row writes, no codec call.
            slabs["k"][:, slot] = k
            slabs["v"][:, slot] = v
            if k_rot is not None:
                slabs["kr"][:, slot] = k_rot
            return
        for name, data in (("k", k), ("v", v), ("kr", k_rot)):
            if data is not None:
                self.codec.encode(name, page, slabs[name], slot, np.asarray(data)[:, None, :])

    def _append_slot(self, table: PageTable) -> tuple[int, int]:
        """Page and slab slot of the next appended token (allocates / COWs)."""
        ps = self.page_size
        end = table.end
        if end == table.allocated(ps):
            table.pages.extend(self.alloc(1))
        else:
            self._copy_on_write(table, end // ps)
        page = table.pages[end // ps]
        return page, self.residency.base(page) + end % ps

    def append_rows(
        self,
        tables: Sequence[PageTable],
        k: np.ndarray,
        v: np.ndarray,
        positions: np.ndarray,
    ) -> None:
        """Append one token per table: ``k``/``v`` of shape ``(rows, heads,
        d_head)``, ``positions`` of shape ``(rows,)``.

        Slot resolution is per row (page boundaries differ).  Raw pages then
        take one vectorized scatter per slab — the steady-state decode cost
        is one indexed write, not a Python loop of copies — with each row's
        destination page pinned as its slot resolves, so a later row's
        restore cannot evict an earlier row's frame before the scatter
        lands.  Int8 pages must update each destination page's running
        range, so they store row by row exactly as :meth:`append` does —
        keeping batched int8 serving bit-identical to solo int8 decoding.
        """
        if not len(tables):
            return
        positions = np.asarray(positions, dtype=np.int64)
        raw = self.codec.raw
        slots = np.empty(len(tables), dtype=np.int64)
        pinned: list[int] = []
        try:
            for i, table in enumerate(tables):
                try:
                    page, slot = self._append_slot(table)
                    if raw:
                        self.residency.pin((page,))
                        pinned.append(page)
                        slots[i] = slot
                    else:
                        self._store_token(page, slot, k[i], v[i], int(positions[i]))
                        table.length += 1
                except Exception as exc:
                    # Rows before i already consumed their slot; the engine's
                    # snapshot/restore quarantine rolls the whole step back,
                    # so attribution is all we add.
                    tag_fault_row(exc, i)
                    raise
            if raw:
                slabs = self.residency.slabs
                slabs["k"][:, slots] = k.transpose(1, 0, 2)
                slabs["v"][:, slots] = v.transpose(1, 0, 2)
                slabs["pos"][:, slots] = positions
                if self.rope_dims > 0:
                    # Per-row positions; elementwise, so each row is
                    # bit-identical to the solo cache's rotate_uniform.
                    k_rot = self.rope_table.rotate(k, positions[:, None])
                    slabs["kr"][:, slots] = k_rot.transpose(1, 0, 2)
                for table in tables:
                    table.length += 1
        finally:
            self.residency.unpin(pinned)

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def gather(self, table: PageTable, indices: np.ndarray) -> int:
        """Retain only the live entries selected by ``indices`` of shape
        ``(heads, K)`` (ascending per head, relative to the live region).

        Fast paths: an identity selection is a no-op; a pure suffix selection
        (all heads keeping exactly the newest ``K`` tokens) bumps the offset
        and frees fully-skipped leading pages without touching any data.  The
        general path compacts the survivors — into the table's own pages when
        they are exclusively owned, into freshly allocated pages when any are
        shared (copy-on-write) — re-encoding them against fresh codec state
        (int8 survivors get fresh per-page ranges).  Returns the number of
        evicted entries.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim == 3:
            indices = indices[0]
        length = table.length
        if indices.shape[0] != self.n_heads:
            raise ValueError(
                f"gather expects ({self.n_heads}, K) indices, got {indices.shape}"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= length):
            raise IndexError("gather indices out of range")
        k = indices.shape[-1]
        dropped = length - k
        ps = self.page_size
        if bool((indices == np.arange(dropped, length)).all()):
            # Identity (dropped == 0) or pure suffix: O(1) pointer bump.
            table.offset += dropped
            table.length = k
            if k == 0:
                self.release_table(table)
            else:
                while table.offset >= ps:
                    self.release([table.pages.pop(0)])
                    table.offset -= ps
            return dropped

        if self.residency.contiguous:
            data = self._take(table, indices)
        else:
            # Tiered: select survivors from the streamed dense reads (page-at-
            # a-time restores), so a row longer than tier-0 still compacts —
            # elementwise the same reads as the flat take.
            hidx = np.arange(self.n_heads)[:, None]
            data = {name: self._read(table, name)[hidx, indices] for name in self.residency.slabs}
        n_needed = self.pages_for(max(k, 1))
        if self._exclusive(table):
            # In-place compaction: keep the first pages, free the tail.
            self.release(table.pages[n_needed:])
            del table.pages[n_needed:]
        else:
            # Allocate the destination before releasing the (shared) source so
            # a failed allocation leaves the table untouched.
            fresh = self.alloc(n_needed)
            self.release(table.pages)
            table.pages = fresh
        table.offset = 0
        table.length = k
        self.codec.reset(table.pages)
        self._write_span(table, 0, data.items())
        return dropped

    def _take(self, table: PageTable, indices: np.ndarray) -> dict[str, np.ndarray]:
        """Gather the selected live entries of every stream through one flat
        row-take per slab (all-resident pools), dequantizing int8 codes with
        each element's own page/head parameters."""
        n_heads, n_slots, ps = self.n_heads, self.n_slots, self.page_size
        head_offsets = (np.arange(n_heads) * n_slots)[:, None]
        if self._is_contiguous(table):
            base = table.pages[0] * ps + table.offset if table.pages else 0
            gidx = (head_offsets + base + indices).reshape(-1)
        else:
            pages = np.asarray(table.pages, dtype=np.int64)
            slots = (pages[:, None] * ps + np.arange(ps)).reshape(-1)[table.offset : table.end]
            gidx = (head_offsets + slots[indices]).reshape(-1)
        k = indices.shape[-1]
        if not self.codec.raw:
            heads, page_of = gidx // n_slots, (gidx % n_slots) // ps
        data = {}
        for name, slab in self.residency.slabs.items():
            if slab.ndim == 2:
                data[name] = slab.reshape(-1).take(gidx).reshape(n_heads, k)
                continue
            flat = slab.reshape(n_heads * n_slots, self.d_head)
            taken = flat.take(gidx, axis=0).reshape(n_heads, k, self.d_head)
            if not self.codec.raw:
                taken = self.codec.decode_taken(name, taken, page_of, heads)
            data[name] = taken
        return data

    def truncate(self, table: PageTable, n: int) -> None:
        """Drop the last ``n`` live tokens (speculative-decode rollback).

        Pure bookkeeping: the logical length shrinks and trailing pages that
        no longer cover any live slot return to the free list (a refcount
        drop — shared owners keep theirs).  Rejected-token *data* is left in
        place; the next append overwrites those slots, copy-on-writing first
        when the page is shared.
        """
        if n == 0:
            return
        if n < 0 or n > table.length:
            raise ValueError(f"cannot truncate {n} of {table.length} tokens")
        table.length -= n
        if table.length == 0:
            self.release_table(table)
            return
        needed = pages_needed(table.end, self.page_size)
        if needed < len(table.pages):
            self.release(table.pages[needed:])
            del table.pages[needed:]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _read(self, table: PageTable, name: str) -> np.ndarray:
        """Dense ``(heads, length, ...)`` of one stream's live tokens, in the
        compute dtype.

        A zero-copy slab view when the stream is stored raw, every page is
        resident and the table's pages are physically contiguous (the
        attention fast path); a page-gather copy otherwise.
        """
        slab = self.residency.slabs[name]
        codec = IdentityCodec if name == "pos" else self.codec
        merge = codec.raw and self.residency.contiguous
        if merge and self._is_contiguous(table):
            start = table.pages[0] * self.page_size + table.offset if table.pages else 0
            return slab[:, start : start + table.length]
        # Assemble from per-run slice copies.  The result must be
        # C-contiguous — NumPy's mixed slice+fancy indexing would return
        # token-major *memory* under a (heads, length, ...) shape, and
        # reduction kernels (einsum, softmax's pairwise sum) pick their
        # blocking from memory layout, bit-diverging from the slab-view fast
        # path.  Run-wise slicing is both layout-correct and a plain memcpy.
        dtype = slab.dtype if codec.raw else self.dtype
        out = np.empty((self.n_heads, table.length) + slab.shape[2:], dtype=dtype)
        for logical, page, slot, span in self._runs(table, table.offset, table.length, merge):
            out[:, logical : logical + span] = codec.decode(name, page, slab[:, slot : slot + span])
        return out

    def keys_view(self, table: PageTable) -> np.ndarray:
        """Dense live (unrotated) keys, shape ``(heads, length, d_head)``."""
        return self._read(table, "k")

    def values_view(self, table: PageTable) -> np.ndarray:
        """Dense live values, shape ``(heads, length, d_head)``."""
        return self._read(table, "v")

    def positions_view(self, table: PageTable) -> np.ndarray:
        """Dense live original positions, shape ``(heads, length)``."""
        return self._read(table, "pos")

    def rotated_view(self, table: PageTable) -> np.ndarray:
        """Dense live RoPE-rotated keys, shape ``(heads, length, d_head)``."""
        if self.rope_dims <= 0:
            raise RuntimeError("rotated-key slab disabled (rope_dims == 0)")
        return self._read(table, "kr")

    def fill_row(
        self,
        table: PageTable,
        out_k: np.ndarray,
        out_v: np.ndarray,
        out_pos: np.ndarray,
        rotated: bool,
    ) -> None:
        """Copy one table's live tokens into padded batch buffers
        (``out_*[:, :length]``) — the page-gather read of the batched path."""
        if table.length == 0:
            return
        kname = "kr" if rotated else "k"
        slabs = self.residency.slabs
        keys, values, pos = slabs[kname], slabs["v"], slabs["pos"]
        decode = self.codec.decode
        runs = self._runs(table, table.offset, table.length, self._merge_runs)
        for logical, page, slot, span in runs:
            dst = slice(logical, logical + span)
            src = slice(slot, slot + span)
            out_k[:, dst] = decode(kname, page, keys[:, src])
            out_v[:, dst] = decode("v", page, values[:, src])
            out_pos[:, dst] = pos[:, src]

    def page_tokens_view(
        self, pages: Sequence[int], rotated: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(heads, n_pages * page_size, d)`` keys/values of full pages
        (used by prefix sharing to hand a mapped prefix to chunked prefill).
        Int8 pages read back dequantized — not exact — prefix KV; see the
        accuracy contract in ``docs/quantization.md``."""
        probe = PageTable()
        probe.pages = list(pages)
        probe.length = len(probe.pages) * self.page_size
        keys = self._read(probe, "kr" if rotated else "k")
        return keys, self._read(probe, "v")


class PagedKVStore:
    """One :class:`BlockPool` per decoder layer plus cross-layer accounting.

    This is the "one store" both cache managers are thin views over.  Layers
    never share pages (their KV contents differ), but they share geometry and
    — through this object — a single notion of free memory that the
    memory-aware scheduler admits against.

    ``kv_dtype`` selects every pool's page codec: ``None``/``"native"``
    stores the compute dtype bit-exactly, ``"int8"`` stores quantized pages
    (:class:`~repro.kvcache.quant.Int8Codec`) that shrink KV bytes per token
    roughly 4x at float32 (8x at float64) under an accuracy contract
    documented in ``docs/quantization.md``.

    ``tier0_pages`` selects the tiered residency (**KV offload**, see
    :mod:`repro.kvcache.offload`): each layer pool keeps only that many
    pages resident in its tier-0 slabs and spills the cold remainder —
    byte-exactly — to a tier-1 arena selected by ``spill_backend``
    (``"compressed"`` or ``"mmap"``).
    """

    def __init__(
        self,
        n_layers: int,
        n_heads: int,
        d_head: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        dtype: np.dtype | str = np.float64,
        rope_dims: int = 0,
        rope_table: RopeTable | None = None,
        n_pages: int | None = None,
        growable: bool = True,
        kv_dtype: str | None = None,
        admission_policy: str = "lru",
        tier0_pages: int | None = None,
        spill_backend: str | None = None,
    ):
        self.n_layers = n_layers
        self.page_size = int(page_size)
        self.growable = growable
        self.kv_dtype = kv_dtype
        if admission_policy not in ("lru", "wtinylfu"):
            raise ValueError(
                f"unknown admission_policy {admission_policy!r}; "
                "expected 'lru' or 'wtinylfu'"
            )
        #: Reclaim/admission policy a :class:`PrefixRegistry` attached to
        #: this store adopts by default (``"lru"`` keeps the historical
        #: byte-exact leaf-first reclaim; ``"wtinylfu"`` enables
        #: frequency-aware admission — see :mod:`repro.kvcache.admission`).
        self.admission_policy = admission_policy
        #: Tier-0 frames per layer pool when KV offload is enabled (``None``
        #: keeps every page resident — the historical single-tier layout).
        self.tier0_pages = int(tier0_pages) if tier0_pages is not None else None
        self.spill_backend = spill_backend
        self.pools = [
            BlockPool(
                n_heads,
                d_head,
                page_size=page_size,
                n_pages=n_pages if n_pages is not None else 64,
                dtype=dtype,
                rope_dims=rope_dims,
                rope_table=rope_table,
                growable=growable,
                kv_dtype=kv_dtype,
                tier0_pages=self.tier0_pages,
                spill_backend=spill_backend,
            )
            for _ in range(n_layers)
        ]

    def pool(self, layer_idx: int) -> BlockPool:
        """The block pool backing decoder layer ``layer_idx``."""
        return self.pools[layer_idx]

    def attach_reclaimer(self, reclaimer: Callable[[int], int]) -> None:
        """Install the prefix registry's reclaim callback on every pool."""
        for pool in self.pools:
            pool.reclaimer = reclaimer

    # ------------------------------------------------------------------
    @staticmethod
    def page_nbytes_for(
        kv_dtype: str | None,
        n_heads: int,
        d_head: int,
        page_size: int,
        dtype: np.dtype | str,
        rope_dims: int,
    ) -> float:
        """Resident bytes of one page for a store that does not exist yet —
        how a byte budget (``max_pool_bytes``) is converted into a page
        count before the pools are built."""
        return check_kv_options(kv_dtype).estimate_page_nbytes(
            n_heads, d_head, page_size, dtype, rope_dims
        )

    def pages_for_tokens(self, n_tokens: int) -> int:
        """Pages (per layer) needed to hold ``n_tokens`` token slots."""
        return pages_needed(n_tokens, self.page_size)

    @property
    def total_pages(self) -> int:
        """Pages across all layer pools (free and mapped)."""
        return sum(pool.n_pages for pool in self.pools)

    @property
    def free_pages(self) -> int:
        """Free pages across all layer pools."""
        return sum(pool.free_pages for pool in self.pools)

    @property
    def used_pages(self) -> int:
        """Mapped pages across all layer pools."""
        return sum(pool.used_pages for pool in self.pools)

    @property
    def shared_pages(self) -> int:
        """Multiply-mapped pages across all layer pools."""
        return sum(pool.shared_pages for pool in self.pools)

    def min_free_pages(self) -> int:
        """Free pages in the tightest layer pool (layers evolve symmetrically,
        so this is the admission-relevant number)."""
        return min(pool.free_pages for pool in self.pools)

    def tier0_frames(self) -> int | None:
        """Resident tier-0 frames per layer pool under KV offload, ``None``
        when offload is disabled — the residency budget
        :class:`~repro.serving.scheduler.PagedScheduler` admits rows
        against (admission counts only tier-0 residency)."""
        return self.tier0_pages

    def usage(self) -> dict:
        """Aggregate pool utilization (for demos / telemetry).

        Besides page counts, reports **bytes**: ``bytes_total`` is the
        resident size of every slab (plus quantization state), and
        ``bytes_used`` the share covered by mapped pages — the number that
        makes full-precision and int8 pools comparable under one budget.
        Under KV offload a ``tier`` sub-dict aggregates each pool's
        resident/spilled page counts and spill/restore traffic (see
        :meth:`repro.kvcache.offload.TieredResidency.usage`); the
        single-tier report stays byte-identical to the historical schema.
        """
        page_bytes = sum(pool.page_nbytes() for pool in self.pools) / max(
            self.n_layers, 1
        )
        out = {
            "pages_total": self.total_pages,
            "pages_used": self.used_pages,
            "pages_free": self.free_pages,
            "pages_shared": self.shared_pages,
            "bytes_total": self.nbytes(),
            "bytes_used": int(
                sum(pool.used_pages * pool.page_nbytes() for pool in self.pools)
            ),
            "bytes_per_page": int(page_bytes),
        }
        if self.tier0_pages is not None:
            tier: dict[str, int] = {}
            for pool in self.pools:
                for key, value in pool.residency.usage().items():
                    tier[key] = tier.get(key, 0) + int(value)
            tier["tier0_frames"] = self.tier0_pages  # per layer, not summed
            out["tier"] = tier
        return out

    def nbytes(self) -> int:
        """Resident bytes of all pool slabs — keys, values, rotated keys and
        positions (plus per-page quantization tensors for an int8 store),
        i.e. the sum of every pool's :meth:`BlockPool.nbytes`."""
        return sum(pool.nbytes() for pool in self.pools)

    def check_invariants(
        self,
        owner_tables_per_layer: Sequence[Sequence[PageTable]] | None = None,
        pinned_per_layer: Sequence[Iterable[int]] | None = None,
    ) -> list[str]:
        """Audit every layer pool (see :meth:`BlockPool.check_invariants`).

        ``owner_tables_per_layer[layer]`` enumerates all live page tables
        mapping layer ``layer``; ``pinned_per_layer`` the registry pins
        (typically :meth:`PrefixRegistry.pinned_pages`).  Both may be
        ``None`` to skip the cross-reference check.  Returns the combined
        violation list, each entry labelled with its layer.
        """
        violations: list[str] = []
        for layer, pool in enumerate(self.pools):
            violations.extend(
                pool.check_invariants(
                    owners=(
                        owner_tables_per_layer[layer]
                        if owner_tables_per_layer is not None
                        else None
                    ),
                    pinned=(
                        pinned_per_layer[layer] if pinned_per_layer is not None else ()
                    ),
                    label=f"layer {layer}",
                )
            )
        return violations


def chunk_digest(tokens, parent: bytes | None = None) -> bytes:
    """Process-stable digest of one page-aligned prefix chunk.

    Chains like the registry's chunk keys: pass the previous chunk's digest
    as ``parent`` so a chunk is only ever equal to another chunk behind the
    exact same full prefix.  The digest is ``blake2b`` over the parent digest
    plus the token ids serialized as little-endian int64 — byte-identical
    across processes, platforms and ``PYTHONHASHSEED`` values, which is what
    lets the sharded router (:mod:`repro.serving.sharded`) and every worker's
    own :class:`PrefixRegistry` agree on chunk identity without sharing any
    in-process state.
    """
    h = hashlib.blake2b(digest_size=16)
    if parent is not None:
        h.update(parent)
    arr = np.asarray(tokens, dtype=np.int64).reshape(-1)
    h.update(arr.astype("<i8", copy=False).tobytes())
    return h.digest()


class PrefixMatch:
    """Result of a registry lookup: a mapped page-aligned prompt prefix."""

    __slots__ = ("length", "pages_per_layer")

    def __init__(self, length: int, pages_per_layer: list[list[int]]):
        self.length = length
        self.pages_per_layer = pages_per_layer


class _PrefixChunk:
    __slots__ = ("key", "parent", "pages_per_layer", "children", "last_used")

    def __init__(self, key, parent, pages_per_layer):
        self.key = key
        self.parent = parent
        self.pages_per_layer = pages_per_layer
        self.children: set = set()
        self.last_used = 0


class PrefixRegistry:
    """Content-addressed index of resident page-aligned prompt prefixes.

    Chunks are keyed by a chained :func:`chunk_digest` (the parent chunk's
    digest folded into this chunk's token bytes) so a chunk is only ever
    matched behind its exact full prefix, and the keys are process-stable —
    the sharded front-end hashes the same bytes to pick a replica, so the
    replica a prompt lands on is exactly the one whose registry can already
    hold its prefix.  Each registered
    chunk pins one page per layer (a registry refcount); sequences that
    evict or retire therefore never invalidate a registered prefix — the
    copy-on-write rules in :class:`BlockPool` route their mutations to
    private pages.  When a non-growable pool runs out, :meth:`reclaim` drops
    leaf chunks until enough pages come free: least-recently-used first
    under the default ``"lru"`` admission policy (byte-exact with the
    historical behavior), or by W-TinyLFU competitive admission under
    ``"wtinylfu"`` (see :mod:`repro.kvcache.admission`) — in both cases a
    parent chunk is never dropped while a descendant is live.
    """

    def __init__(self, store: PagedKVStore, admission_policy: str | None = None):
        self.store = store
        self.page_size = store.page_size
        self._chunks: dict[bytes, _PrefixChunk] = {}
        #: Per-layer reverse map page id -> owning chunk key (registration is
        #: 1:1 per layer: each chunk pins exactly one page in every layer and
        #: identical prefixes resolve to the *same* chunk).  Backs the tiered
        #: pools' frequency-aware spill ranking (:meth:`page_heat`).
        self._page_owner: list[dict[int, bytes]] = [
            {} for _ in range(store.n_layers)
        ]
        self._clock = 0
        if admission_policy is None:
            admission_policy = getattr(store, "admission_policy", "lru")
        self.admission_policy = admission_policy
        # Nominal chunk capacity = per-layer pool pages (the most chunks the
        # registry could ever pin); sizes the W-TinyLFU segments and sketch.
        capacity = store.pools[0].n_pages if store.pools else 64
        self._admission = resolve_admission_policy(admission_policy, capacity)
        #: Chunks served from the registry by :meth:`match` (cumulative).
        self.n_hits = 0
        #: Prompt tokens mapped from resident pages instead of recomputed.
        self.n_hit_tokens = 0
        #: Chunks newly registered (cumulative, across reclaim cycles).
        self.n_registered = 0
        #: Chunks dropped under pool pressure (:meth:`reclaim` victims).
        self.n_reclaimed = 0
        store.attach_reclaimer(self.reclaim)

    def __len__(self) -> int:
        return len(self._chunks)

    @staticmethod
    def _chunk_key(parent_key: bytes | None, tokens: np.ndarray) -> bytes:
        return chunk_digest(tokens, parent_key)

    # ------------------------------------------------------------------
    def match(self, token_ids: np.ndarray, max_tokens: int | None = None) -> PrefixMatch | None:
        """Longest registered page-aligned prefix of ``token_ids``.

        ``max_tokens`` caps the usable prefix (the chunked-prefill path must
        recompute at least the last two prompt tokens).  Returns ``None``
        when not even one full page matches.
        """
        token_ids = np.asarray(token_ids).reshape(-1)
        ps = self.page_size
        limit = len(token_ids) if max_tokens is None else min(max_tokens, len(token_ids))
        self._clock += 1
        matched: list[_PrefixChunk] = []
        parent = None
        covered = 0
        while covered + ps <= limit:
            key = self._chunk_key(parent, token_ids[covered : covered + ps])
            chunk = self._chunks.get(key)
            if chunk is None:
                break
            chunk.last_used = self._clock
            matched.append(chunk)
            parent = key
            covered += ps
        if not matched:
            return None
        self.n_hits += len(matched)
        self.n_hit_tokens += covered
        if self._admission is not None:
            for chunk in matched:
                self._admission.on_access(chunk.key)
        pages_per_layer = [
            [chunk.pages_per_layer[layer] for chunk in matched]
            for layer in range(self.store.n_layers)
        ]
        return PrefixMatch(covered, pages_per_layer)

    def register(self, token_ids: np.ndarray, tables: Sequence[PageTable]) -> int:
        """Register every full-page chunk of a freshly seeded prompt.

        ``tables`` holds the sequence's per-layer page tables right after
        seeding (offset 0, pristine prompt content).  Already-known chunks
        are refreshed; new ones pin their page in every layer.  Returns the
        number of newly registered chunks.
        """
        token_ids = np.asarray(token_ids).reshape(-1)
        ps = self.page_size
        n_full = len(token_ids) // ps
        self._clock += 1
        parent = None
        added = 0
        for i in range(n_full):
            key = self._chunk_key(parent, token_ids[i * ps : (i + 1) * ps])
            chunk = self._chunks.get(key)
            if chunk is None:
                pages = [tables[layer].pages[i] for layer in range(self.store.n_layers)]
                for layer, page in enumerate(pages):
                    self.store.pools[layer].retain([page])
                    self._page_owner[layer][page] = key
                chunk = _PrefixChunk(key, parent, pages)
                self._chunks[key] = chunk
                if parent is not None:
                    self._chunks[parent].children.add(key)
                added += 1
                if self._admission is not None:
                    self._admission.on_insert(key)
            elif self._admission is not None:
                self._admission.on_access(key)
            chunk.last_used = self._clock
            parent = key
        self.n_registered += added
        return added

    # ------------------------------------------------------------------
    def _freeable(self, chunk: _PrefixChunk) -> bool:
        """Dropping this chunk returns its page to every layer's free list
        (no live sequence maps it — the registry holds the only reference)."""
        return all(
            self.store.pools[layer].refcounts[page] == 1
            for layer, page in enumerate(chunk.pages_per_layer)
        )

    def reclaimable_pages(self) -> int:
        """Pages per layer that :meth:`reclaim` could free right now.

        Counts only chunks no live sequence maps — dropping a chunk whose
        page is also held by a running row releases the registry pin but
        frees no memory, so it must not count toward admission headroom.
        """
        return sum(1 for chunk in self._chunks.values() if self._freeable(chunk))

    def reclaim(self, n_pages: int) -> int:
        """Drop leaf chunks until ``n_pages`` pages per layer came free (or
        nothing freeable remains).  Returns the number of pages freed per
        layer.

        Freeable leaves go first; when none exist, an unfreeable leaf is
        dropped only if that unblocks a freeable ancestor — chunks that can
        free nothing (their pages are mapped by live rows) are never wasted.
        Victim *ranking* within the eligible set is the admission policy's:
        least-recently-used under ``"lru"`` (byte-exact historical
        behavior), W-TinyLFU competitive admission under ``"wtinylfu"``.
        Only leaves are ever eligible, so a parent chunk can never be
        reclaimed while a descendant is live — under either policy.
        """
        freed = 0
        while freed < n_pages and self._chunks:
            leaves = [c for c in self._chunks.values() if not c.children]
            freeable = [c for c in leaves if self._freeable(c)]
            if freeable:
                victim = self._select_victim(freeable)
                freed += 1
            else:
                blocking = [c for c in leaves if self._has_freeable_ancestor(c)]
                if not blocking:
                    break
                victim = self._select_victim(blocking)
            self._drop(victim)
            self.n_reclaimed += 1
        return freed

    def _select_victim(self, eligible: list) -> _PrefixChunk:
        """Rank the eligible victim set through the admission policy."""
        if self._admission is None:
            return min(eligible, key=lambda c: c.last_used)
        key = self._admission.choose_victim([c.key for c in eligible])
        return self._chunks[key]

    def _has_freeable_ancestor(self, chunk: _PrefixChunk) -> bool:
        key = chunk.parent
        while key is not None:
            parent = self._chunks.get(key)
            if parent is None:
                break
            if self._freeable(parent):
                return True
            key = parent.parent
        return False

    def _drop(self, chunk: _PrefixChunk) -> None:
        if chunk.children:
            # Explicit chain guard, not an iteration-order accident: a parent
            # reclaimed while a descendant is live would leave the child's
            # chained key matchable with its prefix pages gone.
            raise PoolIntegrityError(
                f"refusing to drop chunk {chunk.key.hex()} with "
                f"{len(chunk.children)} live descendant chunk(s)"
            )
        for layer, page in enumerate(chunk.pages_per_layer):
            self.store.pools[layer].release([page])
            self._page_owner[layer].pop(page, None)
        if chunk.parent is not None and chunk.parent in self._chunks:
            self._chunks[chunk.parent].children.discard(chunk.key)
        del self._chunks[chunk.key]
        if self._admission is not None:
            self._admission.on_drop(chunk.key)

    #: Spill-ranking heat by W-TinyLFU segment: protected chunks are the
    #: proven-hot working set, probation next, window (one-shot candidates)
    #: barely above unregistered pages.
    _SEGMENT_HEAT = {"window": 1, "probation": 2, "protected": 3}

    def page_heat(self, layer: int, page: int) -> int:
        """Spill-priority score of ``page`` in ``layer`` (higher = keep
        resident longer).

        Reuses the admission ranking of :mod:`repro.kvcache.admission`: under
        ``"wtinylfu"`` a page pinned by a protected-segment chunk outranks a
        probation chunk's page, which outranks a window chunk's page.  Under
        the default ``"lru"`` policy every page scores 0 and the tiered
        pools fall back to pure pool-level LRU — placement never affects
        decoded values (spill/restore is byte-exact), only transfer counts.
        """
        if self._admission is None:
            return 0
        key = self._page_owner[layer].get(page)
        if key is None:
            return 0
        segment = self._admission.segment_of(key)
        return self._SEGMENT_HEAT.get(segment, 0) if segment is not None else 0

    def spill_ranker(self, layer: int) -> Callable[[int], int]:
        """Victim-ranking callback for ``layer``'s tiered pool (installable
        as :attr:`BlockPool.spill_ranker`)."""
        return lambda page: self.page_heat(layer, page)

    def pinned_pages(self) -> list[list[int]]:
        """Per-layer page ids the registry currently pins (one per chunk).

        Feed this as ``pinned_per_layer`` to
        :meth:`PagedKVStore.check_invariants` so registry refcounts are
        accounted for in the cross-reference audit.
        """
        pinned: list[list[int]] = [[] for _ in range(self.store.n_layers)]
        for chunk in self._chunks.values():
            for layer, page in enumerate(chunk.pages_per_layer):
                pinned[layer].append(page)
        return pinned

    def audit(self) -> list[str]:
        """Structural audit of chunk chains and admission segments.

        Checks that every chunk's parent is still registered and back-links
        it as a child (the reclaim-ordering bug class: a parent reclaimed
        while a descendant is live would break exactly this), that children
        sets reference only live chunks, and — when frequency-aware
        admission is active — that SLRU segment membership matches the
        registered chunk set exactly (every segment entry pins refcounted
        pages, every pinned chunk sits in exactly one segment; see
        :meth:`repro.kvcache.admission.WTinyLFUAdmissionPolicy.audit`).
        Over tiered pools (KV offload) every pinned page must additionally
        be in a definite tier — resident on a tier-0 frame XOR spilled to
        the arena — never lost in between.
        Returns violation strings (empty = clean).
        """
        violations: list[str] = []
        for key, chunk in self._chunks.items():
            if chunk.parent is not None:
                parent = self._chunks.get(chunk.parent)
                if parent is None:
                    violations.append(
                        f"registry: chunk {key.hex()} is live but its parent "
                        f"{chunk.parent.hex()} was reclaimed"
                    )
                elif key not in parent.children:
                    violations.append(
                        f"registry: chunk {key.hex()} not back-linked as a "
                        f"child of {chunk.parent.hex()}"
                    )
            for child in chunk.children:
                if child not in self._chunks:
                    violations.append(
                        f"registry: chunk {key.hex()} lists reclaimed child "
                        f"{child.hex()}"
                    )
            for layer, page in enumerate(chunk.pages_per_layer):
                if self.store.pools[layer].residency.page_state(page) == "free":
                    violations.append(
                        f"registry: layer {layer} chunk {key.hex()} pins page "
                        f"{page} that is neither resident nor spilled"
                    )
        if self._admission is not None:
            violations.extend(self._admission.audit(self._chunks.keys()))
        return violations

    def telemetry(self) -> dict:
        """Registry hit/savings counters, plus admission counters when the
        ``"wtinylfu"`` policy is active (see
        :meth:`repro.kvcache.admission.WTinyLFUAdmissionPolicy.telemetry`)."""
        out = {
            "policy": self.admission_policy,
            "chunks": len(self._chunks),
            "hits": self.n_hits,
            "hit_tokens": self.n_hit_tokens,
            "registered": self.n_registered,
            "reclaimed": self.n_reclaimed,
        }
        if self._admission is not None:
            out.update(self._admission.telemetry())
        return out

    def clear(self) -> None:
        """Drop every registered chunk (leaf-first), releasing all pins."""
        for chunk in list(self._chunks.values()):
            if not chunk.children:
                self._drop(chunk)
        if self._chunks:
            self.clear()
