"""Page residency: where the pages of a :class:`~repro.kvcache.paged.BlockPool` live.

A pool picks its residency once, at construction, from the ``tier0_pages``
knob.  The residency owns the token-major storage slabs and maps a logical
page id onto the slab slots backing it; the pool's page tables, refcounts,
free heap and copy-on-write never see the difference.

* :class:`AllResident` (``tier0_pages=None``, the default) sizes the slabs
  to the whole page space — page ``p`` lives at slot ``p * page_size`` —
  so a run of consecutive pages is a contiguous token axis and reads can be
  zero-copy slab views.  Pinning is a no-op and nothing ever spills.
* :class:`TieredResidency` sizes the slabs to a fixed number of physical
  **frames** (``tier0_pages``).  A logical page is either *resident*
  (mapped to a frame), *spilled* (its slab bytes parked in a tier-1 arena)
  or *free* (unallocated, backed by nothing).  :meth:`TieredResidency.base`
  — the one address lookup every slab access funnels through — restores
  spilled pages on demand, evicting the coldest unpinned resident page when
  no frame is free, so the cache managers, the serving engine, prefix
  sharing, speculative rollback and eviction policies all run unchanged.

Two arena backends (``spill_backend``) park cold payloads:

* ``"compressed"`` — an in-memory :class:`CompressedSpillArena` of
  zlib-compressed page records (the default; no file descriptors).
* ``"mmap"`` — a :class:`MmapSpillArena` over an anonymous temporary file,
  fixed-size records addressed through :mod:`mmap` (simulates a second
  storage device; survives payloads larger than RAM compression wins).

Determinism contract: a spill→restore round-trip is **byte-exact** — the
record is the raw slab bytes of the page (int8 codes or raw floats, plus
positions); an int8 page's quantization parameters are indexed by logical
page and never leave RAM — so victim selection and frame placement can never
change a computed value, and outputs are bit-identical with offload on or
off.  Victim selection prefers the registry's W-TinyLFU segment ranking when
the pool has a ``spill_ranker`` installed (see
:meth:`repro.kvcache.paged.PrefixRegistry.spill_ranker`) and falls back to
least-recently-touched order, so the hot prefix working set stays resident.
"""

from __future__ import annotations

import heapq
import mmap
import tempfile
import zlib
from typing import Iterable

import numpy as np

from repro.kvcache.paged import PoolExhausted

__all__ = [
    "SPILL_BACKENDS",
    "AllResident",
    "CompressedSpillArena",
    "MmapSpillArena",
    "TieredResidency",
]

#: Recognized ``spill_backend`` knob values (``None`` means ``"compressed"``).
SPILL_BACKENDS = ("compressed", "mmap")


class CompressedSpillArena:
    """In-memory tier-1 arena: zlib-compressed page payloads by logical page.

    ``level=1`` trades ratio for speed — spill/restore sits on the serving
    path, and KV pages (int8 codes especially) compress well even at the
    fastest setting.
    """

    def __init__(self, level: int = 1):
        self.level = int(level)
        self._records: dict[int, bytes] = {}

    def store(self, page: int, payload: bytes) -> None:
        """Park ``payload`` as the spilled content of logical ``page``."""
        self._records[page] = zlib.compress(payload, self.level)

    def load(self, page: int) -> bytes:
        """The byte-exact payload previously stored for ``page``."""
        return zlib.decompress(self._records[page])

    def drop(self, page: int) -> None:
        """Forget ``page``'s record (restore completion or page free)."""
        self._records.pop(page, None)

    def __contains__(self, page: int) -> bool:
        """True when ``page`` has a spilled record."""
        return page in self._records

    def __len__(self) -> int:
        """Number of spilled records."""
        return len(self._records)

    def keys(self):
        """Logical page ids currently spilled."""
        return self._records.keys()

    def nbytes(self) -> int:
        """Tier-1 bytes currently parked (compressed)."""
        return sum(len(blob) for blob in self._records.values())

    def close(self) -> None:
        """Release all records."""
        self._records.clear()


class MmapSpillArena:
    """File-backed tier-1 arena: fixed-size records in a memory-mapped
    anonymous temporary file.

    Every record is exactly ``record_nbytes`` (one page's payload — the
    tiered pools spill fixed-size pages, so records never fragment).  The
    file grows by doubling; freed record slots are reused lowest-first.
    """

    def __init__(self, record_nbytes: int):
        if record_nbytes <= 0:
            raise ValueError("record_nbytes must be positive")
        self.record_nbytes = int(record_nbytes)
        self._file = tempfile.TemporaryFile()
        self._map: mmap.mmap | None = None
        self._capacity = 0
        self._slots: dict[int, int] = {}
        self._free: list[int] = []
        self._high = 0

    def _ensure_capacity(self, n_records: int) -> None:
        """Grow the backing file (doubling) to hold ``n_records`` records."""
        if n_records <= self._capacity:
            return
        new_cap = max(n_records, 2 * self._capacity, 8)
        self._file.truncate(new_cap * self.record_nbytes)
        if self._map is not None:
            self._map.close()
        self._map = mmap.mmap(self._file.fileno(), new_cap * self.record_nbytes)
        self._capacity = new_cap

    def store(self, page: int, payload: bytes) -> None:
        """Park ``payload`` as the spilled content of logical ``page``."""
        if len(payload) != self.record_nbytes:
            raise ValueError(
                f"payload is {len(payload)} bytes; arena records are "
                f"{self.record_nbytes}"
            )
        slot = self._slots.get(page)
        if slot is None:
            if self._free:
                slot = heapq.heappop(self._free)
            else:
                slot = self._high
                self._high += 1
            self._ensure_capacity(slot + 1)
            self._slots[page] = slot
        off = slot * self.record_nbytes
        self._map[off : off + self.record_nbytes] = payload

    def load(self, page: int) -> bytes:
        """The byte-exact payload previously stored for ``page``."""
        off = self._slots[page] * self.record_nbytes
        return bytes(self._map[off : off + self.record_nbytes])

    def drop(self, page: int) -> None:
        """Free ``page``'s record slot for reuse."""
        slot = self._slots.pop(page, None)
        if slot is not None:
            heapq.heappush(self._free, slot)

    def __contains__(self, page: int) -> bool:
        """True when ``page`` has a spilled record."""
        return page in self._slots

    def __len__(self) -> int:
        """Number of spilled records."""
        return len(self._slots)

    def keys(self):
        """Logical page ids currently spilled."""
        return self._slots.keys()

    def nbytes(self) -> int:
        """Tier-1 bytes currently parked (live records; the file itself may
        be larger from doubling)."""
        return len(self._slots) * self.record_nbytes

    def close(self) -> None:
        """Unmap and close the backing file."""
        if self._map is not None:
            self._map.close()
            self._map = None
        self._file.close()
        self._slots.clear()
        self._free.clear()
        self._capacity = 0
        self._high = 0


def _zero_slabs(pool, n_pages: int) -> dict[str, np.ndarray]:
    """Storage slabs backing ``n_pages`` pages of ``pool``, keyed by stream.

    Token-major — ``(n_heads, n_pages * page_size, d_head)`` for keys,
    values and (when ``rope_dims > 0``) rotated keys in the codec's storage
    dtype, ``(n_heads, n_pages * page_size)`` int64 positions — in spill
    record order.  ``np.zeros`` (not empty): padded/stale slots must stay
    benign — the float32 serving path may touch them before masking.
    """
    shape = (pool.n_heads, n_pages * pool.page_size, pool.d_head)
    dtype = pool.codec.storage_dtype
    slabs = {
        "k": np.zeros(shape, dtype=dtype),
        "v": np.zeros(shape, dtype=dtype),
        "pos": np.zeros(shape[:2], dtype=np.int64),
    }
    if pool.rope_dims > 0:
        slabs["kr"] = np.zeros(shape, dtype=dtype)
    return slabs


class AllResident:
    """Every logical page lives in the slabs at its own index.

    Plain page arithmetic, so the pool keeps its zero-copy contiguous view.
    The slabs grow with the page space; pins, frees and restores are no-ops.
    """

    contiguous = True

    def __init__(self, pool, n_pages: int):
        self.page_size = pool.page_size
        self.slabs = _zero_slabs(pool, n_pages)

    def base(self, page: int) -> int:
        """First slab slot backing logical ``page``."""
        return page * self.page_size

    def pin(self, pages: Iterable[int]) -> None:
        """No-op: a resident page is never evicted."""

    def unpin(self, pages: Iterable[int]) -> None:
        """No-op (see :meth:`pin`)."""

    def free(self, page: int) -> None:
        """No-op: a freed page keeps its slots for the next allocation."""

    def grow(self, n_pages: int) -> None:
        """Grow the slabs (zero-padded) to back ``n_pages`` pages."""
        n_slots = n_pages * self.page_size
        for name, slab in self.slabs.items():
            fresh = np.zeros((slab.shape[0], n_slots) + slab.shape[2:], dtype=slab.dtype)
            fresh[:, : slab.shape[1]] = slab
            self.slabs[name] = fresh

    def restore_pages(self, pages: Iterable[int]) -> int:
        """Nothing is ever spilled, so nothing is restored."""
        return 0

    def page_state(self, page: int) -> str:
        """Always ``"resident"``."""
        return "resident"

    def usage(self) -> dict:
        """No tier telemetry."""
        return {}

    def audit(self, label: str) -> list[str]:
        """Nothing beyond the pool's own bookkeeping to audit."""
        return []


class TieredResidency:
    """``tier0_pages`` resident frames in front of a spill arena.

    Frames move under spill/restore, so there is no stable zero-copy view
    (``contiguous`` is false) and the pool walks every read and write page
    by page through :meth:`base`.  The pool's ``spill_hook`` fault callback
    fires before every transfer and its ``spill_ranker`` ranks victims.
    """

    contiguous = False

    def __init__(self, pool, n_pages: int, tier0_pages: int, spill_backend: str | None):
        self.pool = pool
        self.page_size = pool.page_size
        self.spill_backend = "compressed" if spill_backend is None else spill_backend
        self.slabs = _zero_slabs(pool, tier0_pages)
        self._page_frame = np.full(n_pages, -1, dtype=np.int64)
        self._frame_page = np.full(tier0_pages, -1, dtype=np.int64)
        self._free_frames = list(range(tier0_pages))  # ascending: already a heap
        self._last_touch = np.zeros(n_pages, dtype=np.int64)
        self._tier_clock = 0
        #: Pages the in-flight operation holds resident (page -> pin count);
        #: pinned pages are never chosen as spill victims.  Always empty
        #: between operations — a leak is an integrity violation.
        self._pins: dict[int, int] = {}
        record_nbytes = sum(s[:, : self.page_size].nbytes for s in self.slabs.values())
        self.arena = (
            MmapSpillArena(record_nbytes)
            if self.spill_backend == "mmap"
            else CompressedSpillArena()
        )
        self.n_spills = 0
        self.n_restores = 0
        self.spill_bytes = 0
        self.restore_bytes = 0

    @property
    def n_frames(self) -> int:
        """Physical tier-0 frames the slabs hold."""
        return self._frame_page.shape[0]

    def base(self, page: int) -> int:
        """First slab slot backing logical ``page``, restoring it into a
        tier-0 frame first when it is spilled (the coldest resident page is
        evicted to make room).  Also the LRU touch point."""
        frame = int(self._page_frame[page])
        if frame < 0:
            frame = self._assign_frame(page)
        self._tier_clock += 1
        self._last_touch[page] = self._tier_clock
        return frame * self.page_size

    # ------------------------------------------------------------------
    # frame management
    # ------------------------------------------------------------------
    def _assign_frame(self, page: int) -> int:
        """Map ``page`` onto a tier-0 frame: take a free frame or spill the
        coldest unpinned resident page, then restore ``page``'s payload from
        the arena (or zero the frame for a never-written page — preserving
        the benign-padding contract of the slabs)."""
        if self._free_frames:
            frame = heapq.heappop(self._free_frames)
        else:
            victim = self._choose_victim()
            frame = int(self._page_frame[victim])
            self._spill_page(victim, frame)
        try:
            if page in self.arena:
                self._restore_page(page, frame)
            else:
                base = frame * self.page_size
                for slab in self.slabs.values():
                    slab[:, base : base + self.page_size] = 0
        except BaseException:
            # The restore failed before anything was written; hand the frame
            # back so an injected spill_io fault leaves no orphaned frame.
            heapq.heappush(self._free_frames, frame)
            self._frame_page[frame] = -1
            raise
        self._page_frame[page] = frame
        self._frame_page[frame] = page
        return frame

    def _choose_victim(self) -> int:
        """Coldest unpinned resident page: minimal ``(spill rank, last
        touch, page id)`` — pure LRU when no ranker is installed."""
        ranker = self.pool.spill_ranker
        best = -1
        best_key: tuple[int, int, int] | None = None
        for frame in range(self.n_frames):
            page = int(self._frame_page[frame])
            if page < 0 or self._pins.get(page):
                continue
            rank = ranker(page) if ranker is not None else 0
            key = (rank, int(self._last_touch[page]), page)
            if best_key is None or key < best_key:
                best, best_key = page, key
        if best_key is None:
            raise PoolExhausted(
                f"tier-0 frames exhausted: all {self.n_frames} frames are "
                "pinned by the current operation; raise tier0_pages"
            )
        return best

    def _spill_page(self, page: int, frame: int) -> None:
        """Park resident ``page``'s slab bytes in the arena and unmap its
        frame.  The pool's ``spill_hook`` fires before any mutation, so an
        injected ``spill_io`` fault leaves the page resident and the arena
        unchanged."""
        if self.pool.spill_hook is not None:
            self.pool.spill_hook()
        base = frame * self.page_size
        payload = b"".join(
            np.ascontiguousarray(slab[:, base : base + self.page_size]).tobytes()
            for slab in self.slabs.values()
        )
        self.arena.store(page, payload)
        self._page_frame[page] = -1
        self._frame_page[frame] = -1
        self.n_spills += 1
        self.spill_bytes += len(payload)

    def _restore_page(self, page: int, frame: int) -> None:
        """Copy ``page``'s spilled slab bytes back into ``frame`` and drop
        the arena record.  ``spill_hook`` fires before any mutation."""
        if self.pool.spill_hook is not None:
            self.pool.spill_hook()
        payload = self.arena.load(page)
        base = frame * self.page_size
        offset = 0
        for slab in self.slabs.values():
            dst = slab[:, base : base + self.page_size]
            chunk = np.frombuffer(payload, dtype=slab.dtype, count=dst.size, offset=offset)
            dst[...] = chunk.reshape(dst.shape)
            offset += dst.nbytes
        self.arena.drop(page)
        self.n_restores += 1
        self.restore_bytes += len(payload)

    # ------------------------------------------------------------------
    # pool callbacks
    # ------------------------------------------------------------------
    def pin(self, pages: Iterable[int]) -> None:
        """Guard ``pages`` against eviction for the in-flight operation."""
        for page in pages:
            page = int(page)
            self._pins[page] = self._pins.get(page, 0) + 1

    def unpin(self, pages: Iterable[int]) -> None:
        """Drop one pin per page (inverse of :meth:`pin`)."""
        for page in pages:
            page = int(page)
            count = self._pins.get(page, 0) - 1
            if count <= 0:
                self._pins.pop(page, None)
            else:
                self._pins[page] = count

    def free(self, page: int) -> None:
        """A page dropped to refcount zero gives up its frame or its arena
        record (no spill-index leaks)."""
        page = int(page)
        frame = int(self._page_frame[page])
        if frame >= 0:
            self._page_frame[page] = -1
            self._frame_page[frame] = -1
            heapq.heappush(self._free_frames, frame)
        else:
            self.arena.drop(page)

    def grow(self, n_pages: int) -> None:
        """Grow the page maps only; the slabs stay at ``tier0_pages`` frames
        (growth never buys residency, it buys spillable capacity)."""
        extra = n_pages - self._page_frame.shape[0]
        self._page_frame = np.concatenate([self._page_frame, np.full(extra, -1, dtype=np.int64)])
        self._last_touch = np.concatenate([self._last_touch, np.zeros(extra, dtype=np.int64)])

    def restore_pages(self, pages: Iterable[int]) -> int:
        """Bulk-restore spilled ``pages`` (engine prefetch): restores as many
        as fit in tier-0, newly restored pages pinned for the duration of
        the call so the batch cannot thrash itself.  Returns the number of
        pages restored."""
        n_pages = self._page_frame.shape[0]
        wanted = [
            p
            for p in dict.fromkeys(int(p) for p in pages)
            if 0 <= p < n_pages and self._page_frame[p] < 0 and p in self.arena
        ][: self.n_frames]
        pinned: list[int] = []
        try:
            for page in wanted:
                try:
                    self._assign_frame(page)
                except PoolExhausted:
                    break
                self.pin([page])
                pinned.append(page)
        finally:
            self.unpin(pinned)
        return len(pinned)

    # ------------------------------------------------------------------
    # telemetry / auditing
    # ------------------------------------------------------------------
    def usage(self) -> dict:
        """Tier telemetry: frame count, resident/spilled pages, cumulative
        spill/restore transfer counts and bytes, and current arena bytes."""
        return {
            "tier0_frames": self.n_frames,
            "resident_pages": int((self._page_frame >= 0).sum()),
            "spilled_pages": len(self.arena),
            "spills": self.n_spills,
            "restores": self.n_restores,
            "spill_bytes": self.spill_bytes,
            "restore_bytes": self.restore_bytes,
            "spilled_nbytes": self.arena.nbytes(),
        }

    def page_state(self, page: int) -> str:
        """``"resident"``, ``"spilled"`` or ``"free"`` — every page is in
        exactly one of these states (the resident-XOR-spilled invariant)."""
        if self._page_frame[page] >= 0:
            return "resident"
        if page in self.arena:
            return "spilled"
        return "free"

    def audit(self, label: str) -> list[str]:
        """Tier invariants: a page is resident XOR spilled XOR free, the
        page↔frame maps are mutually inverse, the free-frame list is exactly
        the unmapped frames, every arena record belongs to a live
        (refcount > 0) page, and no operation leaked a pin."""
        violations: list[str] = []
        refcounts = self.pool.refcounts
        n_pages, n_frames = refcounts.shape[0], self.n_frames
        for page in np.flatnonzero(self._page_frame >= 0).tolist():
            frame = int(self._page_frame[page])
            if frame >= n_frames:
                violations.append(
                    f"{label}: tier page {page} maps frame {frame} out of range"
                )
            elif int(self._frame_page[frame]) != page:
                violations.append(
                    f"{label}: tier page {page} maps frame {frame} owned by "
                    f"page {int(self._frame_page[frame])}"
                )
            if page in self.arena:
                violations.append(
                    f"{label}: tier page {page} is both resident and spilled"
                )
        for frame in range(n_frames):
            page = int(self._frame_page[frame])
            if page >= 0 and (page >= n_pages or int(self._page_frame[page]) != frame):
                violations.append(
                    f"{label}: tier frame {frame} claims page {page} which "
                    "does not map back"
                )
        free = sorted(self._free_frames)
        if len(set(free)) != len(free):
            violations.append(f"{label}: duplicate tier-0 frames on the free list")
        unmapped = np.flatnonzero(self._frame_page < 0).tolist()
        if sorted(set(free)) != unmapped:
            violations.append(
                f"{label}: free-frame list {free} != unmapped frames {unmapped}"
            )
        for page in self.arena.keys():
            if not 0 <= page < n_pages:
                violations.append(f"{label}: spill index holds out-of-range page {page}")
            elif refcounts[page] == 0:
                violations.append(
                    f"{label}: spill-index leak — page {page} is spilled but "
                    "has refcount 0"
                )
        if self._pins:
            violations.append(f"{label}: pin(s) leaked: {dict(self._pins)}")
        return violations
