"""Page codecs: the storage format of a :class:`~repro.kvcache.paged.BlockPool`.

The paper's thesis is that KV-cache memory bounds generative inference; the
paged pool already treats free pages as the admission currency, and a
**page codec** attacks the same bottleneck from the *representation* side —
composing with token eviction: the eviction policies shrink how many tokens
survive, quantization shrinks what each survivor costs.  A pool picks its
codec once, at construction, from the ``kv_dtype`` knob:

* :class:`IdentityCodec` (``None`` / ``"native"``) stores the compute dtype
  itself — the bit-exact default every golden test runs on;
* :class:`Int8Codec` (``"int8"``) stores per-page, per-head affine codes.

The codec owns the storage dtype, token encoding, page decoding, per-page
state (grown with the pool, copied on copy-on-write, reset on allocation),
the byte accounting and an audit of its own state.  The pool owns page
tables, refcounts and every walk over the live region.

Int8 storage format
-------------------
Each slab that holds floating-point content (keys, values and — for RoPE
models — the eagerly rotated keys) is stored as an **int8 token-major slab**
of codes in ``[-127, 127]``, with affine dequantization parameters kept
**per page, per head** in float32 tensors of shape ``(n_pages, n_heads)``::

    x_hat = code * scale[page, head] + zero[page, head]

``scale``/``zero`` are derived from a running per-page/per-head value range
``[lo, hi]``: ``scale = (hi - lo) / 254`` and ``zero = (hi + lo) / 2``, so
the extremes map to ±127 and every stored element satisfies
``|x - x_hat| <= scale / 2``.  Positions stay int64 — they are exact by
construction.  The parameters are indexed by *logical* page and never leave
RAM, so a tiered pool's spill record carries only the codes.

Write protocol
--------------
* A **fresh page** (allocation resets its range to empty) quantizes its
  first span directly.
* An **append into a partially filled page** widens the running range only
  when the new token falls outside it; widening re-encodes the page's
  resident codes under the new parameters (re-rounding each at most once per
  widening — dequantize-then-encode is the identity when parameters are
  unchanged).
* **Eviction** (:meth:`~repro.kvcache.paged.BlockPool.gather`) dequantizes
  the survivors and re-quantizes them against *fresh* destination-page
  ranges, so a page's range tracks the live content instead of ratcheting
  ever wider.  The
  suffix fast path stays pure bookkeeping — untouched pages keep their
  codes and parameters bit-for-bit.
* **Copy-on-write** copies codes *and* parameters, so a forked sequence
  dequantizes identically to its source until it actually diverges.

Determinism contract
--------------------
Quantization is a pure function of the write history (values and the order
and grouping of writes), never of physical page ids.  Two sequences that
perform the same appends/extends/evictions therefore hold bit-identical
dequantized views — which is why batched int8 serving, preemption-restart
and table fork/rollback reproduce solo int8 decoding exactly (pinned by the
schedule-equivalence tests).  What int8 mode does *not* preserve is
bit-equality with full-precision decoding; that accuracy delta is measured
by the pinned quantization benchmarks and documented in
``docs/quantization.md``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["CODECS", "IdentityCodec", "Int8Codec", "QMAX", "QUANT_STEPS"]

#: Largest code magnitude stored in the int8 slabs (codes live in [-QMAX, QMAX]).
QMAX = 127
#: Quantization steps spanning a page's [lo, hi] value range.
QUANT_STEPS = 2 * QMAX


class IdentityCodec:
    """Pages hold the compute dtype itself: no encoding, no per-page state.

    ``raw`` tells the pool its slabs can be read and written directly, which
    is what keeps the zero-copy contiguous view, the vectorized append
    scatter and the flat-take compaction on the full-precision path.  The
    pool also stores positions through this codec, whatever its own.
    """

    raw = True

    def __init__(self, dtype: np.dtype, n_heads: int, n_pages: int, page_size: int, streams):
        self.storage_dtype = np.dtype(dtype)

    @staticmethod
    def encode(name: str, page: int, slab: np.ndarray, slot: int, data: np.ndarray) -> None:
        """Store ``data`` of shape ``(heads, c, ...)`` as-is in slab slots
        ``slot .. slot + c``."""
        slab[:, slot : slot + data.shape[1]] = data

    @staticmethod
    def decode(name: str, page: int, codes: np.ndarray) -> np.ndarray:
        """The stored slice already is the value."""
        return codes

    def grow(self, n_pages: int) -> None:
        """No per-page state to grow."""

    def copy_page(self, src_page: int, dst_page: int) -> None:
        """No per-page state to copy on copy-on-write."""

    def reset(self, pages: Sequence[int]) -> None:
        """No per-page state to reset on allocation."""

    def audit(self, n_pages: int, label: str) -> list[str]:
        """Nothing to audit: the codec keeps no state."""
        return []

    def nbytes(self) -> int:
        """Bytes of per-page codec state (none)."""
        return 0

    def kv_token_nbytes(self, n_heads: int, d_head: int, page_size: int) -> float:
        """Key+value bytes one cached token occupies (all heads)."""
        return float(2 * n_heads * d_head * self.storage_dtype.itemsize)

    @staticmethod
    def estimate_page_nbytes(
        n_heads: int, d_head: int, page_size: int, dtype: np.dtype | str, rope_dims: int
    ) -> float:
        """Resident bytes of one page: keys, values, the rotated-key slab
        when ``rope_dims > 0``, and the int64 per-head positions."""
        itemsize = np.dtype(dtype).itemsize
        slabs = 2 + (1 if rope_dims > 0 else 0)
        return float(page_size * n_heads * (slabs * d_head * itemsize + 8))


class Int8Codec:
    """Int8 codes with per-page, per-head affine parameters.

    Reads are always dequantizing page-gather copies (there is no zero-copy
    dequantized view of int8 codes) in the pool's compute ``dtype``, so the
    cache managers, prefix sharing, rollback and the attention kernels run
    unchanged on top.
    """

    raw = False

    def __init__(self, dtype: np.dtype, n_heads: int, n_pages: int, page_size: int, streams):
        self.dtype = np.dtype(dtype)
        self.storage_dtype = np.dtype(np.int8)
        self.n_heads = n_heads
        self.page_size = page_size
        shape = (n_pages, n_heads)
        self.scale = {n: np.ones(shape, dtype=np.float32) for n in streams}
        self.zero = {n: np.zeros(shape, dtype=np.float32) for n in streams}
        self.lo = {n: np.full(shape, np.inf, dtype=np.float32) for n in streams}
        self.hi = {n: np.full(shape, -np.inf, dtype=np.float32) for n in streams}

    def _tensors(self):
        """The four per-page parameter stores with their reset fill values."""
        return (
            (self.scale, 1.0),
            (self.zero, 0.0),
            (self.lo, np.inf),
            (self.hi, -np.inf),
        )

    # ------------------------------------------------------------------
    # per-page state
    # ------------------------------------------------------------------
    def grow(self, n_pages: int) -> None:
        """Grow the parameter tensors alongside the pool's page space."""
        for store, fill in self._tensors():
            for name, arr in store.items():
                extra = np.full(
                    (n_pages - arr.shape[0], self.n_heads), fill, dtype=np.float32
                )
                store[name] = np.concatenate([arr, extra])

    def copy_page(self, src_page: int, dst_page: int) -> None:
        """Copy-on-write: the copied codes dequantize with the same params."""
        for store, _ in self._tensors():
            for arr in store.values():
                arr[dst_page] = arr[src_page]

    def reset(self, pages: Sequence[int]) -> None:
        """Mark ``pages`` as empty: unit scale, zero offset, empty range."""
        if not len(pages):
            return
        idx = np.asarray(pages, dtype=np.int64)
        for store, fill in self._tensors():
            for arr in store.values():
                arr[idx] = fill

    # ------------------------------------------------------------------
    # encoding / decoding
    # ------------------------------------------------------------------
    @staticmethod
    def _params_from(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Affine (scale, zero) mapping ``[lo, hi]`` onto codes ``[-127, 127]``
        per head; a degenerate (constant) range gets unit scale so the
        constant round-trips exactly through ``zero``."""
        span = hi - lo
        scale = np.where(span > 0, span / QUANT_STEPS, 1.0).astype(np.float32)
        zero = ((hi + lo) * 0.5).astype(np.float32)
        return scale, zero

    @staticmethod
    def _encode(data: np.ndarray, scale: np.ndarray, zero: np.ndarray) -> np.ndarray:
        """Quantize ``(heads, T, d)`` floats to int8 codes with per-head params."""
        codes = np.rint((data - zero[:, None, None]) / scale[:, None, None])
        return np.clip(codes, -QMAX, QMAX).astype(np.int8)

    def decode(self, name: str, page: int, codes: np.ndarray) -> np.ndarray:
        """Dequantize ``(heads, T, d)`` codes of ``page`` into the compute dtype."""
        scale, zero = self.scale[name][page], self.zero[name][page]
        return codes.astype(self.dtype) * scale[:, None, None] + zero[:, None, None]

    def decode_taken(
        self, name: str, codes: np.ndarray, pages: np.ndarray, heads: np.ndarray
    ) -> np.ndarray:
        """Dequantize flat-gathered ``(heads, K, d)`` codes, each element with
        its own ``(page, head)`` parameters (the compaction read)."""
        shape = codes.shape[:2] + (1,)
        scale = self.scale[name][pages, heads].reshape(shape)
        zero = self.zero[name][pages, heads].reshape(shape)
        return codes.astype(self.dtype) * scale + zero

    def encode(self, name: str, page: int, slab: np.ndarray, slot: int, data: np.ndarray) -> None:
        """Quantize ``data`` of shape ``(heads, c, d)`` into slab slots
        ``slot .. slot + c`` (all inside logical ``page``), widening the
        page's running range first when the new values fall outside it (which
        re-encodes the page's resident codes under the widened parameters — a
        no-op for heads whose parameters are unchanged)."""
        scale, zero = self.scale[name], self.zero[name]
        lo, hi = self.lo[name], self.hi[name]
        dmin = data.min(axis=(1, 2)).astype(np.float32)
        dmax = data.max(axis=(1, 2)).astype(np.float32)
        new_lo = np.minimum(lo[page], dmin)
        new_hi = np.maximum(hi[page], dmax)
        ps = self.page_size
        base = slot - slot % ps
        if (new_lo < lo[page]).any() or (new_hi > hi[page]).any():
            new_scale, new_zero = self._params_from(new_lo, new_hi)
            if np.isfinite(lo[page]).any():
                resident = self.decode(name, page, slab[:, base : base + ps])
                slab[:, base : base + ps] = self._encode(resident, new_scale, new_zero)
            scale[page], zero[page] = new_scale, new_zero
            lo[page], hi[page] = new_lo, new_hi
        slab[:, slot : slot + data.shape[1]] = self._encode(data, scale[page], zero[page])

    # ------------------------------------------------------------------
    # auditing / accounting
    # ------------------------------------------------------------------
    def audit(self, n_pages: int, label: str) -> list[str]:
        """Quantization-state invariants, per quantized stream.

        The four per-page parameter tensors keep shape ``(n_pages, n_heads)``
        (they must grow in lockstep with the pool), every tracked range is
        either empty (``lo=+inf, hi=-inf``, the post-``alloc`` reset state) or
        finite with ``lo <= hi``, scales are finite and positive, and
        ``(scale, zero)`` equal the pure recomputation :meth:`_params_from`
        of the running range — the determinism contract says parameters are
        a function of the range, never of stale history.
        """
        violations: list[str] = []
        shape = (n_pages, self.n_heads)
        for name in self.scale:
            scale, zero = self.scale[name], self.zero[name]
            lo, hi = self.lo[name], self.hi[name]
            tensors = (("scale", scale), ("zero", zero), ("lo", lo), ("hi", hi))
            for tensor_name, tensor in tensors:
                if tensor.shape != shape:
                    violations.append(
                        f"{label}: quant {name}/{tensor_name} shape "
                        f"{tensor.shape} != slab page count {shape}"
                    )
            if any(t.shape != shape for _, t in tensors):
                continue  # elementwise checks below assume aligned shapes
            empty = np.isinf(lo) & np.isinf(hi) & (lo > 0) & (hi < 0)
            tracked = ~empty
            bad_range = tracked & ~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))
            for page in np.flatnonzero(bad_range.any(axis=1)).tolist():
                violations.append(
                    f"{label}: quant {name} page {page} range is neither empty "
                    "nor a finite lo <= hi interval"
                )
            bad_scale = ~(np.isfinite(scale) & (scale > 0))
            for page in np.flatnonzero(bad_scale.any(axis=1)).tolist():
                violations.append(
                    f"{label}: quant {name} page {page} has non-finite or "
                    "non-positive scale"
                )
            if tracked.any():
                with np.errstate(invalid="ignore", over="ignore"):
                    want_scale, want_zero = self._params_from(lo, hi)
                stale = tracked & ((scale != want_scale) | (zero != want_zero))
                for page in np.flatnonzero(stale.any(axis=1)).tolist():
                    violations.append(
                        f"{label}: quant {name} page {page} (scale, zero) do not "
                        "match recomputation from its running [lo, hi] range"
                    )
        return violations

    def nbytes(self) -> int:
        """Bytes of the per-page quantization tensors."""
        return sum(arr.nbytes for store, _ in self._tensors() for arr in store.values())

    def kv_token_nbytes(self, n_heads: int, d_head: int, page_size: int) -> float:
        """Key+value bytes per cached token: int8 codes plus the amortized
        per-page float32 ``(scale, zero)`` pairs of the K and V streams."""
        codes = 2 * n_heads * d_head
        params = 2 * n_heads * 2 * 4 / page_size
        return float(codes + params)

    @staticmethod
    def estimate_page_nbytes(
        n_heads: int, d_head: int, page_size: int, dtype: np.dtype | str, rope_dims: int
    ) -> float:
        """Resident bytes of one quantized page: int8 code slabs, int64
        positions, and the four float32 per-head parameter rows (scale,
        zero, lo, hi) of every quantized stream.  ``dtype`` (the compute
        dtype) does not matter — that is the point."""
        slabs = 2 + (1 if rope_dims > 0 else 0)
        per_slot = n_heads * (slabs * d_head * 1 + 8)
        params = slabs * n_heads * 4 * 4
        return float(page_size * per_slot + params)


#: Page codec for each accepted ``kv_dtype`` value.
CODECS = {None: IdentityCodec, "native": IdentityCodec, "int8": Int8Codec}
