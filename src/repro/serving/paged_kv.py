"""Block-allocated paged KV cache for many concurrent sequences.

The serving engine keeps one KV cache *pool* per transformer layer,
carved into fixed-size blocks of ``block_size`` token slots.  Each
sequence owns a **block table** — an ordered list of block ids — and a
logical length; appending a decode step's keys/values writes one token
into the tail block (allocating a new block only when the tail fills).
No per-step reallocation, no copying of already-cached tokens: decoding
``S`` tokens moves O(S) bytes, versus the O(S^2) of a
concatenate-per-step contiguous cache.

The same block table indexes every layer's pool (block ``b`` means slots
``b * block_size ..`` in all ``num_layers`` pools), which is the
standard paged-KV layout: allocation decisions are per-sequence, not
per-layer.

**Layout.**  A pool is token-major, ``(num_blocks * block_size, heads,
head_dim)``: slot ``b * block_size + i`` holds every head's vector of
the ``i``-th token of block ``b``, so a block is one contiguous run of
whole memory pages — 16 KB at 16 slots x 8 heads x 16 float64s.  (A
head-major ``(heads, slots, head_dim)`` pool splits the same block into
``heads`` runs of 2 KB, each dirtying a 4 KB page of its own: up to
twice the resident pages.)  Beside its block table each sequence keeps a
**slot array** — the pool slot of every reserved position in logical
order, extended in :meth:`PagedKVCache.reserve`, dropped in
:meth:`PagedKVCache.free_sequence`.  Slots are what reads and writes
index, so neither walks blocks: a sequence's keys are *one* fancy index,
``pool.take(slots[:n], axis=0)``, viewed ``.swapaxes(0, 1)`` as the
(heads, S, head_dim) operand attention reads (no axis move, no reshape
copy, and an empty sequence is just ``n = 0``); a decode round's new
keys for *all* its rows are one scatter ``pool[dest] = k`` per pool per
layer.

Gather traffic is *read* traffic inherent to attention (every serving
stack pays it, fused into the kernel); ``copied_bytes`` deliberately
counts only cache-maintenance writes, which is the quantity the paged
layout improves.  :meth:`PagedKVCache.gather_rows` is lazy — it gathers
a row when the consumer reaches it — because a batch's gathered K/V
held all at once is the largest transient a decode round can make.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["CacheOutOfBlocks", "BlockAllocator", "PagedKVCache"]


class CacheOutOfBlocks(RuntimeError):
    """The block pool cannot satisfy an allocation.

    Admission reserves only ``prompt + 1`` tokens, so a decode round can
    run the pool dry; the serving loop catches this mid-decode and
    preempts the youngest sequence to free blocks.
    """


class BlockAllocator:
    """Free-list allocator over a fixed pool of KV blocks."""

    def __init__(self, num_blocks: int) -> None:
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        self.num_blocks = num_blocks
        # LIFO free list: recently freed blocks are reused first, which
        # keeps the working set compact.
        self._free = list(range(num_blocks - 1, -1, -1))

    @property
    def num_free(self) -> int:
        return len(self._free)

    def alloc(self, n: int = 1) -> list[int]:
        """Take ``n`` blocks from the pool."""
        if n < 0:
            raise ValueError("cannot allocate a negative block count")
        if n > len(self._free):
            raise CacheOutOfBlocks(
                f"requested {n} blocks but only {len(self._free)} of "
                f"{self.num_blocks} are free"
            )
        taken = self._free[-n:] if n else []
        del self._free[len(self._free) - n :]
        return list(reversed(taken))

    def free(self, blocks: list[int]) -> None:
        """Return blocks to the pool; all are checked before any moves."""
        # Free already, or earlier in this call (-> one block, two owners).
        freed = set(self._free)
        for b in blocks:
            if not 0 <= b < self.num_blocks:
                raise ValueError(f"block id {b} out of range")
            if b in freed:
                raise ValueError(f"double free of block {b}")
            freed.add(b)
        self._free.extend(reversed(blocks))


class PagedKVCache:
    """Per-layer token-major pools + per-sequence block tables and slots.

    Write protocol (one model forward over ``s_new`` tokens of each of
    some sequences): ``reserve(seq, s_new)`` once per sequence, then
    ``write_rows(seqs, layer, k, v)`` for every layer (each call writes
    at the same logical offsets), then ``advance(seq, s_new)`` once per
    sequence.  :meth:`write` and :meth:`gather` are the one-row cases of
    :meth:`write_rows` and :meth:`gather_rows`.
    """

    def __init__(
        self,
        num_layers: int,
        num_heads: int,
        head_dim: int,
        *,
        block_size: int = 16,
        num_blocks: int = 256,
        dtype=np.float64,
    ) -> None:
        if num_layers < 1 or num_heads < 1 or head_dim < 1:
            raise ValueError("model dimensions must be >= 1")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.allocator = BlockAllocator(num_blocks)
        shape = (num_blocks * block_size, num_heads, head_dim)
        self._k = [np.zeros(shape, dtype=dtype) for _ in range(num_layers)]
        self._v = [np.zeros(shape, dtype=dtype) for _ in range(num_layers)]
        self._tables: dict[int, list[int]] = {}
        #: Pool slot of every reserved position, in logical order: block
        #: ``b`` of a table contributes ``b*block_size .. (b+1)*block_size``.
        self._slots: dict[int, np.ndarray] = {}
        self._lens: dict[int, int] = {}
        #: Cache-maintenance write traffic (bytes), cumulative.
        self.copied_bytes = 0

    # -- sequence lifecycle ------------------------------------------------

    def blocks_for(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` cached positions."""
        return -(-tokens // self.block_size)

    def add_sequence(self, seq_id: int) -> None:
        if seq_id in self._tables:
            raise ValueError(f"sequence {seq_id} already tracked")
        self._tables[seq_id] = []
        self._slots[seq_id] = np.empty(0, dtype=np.intp)
        self._lens[seq_id] = 0

    def free_sequence(self, seq_id: int) -> None:
        """Evict a sequence, returning its blocks to the pool."""
        self.allocator.free(self._tables.pop(seq_id))
        del self._slots[seq_id]
        del self._lens[seq_id]

    def seq_len(self, seq_id: int) -> int:
        return self._lens[seq_id]

    # -- writes ------------------------------------------------------------

    def reserve(self, seq_id: int, num_new: int) -> None:
        """Ensure block capacity for ``num_new`` more tokens."""
        table = self._tables[seq_id]
        need = self.blocks_for(self._lens[seq_id] + num_new) - len(table)
        if need > 0:
            blocks = self.allocator.alloc(need)
            table.extend(blocks)
            bs = self.block_size
            fresh = np.asarray(blocks)[:, None] * bs + np.arange(bs)
            self._slots[seq_id] = np.concatenate(
                [self._slots[seq_id], fresh.ravel()]
            )

    def write_rows(
        self, seq_ids: list[int], layer: int, k: np.ndarray, v: np.ndarray
    ) -> None:
        """Write (B, heads, s_new, head_dim) keys/values, row ``j`` at
        the current logical offset of ``seq_ids[j]`` (same offsets for
        every layer; call :meth:`advance` after all layers are written).

        One scatter per pool, and all-or-nothing: every row's
        reservation is checked before any byte moves.  ``seq_ids`` must
        not repeat (a repeated row would shadow its first write).
        """
        if k.shape != v.shape:
            raise ValueError(f"k/v shape mismatch: {k.shape} vs {v.shape}")
        b, nh, s_new, hd = k.shape
        if b != len(seq_ids) or nh != self.num_heads or hd != self.head_dim:
            raise ValueError(
                f"expected ({len(seq_ids)}, {self.num_heads}, s, "
                f"{self.head_dim}) keys/values, got {k.shape}"
            )
        dest = []
        for s in seq_ids:
            start = self._lens[s]
            slots = self._slots[s]
            if start + s_new > len(slots):
                raise CacheOutOfBlocks(
                    f"sequence {s} has {len(self._tables[s])} blocks "
                    f"reserved but needs {self.blocks_for(start + s_new)}; "
                    "call reserve()"
                )
            dest.append(slots[start : start + s_new])
        dest = np.concatenate(dest)
        # (B, heads, s_new, hd) -> token-major (B * s_new, heads, hd).
        self._k[layer][dest] = k.transpose(0, 2, 1, 3).reshape(-1, nh, hd)
        self._v[layer][dest] = v.transpose(0, 2, 1, 3).reshape(-1, nh, hd)
        self.copied_bytes += k.nbytes + v.nbytes

    def write(self, seq_id: int, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Write one sequence's (heads, s_new, head_dim) keys/values:
        the one-row :meth:`write_rows`."""
        self.write_rows([seq_id], layer, k[None], v[None])

    def advance(self, seq_id: int, num_new: int) -> None:
        """Commit ``num_new`` tokens after all layers were written."""
        self._lens[seq_id] += num_new

    # -- reads -------------------------------------------------------------

    def gather_rows(
        self, seq_ids: list[int], layer: int, include_uncommitted: int = 0
    ) -> tuple[Iterator[np.ndarray], Iterator[np.ndarray]]:
        """Two lazy iterables, of each sequence's keys and of its values,
        as (heads, S, head_dim) operands in ``seq_ids`` order.

        ``include_uncommitted`` extends every view past the logical
        length to cover tokens written this forward pass but not yet
        :meth:`advance`-committed (the decode step attends over the new
        token's own keys/values).  A row is gathered — one ``take``
        over its slots, viewed heads-first — only when the consumer
        reaches it, so a batch never holds more than the row in hand.
        """
        spans = []
        for s in seq_ids:
            n = self._lens[s] + include_uncommitted
            slots = self._slots[s]
            if n > len(slots):
                raise ValueError(
                    f"sequence {s}: {n} positions exceed the "
                    f"{len(self._tables[s])} reserved blocks"
                )
            spans.append(slots[:n])
        pool_k, pool_v = self._k[layer], self._v[layer]
        return (
            (pool_k.take(idx, axis=0).swapaxes(0, 1) for idx in spans),
            (pool_v.take(idx, axis=0).swapaxes(0, 1) for idx in spans),
        )

    def gather(self, seq_id: int, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """(heads, S, head_dim) committed keys and values of one sequence."""
        keys, values = self.gather_rows([seq_id], layer)
        return next(keys), next(values)
