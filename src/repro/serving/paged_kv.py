"""Block-allocated paged KV cache for many concurrent sequences.

The serving engine keeps one KV cache *pool* per transformer layer,
carved into fixed-size blocks of ``block_size`` token slots.  Each
sequence owns a **block table** — an ordered list of block ids — and a
logical length; appending a decode step's keys/values writes one token
into the tail block (allocating a new block only when the tail fills).
No per-step reallocation, no copying of already-cached tokens: decoding
``S`` tokens moves O(S) bytes, versus the O(S^2) of a
concatenate-per-step contiguous cache.

The same block table indexes every layer's pool (block ``b`` means slot
``b`` in all ``num_layers`` pools), which is the standard paged-KV
layout: allocation decisions are per-sequence, not per-layer.

Attention still consumes a contiguous (heads, S, head_dim) view of one
sequence; :meth:`PagedKVCache.gather` materializes it from the blocks.
Gather traffic is *read* traffic inherent to attention (every serving
stack pays it, fused into the kernel); ``copied_bytes`` deliberately
counts only cache-maintenance writes, which is the quantity the paged
layout improves.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CacheOutOfBlocks", "BlockAllocator", "PagedKVCache"]


class CacheOutOfBlocks(RuntimeError):
    """The block pool cannot satisfy an allocation.

    Under worst-case reservation the scheduler prevents this for
    admitted sequences; under optimistic reservation (the default since
    the resilience work) the engine catches it mid-decode and preempts
    the youngest sequence to free blocks.
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
        """Return blocks to the pool."""
        for b in blocks:
            if not 0 <= b < self.num_blocks:
                raise ValueError(f"block id {b} out of range")
            if b in self._free:
                raise ValueError(f"double free of block {b}")
        self._free.extend(reversed(blocks))


class PagedKVCache:
    """Per-layer block pools + per-sequence block tables.

    Write protocol (one model forward over ``s_new`` tokens of one
    sequence): ``reserve(seq, s_new)`` once, then ``write(seq, layer,
    k, v)`` for every layer (each call writes at the same logical
    offset), then ``advance(seq, s_new)`` once.
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
        shape = (num_blocks, num_heads, block_size, head_dim)
        self._k = [np.zeros(shape, dtype=dtype) for _ in range(num_layers)]
        self._v = [np.zeros(shape, dtype=dtype) for _ in range(num_layers)]
        self._tables: dict[int, list[int]] = {}
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
        self._lens[seq_id] = 0

    def free_sequence(self, seq_id: int) -> None:
        """Evict a sequence, returning its blocks to the pool."""
        self.allocator.free(self._tables.pop(seq_id))
        del self._lens[seq_id]

    def seq_len(self, seq_id: int) -> int:
        return self._lens[seq_id]

    @property
    def num_sequences(self) -> int:
        return len(self._tables)

    # -- writes ------------------------------------------------------------

    def reserve(self, seq_id: int, num_new: int) -> None:
        """Ensure block capacity for ``num_new`` more tokens."""
        table = self._tables[seq_id]
        need = self.blocks_for(self._lens[seq_id] + num_new) - len(table)
        if need > 0:
            table.extend(self.allocator.alloc(need))

    def write(self, seq_id: int, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Write (heads, s_new, head_dim) keys/values at the current
        logical offset of ``seq_id`` (same offset for every layer; call
        :meth:`advance` after all layers are written)."""
        if k.shape != v.shape:
            raise ValueError(f"k/v shape mismatch: {k.shape} vs {v.shape}")
        nh, s_new, hd = k.shape
        if nh != self.num_heads or hd != self.head_dim:
            raise ValueError(
                f"expected ({self.num_heads}, s, {self.head_dim}) "
                f"keys/values, got {k.shape}"
            )
        table = self._tables[seq_id]
        start = self._lens[seq_id]
        if self.blocks_for(start + s_new) > len(table):
            raise CacheOutOfBlocks(
                f"sequence {seq_id} has {len(table)} blocks reserved but "
                f"needs {self.blocks_for(start + s_new)}; call reserve()"
            )
        pool_k, pool_v = self._k[layer], self._v[layer]
        bs = self.block_size
        written = 0
        while written < s_new:
            pos = start + written
            block = table[pos // bs]
            off = pos % bs
            take = min(bs - off, s_new - written)
            src = slice(written, written + take)
            pool_k[block, :, off : off + take] = k[:, src]
            pool_v[block, :, off : off + take] = v[:, src]
            written += take
        self.copied_bytes += k.nbytes + v.nbytes

    def advance(self, seq_id: int, num_new: int) -> None:
        """Commit ``num_new`` tokens after all layers were written."""
        self._lens[seq_id] += num_new

    # -- reads -------------------------------------------------------------

    def gather(
        self, seq_id: int, layer: int, include_uncommitted: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Contiguous (heads, S, head_dim) keys and values of a sequence.

        ``include_uncommitted`` extends the view past the logical length
        to cover tokens written this forward pass but not yet
        :meth:`advance`-committed (the decode step attends over the new
        token's own keys/values).
        """
        table = self._tables[seq_id]
        n = self._lens[seq_id] + include_uncommitted
        if self.blocks_for(n) > len(table):
            raise ValueError(
                f"sequence {seq_id}: {n} positions exceed the "
                f"{len(table)} reserved blocks"
            )
        if n == 0:
            empty = np.empty(
                (self.num_heads, 0, self.head_dim), dtype=self._k[layer].dtype
            )
            return empty, empty
        idx = np.asarray(table[: self.blocks_for(n)])
        # (nblk, nh, bs, hd) -> (nh, nblk*bs, hd), trimmed to length.
        k = np.moveaxis(self._k[layer][idx], 0, 1).reshape(
            self.num_heads, -1, self.head_dim
        )[:, :n]
        v = np.moveaxis(self._v[layer][idx], 0, 1).reshape(
            self.num_heads, -1, self.head_dim
        )[:, :n]
        return k, v
