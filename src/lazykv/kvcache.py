"""Per-layer keys and input rows under a Full or Streaming retention policy.

A streaming cache keeps the first ``w_sink`` positions (attention sinks)
plus the ``w_recent`` most recent ones, deduplicated. Its buffers hold at
most ``w_sink + w_recent`` rows, laid out as in StreamingLLM: position
``p`` lives in slot ``p`` if ``p < w_sink``, else in slot
``w_sink + (p - w_sink) % w_recent``. The sinks stay put and the recent
window is a ring, so a one-token append overwrites the one slot whose
position just left the window and moves nothing else; ``_ring_slot`` states
that rule. A one-row append (each decode step) writes its slot directly,
without a bulk append's index arrays, and leaves the same bits. Eviction is
irreversible: the recent window only slides forward, so a dropped position
can never be needed again. A full cache stores position ``p`` in row ``p``.

Because the slot depends only on the position, every path that holds the
same positions (online, static replay, full-then-transfer) has the same
physical layout. ``attend_from_cache`` passes the held rows to
``numerics.attend`` in that storage order, with their positions: the
softmax over keys does not depend on their order, and multi-row queries
mask by held position. ``kept_positions``, ``keys`` and ``inputs`` return
rows in position order.

Keys are stacked over heads, ``(n_heads, rows, d_key)``. The value side is
one ``(rows, d_model)`` buffer of the layer's normalized input rows X,
shared by all heads: the model has no positional encoding, so head h's
values are X W_V,h, and ``attend_from_cache`` applies W_V after the
weighted sum, sum_h (p_h X) W_V,h (the weight absorption of MLA,
DeepSeek-V2, for values only; prefill tiles do the same). A held row costs
``(n_heads * d_key + d_model) * 8`` bytes, 1,024 on the 4-head, d_model 64,
d_head 16 benchmark model against 2,560 for H per-head value rows. Full
buffers grow geometrically, so appending one token during decode is
amortized O(1). ``size`` is the one row count: a session sums it for its
peak and per-layer rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ContractViolation
from .model import ModelConfig
from .numerics import attend

__all__ = [
    "CachePolicy",
    "LayerCache",
    "kept_positions_for",
    "attend_from_cache",
]

_MIN_CAPACITY = 64
_GROWTH = 1.5


@dataclass(frozen=True)
class CachePolicy:
    kind: str  # "full" | "streaming"
    w_sink: int = 0
    w_recent: int = 0

    @classmethod
    def full(cls) -> "CachePolicy":
        return cls(kind="full")

    @classmethod
    def streaming(cls, w_sink: int, w_recent: int) -> "CachePolicy":
        if w_sink < 0:
            raise ContractViolation("w_sink must be >= 0")
        if w_recent < 1:
            raise ContractViolation("w_recent must be >= 1")
        return cls(kind="streaming", w_sink=w_sink, w_recent=w_recent)


def _ring_slot(pos, w_sink: int, w_recent: int):
    """Streaming-cache slot of ``pos``, an int or an int64 array, by the
    module docstring's rule; branch-free, so it serves both alike."""
    return pos - (pos >= w_sink) * ((pos - w_sink) // w_recent * w_recent)


def kept_positions_for(total_seen: int, w_sink: int, w_recent: int) -> np.ndarray:
    """Sink-plus-recent retained set after ``total_seen`` appended tokens.

    The two ranges are emitted as one sorted, duplicate-free array: the
    recent window is clipped to start at the sink boundary when they
    overlap, so sink/recent overlap is never double counted.
    """
    sink_end = min(w_sink, total_seen)
    recent_start = max(sink_end, total_seen - w_recent)
    sink = np.arange(sink_end, dtype=np.int64)
    recent = np.arange(recent_start, total_seen, dtype=np.int64)
    return np.concatenate([sink, recent])


class LayerCache:
    """Keys and normalized input rows for one layer, one row per retained
    token position.

    ``_k`` is ``(n_heads, capacity, d_key)``, ``_x`` is ``(capacity,
    d_model)`` and ``_pos`` is ``(capacity,)``; rows ``[:size]`` are held,
    each in the slot the module docstring gives for its position.
    """

    def __init__(self, n_heads: int, d_key: int, d_model: int, policy: CachePolicy):
        self.n_heads = n_heads
        self.d_key = d_key
        self.d_model = d_model
        self.policy = policy
        self.total_seen = 0
        self._size = 0
        self._k = np.empty((n_heads, 0, d_key))
        self._x = np.empty((0, d_model))
        self._pos = np.empty(0, dtype=np.int64)

    @property
    def size(self) -> int:
        return self._size

    @property
    def bytes_per_row(self) -> int:
        """Key and input-row bytes of one held row."""
        return self._k.itemsize * self.n_heads * self.d_key + self._x.itemsize * self.d_model

    def held(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the held rows in storage order: keys ``(H, size, d_key)``,
        input rows ``(size, d_model)`` and positions ``(size,)``. Once a
        streaming cache wraps, storage order is not position order."""
        n = self._size
        return self._k[:, :n], self._x[:n], self._pos[:n]

    def _order(self) -> np.ndarray:
        return np.argsort(self._pos[: self._size])

    @property
    def kept_positions(self) -> np.ndarray:
        return self._pos[self._order()]

    def keys(self, head: int) -> np.ndarray:
        return self._k[head, self._order()]

    def inputs(self) -> np.ndarray:
        return self._x[self._order()]

    def _reserve(self, rows: int) -> None:
        """Make room for ``rows`` rows. Only unwrapped layouts grow, where
        slot equals position, so the held rows copy over as they are."""
        cap = self._pos.size
        if rows <= cap:
            return
        cap = max(rows, _MIN_CAPACITY, int(cap * _GROWTH))
        if self.policy.kind == "streaming":
            cap = min(cap, self.policy.w_sink + self.policy.w_recent)
        n = self._size
        k = np.empty((self.n_heads, cap, self.d_key))
        x = np.empty((cap, self.d_model))
        pos = np.empty(cap, dtype=np.int64)
        k[:, :n], x[:n], pos[:n] = self._k[:, :n], self._x[:n], self._pos[:n]
        self._k, self._x, self._pos = k, x, pos

    def append(self, new_keys, new_inputs) -> None:
        """Add keys and normalized input rows for the next tokens, writing
        only the rows the retention window keeps.

        ``new_keys`` is ``(H, t, d_key)`` and ``new_inputs`` is ``(t, d_model)``.
        """
        t = new_keys.shape[1] if new_keys.ndim == 3 else -1
        if new_keys.shape != (self.n_heads, t, self.d_key) or new_inputs.shape != (
            t, self.d_model
        ):
            raise ContractViolation(
                f"expected keys of shape ({self.n_heads}, t, {self.d_key}) and "
                f"input rows of shape (t, {self.d_model}); got {new_keys.shape}, "
                f"{new_inputs.shape}"
            )
        start = self.total_seen
        stop = start + t
        full = self.policy.kind == "full"
        w_sink, w_recent = self.policy.w_sink, self.policy.w_recent
        size = stop if full else min(stop, w_sink + w_recent)
        self._reserve(size)
        self.total_seen, self._size = stop, size
        if t == 1:  # one decode row: one slot to write, no index arrays
            slot = start if full else _ring_slot(start, w_sink, w_recent)
            self._k[:, slot], self._x[slot], self._pos[slot] = new_keys[:, 0], new_inputs[0], start
            return
        if full:
            pos, rows, slots = np.arange(start, stop), slice(None), slice(start, stop)
        else:
            # The new rows the window keeps: sinks, then the newest w_recent.
            kept = kept_positions_for(stop, w_sink, w_recent)
            pos = kept[kept >= start]
            rows, slots = pos - start, _ring_slot(pos, w_sink, w_recent)
        self._k[:, slots], self._x[slots], self._pos[slots] = new_keys[:, rows], new_inputs[rows], pos

    def transfer_to_streaming(self, w_sink: int, w_recent: int) -> None:
        """Switch a full cache to streaming, dropping middle rows in one step.

        A transfer that drops nothing keeps the buffers: slot equals
        position until the window first fills. One that drops rows gathers
        the kept ones into new buffers of exactly ``w_sink + w_recent``
        rows, so the full buffers are freed.

        Idempotent: calling it on a cache that already streams is a no-op.
        """
        if self.policy.kind == "streaming":
            return
        self.policy = CachePolicy.streaming(w_sink, w_recent)
        if self.total_seen <= w_sink + w_recent:
            return
        target = kept_positions_for(self.total_seen, w_sink, w_recent)
        held = self._pos[: self._size]
        # A full cache holds position p in row p; check before gathering.
        if target[-1] >= held.size or not np.array_equal(held[target], target):
            raise ContractViolation("retention window requested an evicted position")
        rows = np.empty(target.size, dtype=np.int64)
        rows[_ring_slot(target, w_sink, w_recent)] = target
        self._k, self._x, self._pos = self._k[:, rows], self._x[rows], self._pos[rows]
        self._size = target.size


def attend_from_cache(cache: LayerCache, queries, w_v, config: ModelConfig) -> np.ndarray:
    """Attention of the most recent query rows over the cache's kept rows.

    ``queries`` is head-stacked ``(H, n_q, d_key)``. ``w_v`` is the layer's
    ``(H, d_model, d_value)`` value stack. Query row j is taken to sit at
    absolute position ``total_seen - n_q + j``; it may only attend to kept
    positions at or before that. Equals full causal attention restricted to
    the kept set. One ``attend`` call scores all heads over the rows in
    storage order and weights the shared input rows; the newest position
    alone sees every kept row, so a one-row query passes no positions and
    does no mask work. The weighted sums of all heads then go through W_V
    as one ``(n_q, H * d_model) @ (H * d_model, d_value)`` product, giving
    ``(n_q, d_value)``.
    """
    if cache.size == 0:
        raise ContractViolation("cannot attend from an empty cache")
    if queries.ndim != 3 or queries.shape[0] != cache.n_heads:
        raise ContractViolation(
            f"expected {cache.n_heads} heads of query rows, got shape {queries.shape}"
        )
    n_q = queries.shape[1]
    if n_q < 1 or n_q > cache.total_seen:
        raise ContractViolation(
            f"query count {n_q} outside 1..{cache.total_seen}"
        )
    if w_v.ndim != 3 or w_v.shape[:2] != (cache.n_heads, cache.d_model):
        raise ContractViolation(
            f"expected W_V of shape ({cache.n_heads}, {cache.d_model}, d), got {w_v.shape}"
        )
    keys, inputs, held = cache.held()
    q_pos = None
    if n_q > 1:
        q_pos = np.arange(cache.total_seen - n_q, cache.total_seen, dtype=np.int64)
    out, _ = attend(queries, keys, config.score_scale, q_pos, held, inputs)
    w_v = w_v.reshape(cache.n_heads * cache.d_model, -1)
    return out.transpose(1, 0, 2).reshape(n_q, -1) @ w_v
