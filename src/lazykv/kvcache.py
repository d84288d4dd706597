"""Per-layer key/value storage under a Full or Streaming retention policy.

A streaming cache keeps the first ``w_sink`` positions (attention sinks)
plus the ``w_recent`` most recent ones, deduplicated. Its buffers hold at
most ``w_sink + w_recent`` rows, laid out as in StreamingLLM: position
``p`` lives in slot ``p`` if ``p < w_sink``, else in slot
``w_sink + (p - w_sink) % w_recent``. The sinks stay put and the recent
window is a ring, so a one-token append overwrites the one slot whose
position just left the window and moves nothing else. Eviction is
irreversible: the recent window only slides forward, so a dropped position
can never be needed again. A full cache stores position ``p`` in row ``p``.

Because the slot depends only on the position, every path that holds the
same positions (online, static replay, full-then-transfer) has the same
physical layout. Attention runs over the rows in that storage order: the
softmax over keys does not depend on their order, and multi-row queries
mask by held position. ``kept_positions``, ``keys`` and ``values`` return
rows in position order.

K/V are stacked over heads, ``(n_heads, rows, d)``. Full buffers grow
geometrically, so appending one token during decode is amortized O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ContractViolation
from .model import ModelConfig
from .numerics import _masked_max_and_expsum

__all__ = [
    "CachePolicy",
    "LayerCache",
    "MemoryMeter",
    "kept_positions_for",
    "attend_from_cache",
    "memory_stats",
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
    """Key/value rows for one layer, one row per retained token position.

    ``_k``/``_v`` are ``(n_heads, capacity, d)`` and ``_pos`` is
    ``(capacity,)``; rows ``[:size]`` are held, each in the slot the module
    docstring gives for its position.
    """

    def __init__(self, n_heads: int, d_key: int, d_value: int, policy: CachePolicy):
        self.n_heads = n_heads
        self.d_key = d_key
        self.d_value = d_value
        self.policy = policy
        self.total_seen = 0
        self._size = 0
        self._k = np.empty((n_heads, 0, d_key))
        self._v = np.empty((n_heads, 0, d_value))
        self._pos = np.empty(0, dtype=np.int64)

    @property
    def size(self) -> int:
        return self._size

    def held(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the held rows in storage order: keys ``(H, size, d_key)``,
        values ``(H, size, d_value)`` and positions ``(size,)``. Once a
        streaming cache wraps, storage order is not position order."""
        n = self._size
        return self._k[:, :n], self._v[:, :n], self._pos[:n]

    def _order(self) -> np.ndarray:
        return np.argsort(self._pos[: self._size])

    @property
    def kept_positions(self) -> np.ndarray:
        return self._pos[self._order()]

    def keys(self, head: int) -> np.ndarray:
        return self._k[head, self._order()]

    def values(self, head: int) -> np.ndarray:
        return self._v[head, self._order()]

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
        v = np.empty((self.n_heads, cap, self.d_value))
        pos = np.empty(cap, dtype=np.int64)
        k[:, :n], v[:, :n], pos[:n] = self._k[:, :n], self._v[:, :n], self._pos[:n]
        self._k, self._v, self._pos = k, v, pos

    def append(self, new_keys, new_values) -> None:
        """Add K/V rows for the next tokens, writing only the rows the
        retention window keeps.

        ``new_keys`` is ``(H, t, d_key)`` and ``new_values`` ``(H, t,
        d_value)``; a list of per-head ``(t, d)`` rows converts to that.
        """
        try:
            new_keys, new_values = np.asarray(new_keys), np.asarray(new_values)
        except ValueError as exc:  # per-head rows of unequal shapes
            raise ContractViolation(f"per-head K/V rows differ in shape: {exc}") from exc
        t = new_keys.shape[1] if new_keys.ndim == 3 else -1
        if new_keys.shape != (self.n_heads, t, self.d_key) or new_values.shape != (
            self.n_heads, t, self.d_value
        ):
            raise ContractViolation(
                f"expected K/V of shape ({self.n_heads}, t, {self.d_key}) and "
                f"({self.n_heads}, t, {self.d_value}); got {new_keys.shape}, "
                f"{new_values.shape}"
            )
        start = self.total_seen
        stop = start + t
        if self.policy.kind == "full":
            size = stop
            runs = [(start, stop, start)]
        else:
            w_sink, w_recent = self.policy.w_sink, self.policy.w_recent
            size = min(stop, w_sink + w_recent)
            runs = [(start, min(stop, w_sink), start)] if start < w_sink else []
            # Survivors past the sinks fill consecutive ring slots, wrapping
            # at most once because there are at most w_recent of them.
            lo = max(start, w_sink, stop - w_recent)
            while lo < stop:
                slot = w_sink + (lo - w_sink) % w_recent
                hi = min(stop, lo + w_sink + w_recent - slot)
                runs.append((lo, hi, slot))
                lo = hi
        self._reserve(size)
        for lo, hi, slot in runs:
            rows, dst = slice(lo - start, hi - start), slice(slot, slot + hi - lo)
            self._k[:, dst] = new_keys[:, rows]
            self._v[:, dst] = new_values[:, rows]
            self._pos[dst] = np.arange(lo, hi)
        self.total_seen = stop
        self._size = size

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
        rows[np.where(target < w_sink, target, w_sink + (target - w_sink) % w_recent)] = target
        self._k, self._v, self._pos = self._k[:, rows], self._v[:, rows], self._pos[rows]
        self._size = target.size


@dataclass
class MemoryMeter:
    """Tracks instantaneous and peak cached-row counts per layer and overall."""

    layer_rows: List[int] = field(default_factory=list)
    layer_peaks: List[int] = field(default_factory=list)
    peak_total: int = 0

    def record(self, sizes: Sequence[int]) -> None:
        sizes = list(sizes)
        if len(self.layer_rows) < len(sizes):
            grow = len(sizes) - len(self.layer_rows)
            self.layer_rows.extend([0] * grow)
            self.layer_peaks.extend([0] * grow)
        self.layer_rows[: len(sizes)] = sizes
        for i, s in enumerate(sizes):
            if s > self.layer_peaks[i]:
                self.layer_peaks[i] = s
        total = sum(sizes)
        if total > self.peak_total:
            self.peak_total = total


def memory_stats(meter: MemoryMeter) -> dict:
    return {
        "rows_per_layer": list(meter.layer_rows),
        "peak_rows_per_layer": list(meter.layer_peaks),
        "total_rows": sum(meter.layer_rows),
        "peak_total_rows": meter.peak_total,
    }


def attend_from_cache(cache: LayerCache, queries, config: ModelConfig) -> np.ndarray:
    """Attention of the most recent query rows over the cache's kept rows.

    ``queries`` is head-stacked ``(H, n_q, d_key)``; a list of per-head
    rows converts to that. Query row j is taken to sit at absolute position
    ``total_seen - n_q + j``; it may only attend to kept positions at or
    before that. Equals full causal attention restricted to the kept set.
    All heads are scored as one ``(H, n_q, size)`` block over the rows in
    storage order.
    """
    if cache.size == 0:
        raise ContractViolation("cannot attend from an empty cache")
    queries = np.asarray(queries)
    if queries.ndim != 3 or queries.shape[0] != cache.n_heads:
        raise ContractViolation(
            f"expected {cache.n_heads} heads of query rows, got shape {queries.shape}"
        )
    n_q = queries.shape[1]
    if n_q < 1 or n_q > cache.total_seen:
        raise ContractViolation(
            f"query count {n_q} outside 1..{cache.total_seen}"
        )
    keys, values, held = cache.held()
    scores = queries @ keys.transpose(0, 2, 1)
    if config.score_scale != 1.0:
        scores *= config.score_scale

    if n_q == 1:
        # Newest position sees every kept row; skip the mask entirely.
        scores -= scores.max(axis=-1, keepdims=True)
        probs = np.exp(scores, out=scores)
        probs /= probs.sum(axis=-1, keepdims=True)
        return (probs @ values).sum(axis=0)

    q_pos = np.arange(cache.total_seen - n_q, cache.total_seen, dtype=np.int64)
    allowed = held[None, :] <= q_pos[:, None]
    if not allowed.any(axis=1).all():
        raise ContractViolation(
            "a query position has no cached rows at or before it"
        )
    _, probs, sums = _masked_max_and_expsum(scores, allowed)
    probs /= sums[..., None]
    return (probs @ values).sum(axis=0)
