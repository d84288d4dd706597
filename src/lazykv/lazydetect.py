"""Lazy-attention detection: per-layer kept-mass ratios and layer selection.

A layer's lazy ratio is the attention mass that its last ``w_last`` query
rows place on the streaming retention set (sinks plus the recent window,
measured relative to each query), averaged over heads and query rows. It
can be computed two ways that must agree:

* brute force, from explicit causal softmax weights;
* the log-sum-exp shortcut: per head and query, the kept mass equals
  ``exp(logsumexp(kept scores) - logsumexp(all causal scores))``, so only a
  small constant-size score block is ever formed beyond the per-row
  normalizers the attention pass already implies.

Selection runs online through a bounded max-priority queue: layers are
pushed as their ratios become known, and whenever the queue holds more than
its capacity the laziest layer (highest ratio; ties broken toward the
deeper layer) is popped and marked for streaming. Whatever survives in the
queue keeps full attention, so at no point do more than capacity+1 layers
await a verdict.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractViolation, InputError
from .kvcache import kept_positions_for
from .numerics import _masked_max_and_expsum

__all__ = [
    "DetectParams",
    "LazyRatioReport",
    "IdentifierState",
    "kept_query_positions",
    "lazy_ratio_bruteforce",
    "lazy_ratio_lse",
    "lse_log_ratios",
]


@dataclass(frozen=True)
class DetectParams:
    w_last: int = 32
    w_sink: int = 4
    w_recent: int = 1020
    n_full: int = 0  # layers that keep full attention

    def __post_init__(self):
        if self.w_last < 1:
            raise InputError("w_last must be >= 1")
        if self.w_sink < 0:
            raise InputError("w_sink must be >= 0")
        if self.w_recent < 1:
            raise InputError("w_recent must be >= 1")
        if self.n_full < 0:
            raise InputError("n_full must be >= 0")


def kept_query_positions(query_pos: int, w_sink: int, w_recent: int) -> np.ndarray:
    """Retained key positions for a query: sinks plus the window ending at it."""
    return kept_positions_for(query_pos + 1, w_sink, w_recent)


def lazy_ratio_bruteforce(attn_weights, params: DetectParams) -> float:
    """Kept-set attention mass from explicit causal softmax weights.

    ``attn_weights`` is (H, N, N): one causal softmax matrix per head.
    """
    a = np.asarray(attn_weights, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise InputError(f"expected (H, N, N) attention weights, got {a.shape}")
    n = a.shape[1]
    mean_heads = a.mean(axis=0)
    m = min(params.w_last, n)
    masses = []
    for q in range(n - m, n):
        kept = kept_query_positions(q, params.w_sink, params.w_recent)
        masses.append(mean_heads[q, kept].sum())
    return float(np.mean(masses))


def lse_log_ratios(
    q_last: Sequence[np.ndarray],
    keys: Sequence[np.ndarray],
    lse: Sequence[np.ndarray],
    params: DetectParams,
    scale: float = 1.0,
) -> np.ndarray:
    """Per-head, per-query log of the kept-set attention mass.

    ``q_last[h]`` holds the last query rows of head h, ``keys[h]`` all of
    its key rows, and ``lse[h]`` the full causal per-row log-sum-exp for
    those same query rows, computed under the same score scaling. Lists of
    per-head arrays and head-stacked arrays are both accepted. The kept-set
    scores come from one gathered (H, m, U) block over the union U of the
    rows' retention sets, each row masked to its own set.
    """
    n_heads = len(q_last)
    if len(keys) != n_heads or len(lse) != n_heads:
        raise ContractViolation(
            f"head counts differ: {n_heads} queries, {len(keys)} keys, "
            f"{len(lse)} lse rows"
        )
    m = q_last[0].shape[0]
    if any(q.shape[0] != m for q in q_last) or any(r.shape[0] != m for r in lse):
        raise ContractViolation("query/lse row counts differ across heads")
    q = np.asarray(q_last, dtype=np.float64)
    k = np.asarray(keys, dtype=np.float64)
    n = k.shape[1]
    # Every column some trailing query keeps: the sinks plus the recent
    # window of the first of those queries stretched to the last one.
    cols = kept_positions_for(n, params.w_sink, params.w_recent + m - 1)
    q_pos = np.arange(n - m, n, dtype=np.int64)[:, None]
    kept = (cols <= q_pos) & ((cols < params.w_sink) | (cols > q_pos - params.w_recent))
    scores = np.matmul(q, k[:, cols].transpose(0, 2, 1))
    if scale != 1.0:
        scores *= scale
    row_max, _, sums = _masked_max_and_expsum(scores, kept)
    return row_max + np.log(sums) - np.asarray(lse, dtype=np.float64)


def lazy_ratio_lse(
    q_last: Sequence[np.ndarray],
    keys: Sequence[np.ndarray],
    lse: Sequence[np.ndarray],
    params: DetectParams,
    scale: float = 1.0,
) -> float:
    """Kept-set mass via the log-sum-exp shortcut; equals the brute force."""
    return float(np.exp(lse_log_ratios(q_last, keys, lse, params, scale)).mean())


class IdentifierState:
    """Bounded max-priority queue over (lazy ratio, layer index) pairs.

    Pops return the laziest layer seen so far once capacity is exceeded;
    equal ratios pop the deeper layer first, which makes selection
    deterministic.
    """

    def __init__(self, capacity: int, n_layers: int):
        if capacity < 0:
            raise InputError("capacity must be >= 0")
        if n_layers < capacity:
            capacity = n_layers
        self.capacity = capacity
        self.n_layers = n_layers
        self._heap: List[Tuple[float, int]] = []  # (-ratio, -layer)
        self._pushed = set()
        self.lazy_layers: List[int] = []

    @property
    def queued_count(self) -> int:
        return len(self._heap)

    def entries(self) -> List[Tuple[float, int]]:
        return sorted((-r, -i) for (r, i) in self._heap)

    def push(self, layer: int, ratio: float) -> Optional[int]:
        """Record a layer's ratio; returns the index popped as lazy, if any."""
        if layer in self._pushed:
            raise ContractViolation(f"layer {layer} already pushed")
        if not 0 <= layer < self.n_layers:
            raise ContractViolation(f"layer {layer} outside 0..{self.n_layers - 1}")
        self._pushed.add(layer)
        heapq.heappush(self._heap, (-float(ratio), -layer))
        if len(self._heap) > self.capacity:
            _, neg_layer = heapq.heappop(self._heap)
            popped = -neg_layer
            self.lazy_layers.append(popped)
            return popped
        return None

    def finalize(self) -> Tuple[List[int], List[int]]:
        """After all layers are pushed: (full-attention set, lazy set)."""
        if len(self._pushed) != self.n_layers:
            raise ContractViolation(
                f"finalize called after {len(self._pushed)} of "
                f"{self.n_layers} layers"
            )
        full = sorted(-i for (_, i) in self._heap)
        return full, sorted(self.lazy_layers)


@dataclass
class LazyRatioReport:
    """Per-layer detection results from one prefill pass."""

    ratios: List[float]
    log_ratios: List[np.ndarray] = field(default_factory=list)  # (H, w_last) per layer
    lazy_layers: List[int] = field(default_factory=list)
    full_layers: List[int] = field(default_factory=list)
    w_last: int = 0
    w_sink: int = 0
    w_recent: int = 0

    def to_dict(self) -> dict:
        return {
            "ratios": [float(r) for r in self.ratios],
            "per_head_log_ratios": [np.asarray(lr).tolist() for lr in self.log_ratios],
            "lazy_layers": list(self.lazy_layers),
            "full_layers": list(self.full_layers),
            "w_last": self.w_last,
            "w_sink": self.w_sink,
            "w_recent": self.w_recent,
        }
