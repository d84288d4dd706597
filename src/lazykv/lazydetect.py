"""Lazy-attention detection: per-layer kept-mass ratios and layer selection.

A layer's lazy ratio is the attention mass that its last ``w_last`` query
rows place on the streaming retention set (sinks plus the recent window,
measured relative to each query), averaged over heads and query rows. It
is computed with the log-sum-exp shortcut: per head and query, the kept
mass equals ``exp(logsumexp(kept scores) - logsumexp(all causal scores))``.
The second term is read from the prefill attention pass; the first comes
from one ``numerics.attend`` call with the retention window as its
``keep`` predicate, over a gathered block of the sink and window columns,
so only a small constant-size score block is formed. The tests check it
against the brute-force sum over explicit causal softmax weights.

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
from typing import List, Optional, Tuple

import numpy as np

from .errors import INT64_MAX, ContractViolation, InputError
from .kvcache import kept_positions_for
from .numerics import attend

__all__ = [
    "DetectParams",
    "LazyRatioReport",
    "IdentifierState",
    "lse_log_ratios",
]


@dataclass(frozen=True)
class DetectParams:
    w_last: int = 32
    w_sink: int = 4
    w_recent: int = 1020
    n_full: int = 0  # layers that keep full attention

    def __post_init__(self):
        for name, low in (("w_last", 1), ("w_sink", 0), ("w_recent", 1), ("n_full", 0)):
            if getattr(self, name) < low:
                raise InputError(f"{name} must be >= {low}")
        for name in ("w_sink", "w_recent"):
            if getattr(self, name) > INT64_MAX:
                raise InputError(f"{name} must be <= 2**63 - 1")


def lse_log_ratios(
    q_last: np.ndarray,
    keys: np.ndarray,
    lse: np.ndarray,
    params: DetectParams,
    scale: float = 1.0,
) -> np.ndarray:
    """Per-head, per-query log of the kept-set attention mass, ``(H, m)``.

    ``q_last`` is ``(H, m, d_key)``, the last m query rows; ``keys`` is
    ``(H, n, d_key)``, all key rows; ``lse`` is ``(H, m)``, the full causal
    per-row log-sum-exp of those same query rows under the same score
    scaling. The kept-set scores come from one gathered (H, m, U) block over
    the union U of the rows' retention sets, each row masked to its own set.
    """
    if q_last.ndim != 3 or keys.ndim != 3 or lse.shape != q_last.shape[:2]:
        raise ContractViolation(
            f"expected (H, m, d) query rows, (H, n, d) keys and (H, m) lse; got "
            f"{q_last.shape}, {keys.shape} and {lse.shape}"
        )
    m, n = q_last.shape[1], keys.shape[1]
    # Every column some trailing query keeps: the sinks plus the recent
    # window of the first of those queries stretched to the last one.
    cols = kept_positions_for(n, params.w_sink, params.w_recent + m - 1)
    q_pos = np.arange(n - m, n, dtype=np.int64)
    _, kept = attend(
        q_last, keys[:, cols], scale, q_pos, cols, keep=(params.w_sink, params.w_recent)
    )
    log_ratios = kept - lse
    # A row below w_sink + w_recent keeps its whole causal set, but its two
    # lse may sum the same scores in different tiles: its ratio is exactly 1.
    log_ratios[:, q_pos < min(params.w_sink + params.w_recent, n)] = 0.0
    return log_ratios


class IdentifierState:
    """Bounded max-priority queue over (lazy ratio, layer index) pairs.

    Pops return the laziest layer seen so far once capacity is exceeded;
    equal ratios pop the deeper layer first, which makes selection
    deterministic. It is the package's one layer ranking: ``preselect`` and
    ``analyze`` push corpus counts and decode-step masses through it too.
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
