"""Dense float64 masked softmax primitives and the attention kernel.

Matrices are plain ``numpy.ndarray`` objects in float64, row-major (C
order). Every exported operation is pure and deterministic: same inputs
give bit-identical outputs. Masked positions are never fed through
arithmetic as ``-inf``; they are excluded from the max-subtraction pass and
produced as exact zeros, so no NaNs can leak out of a softmax.

* ``attend`` is the one attention kernel: head-stacked queries over
  head-stacked keys, with visibility a predicate on positions (key j is
  seen by query i iff ``k_pos[j] <= q_pos[i]``, optionally narrowed to the
  sink-plus-recent window of StreamingLLM). Prefill tiles, detection, decode
  and the decode mass probe all call it.
* ``masked_row_softmax`` takes an explicit ``MaskSpec`` instead; the bound
  checker and the short-prompt per-head path use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolation

__all__ = [
    "MaskSpec",
    "attend",
    "masked_row_softmax",
    "frobenius_norm",
    "row_2inf_norm",
]


def _as_matrix(x, name: str = "matrix") -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ContractViolation(f"{name} must be 2-D, got shape {m.shape}")
    return np.ascontiguousarray(m)


@dataclass(frozen=True)
class MaskSpec:
    """Which key positions each score row may attend to.

    Two kinds:
      * ``causal``: row i sees columns 0..i (square score matrices only).
      * ``lazy_set``: an explicit allowed-index set per row. Sets must be
        non-empty and in column range. When such a mask stands in for causal
        self-attention, the builder is responsible for keeping each row's set
        inside 0..i; the kernels here only require valid column indices.
    """

    kind: str  # "causal" | "lazy_set"
    allowed: Optional[tuple] = None  # per-row index arrays for lazy_set

    @classmethod
    def causal(cls) -> "MaskSpec":
        return cls(kind="causal")

    @classmethod
    def lazy_set(cls, allowed_sets: Sequence[Sequence[int]]) -> "MaskSpec":
        # Built from a list: tuple() of a generator resizes its result, and the
        # freed tuples then pile up (2000 per length) in CPython's free list.
        rows = tuple([np.unique(np.asarray(s, dtype=np.int64)) for s in allowed_sets])
        return cls(kind="lazy_set", allowed=rows)

    def bool_matrix(self, n_rows: int, n_cols: int) -> np.ndarray:
        """Materialize the mask as a boolean allowed matrix."""
        if self.kind == "causal":
            if n_rows != n_cols:
                raise ContractViolation(
                    f"causal mask needs square scores, got {n_rows}x{n_cols}"
                )
            return np.tril(np.ones((n_rows, n_cols), dtype=bool))
        if self.kind == "lazy_set":
            if self.allowed is None or len(self.allowed) != n_rows:
                raise ContractViolation(
                    "lazy_set mask must provide one allowed set per score row"
                )
            sizes = np.fromiter(map(len, self.allowed), np.int64, count=n_rows)
            rows = np.repeat(np.arange(n_rows), sizes)
            cols = np.concatenate((np.empty(0, np.int64),) + self.allowed)
            bad = np.r_[np.flatnonzero(sizes == 0), rows[(cols < 0) | (cols >= n_cols)]]
            if bad.size:
                i = int(bad.min())
                raise ContractViolation(
                    f"row {i} has an empty allowed set" if sizes[i] == 0
                    else f"row {i} allowed indices out of range for {n_cols} columns"
                )
            out = np.zeros((n_rows, n_cols), dtype=bool)
            out[rows, cols] = True
            return out
        raise ContractViolation(f"unknown mask kind {self.kind!r}")


def _masked_max_and_expsum(scores: np.ndarray, allowed=None, lead: int = 0):
    """In place over the last axis of ``scores``: subtract the row max over
    visible entries, exponentiate, zero the masked ones. Returns ``(row_max,
    row sums)``; the sum runs over the whole row, masked zeros included.

    Columns before ``lead`` are visible to every row and skip the mask;
    ``allowed`` masks the columns from ``lead`` on and broadcasts against
    them, so one (rows, cols) mask can serve a head-stacked (H, rows, cols)
    score block. Without ``allowed`` every column is visible.
    """
    if allowed is None:
        row_max = scores.max(axis=-1)
        scores -= row_max[..., None]
        np.exp(scores, out=scores)
        return row_max, scores.sum(axis=-1)
    if not lead and not allowed.any(axis=-1).all():
        bad = int(np.flatnonzero(~allowed.any(axis=-1))[0])
        raise ContractViolation(f"score row {bad} has no allowed positions")
    tail = scores[..., lead:]
    row_max = tail.max(axis=-1, where=allowed, initial=-np.inf)
    if lead:
        np.maximum(row_max, scores[..., :lead].max(axis=-1), out=row_max)
    scores -= row_max[..., None]
    # Allowed entries are <= 0 after max-subtraction, so clamping touches
    # only masked ones; it stops their exp from overflowing before the mask
    # multiply zeroes them out exactly. Keeps the fast vectorized exp.
    np.minimum(tail, 0.0, out=tail)
    np.exp(scores, out=scores)
    tail *= allowed
    return row_max, scores.sum(axis=-1)


def attend(q, k, scale: float, q_pos=None, k_pos=None, v=None, keep=None):
    """Softmax attention of head-stacked queries ``(H, n_q, d)`` over keys
    ``(H, n_k, d)``, scores multiplied by ``scale``.

    Query i sees key j iff ``k_pos[j] <= q_pos[i]``; ``q_pos=None`` means
    every key is visible. ``keep=(w_sink, w_recent)`` narrows that to the
    sinks (``k_pos < w_sink``) plus the ``w_recent`` positions ending at the
    query. Keys may come in any order, ring storage order included. Only the
    columns after the leading run of keys older than every query are masked,
    so on a causal prefill tile just its diagonal block is; with ``keep``
    every column is.

    ``v`` is ``(H, n_k, d_v)``, or one ``(n_k, d_model)`` block of rows that
    all heads share, weighted as one ``(H * n_q, n_k)`` GEMM. Returns ``(out
    (H, n_q, d_v or d_model) or None when ``v`` is None, lse (H, n_q))``, the
    log-sum-exp of every row's visible scores.
    """
    if q.ndim != 3 or k.ndim != 3 or q.shape[::2] != k.shape[::2] or not k.shape[1]:
        raise ContractViolation(
            f"expected head-stacked queries and at least one key row, of equal "
            f"heads and width; got {q.shape} and {k.shape}"
        )
    n_heads, n_q, _ = q.shape
    n_k = k.shape[1]
    if v is not None and v.shape[:-1] not in ((n_k,), (n_heads, n_k)):
        raise ContractViolation(f"values of shape {v.shape} do not match keys {k.shape}")
    scores = np.matmul(q, k.transpose(0, 2, 1))
    if scale != 1.0:
        scores *= scale
    if q_pos is None:
        if keep is not None:
            raise ContractViolation("a retention window needs query positions")
        row_max, sums = _masked_max_and_expsum(scores)
    else:
        if q_pos.shape != (n_q,) or k_pos.shape != (n_k,):
            raise ContractViolation(
                f"expected {n_q} query and {n_k} key positions, got "
                f"{q_pos.shape} and {k_pos.shape}"
            )
        lead = 0
        if keep is None:
            older = k_pos < q_pos.min()
            lead = n_k if older.all() else int(older.argmin())
        tail, q_col = k_pos[lead:], q_pos[:, None]
        allowed = tail <= q_col
        if keep is not None:
            allowed &= (tail < keep[0]) | (tail > q_col - keep[1])
        row_max, sums = _masked_max_and_expsum(scores, allowed, lead)
    lse = row_max + np.log(sums)
    if v is None:
        return None, lse
    if v.ndim == 2:
        out = (scores.reshape(n_heads * n_q, n_k) @ v).reshape(n_heads, n_q, -1)
    else:
        out = np.matmul(scores, v)
    out /= sums[..., None]
    return out, lse


def masked_row_softmax(scores, mask: MaskSpec) -> np.ndarray:
    """Row-wise softmax restricted to the mask's allowed positions.

    Each row sums to 1 over its allowed set; disallowed positions are exact
    zeros. Stabilized by subtracting the per-row max over allowed entries.
    """
    expd = _as_matrix(scores, "scores").copy()
    _, sums = _masked_max_and_expsum(expd, mask.bool_matrix(*expd.shape))
    return expd / sums[:, None]


def frobenius_norm(m) -> float:
    m = _as_matrix(m)
    return float(np.sqrt(np.sum(m * m)))


def row_2inf_norm(m) -> float:
    """Max over rows of the row's Euclidean norm."""
    m = _as_matrix(m)
    if m.shape[0] == 0:
        return 0.0
    return float(np.sqrt(np.sum(m * m, axis=1)).max())
