"""Dense float64 linear algebra and masked softmax primitives.

Matrices are plain 2-D ``numpy.ndarray`` objects in float64, row-major
(C order). Every exported operation is pure and deterministic: same inputs
give bit-identical outputs. Masked positions are never fed through
arithmetic as ``-inf``; they are excluded from the max-subtraction pass and
produced as exact zeros, so no NaNs can leak out of a softmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ContractViolation

__all__ = [
    "MaskSpec",
    "matmul",
    "masked_row_softmax",
    "masked_row_logsumexp",
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
        rows = tuple(
            np.unique(np.asarray(s, dtype=np.int64)) for s in allowed_sets
        )
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
            out = np.zeros((n_rows, n_cols), dtype=bool)
            for i, idx in enumerate(self.allowed):
                if idx.size == 0:
                    raise ContractViolation(f"row {i} has an empty allowed set")
                if idx.min() < 0 or idx.max() >= n_cols:
                    raise ContractViolation(
                        f"row {i} allowed indices out of range for {n_cols} columns"
                    )
                out[i, idx] = True
            return out
        raise ContractViolation(f"unknown mask kind {self.kind!r}")


def matmul(a, b) -> np.ndarray:
    """Standard matrix product with an explicit dimension check."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ContractViolation(
            f"inner dimensions differ: {a.shape} x {b.shape}"
        )
    return a @ b


def _masked_max_and_expsum(scores: np.ndarray, allowed: np.ndarray):
    """Masked row max, masked exp and row sums over the last axis.

    ``allowed`` broadcasts against ``scores``, so one (rows, cols) mask can
    serve a head-stacked (H, rows, cols) score block.
    """
    if not allowed.any(axis=-1).all():
        bad = int(np.flatnonzero(~allowed.any(axis=-1))[0])
        raise ContractViolation(f"score row {bad} has no allowed positions")
    row_max = scores.max(axis=-1, where=allowed, initial=-np.inf)
    shifted = scores - row_max[..., None]
    # Allowed entries are <= 0 after max-subtraction, so clamping touches
    # only masked ones; it stops their exp from overflowing before the mask
    # multiply zeroes them out exactly. Keeps the fast vectorized exp.
    np.minimum(shifted, 0.0, out=shifted)
    expd = np.exp(shifted)
    expd *= allowed
    return row_max, expd, expd.sum(axis=-1)


def masked_row_softmax(scores, mask: MaskSpec) -> np.ndarray:
    """Row-wise softmax restricted to the mask's allowed positions.

    Each row sums to 1 over its allowed set; disallowed positions are exact
    zeros. Stabilized by subtracting the per-row max over allowed entries.
    """
    scores = _as_matrix(scores, "scores")
    allowed = mask.bool_matrix(*scores.shape)
    _, expd, sums = _masked_max_and_expsum(scores, allowed)
    return expd / sums[:, None]


def masked_row_logsumexp(scores, mask: MaskSpec) -> np.ndarray:
    """Per-row log(sum(exp(score))) over allowed positions, max-stabilized."""
    scores = _as_matrix(scores, "scores")
    allowed = mask.bool_matrix(*scores.shape)
    row_max, _, sums = _masked_max_and_expsum(scores, allowed)
    return row_max + np.log(sums)


def frobenius_norm(m) -> float:
    m = _as_matrix(m)
    return float(np.sqrt(np.sum(m * m)))


def row_2inf_norm(m) -> float:
    """Max over rows of the row's Euclidean norm."""
    m = _as_matrix(m)
    if m.shape[0] == 0:
        return 0.0
    return float(np.sqrt(np.sum(m * m, axis=1)).max())
