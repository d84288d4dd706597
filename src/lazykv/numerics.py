"""Dense float64 masked softmax primitives and the attention kernel.

Matrices are plain ``numpy.ndarray`` objects in float64, row-major (C
order). Every exported operation is pure and deterministic: same inputs
give bit-identical outputs. Masked positions are never fed through
arithmetic as ``-inf``; they are left out of the row max and produced as
exact zeros by a mask multiply, so no NaNs can leak out of a softmax.

The shift subtracted before ``exp`` is that row max, or 0 when the caller
of ``attend`` bounds every score of the call, masked ones included, by
``SAFE_SCORE`` (300) in magnitude. ``exp`` of such a score is a normal
float in [5e-131, 2e130], so no masked entry overflows before the multiply
zeroes it, every visible weight keeps full relative precision, and a row
of fewer than 2**63 terms sums to a finite value above 0. Skipping the
shift saves the max and subtract passes over the score block; the prefill
kernel ``model._causal_attention`` is the only caller that gives a bound.

* ``visible`` is the program's one mask: a predicate on positions (key j
  is seen by query i iff ``k_pos[j] <= q_pos[i]``, optionally narrowed to
  the sink-plus-recent window of StreamingLLM, Xiao et al. 2023).
* ``attend`` is the one attention kernel: head-stacked queries over
  head-stacked keys, masked by ``visible``, weighting value rows that all
  heads share. Prefill tiles, detection, decode and ``analyze``'s kept
  masses all call it.
* ``masked_row_softmax`` takes one ``visible`` matrix per score matrix; the
  short-prompt and bound-checker per-head path uses it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

__all__ = [
    "SAFE_SCORE",
    "attend",
    "visible",
    "masked_row_softmax",
    "frobenius_norm",
    "row_2inf_norm",
]


# Largest score magnitude ``attend`` exponentiates without the max shift.
SAFE_SCORE = 300.0


def _as_matrix(x, name: str = "matrix") -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ContractViolation(f"{name} must be 2-D, got shape {m.shape}")
    return np.ascontiguousarray(m)


def visible(q_pos, k_pos, keep=None) -> np.ndarray:
    """Boolean ``(n_q, n_k)`` mask: key j is visible to query i iff
    ``k_pos[j] <= q_pos[i]``. ``keep=(w_sink, w_recent)`` narrows that to
    the StreamingLLM window, the sinks (``k_pos < w_sink``) plus the
    ``w_recent`` positions ending at the query."""
    q_col = q_pos[:, None]
    allowed = k_pos <= q_col
    if keep is not None:
        allowed &= (k_pos < keep[0]) | (k_pos > q_col - keep[1])
    return allowed


def _masked_max_and_expsum(scores: np.ndarray, allowed=None, lead: int = 0, shift=True):
    """In place over the last axis of ``scores``: subtract the row max over
    visible entries, exponentiate, zero the masked ones. Returns ``(row_max,
    row sums)``; the sum runs over the whole row, masked zeros included.

    Columns before ``lead`` are visible to every row and skip the mask;
    ``allowed`` masks the columns from ``lead`` on and broadcasts against
    them, so one (rows, cols) mask can serve a head-stacked (H, rows, cols)
    score block. Without ``allowed`` every column is visible.

    ``shift=False`` exponentiates the raw scores and returns a row max of
    0.0; the caller vouches that no score exceeds ``SAFE_SCORE`` in
    magnitude.
    """
    if allowed is not None and not lead and not allowed.any(axis=-1).all():
        bad = int(np.flatnonzero(~allowed.any(axis=-1))[0])
        raise ContractViolation(f"score row {bad} has no allowed positions")
    if not shift:
        np.exp(scores, out=scores)
        if allowed is not None:
            scores[..., lead:] *= allowed
        return 0.0, scores.sum(axis=-1)
    if allowed is None:
        row_max = scores.max(axis=-1)
        scores -= row_max[..., None]
        np.exp(scores, out=scores)
        return row_max, scores.sum(axis=-1)
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


def attend(q, k, scale: float, q_pos=None, k_pos=None, v=None, keep=None, bound=None):
    """Softmax attention of head-stacked queries ``(H, n_q, d)`` over keys
    ``(H, n_k, d)``, the queries multiplied by ``scale`` before scoring.

    Query i sees key j iff ``visible(q_pos, k_pos, keep)`` holds there;
    ``q_pos=None`` means every key is visible. Keys may come in any order,
    ring storage order included. Only the columns after the leading run of
    keys older than every query are masked, so on a causal prefill tile just
    its diagonal block is; with ``keep`` every column is.

    ``v`` is one ``(n_k, d_v)`` block of rows that all heads share, weighted
    as one ``(H * n_q, n_k)`` GEMM. Returns ``(out (H, n_q, d_v) or None when
    ``v`` is None, lse (H, n_q))``, the log-sum-exp of every row's visible
    scores.

    ``bound``, if given, is an upper bound on the magnitude of every scaled
    score of the call, masked ones included. At most ``SAFE_SCORE``, it lets
    the raw scores be exponentiated, unshifted, so the max and subtract
    passes are skipped; otherwise every row is shifted by its visible max.
    """
    if q.ndim != 3 or k.ndim != 3 or q.shape[::2] != k.shape[::2] or not k.shape[1]:
        raise ContractViolation(
            f"expected head-stacked queries and at least one key row, of equal "
            f"heads and width; got {q.shape} and {k.shape}"
        )
    n_heads, n_q, _ = q.shape
    n_k = k.shape[1]
    if v is not None and (v.ndim != 2 or v.shape[0] != n_k):
        raise ContractViolation(f"values of shape {v.shape} do not match keys {k.shape}")
    if scale != 1.0:
        q = q * scale
    scores = np.matmul(q, k.transpose(0, 2, 1))
    shift = bound is None or not bound <= SAFE_SCORE
    if q_pos is None:
        if keep is not None:
            raise ContractViolation("a retention window needs query positions")
        row_max, sums = _masked_max_and_expsum(scores, shift=shift)
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
        allowed = visible(q_pos, k_pos[lead:], keep)
        row_max, sums = _masked_max_and_expsum(scores, allowed, lead, shift)
    lse = row_max + np.log(sums)
    if v is None:
        return None, lse
    out = (scores.reshape(n_heads * n_q, n_k) @ v).reshape(n_heads, n_q, -1)
    out /= sums[..., None]
    return out, lse


def masked_row_softmax(scores, allowed: np.ndarray) -> np.ndarray:
    """Row-wise softmax restricted to the ``True`` entries of the boolean
    ``allowed`` matrix, which has the shape of ``scores``.

    Each row sums to 1 over its allowed entries; disallowed positions are
    exact zeros. Stabilized by subtracting the per-row max over allowed
    entries.
    """
    expd = _as_matrix(scores, "scores").copy()
    if allowed.shape != expd.shape:
        raise ContractViolation(
            f"mask of shape {allowed.shape} does not match scores {expd.shape}"
        )
    _, sums = _masked_max_and_expsum(expd, allowed)
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
