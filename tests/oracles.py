"""Reference implementations that only the tests use.

Each one states a quantity from its definition, the slow way, for the
package's fast paths to be checked against.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from lazykv.errors import ContractViolation, InputError
from lazykv.kvcache import kept_positions_for
from lazykv.lazydetect import DetectParams, lse_log_ratios
from lazykv.model import block_forward, ffn_forward, forward_full, ln, project_qkv
from lazykv.numerics import (
    _as_matrix,
    _masked_max_and_expsum,
    frobenius_norm,
    masked_row_softmax,
    row_2inf_norm,
    visible,
)
from lazykv.theory import ErrorTrace, _check_window, _require_theory_config, discarded_mass


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


def streaming_allowed_sets(n: int, w_sink: int, w_recent: int) -> List[np.ndarray]:
    """Per-row allowed sets of streaming attention over n positions."""
    return [kept_positions_for(i + 1, w_sink, w_recent) for i in range(n)]


def masked_block_forward(x_prev, layer: int, weights, mask: MaskSpec, config) -> np.ndarray:
    """One residual block whose attention row i sees only ``mask``'s allowed
    set, for masks that are no single window (prompt rows causal, decode
    rows windowed). The per-head arithmetic of ``model.block_forward``.
    Returns the block output."""
    x_norm = ln(x_prev, config.ln_mode)
    q, k = project_qkv(x_norm, weights, layer)
    v = np.matmul(x_norm, weights.w_v[layer])
    allowed = mask.bool_matrix(len(x_prev), len(x_prev))
    attn = 0.0
    for q_h, k_h, v_h in zip(q, k, v):
        attn = attn + masked_row_softmax((q_h @ k_h.T) * config.score_scale, allowed) @ v_h
    y = x_prev + attn
    return y + ffn_forward(ln(y, config.ln_mode), weights, layer, config)


def masked_row_logsumexp(scores, mask: MaskSpec) -> np.ndarray:
    """Per-row log(sum(exp(score))) over allowed positions, max-stabilized."""
    expd = _as_matrix(scores, "scores").copy()
    row_max, sums = _masked_max_and_expsum(expd, mask.bool_matrix(*expd.shape))
    return row_max + np.log(sums)


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
        kept = kept_positions_for(q + 1, params.w_sink, params.w_recent)
        masses.append(mean_heads[q, kept].sum())
    return float(np.mean(masses))


def lazy_ratio_lse(q_last, keys, lse, params: DetectParams, scale: float = 1.0) -> float:
    """Kept-set mass via the log-sum-exp shortcut; equals the brute force."""
    return float(np.exp(lse_log_ratios(q_last, keys, lse, params, scale)).mean())


def score_bound(q, k, scale: float) -> float:
    """Cauchy-Schwarz bound on every scaled score of head-stacked q and k:
    |scale| times the largest, over heads, of the largest query norm times
    the largest key norm, inflated by 1e-9 against rounding."""
    per_head = np.linalg.norm(q, axis=2).max(axis=1) * np.linalg.norm(k, axis=2).max(axis=1)
    return abs(scale) * float(per_head.max()) * (1 + 1e-9)


def frozen_attend(q, k, scale: float, q_pos=None, k_pos=None, v=None, keep=None, shifted=True):
    """The arithmetic of ``numerics.attend``, over one full mask.

    Scores are formed from scaled queries. With ``shifted``, each row loses
    its max over visible entries, and masked entries are clamped to 0 so
    that their exp cannot overflow; without, the raw scores are
    exponentiated and the lse is the log of the sums alone. A mask multiply
    zeroes masked entries, and the unnormalized weights of all heads go over
    the shared rows ``v`` as one ``(H * n_q, n_k)`` product, divided by the
    row sums. ``attend`` masks only the columns after the keys older than
    every query; masking those too changes no bit, as they are visible to
    every row, so the clamp and the multiply by 1 leave them as they are.
    Returns ``(out or None, lse)``.
    """
    if scale != 1.0:
        q = q * scale
    scores = np.matmul(q, k.transpose(0, 2, 1))
    allowed = True if q_pos is None else visible(q_pos, k_pos, keep)
    row_max = 0.0
    if shifted:
        row_max = scores.max(axis=2, where=allowed, initial=-np.inf)
        scores -= row_max[:, :, None]
        np.minimum(scores, 0.0, out=scores)
    np.exp(scores, out=scores)
    scores *= allowed
    sums = scores.sum(axis=2)
    lse = row_max + np.log(sums)
    if v is None:
        return None, lse
    n_heads, n_q, n_k = scores.shape
    out = (scores.reshape(n_heads * n_q, n_k) @ v).reshape(n_heads, n_q, -1)
    return out / sums[:, :, None], lse


def _causal_tile(q, k, x, w_v, scale: float, r0: int, shifted: bool = False):
    """Causal attention for the query rows at positions r0 .. r0+t-1,
    summed over heads.

    ``q`` is (H, t, d_head) and ``k`` (H, >= r0+t, d_head); ``x`` holds at
    least the shared input rows of positions 0 .. r0+t-1 and ``w_v`` is the
    (H, d_model, d_value) value stack. The tile attends, in the arithmetic
    of ``frozen_attend``, to the keys up to its own end, raw or, with
    ``shifted`` (the fallback for scores past ``numerics.SAFE_SCORE``),
    max-shifted. The heads, side by side, then meet W_V in one product.
    Returns ``(out (t, d_value), lse (H, t))``.
    """
    t = q.shape[1]
    r1 = r0 + t
    pos = np.arange(r1)
    weighted, lse = frozen_attend(q, k[:, :r1], scale, pos[r0:], pos, x[:r1], shifted=shifted)
    # The heads side by side by a transpose, not a concatenation: at d_model
    # 1 the transpose is a strided view, and BLAS sums a strided operand of
    # the W_V product in another order than a contiguous one.
    side_by_side = weighted.transpose(1, 0, 2).reshape(t, -1)
    return side_by_side @ w_v.reshape(-1, w_v.shape[2]), lse


def ln_clip_where(x) -> np.ndarray:
    """Clip normalization with an explicit branch: rows of Euclidean norm
    above 1 are divided by it, every other row is left as it is."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    norms = np.sqrt(np.sum(rows * rows, axis=1, keepdims=True))
    factor = np.where(norms > 1.0, 1.0 / np.maximum(norms, 1e-300), 1.0)
    out = rows * factor
    return out[0] if single else out


def model_blob(config, weights) -> bytes:
    """A model file's weight blob, one matrix at a time in file order:
    embedding; per layer, per head W_Q, W_K, W_V, then W_ff1 and W_ff2;
    unembedding; each row-major little-endian float64."""

    def matrices():
        yield weights.embedding
        for layer in range(config.n_layers):
            for h in range(config.n_heads):
                yield weights.w_q[layer, h]
                yield weights.w_k[layer, h]
                yield weights.w_v[layer, h]
            yield weights.w_ff1[layer]
            yield weights.w_ff2[layer]
        yield weights.unembed

    return b"".join(np.ascontiguousarray(m, dtype="<f8").tobytes() for m in matrices())


def run_pair_every_layer(
    weights,
    config,
    tokens,
    lazy_layers: Sequence[int],
    keep: Tuple[int, int],
) -> ErrorTrace:
    """``theory.run_pair`` with the reduced network rebuilt from the
    embedding up: every layer runs, and every error is measured."""
    _require_theory_config(config)
    _check_window(keep)
    lazy = sorted(set(int(i) for i in lazy_layers))
    if lazy and (lazy[0] < 0 or lazy[-1] >= config.n_layers):
        raise InputError(f"lazy layers {lazy} outside 0..{config.n_layers - 1}")
    original = forward_full(tokens, weights, config)

    x_mod = original.xs[0]
    hidden_errors = [0.0]
    discarded: Dict[int, float] = {}
    for layer in range(config.n_layers):
        window = keep if layer in lazy else None
        _, x_mod = block_forward(x_mod, layer, weights, config, window)
        hidden_errors.append(row_2inf_norm(original.xs[layer + 1] - x_mod))
        if layer in lazy:
            discarded[layer] = discarded_mass(original.xs[layer], weights, layer, keep, config)
    logits_mod = x_mod @ weights.unembed
    logit_error = row_2inf_norm(original.logits - logits_mod)

    # Unembedding transcription check: the logit error can never exceed the
    # final hidden error scaled by the unembedding norm.
    cap = frobenius_norm(weights.unembed) * hidden_errors[-1]
    if logit_error > cap + 1e-9:
        raise ContractViolation(
            f"logit error {logit_error} exceeds unembedding cap {cap}"
        )
    return ErrorTrace(
        hidden_errors=hidden_errors, discarded=discarded, logit_error=logit_error
    )
