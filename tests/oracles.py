"""Reference implementations that only the tests use.

Each one states a quantity from its definition, the slow way, for the
package's fast paths to be checked against.
"""

import numpy as np

from lazykv.errors import InputError
from lazykv.kvcache import kept_positions_for
from lazykv.lazydetect import DetectParams, lse_log_ratios
from lazykv.numerics import MaskSpec, _as_matrix, _masked_max_and_expsum


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


def _causal_tile(q, k, v, scale: float, r0: int):
    """Causal attention for the query rows at positions r0 .. r0+t-1.

    ``q`` is (H, t, d_head); ``k`` and ``v`` hold at least the rows for
    positions 0 .. r0+t-1, head-stacked, and ``v`` may be None when only the
    log-sum-exp is wanted. Scores are formed only against those keys, and
    only the trailing (t, t) diagonal block needs masking: a masked entry is
    left out of the max, clamped so its exp cannot overflow, and zeroed by
    the mask multiply. Returns ``(out (H, t, d_value) or None, lse (H, t))``.
    """
    t = q.shape[1]
    r1 = r0 + t
    scores = np.matmul(q, k[:, :r1].transpose(0, 2, 1))
    if scale != 1.0:
        scores *= scale
    diag = scores[:, :, r0:]
    tril = np.tri(t, dtype=bool)
    row_max = diag.max(axis=2, where=tril, initial=-np.inf)
    if r0 > 0:
        np.maximum(row_max, scores[:, :, :r0].max(axis=2), out=row_max)
    scores -= row_max[:, :, None]
    np.minimum(diag, 0.0, out=diag)
    np.exp(scores, out=scores)
    diag *= tril
    sums = scores.sum(axis=2)
    lse = row_max + np.log(sums)
    if v is None:
        return None, lse
    out = np.matmul(scores, v[:, :r1])
    out /= sums[:, :, None]
    return out, lse
