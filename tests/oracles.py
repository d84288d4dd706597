"""Reference implementations that only the tests use.

Each one states a quantity from its definition, the slow way, for the
package's fast paths to be checked against.
"""

import numpy as np

from lazykv.errors import InputError
from lazykv.lazydetect import DetectParams, kept_query_positions, lse_log_ratios
from lazykv.numerics import MaskSpec, _as_matrix, _masked_max_and_expsum


def masked_row_logsumexp(scores, mask: MaskSpec) -> np.ndarray:
    """Per-row log(sum(exp(score))) over allowed positions, max-stabilized."""
    scores = _as_matrix(scores, "scores")
    allowed = mask.bool_matrix(*scores.shape)
    row_max, _, sums = _masked_max_and_expsum(scores, allowed)
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
        kept = kept_query_positions(q, params.w_sink, params.w_recent)
        masses.append(mean_heads[q, kept].sum())
    return float(np.mean(masses))


def lazy_ratio_lse(q_last, keys, lse, params: DetectParams, scale: float = 1.0) -> float:
    """Kept-set mass via the log-sum-exp shortcut; equals the brute force."""
    return float(np.exp(lse_log_ratios(q_last, keys, lse, params, scale)).mean())
