"""Numerical checks of the cache-reduction error bounds.

Runs two complete masked forward passes (no cache machinery): the original
network under the causal mask, and a modified one whose designated layers
attend only to a per-row allowed set. From the pair it measures the
hidden-state error at every layer, the discarded attention mass at each
modified layer, and the final logit error, then verifies that the proved
recursive and logit bounds hold with nonnegative margin.

A layer's discarded mass is one masked reduction over an (H, n, n) block of
all heads' causal softmax. The forward passes stay on the per-head path, so
causal and explicit ``lazy_set`` masks give bit-identical outputs.

These inequalities are theorems for the clip-norm, unscaled-score model, so
any negative margin beyond float tolerance is an implementation bug, not an
interesting finding. Checks are run at small parameter norms (B around 1)
where the bounds are non-vacuous; for large B the right-hand sides explode
and the comparison says nothing.

Also hosts brute-force oracles for the four supporting inequalities the
bounds are assembled from (softmax l1-Lipschitz continuity, operator-norm
bounds for matrix-vector products, attention Lipschitz continuity, and the
key-value truncation error bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .errors import ContractViolation, InputError
from .kvcache import kept_positions_for
from .model import (
    ModelConfig,
    Weights,
    block_forward,
    forward_full,
    ln,
    mha_forward,
    param_norm_bound,
    random_init,
)
from .numerics import MaskSpec, _masked_max_and_expsum, frobenius_norm, row_2inf_norm
from .numerics import masked_row_softmax  # noqa: F401  (perfbench/lktrace.py wraps it)

__all__ = [
    "TheoremConstants",
    "ErrorTrace",
    "discarded_mass",
    "run_pair",
    "check_recursive_bound",
    "check_logit_bound",
    "lemma_oracles",
    "verify_theorem",
    "streaming_allowed_sets",
]

MARGIN_TOL = -1e-9


def _require_theory_config(config: ModelConfig) -> None:
    if config.ln_mode != "clip" or config.logit_scaling != "none":
        raise ContractViolation(
            "bound checks are stated for ln_mode='clip' with logit_scaling="
            f"'none'; got {config.ln_mode!r}/{config.logit_scaling!r}"
        )


@dataclass(frozen=True)
class TheoremConstants:
    """Derived coefficients of the error bounds for one network."""

    b: float  # max parameter Frobenius norm
    n_heads: int
    n_layers: int
    lipschitz: float

    @classmethod
    def from_model(cls, weights: Weights, config: ModelConfig) -> "TheoremConstants":
        return cls(
            b=param_norm_bound(weights),
            n_heads=config.n_heads,
            n_layers=config.n_layers,
            lipschitz=config.lipschitz,
        )

    @property
    def step_gain(self) -> float:
        b, h, lip = self.b, self.n_heads, self.lipschitz
        return h * b + lip * b**2 + 4 * h * b**3

    @property
    def amplification(self) -> float:
        b, h = self.b, self.n_heads
        return 1.0 + h * b * (1.0 + 4 * b**2)

    @property
    def fresh_mass_gain(self) -> float:
        b, h, lip = self.b, self.n_heads, self.lipschitz
        return 2 * h * (b + lip * b**3)

    @property
    def logit_offset(self) -> float:
        b, h, lip, L = self.b, self.n_heads, self.lipschitz, self.n_layers
        return 2 * L * b**2 * (h + lip * b + 4 * h * b**2)

    @property
    def logit_mass_gain(self) -> float:
        b, h, lip = self.b, self.n_heads, self.lipschitz
        return 2 * h * b**2 * (1.0 + lip * b**2)

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "n_heads": self.n_heads,
            "n_layers": self.n_layers,
            "lipschitz": self.lipschitz,
            "step_gain": self.step_gain,
            "amplification": self.amplification,
            "fresh_mass_gain": self.fresh_mass_gain,
            "logit_offset": self.logit_offset,
            "logit_mass_gain": self.logit_mass_gain,
        }


@dataclass
class ErrorTrace:
    """Measured divergence between the original and reduced-mask networks."""

    hidden_errors: List[float]  # index 0..L, entry 0 always 0
    discarded: Dict[int, float]  # layer -> max head-averaged discarded mass
    logit_error: float


def streaming_allowed_sets(n: int, w_sink: int, w_recent: int) -> List[np.ndarray]:
    """Per-row allowed sets of streaming attention over n positions."""
    return [kept_positions_for(i + 1, w_sink, w_recent) for i in range(n)]


def discarded_mass(
    x_prev: np.ndarray,
    weights: Weights,
    layer: int,
    allowed_sets: Sequence[np.ndarray],
    config: ModelConfig,
) -> float:
    """Worst-row head-averaged causal attention mass on disallowed positions.

    Uses the original (full causal) softmax of the given layer input; the
    discarded set of row i is {0..i} minus that row's allowed set.
    """
    _require_theory_config(config)
    n = x_prev.shape[0]
    if len(allowed_sets) != n:
        raise InputError(f"need {n} allowed sets, got {len(allowed_sets)}")
    allowed = MaskSpec.lazy_set(allowed_sets).bool_matrix(n, n)
    x_norm = ln(x_prev, config.ln_mode)
    q, k = (np.matmul(x_norm, w[layer]) for w in (weights.w_q, weights.w_k))
    causal = np.tri(n, dtype=bool)
    expd = q @ k.transpose(0, 2, 1)
    _, sums = _masked_max_and_expsum(expd, causal)
    per_head = (expd * (causal & ~allowed)).sum(axis=-1) / sums
    return float(per_head.mean(axis=0).max())


def run_pair(
    weights: Weights,
    config: ModelConfig,
    tokens,
    lazy_layers: Sequence[int],
    allowed_sets: Sequence[np.ndarray],
) -> ErrorTrace:
    """Forward the original and reduced networks; measure their divergence."""
    _require_theory_config(config)
    lazy = sorted(set(int(i) for i in lazy_layers))
    if lazy and (lazy[0] < 0 or lazy[-1] >= config.n_layers):
        raise InputError(f"lazy layers {lazy} outside 0..{config.n_layers - 1}")
    original = forward_full(tokens, weights, config)
    n = original.xs[0].shape[0]
    if len(allowed_sets) != n:
        raise InputError(f"need {n} allowed sets, got {len(allowed_sets)}")
    lazy_mask = MaskSpec.lazy_set(allowed_sets)
    causal = MaskSpec.causal()

    x_mod = original.xs[0]
    hidden_errors = [0.0]
    discarded: Dict[int, float] = {}
    for layer in range(config.n_layers):
        mask = lazy_mask if layer in lazy else causal
        _, x_mod = block_forward(x_mod, layer, weights, mask, config)
        hidden_errors.append(row_2inf_norm(original.xs[layer + 1] - x_mod))
        if layer in lazy:
            discarded[layer] = discarded_mass(
                original.xs[layer], weights, layer, allowed_sets, config
            )
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


def check_recursive_bound(
    trace: ErrorTrace, constants: TheoremConstants, lazy_layers: Sequence[int]
) -> List[float]:
    """Per-layer margin of the layer-to-layer error recursion (>= 0 passes)."""
    lazy = set(int(i) for i in lazy_layers)
    margins = []
    for layer in range(1, len(trace.hidden_errors)):
        prev = trace.hidden_errors[layer - 1]
        rhs = prev + constants.step_gain * min(2.0, constants.amplification * prev)
        if (layer - 1) in lazy:
            rhs += constants.fresh_mass_gain * trace.discarded[layer - 1]
        margins.append(rhs - trace.hidden_errors[layer])
    return margins


def check_logit_bound(
    trace: ErrorTrace, constants: TheoremConstants, lazy_layers: Sequence[int]
) -> float:
    """Margin of the end-to-end logit bound (>= 0 passes)."""
    total_mass = sum(trace.discarded[int(i)] for i in lazy_layers)
    rhs = constants.logit_offset + constants.logit_mass_gain * total_mass
    return rhs - trace.logit_error


# -- supporting-inequality oracles --------------------------------------------


def _lp(x: np.ndarray, p, axis=None):
    """l_p norm of x, or of each slice along ``axis``."""
    if p == math.inf:
        return np.abs(x).max(axis=axis, initial=0.0)
    return np.sum(np.abs(x) ** p, axis=axis) ** (1.0 / p)


def _lpq(m: np.ndarray, p, q) -> float:
    """Row-wise l_p norms, then l_q across rows."""
    return _lp(_lp(m, p, axis=1), q)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def _trial_softmax_lipschitz(rng: np.random.Generator) -> float:
    d = rng.integers(1, 9)
    scale = rng.uniform(0.1, 5.0)
    x = rng.standard_normal(d) * scale
    y = x.copy() if rng.uniform() < 0.05 else rng.standard_normal(d) * scale
    lhs = _lp(_softmax(x) - _softmax(y), 1)
    rhs = 2.0 * _lp(x - y, math.inf)
    return lhs - rhs


def _trial_matvec_norm(rng: np.random.Generator) -> float:
    r, c = rng.integers(1, 9, size=2)
    a = rng.standard_normal((r, c)) * rng.uniform(0.1, 3.0)
    x = rng.standard_normal(c) * rng.uniform(0.1, 3.0)
    worst = -math.inf
    for u, v in ((1, math.inf), (2, 2), (math.inf, 1)):
        for p in (1, 2, math.inf):
            lhs = _lp(a @ x, p)
            worst = max(worst, lhs - _lpq(a.T, p, u) * _lp(x, v))
            worst = max(worst, lhs - _lpq(a, u, p) * _lp(x, v))
    return worst


def _trial_mha_lipschitz(rng: np.random.Generator) -> float:
    n = int(rng.integers(1, 8))
    d = int(rng.integers(2, 8))
    dk = int(rng.integers(1, d + 1))
    n_heads = int(rng.integers(1, 4))
    config = ModelConfig(
        n_layers=1, n_heads=n_heads, d_model=d, d_head=dk, vocab_size=2
    )
    weights = random_init(config, int(rng.integers(0, 2**31)), rng.uniform(0.02, 0.4))
    x = rng.standard_normal((n, d)) * rng.uniform(0.1, 2.0)
    x_alt = x + rng.standard_normal((n, d)) * rng.uniform(0.0, 1.0)
    causal = MaskSpec.causal()
    lhs = row_2inf_norm(
        mha_forward(x, weights, 0, causal, config)
        - mha_forward(x_alt, weights, 0, causal, config)
    )
    b_x = max(row_2inf_norm(x), row_2inf_norm(x_alt))
    b_q = max(frobenius_norm(weights.w_q[0, h]) for h in range(n_heads))
    b_k = max(frobenius_norm(weights.w_k[0, h]) for h in range(n_heads))
    b_v = max(frobenius_norm(weights.w_v[0, h]) for h in range(n_heads))
    rhs = n_heads * b_v * (1.0 + 4.0 * b_x**2 * b_q * b_k) * row_2inf_norm(x - x_alt)
    return lhs - rhs


def _trial_kv_truncation(rng: np.random.Generator) -> float:
    d = int(rng.integers(1, 9))
    n1 = int(rng.integers(1, 9))
    n2 = int(rng.integers(0, 9))
    scale = rng.uniform(0.1, 3.0)
    q = rng.standard_normal(d) * scale
    k1 = rng.standard_normal((n1, d)) * scale
    v1 = rng.standard_normal((n1, d)) * scale
    k2 = rng.standard_normal((n2, d)) * scale
    v2 = rng.standard_normal((n2, d)) * scale
    s_joint = _softmax(np.concatenate([k1, k2]) @ q)
    s2 = s_joint[n1:]
    kept_only = _softmax(k1 @ q) @ v1
    joint = s_joint[:n1] @ v1 + (s2 @ v2 if n2 else 0.0)
    lhs = _lp(kept_only - joint, 2)
    rhs = 2.0 * _lp(s2, 1) * max(row_2inf_norm(v1), row_2inf_norm(v2) if n2 else 0.0)
    return lhs - rhs


_LEMMA_TRIALS = {
    "softmax_l1_lipschitz": _trial_softmax_lipschitz,
    "matvec_operator_norms": _trial_matvec_norm,
    "attention_lipschitz": _trial_mha_lipschitz,
    "kv_truncation": _trial_kv_truncation,
}


def lemma_oracles(n_trials: int = 500, seed: int = 0) -> dict:
    """Randomized LHS <= RHS checks for the four supporting inequalities."""
    if n_trials < 1:
        raise InputError(f"n_trials must be >= 1, got {n_trials}")
    rng = np.random.default_rng(seed)
    report = {}
    for name, trial in _LEMMA_TRIALS.items():
        excesses = np.array([trial(rng) for _ in range(n_trials)])
        report[name] = {
            "trials": n_trials,
            "violations": int((excesses > -MARGIN_TOL).sum()),
            "max_excess": float(excesses.max()),
        }
    return report


# -- randomized theorem verification -------------------------------------------


def verify_theorem(
    n_trials: int = 100,
    seed: int = 0,
    max_layers: int = 4,
    max_heads: int = 3,
    max_dim: int = 8,
    max_tokens: int = 24,
    target_b: float = 1.2,
) -> dict:
    """Random small networks: every bound margin must clear -1e-9."""
    for name, value, low in (
        ("n_trials", n_trials, 1),
        ("max_layers", max_layers, 1),
        ("max_heads", max_heads, 1),
        ("max_dim", max_dim, 2),
        ("max_tokens", max_tokens, 2),
    ):
        if value < low:
            raise InputError(f"{name} must be >= {low}, got {value}")
    rng = np.random.default_rng(seed)
    trials = []
    for trial_idx in range(n_trials):
        L = int(rng.integers(1, max_layers + 1))
        H = int(rng.integers(1, max_heads + 1))
        d = int(rng.integers(2, max_dim + 1))
        dk = int(rng.integers(1, d + 1))
        vocab = int(rng.integers(2, 2 * max_dim + 1))
        n = int(rng.integers(2, max_tokens + 1))
        config = ModelConfig(
            n_layers=L,
            n_heads=H,
            d_model=d,
            d_head=dk,
            vocab_size=vocab,
            activation=str(rng.choice(["relu", "gelu", "sigmoid"])),
        )
        largest = max(d * d, d * vocab)
        scale = rng.uniform(0.1, 1.0) * target_b / math.sqrt(largest)
        weights = random_init(config, int(rng.integers(0, 2**31)), scale)
        tokens = rng.integers(0, vocab, size=n)
        n_lazy = int(rng.integers(0, L + 1))
        lazy = sorted(rng.choice(L, size=n_lazy, replace=False).tolist())
        w_sink = int(rng.integers(0, 3))
        w_recent = int(rng.integers(1, max(2, n // 2)))
        allowed = streaming_allowed_sets(n, w_sink, w_recent)

        constants = TheoremConstants.from_model(weights, config)
        trace = run_pair(weights, config, tokens, lazy, allowed)
        rec_margins = check_recursive_bound(trace, constants, lazy)
        logit_margin = check_logit_bound(trace, constants, lazy)
        worst_rec = min(rec_margins)  # one margin per layer, and L >= 1
        ok = worst_rec >= MARGIN_TOL and logit_margin >= MARGIN_TOL
        trials.append(
            {
                "trial": trial_idx,
                "n_layers": L,
                "n_heads": H,
                "d_model": d,
                "d_head": dk,
                "n_tokens": n,
                "lazy_layers": lazy,
                "constants": constants.to_dict(),
                "min_recursive_margin": worst_rec,
                "logit_margin": logit_margin,
                "pass": ok,
            }
        )
    return {
        "trials": trials,
        "n_trials": n_trials,
        "violations": sum(not t["pass"] for t in trials),
        "min_recursive_margin": min(t["min_recursive_margin"] for t in trials),
        "min_logit_margin": min(t["logit_margin"] for t in trials),
        "pass": all(t["pass"] for t in trials),
    }
