"""Inference sessions with per-layer full/streaming cache policies.

Prefill and decode run one layer loop, ``Session._layers``: ln, Q/K
projection, cache append, an attention step, residual, FFN, and then the
unembedding. Only the attention step differs. Prefill's is
``forward_full``'s one call, ``model.mha_from_projections``: exact
full-causal attention in every layer, so prefill logits are bit-identical
to the plain model's and only the cache retention afterwards varies. That
call also returns every row's log-sum-exp when it runs on the tiled kernel
(prompts longer than 64 tokens), and ``None`` on the per-head path.

* online mode: after each layer's attention, its lazy ratio is computed
  from the log-sum-exp shortcut (``lse_log_ratios``) and pushed into a
  bounded priority queue. The full-causal lse of the trailing rows is read
  from the kernel's output, or, for short prompts, from one ``attend`` call
  over just those rows.
  A popped layer has its cache shrunk to the streaming window immediately,
  freeing memory mid-prefill. Hidden states of already-processed layers are
  never recomputed, so any divergence from the plain model appears only at
  decode time.
* static mode: a policy file names the lazy layers up front; their caches
  are shrunk right after their prefill pass. Replaying a policy captured
  from an online run therefore reproduces that run's decode exactly.

Decode's step is ``attend_from_cache`` alone, over whatever the cache
retained. The cache holds no per-head values: ``attend_from_cache``
weights the held input rows and applies the layer's W_V after the sum, so
a held row costs ``(n_heads * d_head + d_model) * 8`` bytes. A decode step
appends one row per cache and transfers none, so it keeps no books:
``Session.peak_rows`` is derived from prefill's peak and the caches' sizes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import INT64_MAX, ContractViolation, InputError, check_seed, parse_json
from .kvcache import CachePolicy, LayerCache, attend_from_cache
from .lazydetect import DetectParams, IdentifierState, LazyRatioReport, lse_log_ratios
from .model import (
    ModelConfig, Weights, check_tokens, ffn_forward, ln, mha_from_projections, project_qkv,
)
from .numerics import attend

__all__ = [
    "PolicyFile",
    "EngineParams",
    "Session",
    "make_policy",
    "pyramid_windows",
]


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class PolicyFile:
    """Persisted per-layer attention policy, pinned to a model file."""

    fingerprint: str
    lazy_layers: List[int]
    w_sink: int
    w_recent: int
    provenance: str  # online | preselect | pyramid | random | manual
    seed: Optional[int] = None
    # Pyramid policies give each layer its own recent window.
    recent_windows: Optional[List[int]] = None

    @classmethod
    def from_detect(cls, detect: DetectParams, lazy_layers, provenance: str,
                    fingerprint: str = "", **extra) -> "PolicyFile":
        """A policy on ``detect``'s windows; ``extra`` sets ``seed`` or
        ``recent_windows``."""
        return cls(fingerprint, list(lazy_layers), detect.w_sink, detect.w_recent,
                   provenance, **extra)

    def to_dict(self) -> dict:
        out = {
            "fingerprint": self.fingerprint,
            "lazy_layers": [int(i) for i in self.lazy_layers],
            "w_sink": self.w_sink,
            "w_recent": self.w_recent,
            "provenance": self.provenance,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.recent_windows is not None:
            out["recent_windows"] = [int(w) for w in self.recent_windows]
        return out

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "PolicyFile":
        with open(path, "rb") as f:
            raw = parse_json(f.read(), f"policy file {path}")
        return cls.from_dict(raw, f"policy file {path}")

    @classmethod
    def from_dict(cls, raw, source: str = "policy") -> "PolicyFile":
        """Validate a decoded policy object; every defect is an InputError."""
        if not isinstance(raw, dict):
            raise InputError(f"{source} must hold a JSON object")
        missing = [k for k in ("fingerprint", "lazy_layers", "w_sink", "w_recent",
                               "provenance") if k not in raw]
        if missing:
            raise InputError(f"{source} is missing field {missing[0]!r}")

        def int_list(name):
            value = raw[name]
            if not isinstance(value, list) or not all(_is_int(v) for v in value):
                raise InputError(f"{source}: {name} must be a list of integers")
            return list(value)

        for name in ("fingerprint", "provenance"):
            if not isinstance(raw[name], str):
                raise InputError(f"{source}: {name} must be a string")
        for name, low in (("w_sink", 0), ("w_recent", 1)):
            if not _is_int(raw[name]) or not low <= raw[name] <= INT64_MAX:
                raise InputError(f"{source}: {name} must be an integer in [{low}, 2**63 - 1]")
        lazy_layers = int_list("lazy_layers")
        if len(set(lazy_layers)) != len(lazy_layers):
            raise InputError(f"{source}: lazy_layers contains duplicates")
        recent_windows = None
        if raw.get("recent_windows") is not None:
            recent_windows = int_list("recent_windows")
            if any(not 1 <= w <= INT64_MAX for w in recent_windows):
                raise InputError(f"{source}: recent_windows must all be in [1, 2**63 - 1]")
        seed = raw.get("seed")
        if seed is not None and not _is_int(seed):
            raise InputError(f"{source}: seed must be an integer")
        return cls(
            fingerprint=raw["fingerprint"],
            lazy_layers=lazy_layers,
            w_sink=raw["w_sink"],
            w_recent=raw["w_recent"],
            provenance=raw["provenance"],
            seed=seed,
            recent_windows=recent_windows,
        )

    def window_for(self, layer: int) -> int:
        if self.recent_windows is not None:
            return self.recent_windows[layer]
        return self.w_recent


@dataclass
class EngineParams:
    detect: DetectParams = field(default_factory=DetectParams)
    policy: Optional[PolicyFile] = None  # None selects online identification


class Session:
    """One generation request: prefill once, then decode token by token."""

    def __init__(self, weights: Weights, config: ModelConfig, params: EngineParams):
        self.weights = weights
        self.config = config
        self.params = params
        if params.policy is not None:
            bad = [i for i in params.policy.lazy_layers if not 0 <= i < config.n_layers]
            if bad:
                raise InputError(f"policy names layers {bad} outside the model")
            windows = params.policy.recent_windows
            if windows is not None and len(windows) != config.n_layers:
                raise InputError(
                    f"policy gives {len(windows)} recent windows for "
                    f"{config.n_layers} layers"
                )
        self.caches = [
            LayerCache(config.n_heads, config.d_head, config.d_model, CachePolicy.full())
            for _ in range(config.n_layers)
        ]
        self.prefilled = False
        self.report: Optional[LazyRatioReport] = None
        # Observed after each prefill append. Decode adds no full cache, and
        # peak_rows reads decode's growth from the cache sizes.
        self._prefill_peak_rows = 0
        self.peak_full_caches = 0
        # Set by generate_greedy, the one clock.
        self.prefill_seconds: Optional[float] = None
        self.decode_seconds: List[float] = []

    def _layers(self, x: np.ndarray, attention) -> np.ndarray:
        """Run every block on the embedded rows ``x``; return their logits.
        ``attention(layer, q, k, x_norm)`` runs once the layer's cache holds
        the new rows."""
        cfg, w = self.config, self.weights
        for layer, cache in enumerate(self.caches):
            x_norm = ln(x, cfg.ln_mode)
            q, k = project_qkv(x_norm, w, layer)
            cache.append(k, x_norm)
            x = x + attention(layer, q, k, x_norm)
            x = x + ffn_forward(ln(x, cfg.ln_mode), w, layer, cfg)
        return x @ w.unembed

    # -- prefill -------------------------------------------------------------

    def prefill(self, tokens) -> Tuple[np.ndarray, LazyRatioReport]:
        """Process the prompt; returns (last-position logits, ratio report)."""
        if self.prefilled:
            raise ContractViolation("session already prefilled")
        tokens = check_tokens(tokens, self.config.vocab_size)
        detect, policy, caches = self.params.detect, self.params.policy, self.caches
        scale = self.config.score_scale
        m = min(detect.w_last, tokens.size)
        identifier = IdentifierState(detect.n_full, len(caches)) if policy is None else None
        ratios: List[float] = []
        log_ratios: List[np.ndarray] = []

        def attention(layer, q, k, x_norm):
            attn, lse = mha_from_projections(q, k, x_norm, self.weights.w_v[layer], scale)
            self._prefill_peak_rows = max(self._prefill_peak_rows, sum(c.size for c in caches))
            full = sum(c.policy.kind == "full" and c.size > 0 for c in caches)
            self.peak_full_caches = max(self.peak_full_caches, full)
            if policy is None:
                # The tiled pass already holds every row's lse; short prompts
                # run one attend call over just the last m rows.
                q_last = q[:, -m:]
                if lse is None:
                    pos = np.arange(tokens.size)
                    _, lse = attend(q_last, k, scale, pos[-m:], pos)
                else:
                    lse = lse[:, -m:]
                head_logs = lse_log_ratios(q_last, k, lse, detect, scale)
                ratio = float(np.exp(head_logs).mean())
                ratios.append(ratio)
                log_ratios.append(head_logs)
                popped = identifier.push(layer, ratio)
                if popped is not None:
                    caches[popped].transfer_to_streaming(detect.w_sink, detect.w_recent)
            elif layer in policy.lazy_layers:
                caches[layer].transfer_to_streaming(policy.w_sink, policy.window_for(layer))
            return attn

        # The plain forward pass's matrix-matrix unembedding, so the row is
        # bit-identical to forward_full's; copied, so it pins no (n, vocab) block.
        logits = self._layers(self.weights.embedding[tokens], attention)[-1].copy()
        if policy is None:
            full_layers, lazy_layers = identifier.finalize()
        else:
            lazy_layers = sorted(policy.lazy_layers)
            full_layers = [i for i in range(self.config.n_layers) if i not in set(lazy_layers)]
        self.report = LazyRatioReport(
            ratios=ratios,
            log_ratios=log_ratios,
            lazy_layers=lazy_layers,
            full_layers=full_layers,
        )
        self.prefilled = True
        return logits, self.report

    # -- decode --------------------------------------------------------------

    def decode_step(self, token: int) -> np.ndarray:
        """Append one token and return the next-token logits row."""
        if not self.prefilled:
            raise ContractViolation("decode_step called before prefill")
        token = check_tokens(token, self.config.vocab_size, one=True)
        cfg, caches, w_v = self.config, self.caches, self.weights.w_v
        return self._layers(
            self.weights.embedding[token][None, :],
            lambda layer, q, k, x_norm: attend_from_cache(caches[layer], q, w_v[layer], cfg),
        )[0]

    def generate_greedy(self, prompt_tokens, max_new_tokens: int) -> List[int]:
        """Greedy continuation; argmax ties resolve to the smallest token id.
        Times the prefill and each decode step, argmax untimed."""
        if not _is_int(max_new_tokens) or max_new_tokens < 0:  # check_tokens's rule
            raise InputError(f"max_new_tokens must be an integer >= 0, got {max_new_tokens!r}")
        t0 = time.perf_counter()
        logits, _ = self.prefill(prompt_tokens)
        self.prefill_seconds = time.perf_counter() - t0
        generated = [int(np.argmax(logits))][:max_new_tokens]
        for _ in range(max_new_tokens - 1):
            t0 = time.perf_counter()
            logits = self.decode_step(generated[-1])
            self.decode_seconds.append(time.perf_counter() - t0)
            generated.append(int(np.argmax(logits)))
        return generated

    @property
    def peak_rows(self) -> int:
        """Peak held rows over all layers. A decode step appends one row to
        every cache and transfers none, so the total never falls after
        prefill: the peak is prefill's or the current total."""
        return max(self._prefill_peak_rows, sum(c.size for c in self.caches))

    @property
    def peak_kv_bytes(self) -> int:
        """Peak held rows over all layers times the bytes of one row."""
        row = self.caches[0].bytes_per_row if self.caches else 0
        return self.peak_rows * row

    def run_report(self) -> dict:
        rep = self.report
        decode_ms = [s * 1e3 for s in self.decode_seconds]
        return {
            "lazy_layers": list(rep.lazy_layers) if rep else [],
            "per_layer_ratios": list(rep.ratios) if rep else [],
            "peak_rows": self.peak_rows,
            "peak_kv_bytes": self.peak_kv_bytes,
            "peak_full_caches": self.peak_full_caches,
            "rows_per_layer": [c.size for c in self.caches],
            "decode_ms_per_step": (
                float(np.median(decode_ms)) if decode_ms else None
            ),
        }


# -- static policy construction ----------------------------------------------


def pyramid_windows(n_layers: int, budget_per_layer: int) -> List[int]:
    """Descending recent windows, 4:1 from first to last layer, summing to
    exactly n_layers * budget_per_layer.

    The linear 4:1 ramp is rescaled onto the budget, floored, and the
    leftover rows are handed to the largest fractional remainders (ties to
    the shallower layer). Every window stays >= 1.
    """
    if n_layers < 1:
        raise InputError("n_layers must be >= 1")
    if budget_per_layer < 1:
        raise InputError("budget_per_layer must be >= 1")
    total = n_layers * budget_per_layer
    if n_layers == 1:
        return [total]
    # The ramp is rescaled in float64, whose integers are exact up to 2**53.
    if total > 2**53:
        raise InputError(
            f"{n_layers} layers times a budget of {budget_per_layer} rows exceeds 2**53"
        )
    ramp = np.linspace(2.0, 0.5, n_layers)
    scaled = ramp * (total / ramp.sum())
    floors = np.floor(scaled).astype(np.int64)
    floors = np.maximum(floors, 1)
    deficit = total - int(floors.sum())
    if deficit > 0:
        order = np.lexsort((np.arange(n_layers), -(scaled - floors)))
        for idx in order[:deficit]:
            floors[idx] += 1
    elif deficit < 0:
        order = np.argsort(-floors, kind="stable")
        i = 0
        while deficit < 0:
            idx = order[i % n_layers]
            if floors[idx] > 1:
                floors[idx] -= 1
                deficit += 1
            i += 1
    return [int(w) for w in floors]


def make_policy(
    strategy: str,
    config: ModelConfig,
    detect: DetectParams,
    seed: Optional[int] = None,
    layer_range: Optional[Tuple[int, int]] = None,
    manual_layers: Optional[Sequence[int]] = None,
    fingerprint: str = "",
) -> PolicyFile:
    """Build a static policy without running the model.

    ``pyramid`` streams every layer with a depth-decreasing window budget;
    ``random`` drains n_layers - n_full uniformly chosen layers from
    ``layer_range`` (default the whole stack) under ``seed``, drawn in
    ``[0, 2**63)`` and recorded when none is given; ``manual`` takes the
    list as given.
    """
    L = config.n_layers
    extra = {}
    if strategy == "pyramid":
        lazy = list(range(L))
        extra["recent_windows"] = pyramid_windows(L, detect.w_recent)
    elif strategy == "random":
        n_lazy = L - min(detect.n_full, L)
        lo, hi = layer_range if layer_range is not None else (0, L)
        if not (0 <= lo < hi <= L):
            raise InputError(f"layer range [{lo}, {hi}) invalid for {L} layers")
        if hi - lo < n_lazy:
            raise InputError(
                f"range [{lo}, {hi}) holds {hi - lo} layers, need {n_lazy}"
            )
        if seed is None:
            seed = int(np.random.default_rng().integers(INT64_MAX, endpoint=True))
        rng = np.random.default_rng(check_seed(seed))
        lazy = sorted(int(i) for i in rng.choice(np.arange(lo, hi), size=n_lazy, replace=False))
        extra["seed"] = seed
    elif strategy == "manual":
        lazy = sorted(int(i) for i in (manual_layers or []))
        if len(set(lazy)) != len(lazy):
            raise InputError("manual layer list contains duplicates")
        if lazy and (lazy[0] < 0 or lazy[-1] >= L):
            raise InputError(f"manual layers outside 0..{L - 1}")
    else:
        raise InputError(f"unknown policy strategy {strategy!r}")
    return PolicyFile.from_detect(detect, lazy, strategy, fingerprint, **extra)
