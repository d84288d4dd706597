"""Inference sessions with per-layer full/streaming cache policies.

Prefill always computes exact full-causal attention for every layer, so
prefill logits match the plain model; what varies is cache retention
afterwards. Up to ``_PREFILL_BLOCK`` prompt tokens the model's own attention
path is shared outright, so logits are bit-identical to forward_full.
Longer prompts run on a tiled causal kernel over head-stacked arrays that
also returns every row's log-sum-exp.

* online mode: after each layer's attention, its lazy ratio is computed
  from the log-sum-exp shortcut and pushed into a bounded priority queue.
  Above the threshold the full-causal lse of the trailing rows is read
  from the kernel's output; at or below it, the kernel's tile routine runs
  once over just those rows.
  A popped layer has its cache shrunk to the streaming window immediately,
  freeing memory mid-prefill. Hidden states of already-processed layers are
  never recomputed, so any divergence from the plain model appears only at
  decode time.
* static mode: a policy file names the lazy layers up front; their caches
  are shrunk right after their prefill pass. Replaying a policy captured
  from an online run therefore reproduces that run's decode exactly.

Decode runs one token at a time; each layer appends the new K/V rows under
its policy and attends over whatever the cache retained.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractViolation, InputError
from .kvcache import CachePolicy, LayerCache, MemoryMeter, attend_from_cache
from .lazydetect import (
    DetectParams,
    IdentifierState,
    LazyRatioReport,
    kept_query_positions,
    lse_log_ratios,
)
from .model import (
    ModelConfig,
    Weights,
    ffn_forward,
    ln,
    mha_from_projections,
    project_qkv,
)
from .numerics import MaskSpec

__all__ = [
    "PolicyFile",
    "EngineParams",
    "Session",
    "make_policy",
    "pyramid_windows",
    "baseline_params",
    "identification_overhead",
]

# Prompt length above which prefill attention runs on the tiled causal
# kernel. At or below it the unblocked model path is used, which keeps
# small-prompt prefill bit-identical to forward_full.
_PREFILL_BLOCK = 1024
# Query rows per tile of the causal kernel.
_PREFILL_TILE = 128


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
        with open(path, "r", encoding="utf-8") as f:
            try:
                raw = json.load(f)
            except ValueError as exc:
                raise InputError(f"policy file {path} is not valid JSON: {exc}") from exc
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
            if not _is_int(raw[name]) or raw[name] < low:
                raise InputError(f"{source}: {name} must be an integer >= {low}")
        lazy_layers = int_list("lazy_layers")
        if len(set(lazy_layers)) != len(lazy_layers):
            raise InputError(f"{source}: lazy_layers contains duplicates")
        recent_windows = None
        if raw.get("recent_windows") is not None:
            recent_windows = int_list("recent_windows")
            if any(w < 1 for w in recent_windows):
                raise InputError(f"{source}: recent_windows must all be >= 1")
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
    max_new_tokens: int = 0

    def __post_init__(self):
        if self.max_new_tokens < 0:
            raise InputError("max_new_tokens must be >= 0")


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


def _causal_attention(q, k, v, scale: float):
    """Exact causal attention over head-stacked (H, n, d) arrays.

    Query rows go in tiles of ``_PREFILL_TILE``; each tile scores only the
    keys up to its own end. Returns ``(out (H, n, d_value), lse (H, n))``,
    the per-row log-sum-exp being the normalizer of every causal row.
    """
    n_heads, n, _ = q.shape
    out = np.empty((n_heads, n, v.shape[2]))
    lse = np.empty((n_heads, n))
    for r0 in range(0, n, _PREFILL_TILE):
        r1 = min(r0 + _PREFILL_TILE, n)
        out[:, r0:r1], lse[:, r0:r1] = _causal_tile(q[:, r0:r1], k, v, scale, r0)
    return out, lse


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
        self.identifier = (
            IdentifierState(params.detect.n_full, config.n_layers)
            if params.policy is None
            else None
        )
        self.meter = MemoryMeter()
        self.prefilled = False
        self.tokens: List[int] = []
        self.generated: List[int] = []
        self.report: Optional[LazyRatioReport] = None
        self.peak_full_caches = 0
        self.decode_seconds: List[float] = []
        # Diagnostic hook: when set to (w_sink, w_recent), every decode step
        # records each layer's head-averaged attention mass on that retention
        # set, one row per step in mass_trace.
        self.mass_probe: Optional[Tuple[int, int]] = None
        self.mass_trace: List[np.ndarray] = []

    # -- bookkeeping ---------------------------------------------------------

    def _observe(self) -> None:
        self.meter.record([c.size for c in self.caches])
        full = sum(1 for c in self.caches if c.policy.kind == "full" and c.size > 0)
        if full > self.peak_full_caches:
            self.peak_full_caches = full

    def _validate_tokens(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.size == 0:
            raise InputError("token sequence must be non-empty")
        if tokens.min() < 0 or tokens.max() >= self.config.vocab_size:
            raise InputError("token id outside the vocabulary")
        return tokens

    # -- prefill -------------------------------------------------------------

    def prefill(self, tokens) -> Tuple[np.ndarray, LazyRatioReport]:
        """Process the prompt; returns (last-position logits, ratio report)."""
        if self.prefilled:
            raise ContractViolation("session already prefilled")
        tokens = self._validate_tokens(tokens)
        cfg, detect = self.config, self.params.detect
        online = self.params.policy is None
        scale = cfg.score_scale
        n = tokens.size
        m = min(detect.w_last, n)

        x = self.weights.embedding[tokens]
        ratios: List[float] = []
        log_ratios: List[np.ndarray] = []
        for layer in range(cfg.n_layers):
            x_norm = ln(x, cfg.ln_mode)
            qs, ks, vs = project_qkv(x_norm, self.weights, layer)
            lse = None
            if n > _PREFILL_BLOCK:
                k = np.stack(ks)
                heads, lse = _causal_attention(np.stack(qs), k, np.stack(vs), scale)
                attn = heads.sum(axis=0)
            else:
                attn = mha_from_projections(qs, ks, vs, MaskSpec.causal(), scale)
            self.caches[layer].append(ks, vs)
            self._observe()
            if online:
                # The tiled pass already holds every row's lse; short prompts
                # run one tile over just the last m rows.
                q_last = np.stack([q[n - m :] for q in qs])
                if lse is None:
                    k = np.stack(ks)
                    _, lse = _causal_tile(q_last, k, None, scale, n - m)
                else:
                    lse = lse[:, n - m :]
                head_logs = lse_log_ratios(q_last, k, lse, detect, scale)
                ratio = float(np.exp(head_logs).mean())
                ratios.append(ratio)
                log_ratios.append(head_logs)
                popped = self.identifier.push(layer, ratio)
                if popped is not None:
                    self.caches[popped].transfer_to_streaming(
                        detect.w_sink, detect.w_recent
                    )
                self._observe()
            elif layer in self.params.policy.lazy_layers:
                pol = self.params.policy
                self.caches[layer].transfer_to_streaming(
                    pol.w_sink, pol.window_for(layer)
                )
                self._observe()
            x = x + attn
            x = x + ffn_forward(ln(x, cfg.ln_mode), self.weights, layer, cfg)

        if online:
            full_layers, lazy_layers = self.identifier.finalize()
        else:
            lazy_layers = sorted(self.params.policy.lazy_layers)
            full_layers = [i for i in range(cfg.n_layers) if i not in set(lazy_layers)]
        self.report = LazyRatioReport(
            ratios=ratios,
            log_ratios=log_ratios,
            lazy_layers=lazy_layers,
            full_layers=full_layers,
            w_last=detect.w_last,
            w_sink=detect.w_sink,
            w_recent=detect.w_recent,
        )
        self.prefilled = True
        self.tokens = [int(t) for t in tokens]
        # Same matrix-matrix unembedding as the plain forward pass, so the
        # returned row is bit-identical to forward_full's last logits row.
        logits = (x @ self.weights.unembed)[-1]
        return logits, self.report

    # -- decode --------------------------------------------------------------

    def decode_step(self, token: int) -> np.ndarray:
        """Append one token and return the next-token logits row."""
        if not self.prefilled:
            raise ContractViolation("decode_step called before prefill")
        token = int(token)
        if not 0 <= token < self.config.vocab_size:
            raise InputError("token id outside the vocabulary")
        t0 = time.perf_counter()
        cfg = self.config
        x = self.weights.embedding[token][None, :]
        probe_masses = (
            np.empty(cfg.n_layers) if self.mass_probe is not None else None
        )
        for layer in range(cfg.n_layers):
            x_norm = ln(x, cfg.ln_mode)
            qs, ks, vs = project_qkv(x_norm, self.weights, layer)
            self.caches[layer].append(ks, vs)
            attn = attend_from_cache(self.caches[layer], qs, cfg)
            if probe_masses is not None:
                probe_masses[layer] = self._kept_mass_of_newest(self.caches[layer], qs)
            x = x + attn
            x = x + ffn_forward(ln(x, cfg.ln_mode), self.weights, layer, cfg)
        if probe_masses is not None:
            self.mass_trace.append(probe_masses)
        self._observe()
        self.tokens.append(token)
        logits = (x @ self.weights.unembed)[0]
        self.decode_seconds.append(time.perf_counter() - t0)
        return logits

    def _kept_mass_of_newest(self, cache: LayerCache, qs) -> float:
        w_sink, w_recent = self.mass_probe
        target = kept_query_positions(cache.total_seen - 1, w_sink, w_recent)
        held = cache._positions[: cache.size]
        sel = np.isin(held, target)
        scale = self.config.score_scale
        total = 0.0
        for h in range(cache.n_heads):
            scores = (qs[h] @ cache.keys(h).T)[0]
            if scale != 1.0:
                scores = scores * scale
            probs = np.exp(scores - scores.max())
            probs /= probs.sum()
            total += probs[sel].sum()
        return total / cache.n_heads

    def generate_greedy(self, prompt_tokens, max_new_tokens: Optional[int] = None) -> List[int]:
        """Greedy continuation; argmax ties resolve to the smallest token id."""
        if max_new_tokens is None:
            max_new_tokens = self.params.max_new_tokens
        if max_new_tokens < 0:
            raise InputError("max_new_tokens must be >= 0")
        logits, _ = self.prefill(prompt_tokens)
        if max_new_tokens == 0:
            return []
        next_id = int(np.argmax(logits))
        self.generated = [next_id]
        for _ in range(max_new_tokens - 1):
            logits = self.decode_step(next_id)
            next_id = int(np.argmax(logits))
            self.generated.append(next_id)
        return list(self.generated)

    def run_report(self) -> dict:
        rep = self.report.to_dict() if self.report is not None else {}
        decode_ms = [s * 1e3 for s in self.decode_seconds]
        return {
            "lazy_layers": rep.get("lazy_layers", []),
            "per_layer_ratios": rep.get("ratios", []),
            "peak_rows": self.meter.peak_total,
            "peak_full_caches": self.peak_full_caches,
            "rows_per_layer": list(self.meter.layer_rows),
            "decode_ms_per_step": (
                float(np.median(decode_ms)) if decode_ms else None
            ),
            "tokens": list(self.generated),
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
    ``layer_range`` (default the whole stack); ``manual`` takes the list
    as given.
    """
    L = config.n_layers
    if strategy == "pyramid":
        return PolicyFile(
            fingerprint=fingerprint,
            lazy_layers=list(range(L)),
            w_sink=detect.w_sink,
            w_recent=detect.w_recent,
            provenance="pyramid",
            recent_windows=pyramid_windows(L, detect.w_recent),
        )
    if strategy == "random":
        n_lazy = L - min(detect.n_full, L)
        lo, hi = layer_range if layer_range is not None else (0, L)
        if not (0 <= lo < hi <= L):
            raise InputError(f"layer range [{lo}, {hi}) invalid for {L} layers")
        if hi - lo < n_lazy:
            raise InputError(
                f"range [{lo}, {hi}) holds {hi - lo} layers, need {n_lazy}"
            )
        rng = np.random.default_rng(seed)
        chosen = sorted(int(i) for i in rng.choice(np.arange(lo, hi), size=n_lazy, replace=False))
        return PolicyFile(
            fingerprint=fingerprint,
            lazy_layers=chosen,
            w_sink=detect.w_sink,
            w_recent=detect.w_recent,
            provenance="random",
            seed=seed,
        )
    if strategy == "manual":
        layers = sorted(int(i) for i in (manual_layers or []))
        if len(set(layers)) != len(layers):
            raise InputError("manual layer list contains duplicates")
        if layers and (layers[0] < 0 or layers[-1] >= L):
            raise InputError(f"manual layers outside 0..{L - 1}")
        return PolicyFile(
            fingerprint=fingerprint,
            lazy_layers=layers,
            w_sink=detect.w_sink,
            w_recent=detect.w_recent,
            provenance="manual",
        )
    raise InputError(f"unknown policy strategy {strategy!r}")


# -- identification overhead ---------------------------------------------------


def baseline_params(detect: DetectParams) -> EngineParams:
    """Engine params for the all-full-attention baseline (no detection)."""
    baseline = PolicyFile(
        fingerprint="", lazy_layers=[], w_sink=detect.w_sink,
        w_recent=detect.w_recent, provenance="manual",
    )
    return EngineParams(detect=detect, policy=baseline)


def identification_overhead(
    weights: Weights,
    config: ModelConfig,
    prompts: Dict[int, np.ndarray],
    detect: DetectParams,
    repeats: int = 3,
    warmup: int = 1,
    reduce: str = "median",
    min_span_seconds: float = 0.5,
) -> dict:
    """Prefill wall-clock with online detection vs. without, per length.

    Per length, ``warmup`` untimed pairs run first (cold allocator and code
    paths would otherwise penalize whichever variant runs first). The two
    variants then strictly alternate, one (without, with) pair at a time;
    short prefills run enough pairs to span at least ``min_span_seconds``
    per variant and repeat. ``reduce`` picks the noise model: "median"
    takes the median of per-pair ratios (the members of a pair execute back
    to back and share machine conditions, so polluted pairs drop out),
    while "min" divides the per-side minima (machine noise only ever adds
    time, so each side's floor is its unpolluted cost).
    """
    if reduce not in ("median", "min"):
        raise InputError(f"reduce must be 'median' or 'min', got {reduce!r}")
    summarize = np.median if reduce == "median" else np.min
    results = {}
    for length in sorted(prompts):
        tokens = prompts[length]
        est = None
        for _ in range(max(warmup, 1)):
            Session(weights, config, baseline_params(detect)).prefill(tokens)
            t0 = time.perf_counter()
            Session(weights, config, EngineParams(detect=detect)).prefill(tokens)
            est = time.perf_counter() - t0
        inner = max(1, min(64, int(np.ceil(min_span_seconds / max(est, 1e-9)))))

        with_det: List[float] = []
        without: List[float] = []
        for _ in range(repeats * inner):
            s = Session(weights, config, baseline_params(detect))
            t0 = time.perf_counter()
            s.prefill(tokens)
            t1 = time.perf_counter()
            s = Session(weights, config, EngineParams(detect=detect))
            s.prefill(tokens)
            t2 = time.perf_counter()
            without.append(t1 - t0)
            with_det.append(t2 - t1)
        if reduce == "median":
            ratio = float(np.median([w / wo for w, wo in zip(with_det, without)]))
        else:
            ratio = float(np.min(with_det) / np.min(without))
        results[length] = {
            "prefill_s_with_detection": float(summarize(with_det)),
            "prefill_s_without_detection": float(summarize(without)),
            "pairs": repeats * inner,
            "ratio": ratio,
            "relative_slowdown": ratio - 1.0,
        }
    return results
