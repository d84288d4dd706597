"""Inference sessions with per-layer full/streaming cache policies.

Prefill always computes exact full-causal attention for every layer, so
prefill logits match the plain model; what varies is cache retention
afterwards. Prefill makes the same attention call as ``forward_full`` at
every length, so its logits are bit-identical to the plain model's. Prompts
of up to ``_PREFILL_BLOCK`` (64) tokens run on the model's per-head path;
longer ones on the model's tiled causal kernel, one ``numerics.attend``
call per query tile, which also returns every row's log-sum-exp.

* online mode: after each layer's attention, its lazy ratio is computed
  from the log-sum-exp shortcut (``lse_log_ratios``) and pushed into a
  bounded priority queue. Above ``_PREFILL_BLOCK`` the full-causal lse of
  the trailing rows is read from the kernel's output; at or below it, one
  ``attend`` call over just those rows gives it.
  A popped layer has its cache shrunk to the streaming window immediately,
  freeing memory mid-prefill. Hidden states of already-processed layers are
  never recomputed, so any divergence from the plain model appears only at
  decode time.
* static mode: a policy file names the lazy layers up front; their caches
  are shrunk right after their prefill pass. Replaying a policy captured
  from an online run therefore reproduces that run's decode exactly.

Decode runs one token at a time; each layer appends the new key rows and
its normalized input row under its policy and attends over whatever the
cache retained. The cache holds no per-head values: ``attend_from_cache``
weights the held input rows and applies the layer's W_V after the sum, so
a held row costs ``(n_heads * d_head + d_model) * 8`` bytes. A session with
``mass_probe`` set also makes two ``attend`` calls per layer without values,
over all held rows and over the probe's window, and records the kept mass
``exp(lse_keep - lse)``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ContractViolation, InputError
from .kvcache import CachePolicy, LayerCache, MemoryMeter, attend_from_cache
from .lazydetect import DetectParams, IdentifierState, LazyRatioReport, lse_log_ratios
from .model import (
    _PREFILL_BLOCK,
    ModelConfig,
    Weights,
    _causal_attention,
    ffn_forward,
    ln,
    mha_from_projections,
    project_qkv,
)
from .numerics import MaskSpec, attend

__all__ = [
    "PolicyFile",
    "EngineParams",
    "Session",
    "make_policy",
    "pyramid_windows",
    "baseline_params",
    "identification_overhead",
]


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
            q, k = project_qkv(x_norm, self.weights, layer)
            # The values mha_forward forms, so the two agree bit for bit.
            v = np.matmul(x_norm, self.weights.w_v[layer])
            lse = None
            if n > _PREFILL_BLOCK:
                # The call and head sum mha_from_projections makes for
                # forward_full, so the two agree bit for bit.
                heads, lse = _causal_attention(q, k, v, scale)
                attn = heads.sum(axis=0)
            else:
                attn = mha_from_projections(q, k, v, MaskSpec.causal(), scale)
            self.caches[layer].append(k, x_norm)
            self._observe()
            if online:
                # The tiled pass already holds every row's lse; short prompts
                # run one attend call over just the last m rows.
                q_last = q[:, n - m :]
                if lse is None:
                    pos = np.arange(n)
                    _, lse = attend(q_last, k, scale, pos[n - m :], pos)
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
            q, k = project_qkv(x_norm, self.weights, layer)
            cache = self.caches[layer]
            cache.append(k, x_norm)
            attn = attend_from_cache(cache, q, self.weights.w_v[layer], cfg)
            if probe_masses is not None:
                keys, _, held = cache.held()
                _, lse = attend(q, keys, cfg.score_scale)
                newest = np.array([cache.total_seen - 1])
                _, kept = attend(q, keys, cfg.score_scale, newest, held, keep=self.mass_probe)
                probe_masses[layer] = float(np.exp(kept - lse).mean())
            x = x + attn
            x = x + ffn_forward(ln(x, cfg.ln_mode), self.weights, layer, cfg)
        if probe_masses is not None:
            self.mass_trace.append(probe_masses)
        self._observe()
        self.tokens.append(token)
        logits = (x @ self.weights.unembed)[0]
        self.decode_seconds.append(time.perf_counter() - t0)
        return logits

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

    @property
    def peak_kv_bytes(self) -> int:
        """Peak held rows over all layers times the bytes of one row."""
        row = self.caches[0].bytes_per_row if self.caches else 0
        return self.meter.peak_total * row

    def run_report(self) -> dict:
        rep = self.report.to_dict() if self.report is not None else {}
        decode_ms = [s * 1e3 for s in self.decode_seconds]
        return {
            "lazy_layers": rep.get("lazy_layers", []),
            "per_layer_ratios": rep.get("ratios", []),
            "peak_rows": self.meter.peak_total,
            "peak_kv_bytes": self.peak_kv_bytes,
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
    paths would otherwise penalize whichever variant runs first). Timing
    then goes in blocks of two back-to-back pairs, (without, with) and then
    (with, without). A fixed order biases the ratio by the position in the
    pair: on the criterion-8 model at 1024 tokens, detection measured +4%
    when it ran first and -7% when it ran second. Short prefills run
    enough blocks to span at least ``min_span_seconds`` per variant and
    repeat. Sessions are built outside the timed spans.
    ``reduce`` picks the noise model: "median" takes the median of
    per-block ratios (a block executes back to back and shares machine
    conditions, so polluted blocks drop out), while "min" divides the
    per-side minima (machine noise only ever adds time, so each side's
    floor is its unpolluted cost).
    """
    if reduce not in ("median", "min"):
        raise InputError(f"reduce must be 'median' or 'min', got {reduce!r}")
    summarize = np.median if reduce == "median" else np.min
    variants = (baseline_params(detect), EngineParams(detect=detect))
    results = {}
    for length in sorted(prompts):
        tokens = prompts[length]
        est = None
        for _ in range(max(warmup, 1)):
            Session(weights, config, variants[0]).prefill(tokens)
            s = Session(weights, config, variants[1])
            t0 = time.perf_counter()
            s.prefill(tokens)
            est = time.perf_counter() - t0
        inner = max(1, min(32, int(np.ceil(min_span_seconds / max(2 * est, 1e-9)))))

        # times[v] holds variant v's runs, two per block; v = 1 detects.
        times: Tuple[List[float], List[float]] = ([], [])
        for _ in range(repeats * inner):
            for v in (0, 1, 1, 0):
                s = Session(weights, config, variants[v])
                t0 = time.perf_counter()
                s.prefill(tokens)
                times[v].append(time.perf_counter() - t0)
        without, with_det = np.asarray(times[0]), np.asarray(times[1])
        if reduce == "median":
            blocks = with_det.reshape(-1, 2).sum(axis=1) / without.reshape(-1, 2).sum(axis=1)
            ratio = float(np.median(blocks))
        else:
            ratio = float(np.min(with_det) / np.min(without))
        results[length] = {
            "prefill_s_with_detection": float(summarize(with_det)),
            "prefill_s_without_detection": float(summarize(without)),
            "pairs": len(without),
            "ratio": ratio,
            "relative_slowdown": ratio - 1.0,
        }
    return results
