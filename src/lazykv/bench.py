"""Hybrid vs all-full timing: the one protocol behind ``lazykv bench``.

A run is one session's ``generate_greedy`` of ``max_new + 1`` tokens, the
one clock: it times the prefill and each of the ``max_new`` decode steps,
each argmax outside; the step time is the median after ``SKIPPED_STEPS``.
Hybrid detects lazy layers online; the all-full baseline replays a policy
with no lazy layer, so it neither detects nor evicts.

Per prompt length, ``WARMUP_PAIRS`` untimed (full, hybrid) pairs warm the
allocator and code paths, which would otherwise penalize whichever variant
runs first. Timing then goes in blocks of four runs, (full, hybrid,
hybrid, full): a fixed order biases a ratio by the position in the pair
(on the criterion-8 model at 1024 tokens, detection measured +4% when it
ran first and -7% when it ran second). Short runs get enough blocks, at
most 32 per repeat, that each variant spans ``MIN_SPAN_SECONDS`` per
repeat. Sessions are built outside the timed spans, and each prefill is
timed once. Both ratios are medians of per-block ratios, since a block
runs back to back and shares machine conditions, so polluted blocks drop
out: the overhead ratio sums the block's hybrid prefill times over its
full ones, the decode throughput ratio its full step times over its
hybrid ones.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .engine import EngineParams, PolicyFile, Session
from .lazydetect import DetectParams
from .model import ModelConfig, Weights

__all__ = ["baseline_params", "compare"]

WARMUP_PAIRS = 1
MIN_SPAN_SECONDS = 0.5
SKIPPED_STEPS = 2


def baseline_params(detect: DetectParams) -> EngineParams:
    """Engine params for the all-full-attention baseline (no detection)."""
    return EngineParams(detect=detect, policy=PolicyFile.from_detect(detect, [], "manual"))


def _run(weights, config, params, tokens, max_new: int) -> dict:
    session = Session(weights, config, params)
    session.generate_greedy(tokens, max_new + 1)
    steps = session.decode_seconds
    step_s = float(np.median(steps[SKIPPED_STEPS:] or steps)) if steps else 0.0
    return {
        "prefill_s": session.prefill_seconds,
        "decode_step_s": step_s,
        "decode_tokens_per_s": 1.0 / step_s if step_s > 0 else float("inf"),
        "peak_rows": session.peak_rows,
        "peak_kv_bytes": session.peak_kv_bytes,
        "rows_after_prefill_and_decode": sum(c.size for c in session.caches),
    }


def _block_ratio(num: np.ndarray, den: np.ndarray) -> float:
    return float(np.median(num.reshape(-1, 2).sum(axis=1) / den.reshape(-1, 2).sum(axis=1)))


def compare(weights: Weights, config: ModelConfig, prompts: Dict[int, np.ndarray],
            detect: DetectParams, repeats: int = 3, max_new: int = 0) -> dict:
    """The ``results`` (empty when ``max_new`` is 0) and
    ``identification_overhead`` of the ``lazykv bench`` report, keyed by
    the prompt length as a string."""
    variants = (baseline_params(detect), EngineParams(detect=detect))
    results, overhead = {}, {}
    for n in sorted(prompts):
        def run(v):
            return _run(weights, config, variants[v], prompts[n], max_new)

        for _ in range(WARMUP_PAIRS):
            run(0)
            warm = run(1)
        est = warm["prefill_s"] + max_new * warm["decode_step_s"]
        inner = max(1, min(32, int(np.ceil(MIN_SPAN_SECONDS / max(2 * est, 1e-9)))))
        runs = ([], [])  # per variant, two runs per block; v = 1 is hybrid
        for _ in range(repeats * inner):
            for v in (0, 1, 1, 0):
                runs[v].append(run(v))
        full, hybrid = ({k: np.asarray([r[k] for r in rs]) for k in rs[0]} for rs in runs)
        ratio = _block_ratio(hybrid["prefill_s"], full["prefill_s"])
        overhead[str(n)] = {
            "prefill_s_with_detection": float(np.median(hybrid["prefill_s"])),
            "prefill_s_without_detection": float(np.median(full["prefill_s"])),
            "pairs": len(full["prefill_s"]),
            "ratio": ratio,
            "relative_slowdown": ratio - 1.0,
        }
        if max_new:
            results[str(n)] = {
                "hybrid": {k: float(np.median(v)) for k, v in hybrid.items()},
                "full_baseline": {k: float(np.median(v)) for k, v in full.items()},
                "decode_throughput_ratio": _block_ratio(
                    full["decode_step_s"], hybrid["decode_step_s"]
                ),
            }
    return {"results": results, "identification_overhead": overhead}
