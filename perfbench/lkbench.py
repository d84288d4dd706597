"""Workloads, output checks and metrics of the lazykv benchmark.

The benchmark drives the engine from outside, the way a user of the
package would: it writes the model with ``save_model``, reads it back with
``load_model``, builds one ``Session`` per request and times its
``prefill`` and ``decode_step`` calls. Load comes from one closed-loop
client: each request starts only after the previous one has finished.
Nothing waits on a queue or retries, so there is no wait-time metric.

``run`` measures one workload in the calling process and returns the
result the command line prints. See README.md in this directory for the
workloads, the metrics and the layer-to-end-to-end mapping.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import platform
import resource
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from lazykv import theory
from lazykv.engine import EngineParams, PolicyFile, Session
from lazykv.kvcache import kept_positions_for
from lazykv.lazydetect import DetectParams
from lazykv.model import (
    ModelConfig,
    forward_full,
    load_model,
    model_fingerprint,
    random_init,
    save_model,
)

from lktrace import MIB, SPAN_NAMES, Tracer, held_bytes

# The model every engine workload runs: the CLI defaults, seed 1, scale 0.2.
MODEL = dict(
    n_layers=8,
    n_heads=4,
    d_model=64,
    d_head=16,
    vocab_size=256,
    ln_mode="rms",
    logit_scaling="inv_sqrt_dk",
)
MODEL_SEED = 1
MODEL_SCALE = 0.2

# Set-up runs this many times per untraced run; setup_s is the median.
SETUP_REPEATS = 3

# Prompt lengths are drawn in blocks of this many strata (see _prompts).
PROMPT_STRATA = 10

# Relative tolerance of blocked-prefill logits against forward_full.
BLOCKED_LOGITS_RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class EngineWorkload:
    """Greedy generation requests against one model.

    ``mode`` is "online" (detection during prefill) or "static" (replay of
    the policy an online prefill of the run's prompt detected in set-up;
    every request of a static run sends that one prompt).
    """

    mode: str
    prompt: Tuple[int, int]  # prompt length drawn uniformly from [lo, hi]
    n_out: int  # output tokens per request: the prefill argmax + decode steps
    w_sink: int
    w_recent: int
    w_last: int
    n_full: int  # P, layers kept on full attention
    warmup: Tuple[int, int]  # (prompt length, output tokens) of the warm-up
    trace_requests: int  # requests in each pass of a traced run
    logits_check: Optional[str] = None  # "exact" | "close" against forward_full
    check_every: int = 1  # logits-check every k-th request, from the first


@dataclasses.dataclass(frozen=True)
class TheoryWorkload:
    """Requests of one ``lemma_oracles`` round (one trial of each supporting
    inequality), then ``trials`` single-trial ``verify_theorem`` calls.

    The lemma round plays the part of a prefill and each theorem verdict
    that of an output token. Only theorem trials give output gaps: a lemma
    round is a handful of tiny numpy calls, and its time varies about twice
    as much from run to run as a theorem trial's.
    """

    trials: int
    trace_requests: int


WORKLOADS = {
    # Above the 1024-row prefill block, so prefill takes the blocked path.
    "long_prefill": EngineWorkload(
        mode="online", prompt=(1536, 1536), n_out=16,
        w_sink=4, w_recent=60, w_last=32, n_full=4,
        warmup=(1025, 2), trace_requests=4,
        logits_check="close", check_every=1000,
    ),
    # Static replay at the CLI default windows: the 1024-token prompt fills
    # the 4 + 1020 window, so every streaming append during decode evicts.
    # 256 output tokens rather than more, so that a run holds several
    # requests and the TTFT median has more than two samples.
    "long_decode": EngineWorkload(
        mode="static", prompt=(1024, 1024), n_out=256,
        w_sink=4, w_recent=1020, w_last=32, n_full=4,
        warmup=(64, 16), trace_requests=3,
    ),
    # At or below the prefill block: the unblocked path, which must match
    # forward_full bit for bit.
    "short_requests": EngineWorkload(
        mode="online", prompt=(32, 512), n_out=32,
        w_sink=4, w_recent=60, w_last=32, n_full=4,
        warmup=(256, 8), trace_requests=60,
        logits_check="exact", check_every=10,
    ),
    "verify_theory": TheoryWorkload(trials=4, trace_requests=500),
}

END_TO_END = {
    "setup_s": "s",
    "first_output_ms_p50": "ms",
    "output_gap_ms_p50": "ms",
    "outputs_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        if name.startswith("engine."):
            units[f"{name}.self_ms"] = "ms"
        units[f"{name}.ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units.update(
        {
            "kvcache.transfer.mib_freed": "MiB",
            "kvcache.peak_mib": "MiB",
            "kvcache.mib_after_prefill": "MiB",
            "lazydetect.share_of_prefill": "ratio",
            "trace.overhead": "ratio",
            "trace.absent": "count",
        }
    )
    return units


def environment() -> dict:
    """What the numbers depend on besides the code."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
    }


# -- requests --------------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    first_s: float  # time to the first output
    gaps_s: List[float]  # time between consecutive outputs
    wall_s: float
    outputs: int
    prompt_tokens: int = 0
    kv_bytes_after_prefill: int = 0
    ok: bool = True
    # (prompt, first-token logits) of a request sampled for the logits
    # check, until the check has run.
    unchecked: Optional[tuple] = None


@dataclasses.dataclass
class EngineContext:
    spec: EngineWorkload
    config: ModelConfig
    weights: object
    params: EngineParams
    prompts: Iterator[np.ndarray]


def _prompts(spec: EngineWorkload, vocab: int, seed: int) -> Iterator[np.ndarray]:
    rng = np.random.default_rng(seed)
    if spec.mode == "static":
        prompt = rng.integers(0, vocab, size=spec.prompt[0])
        while True:
            yield prompt
    # Stratified: each block of PROMPT_STRATA requests takes one length from
    # each equal slice of [lo, hi], in shuffled order. Lengths stay uniform,
    # and every run sees the same spread of them whatever the seed, so the
    # seed does not move the medians.
    lo, hi = spec.prompt
    width = (hi - lo + 1) / PROMPT_STRATA
    while True:
        for stratum in rng.permutation(PROMPT_STRATA):
            n = min(hi, lo + int((stratum + rng.random()) * width))
            yield rng.integers(0, vocab, size=n)


def _prepare_engine(spec: EngineWorkload, model: dict, seed: int, workdir: Path) -> EngineContext:
    config = ModelConfig(**model)
    path = workdir / "model.lazykv"
    save_model(path, config, random_init(config, MODEL_SEED, MODEL_SCALE), seed=MODEL_SEED)
    config, weights, _ = load_model(path)
    detect = DetectParams(
        w_last=spec.w_last, w_sink=spec.w_sink, w_recent=spec.w_recent, n_full=spec.n_full
    )
    prompts = _prompts(spec, config.vocab_size, seed)
    policy = None
    if spec.mode == "static":
        # What `lazykv run --emit-policy` then `lazykv run --policy` does.
        capture = Session(weights, config, EngineParams(detect=detect))
        _, report = capture.prefill(next(prompts))
        policy_path = workdir / "policy.json"
        PolicyFile(
            fingerprint=model_fingerprint(path),
            lazy_layers=report.lazy_layers,
            w_sink=detect.w_sink,
            w_recent=detect.w_recent,
            provenance="online",
        ).save(policy_path)
        policy = PolicyFile.load(policy_path)
    ctx = EngineContext(spec, config, weights, EngineParams(detect=detect, policy=policy), prompts)
    warm_len, warm_out = spec.warmup
    warm = np.random.default_rng([seed, 1]).integers(0, config.vocab_size, size=warm_len)
    _engine_request(ctx, warm, warm_out)
    return ctx


def _engine_request(ctx: EngineContext, prompt, n_out: int, deadline=None, sampled=False):
    """One request; returns (outcome, session). Decoding stops early once
    ``deadline`` (a perf_counter reading) has passed."""
    t0 = time.perf_counter()
    session = Session(ctx.weights, ctx.config, ctx.params)
    logits, _ = session.prefill(prompt)
    token = int(np.argmax(logits))
    t1 = time.perf_counter()
    kv_bytes = held_bytes(session)
    gaps = []
    last = time.perf_counter()
    for _ in range(n_out - 1):
        if deadline is not None and last >= deadline:
            break
        token = int(np.argmax(session.decode_step(token)))
        now = time.perf_counter()
        gaps.append(now - last)
        last = now
    outcome = Outcome(
        first_s=t1 - t0,
        gaps_s=gaps,
        wall_s=(t1 - t0) + sum(gaps),
        outputs=1 + len(gaps),
        prompt_tokens=len(prompt),
        kv_bytes_after_prefill=kv_bytes,
        unchecked=(prompt, logits) if sampled else None,
    )
    return outcome, session


def _caches_ok(session, expected_seen: int) -> bool:
    """Streaming caches hold exactly the sink + recent set, full caches every
    position seen."""
    for cache in session.caches:
        if cache.total_seen != expected_seen:
            return False
        pol = cache.policy
        if pol.kind == "streaming":
            want = kept_positions_for(cache.total_seen, pol.w_sink, pol.w_recent)
        else:
            want = np.arange(cache.total_seen)
        if not np.array_equal(cache.kept_positions, want):
            return False
    return True


def _lazy_set_ok(report, n_layers: int, n_full: int) -> bool:
    """The lazy set is the top L - P ratios, ties going to the deeper layer."""
    ratios = report.ratios
    order = sorted(range(n_layers), key=lambda i: (-ratios[i], -i))
    return sorted(report.lazy_layers) == sorted(order[: n_layers - min(n_full, n_layers)])


def _logits_ok(kind: str, prompt, logits, ctx: EngineContext) -> bool:
    want = forward_full(prompt, ctx.weights, ctx.config).logits[-1]
    if kind == "exact":
        return bool(np.array_equal(logits, want))
    return bool(np.max(np.abs(logits - want)) <= BLOCKED_LOGITS_RTOL * np.max(np.abs(want)))


def _engine_pass(ctx: EngineContext, prompts, deadline=None, tracer=None) -> List[Outcome]:
    """Run requests in a closed loop: a fixed list, or until ``deadline``.

    Cache and lazy-set checks run between requests, outside the timed
    sections. Sampled requests keep what their logits check needs; the
    caller runs those checks once it has read the peak RSS.
    """
    spec = ctx.spec
    outcomes: List[Outcome] = []
    for i, prompt in enumerate(prompts):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.request = i
        sampled = spec.logits_check is not None and i % spec.check_every == 0
        try:
            out, session = _engine_request(ctx, prompt, spec.n_out, deadline, sampled)
            out.ok = _caches_ok(session, len(prompt) + out.outputs - 1)
            if spec.mode == "online":
                out.ok &= _lazy_set_ok(session.report, ctx.config.n_layers, spec.n_full)
            del session  # free its caches before the next request allocates
        except Exception as exc:  # a failed request counts; the run goes on
            print(f"request {i} failed: {type(exc).__name__}: {exc}")
            out = Outcome(0.0, [], 0.0, 0, ok=False)
        outcomes.append(out)
    if tracer is not None:
        limit = spec.n_full + 1
        for i, full in tracer.max_full_caches.items():
            if full > limit:
                outcomes[i].ok = False
    return outcomes


# -- theory requests ---------------------------------------------------------------


def _theory_seeds(seed: int) -> Iterator[int]:
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2**31))


def _theory_request(spec: TheoryWorkload, trial_seed: int) -> Outcome:
    t0 = time.perf_counter()
    lemmas = theory.lemma_oracles(n_trials=1, seed=trial_seed)
    ok = all(v["violations"] == 0 for v in lemmas.values())
    marks = []
    for k in range(spec.trials):
        ok &= theory.verify_theorem(n_trials=1, seed=trial_seed + k)["violations"] == 0
        marks.append(time.perf_counter())
    return Outcome(
        first_s=marks[0] - t0,
        gaps_s=[b - a for a, b in zip(marks, marks[1:])],
        wall_s=marks[-1] - t0,
        outputs=spec.trials,
        ok=ok,
    )


def _theory_pass(spec: TheoryWorkload, seeds, deadline=None, tracer=None) -> List[Outcome]:
    outcomes = []
    for i, trial_seed in enumerate(seeds):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.request = i
        try:
            outcomes.append(_theory_request(spec, trial_seed))
        except Exception as exc:  # a failed request counts; the run goes on
            print(f"request {i} failed: {type(exc).__name__}: {exc}")
            outcomes.append(Outcome(0.0, [], 0.0, 0, ok=False))
    return outcomes


# -- one run ---------------------------------------------------------------------------


class _PausedGC:
    """Collector pauses would land inside timed requests; the requests
    allocate acyclic numpy arrays that free by reference count."""

    def __enter__(self):
        gc.collect()
        self._was = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc):
        if self._was:
            gc.enable()


def _prepare(spec, model: dict, seed: int, workdir: Path):
    if isinstance(spec, TheoryWorkload):
        _theory_request(spec, seed)  # warm-up
        return None
    return _prepare_engine(spec, model, seed, workdir)


def _end_to_end(outcomes: List[Outcome], setup_s: float, rss_mib: float) -> Dict[str, float]:
    good = [o for o in outcomes if o.outputs]
    gaps = [g for o in good for g in o.gaps_s]
    busy = sum(o.wall_s for o in good)
    return {
        "setup_s": setup_s,
        "first_output_ms_p50": statistics.median(o.first_s for o in good) * 1e3,
        "output_gap_ms_p50": statistics.median(gaps) * 1e3,
        "outputs_per_s": sum(o.outputs for o in good) / busy,
        "peak_rss_mib": rss_mib,
    }


def _details(spec, outcomes: List[Outcome]) -> dict:
    """The workload-specific figures, by the names a reader of the engine
    expects (TTFT, TPOT, ...); they are printed, not gated."""
    good = [o for o in outcomes if o.outputs]
    busy = sum(o.wall_s for o in good)
    out = {
        "requests": len(outcomes),
        "failed_frac": sum(1 for o in outcomes if not o.ok) / max(len(outcomes), 1),
    }
    if isinstance(spec, TheoryWorkload):
        out["theory_trials_per_s"] = sum(o.outputs for o in good) / busy
        return out
    firsts = [o.first_s * 1e3 for o in good]
    gaps = [g * 1e3 for o in good for g in o.gaps_s]
    out.update(
        decode_steps=len(gaps),
        ttft_ms_p50=statistics.median(firsts),
        tpot_ms_p50=statistics.median(gaps),
        output_tokens_per_s=sum(o.outputs for o in good) / busy,
        prompt_tokens_per_s=sum(o.prompt_tokens for o in good) / sum(o.first_s for o in good),
        kv_mib_after_prefill=statistics.median(o.kv_bytes_after_prefill for o in good) / MIB,
    )
    # A tail percentile needs ten samples beyond it.
    if len(firsts) >= 100:
        out["ttft_ms_p90"] = float(np.percentile(firsts, 90))
    if len(gaps) >= 1000:
        out["tpot_ms_p99"] = float(np.percentile(gaps, 99))
    return out


def _per_layer(tracer: Tracer, overhead: float) -> Dict[str, float]:
    spans = tracer.summary()
    values: Dict[str, float] = {}
    for name, agg in spans.items():
        if name.startswith("engine."):
            values[f"{name}.self_ms"] = agg["self_ms"]
        values[f"{name}.ms"] = agg["ms"]
        values[f"{name}.calls"] = agg["calls"]
    prefill_ms = spans["engine.prefill"]["ms"]
    after = tracer.after_prefill_bytes
    values.update(
        {
            "kvcache.transfer.mib_freed": tracer.freed_bytes / MIB,
            "kvcache.peak_mib": tracer.peak_bytes / MIB,
            "kvcache.mib_after_prefill": (sum(after) / len(after) / MIB) if after else 0.0,
            "lazydetect.share_of_prefill": (
                spans["lazydetect.lse_log_ratios"]["ms"] / prefill_ms if prefill_ms else 0.0
            ),
            "trace.overhead": overhead,
            "trace.absent": len(tracer.absent),
        }
    )
    return values


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    *,
    import_s: float = 0.0,
    workloads: Optional[dict] = None,
    model: Optional[dict] = None,
) -> dict:
    """Measure one workload; returns the printed result plus details.

    Untraced: set up SETUP_REPEATS times, then run requests for
    ``seconds``. Traced: set up once, run the workload's fixed request list
    untraced and then traced, and report per-layer metrics and the wall
    time ratio of the two passes.
    """
    spec = (workloads or WORKLOADS)[name]
    model = model or MODEL
    theory_run = isinstance(spec, TheoryWorkload)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workdir) as tmp:
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            ctx = _prepare(spec, model, seed, Path(tmp))
            setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    def one_pass(source, deadline=None, tracer=None):
        if theory_run:
            return _theory_pass(spec, source, deadline, tracer)
        return _engine_pass(ctx, source, deadline, tracer)

    source = _theory_seeds(seed) if theory_run else ctx.prompts
    if not trace:
        with _PausedGC():
            outcomes = one_pass(source, deadline=time.perf_counter() + seconds)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = _end_to_end(outcomes, setup_s, rss_mib)
        units = END_TO_END
    else:
        fixed = [next(source) for _ in range(spec.trace_requests)]
        with _PausedGC():
            plain = one_pass(fixed)
        tracer = Tracer()
        with _PausedGC(), tracer:
            traced = one_pass(fixed, tracer=tracer)
        outcomes = plain + traced
        overhead = sum(o.wall_s for o in traced) / sum(o.wall_s for o in plain)
        metrics = _per_layer(tracer, overhead)
        units = per_layer_units()
    for out in outcomes:
        if out.unchecked is not None:
            out.ok &= _logits_ok(spec.logits_check, *out.unchecked, ctx)
            out.unchecked = None
    failed = sum(1 for o in outcomes if not o.ok)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "detail": _details(spec, outcomes),
        "absent": tracer.absent if trace else [],
    }
