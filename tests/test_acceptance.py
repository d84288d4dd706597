"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 7 and 8 are wall-clock measurements. Criterion 7 takes the
medians of many short decode bursts, interleaved over every configuration
and prompt length, and keeps each session's min. Criterion 8 takes the
median of per-block ratios, each block being back-to-back (without, with,
with, without) prefills. Both pause the garbage collector to keep
in-process noise out of the direction checks, and the repository's
conftest pins BLAS to one thread. Run with
``pytest -s`` to see the per-criterion lines.
"""

import gc
import time
from contextlib import contextmanager

import numpy as np
from lazykv.engine import (
    EngineParams,
    PolicyFile,
    Session,
    identification_overhead,
)
from lazykv.kvcache import CachePolicy, LayerCache
from lazykv.lazydetect import DetectParams, IdentifierState
from lazykv.model import ModelConfig, forward_full, random_init
from lazykv.numerics import MaskSpec, masked_row_softmax
from lazykv.offline import CorpusSample, preselect
from lazykv.theory import lemma_oracles, verify_theorem

from oracles import lazy_ratio_bruteforce, lazy_ratio_lse, masked_row_logsumexp
from test_offline import engineered_corpus, engineered_model


def report(k, text):
    print(f"\nACCEPTANCE {k}: PASS - {text}")


@contextmanager
def quiet_gc():
    """Collector pauses would poison millisecond-scale timing bursts; all
    measured allocations are acyclic numpy arrays that free by refcount."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def random_model(rng, max_layers=4, d_model=4, vocab=8):
    config = ModelConfig(
        n_layers=int(rng.integers(1, max_layers + 1)),
        n_heads=int(rng.integers(1, 3)),
        d_model=d_model,
        d_head=int(rng.integers(1, d_model + 1)),
        vocab_size=vocab,
        ln_mode="rms",
        logit_scaling="inv_sqrt_dk",
    )
    return config, random_init(config, int(rng.integers(0, 2**31)), 0.6)


def test_criterion_01_lse_identity():
    """|lse-based ratio - brute force| <= 1e-10 over 1000 random layers, <10 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        n_heads = int(rng.integers(1, 5))
        dk = int(rng.integers(1, 7))
        scale = float(rng.choice([1.0, 1.0 / np.sqrt(dk)]))
        qs = [rng.standard_normal((n, dk)) * 2 for _ in range(n_heads)]
        ks = [rng.standard_normal((n, dk)) * 2 for _ in range(n_heads)]
        params = DetectParams(
            w_last=int(rng.integers(1, 17)),
            w_sink=int(rng.integers(0, 6)),
            w_recent=int(rng.integers(1, 13)),
        )
        weights = np.stack(
            [
                masked_row_softmax((q @ k.T) * scale, MaskSpec.causal())
                for q, k in zip(qs, ks)
            ]
        )
        brute = lazy_ratio_bruteforce(weights, params)

        m = min(params.w_last, n)
        sets = [list(range(n - m + j + 1)) for j in range(m)]
        lse = np.stack([
            masked_row_logsumexp((q[n - m :] @ k.T) * scale, MaskSpec.lazy_set(sets))
            for q, k in zip(qs, ks)
        ])
        q_last = np.stack([q[n - m :] for q in qs])
        via_lse = lazy_ratio_lse(q_last, np.stack(ks), lse, params, scale)
        worst = max(worst, abs(via_lse - brute))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"max |lse - brute| = {worst}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"1000 layers, max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_exact_when_nothing_evicted():
    """Any P: while prompt+generation fits the window, engine == full model."""
    rng = np.random.default_rng(102)
    for _ in range(100):
        config, weights = random_model(rng)
        w_sink = int(rng.integers(0, 4))
        w_recent = int(rng.integers(6, 17))
        n = int(rng.integers(1, 7))
        budget = w_sink + w_recent
        steps = budget - n  # prompt + generation never exceeds the window
        detect = DetectParams(
            w_last=int(rng.integers(1, 5)), w_sink=w_sink, w_recent=w_recent,
            n_full=int(rng.integers(0, config.n_layers + 1)),
        )
        session = Session(weights, config, EngineParams(detect=detect))
        tokens = rng.integers(0, config.vocab_size, size=n)
        logits, _ = session.prefill(tokens)
        seq = list(tokens)
        assert np.allclose(
            logits, forward_full(seq, weights, config).logits[-1], atol=1e-10, rtol=0
        )
        for _ in range(min(steps, 10)):
            t = int(rng.integers(0, config.vocab_size))
            logits = session.decode_step(t)
            seq.append(t)
            expect = forward_full(seq, weights, config).logits[-1]
            assert np.allclose(logits, expect, atol=1e-10, rtol=0)
    report(2, "100 random models, logits exact at every step under no eviction")


def test_criterion_03_baseline_equivalence():
    """P = L reproduces full-recompute greedy tokens, 50 random pairs."""
    rng = np.random.default_rng(103)
    for _ in range(50):
        config, weights = random_model(rng, max_layers=3)
        detect = DetectParams(
            w_last=4, w_sink=1, w_recent=4, n_full=config.n_layers
        )
        prompt = rng.integers(0, config.vocab_size, size=int(rng.integers(2, 12)))
        got = Session(weights, config, EngineParams(detect=detect)).generate_greedy(
            prompt, 6
        )
        seq = list(prompt)
        expect = []
        for _ in range(6):
            t = int(np.argmax(forward_full(seq, weights, config).logits[-1]))
            expect.append(t)
            seq.append(t)
        assert got == expect
    report(3, "50 random model/prompt pairs, token sequences identical")


def test_criterion_04_selection_matches_sort_oracle():
    """Survivors of the queue are the P smallest ratios under the tie-break."""
    rng = np.random.default_rng(104)
    for _ in range(200):
        L = int(rng.integers(1, 14))
        P = int(rng.integers(0, L + 1))
        ratios = rng.uniform(0, 1, size=L)
        if rng.uniform() < 0.5:
            ratios = np.round(ratios, 1)  # force ties
        state = IdentifierState(capacity=P, n_layers=L)
        for i, r in enumerate(ratios):
            state.push(i, float(r))
        full, lazy = state.finalize()
        oracle = sorted(sorted(range(L), key=lambda i: (ratios[i], i))[:P])
        assert full == oracle
        assert len(lazy) == L - P
    report(4, "200 ratio vectors, queue survivors = P smallest (deeper-layer ties)")


def test_criterion_05_peak_memory_invariants():
    """Full caches never exceed P+1 during online prefill; streaming caches
    never exceed w_sink + w_recent rows."""
    rng = np.random.default_rng(105)
    for _ in range(25):
        config, weights = random_model(rng, max_layers=5)
        detect = DetectParams(
            w_last=int(rng.integers(1, 9)),
            w_sink=int(rng.integers(0, 4)),
            w_recent=int(rng.integers(1, 9)),
            n_full=int(rng.integers(0, config.n_layers + 1)),
        )
        session = Session(weights, config, EngineParams(detect=detect))
        session.prefill(rng.integers(0, config.vocab_size, size=int(rng.integers(2, 49))))
        assert session.peak_full_caches <= min(detect.n_full, config.n_layers) + 1
        for i in session.report.lazy_layers:
            assert session.caches[i].size <= detect.w_sink + detect.w_recent

    for _ in range(50):
        w_sink = int(rng.integers(0, 5))
        w_recent = int(rng.integers(1, 9))
        cache = LayerCache(1, 2, 2, CachePolicy.streaming(w_sink, w_recent))
        for _ in range(int(rng.integers(1, 15))):
            t = int(rng.integers(1, 6))
            cache.append(rng.standard_normal((1, t, 2)), rng.standard_normal((t, 2)))
            assert cache.size <= w_sink + w_recent
    report(5, "prefill full-cache count <= P+1; streaming rows <= w_sink+w_recent")


def test_criterion_06_theorem_and_lemma_oracles():
    """100 bound trials and 4x500 inequality trials, zero violations, <60 s."""
    t0 = time.perf_counter()
    theorem = verify_theorem(
        n_trials=100, seed=106, max_layers=4, max_heads=3, max_dim=8,
        max_tokens=24, target_b=1.2,
    )
    assert theorem["violations"] == 0
    assert theorem["min_recursive_margin"] >= -1e-9
    assert theorem["min_logit_margin"] >= -1e-9
    lemmas = lemma_oracles(n_trials=500, seed=106)
    for name, entry in lemmas.items():
        assert entry["violations"] == 0, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(
        6,
        "bounds hold: min recursive margin "
        f"{theorem['min_recursive_margin']:.3g}, min logit margin "
        f"{theorem['min_logit_margin']:.3g}, lemmas clean, {elapsed:.1f}s",
    )


# --- timing criteria ----------------------------------------------------------

BENCH_LENGTHS = (1024, 2048, 4096, 8192)


def _decode_step_seconds(weights, config, configs_lazy, prompts, detect,
                         bursts=32, steps=25, warmup=6):
    """Per (config, length): min over interleaved bursts of the median step time.

    Bursts of every cache configuration at every prompt length alternate,
    so any noisy scheduling window degrades all of them alike and a slow
    stretch of the machine cannot pose as growth with the length. The
    bursts are many and short so that each session is sampled at many
    moments: a loaded host runs slow (by about 1.5x) for stretches long
    enough to cover a few long bursts of one session. The min then picks
    each session's cleanest burst.
    """
    sessions = {}
    for n, prompt in prompts.items():
        for name, lazy_layers in configs_lazy.items():
            policy = PolicyFile(
                fingerprint="", lazy_layers=list(lazy_layers), w_sink=detect.w_sink,
                w_recent=detect.w_recent, provenance="manual",
            )
            s = Session(weights, config, EngineParams(detect=detect, policy=policy))
            s.prefill(prompt)
            tok = 1
            for _ in range(warmup):
                tok = int(np.argmax(s.decode_step(tok)))
            sessions[name, n] = s
    medians = {key: [] for key in sessions}
    with quiet_gc():
        for _ in range(bursts):
            for key, s in sessions.items():
                s.decode_seconds.clear()
                tok = 1
                for _ in range(steps):
                    tok = int(np.argmax(s.decode_step(tok)))
                medians[key].append(float(np.median(s.decode_seconds)))
    return {key: min(vals) for key, vals in medians.items()}


def test_criterion_07_decode_cost_scaling():
    """Streaming decode flat in N; all-full grows; hybrid strictly between."""
    config = ModelConfig(
        n_layers=2, n_heads=1, d_model=32, d_head=16, vocab_size=64,
        ln_mode="rms", logit_scaling="inv_sqrt_dk",
    )
    weights = random_init(config, 107, 0.3)
    detect = DetectParams(w_last=16, w_sink=4, w_recent=60, n_full=1)
    rng = np.random.default_rng(107)
    configs_lazy = {"stream": [0, 1], "hybrid": [0], "full": []}
    prompts = {n: rng.integers(0, config.vocab_size, size=n) for n in BENCH_LENGTHS}
    at = _decode_step_seconds(weights, config, configs_lazy, prompts, detect)
    times = {name: [at[name, n] for n in BENCH_LENGTHS] for name in configs_lazy}

    ns = np.asarray(BENCH_LENGTHS, dtype=float)
    stream = np.asarray(times["stream"])
    slope = np.polyfit(ns, stream, 1)[0]
    rise_fraction = abs(slope) * (ns[-1] - ns[0]) / stream.mean()
    # operationalizes "slope indistinguishable from 0": the fitted change
    # across the whole range is a small fraction of a typical step
    assert rise_fraction <= 0.25, f"streaming rise fraction {rise_fraction:.2f}"

    full = times["full"]
    assert full[-1] >= 2.0 * full[0], f"full decode grew only {full[-1]/full[0]:.2f}x"
    for a, b in zip(full, full[1:]):
        assert b >= 0.85 * a, f"full decode time not growing: {full}"
    assert times["stream"][-1] < times["hybrid"][-1] < times["full"][-1]
    report(
        7,
        f"per-step ms at 1K..8K: stream {[f'{t*1e3:.3f}' for t in times['stream']]}, "
        f"full {[f'{t*1e3:.3f}' for t in full]} "
        f"({full[-1]/full[0]:.1f}x), hybrid between at 8K "
        f"({times['hybrid'][-1]*1e3:.3f} ms)",
    )


def test_criterion_08_identification_overhead():
    """Online detection costs <= 10% at N=4K, with non-increasing trend."""
    config = ModelConfig(
        n_layers=1, n_heads=1, d_model=16, d_head=8, vocab_size=32,
        ln_mode="rms", logit_scaling="inv_sqrt_dk",
    )
    weights = random_init(config, 108, 0.3)
    detect = DetectParams(w_last=64, w_sink=4, w_recent=60, n_full=0)
    rng = np.random.default_rng(108)
    lengths = (512, 1024, 2048, 4096, 8192)
    prompts = {n: rng.integers(0, config.vocab_size, size=n) for n in lengths}
    with quiet_gc():
        results = identification_overhead(
            weights, config, prompts, detect, repeats=4, warmup=1, reduce="median"
        )
    slow = [results[n]["relative_slowdown"] for n in lengths]
    assert slow[lengths.index(4096)] <= 0.10, f"4K slowdown {slow}"
    non_increasing = sum(
        1 for a, b in zip(slow, slow[1:]) if b <= a + 0.002
    )
    assert non_increasing >= 3, f"trend not decreasing: {slow}"
    report(
        8,
        "relative slowdown at 512..8K: "
        + ", ".join(f"{s*100:.1f}%" for s in slow)
        + f"; {non_increasing}/4 steps non-increasing",
    )


def test_criterion_09_preselect_determinism_and_recovery():
    """Corpus order cannot matter; the engineered lazy layer is always found."""
    rng = np.random.default_rng(109)
    config, weights = random_model(rng, max_layers=4)
    detect = DetectParams(w_last=6, w_sink=1, w_recent=6, n_full=1)
    corpus = []
    for _ in range(6):
        toks = rng.integers(0, config.vocab_size, size=int(rng.integers(14, 40)))
        cut = int(rng.integers(1, toks.size))
        corpus.append(
            CorpusSample(
                question=tuple(toks[:cut].tolist()), answer=tuple(toks[cut:].tolist())
            )
        )
    table_a, policy_a = preselect(weights, config, corpus, detect)
    perm = [corpus[i] for i in rng.permutation(len(corpus))]
    table_b, policy_b = preselect(weights, config, perm, detect)
    assert table_a.counts == table_b.counts
    assert policy_a.lazy_layers == policy_b.lazy_layers

    uniform_layer = 2
    e_config, e_weights = engineered_model(uniform_layer)
    e_detect = DetectParams(w_last=8, w_sink=2, w_recent=10, n_full=2)
    hits = 0
    for seed in range(10):
        corpus = engineered_corpus(np.random.default_rng(seed), n_samples=4)
        _, policy = preselect(e_weights, e_config, corpus, e_detect)
        hits += uniform_layer in policy.lazy_layers
    assert hits == 10
    report(9, f"frequency table order-invariant; engineered layer found {hits}/10 seeds")


def test_criterion_10_policy_replay():
    """Static replay of an online run's policy regenerates the same tokens."""
    rng = np.random.default_rng(110)
    for _ in range(50):
        config, weights = random_model(rng, max_layers=3)
        detect = DetectParams(
            w_last=int(rng.integers(1, 6)),
            w_sink=int(rng.integers(0, 3)),
            w_recent=int(rng.integers(3, 8)),
            n_full=int(rng.integers(0, config.n_layers + 1)),
        )
        prompt = rng.integers(0, config.vocab_size, size=int(rng.integers(12, 49)))
        online = Session(weights, config, EngineParams(detect=detect))
        tokens_online = online.generate_greedy(prompt, 8)
        policy = PolicyFile(
            fingerprint="", lazy_layers=online.report.lazy_layers,
            w_sink=detect.w_sink, w_recent=detect.w_recent, provenance="online",
        )
        static = Session(weights, config, EngineParams(detect=detect, policy=policy))
        assert static.generate_greedy(prompt, 8) == tokens_online
    report(10, "50 online runs replayed exactly from their emitted policies")
