"""Engine sessions: prefill transfer, decode equivalence, policies, replay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazykv.bench import baseline_params
from lazykv.engine import (
    EngineParams,
    PolicyFile,
    Session,
    make_policy,
    pyramid_windows,
)
from lazykv.errors import ContractViolation, InputError
from lazykv.kvcache import LayerCache, kept_positions_for
from lazykv.lazydetect import DetectParams
from lazykv.model import (
    _PREFILL_BLOCK,
    _PREFILL_TILE,
    ModelConfig,
    _causal_attention,
    forward_full,
    ln,
    random_init,
)
from lazykv.numerics import SAFE_SCORE, attend, masked_row_softmax

from oracles import (
    MaskSpec,
    _causal_tile,
    lazy_ratio_bruteforce,
    masked_block_forward,
    masked_row_logsumexp,
    score_bound,
)


def make_model(seed, n_layers=2, n_heads=2, d_model=4, d_head=3, vocab=9, **kw):
    config = ModelConfig(
        n_layers=n_layers, n_heads=n_heads, d_model=d_model, d_head=d_head,
        vocab_size=vocab, ln_mode=kw.pop("ln_mode", "rms"),
        logit_scaling=kw.pop("logit_scaling", "inv_sqrt_dk"), **kw,
    )
    return config, random_init(config, seed, 0.6)


def random_prompt(rng, config, n):
    return rng.integers(0, config.vocab_size, size=n)


def masked_forward_logits(tokens, weights, config, layer_allowed):
    """From-scratch forward using explicit per-layer allowed sets."""
    x = weights.embedding[np.asarray(tokens, dtype=np.int64)]
    for layer in range(config.n_layers):
        x = masked_block_forward(x, layer, weights, MaskSpec.lazy_set(layer_allowed[layer]), config)
    return x @ weights.unembed


def hybrid_allowed_sets(total, n_prompt, lazy, config, w_sink, w_recent):
    """Per-layer allowed sets realized by cache semantics.

    Prompt rows always attended full-causally (transfer happens after each
    layer's prefill); decode rows of lazy layers see sinks + their recent
    window.
    """
    per_layer = []
    for layer in range(config.n_layers):
        sets = []
        for q in range(total):
            if layer in lazy and q >= n_prompt:
                sets.append(kept_positions_for(q + 1, w_sink, w_recent))
            else:
                sets.append(np.arange(q + 1))
        per_layer.append(sets)
    return per_layer


def bruteforce_layer_ratios(tokens, weights, config, detect):
    """Spec-independent ratio oracle straight from a full forward trace."""
    trace = forward_full(tokens, weights, config)
    ratios = []
    for layer in range(config.n_layers):
        x_norm = ln(trace.xs[layer], config.ln_mode)
        heads = []
        for h in range(config.n_heads):
            q = x_norm @ weights.w_q[layer, h]
            k = x_norm @ weights.w_k[layer, h]
            heads.append(
                masked_row_softmax((q @ k.T) * config.score_scale, np.tri(len(q), dtype=bool))
            )
        ratios.append(lazy_ratio_bruteforce(np.stack(heads), detect))
    return ratios


@st.composite
def causal_kernel_case(draw):
    """Head-stacked q/k, shared input rows x and a value stack w_v, the
    length sitting on or around tile boundaries."""
    tiles = draw(st.integers(1, 3))
    n = draw(st.sampled_from([
        1,
        _PREFILL_TILE - 1,
        _PREFILL_TILE,
        _PREFILL_TILE + 1,
        tiles * _PREFILL_TILE + draw(st.integers(1, _PREFILL_TILE - 1)),
    ]))
    h, d_head = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    d_model, d_value = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1.0, 0.5, 1.7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # At spread 8 most cases bound their scores above SAFE_SCORE, so the
    # kernel takes the max-shifted fallback; at 0.1 and 1 none do.
    spread = draw(st.sampled_from([0.1, 1.0, 4.0, 8.0]))
    q = rng.standard_normal((h, n, d_head)) * spread
    k = rng.standard_normal((h, n, d_head)) * spread
    x = rng.standard_normal((n, d_model))
    w_v = rng.standard_normal((h, d_model, d_value))
    return q, k, x, w_v, scale


class TestCausalKernel:
    @settings(max_examples=40, deadline=None)
    @given(causal_kernel_case())
    def test_matches_mask_spec_oracles(self, case):
        q, k, x, w_v, scale = case
        out, lse = _causal_attention(q, k, x, w_v, scale)
        assert np.isfinite(out).all() and np.isfinite(lse).all()
        causal = MaskSpec.causal()
        expect_out = 0.0
        for h in range(q.shape[0]):
            scores = (q[h] @ k[h].T) * scale
            v_h = x @ w_v[h]
            expect_out = expect_out + masked_row_softmax(scores, np.tri(len(scores), dtype=bool)) @ v_h
            assert np.allclose(lse[h], masked_row_logsumexp(scores, causal), atol=1e-12, rtol=0)
        assert np.allclose(out, expect_out, atol=1e-12, rtol=0)

    @settings(max_examples=40, deadline=None)
    @given(causal_kernel_case())
    def test_bit_identical_to_the_frozen_tile_oracle(self, case):
        # each tile's attend call and W_V product do the arithmetic of the
        # frozen tile routine, raw or, past SAFE_SCORE, max-shifted
        q, k, x, w_v, scale = case
        n = q.shape[1]
        out, lse = _causal_attention(q, k, x, w_v, scale)
        shifted = score_bound(q, k, scale) > SAFE_SCORE
        for r0 in range(0, n, _PREFILL_TILE):
            r1 = min(r0 + _PREFILL_TILE, n)
            expect_out, expect_lse = _causal_tile(q[:, r0:r1], k, x, w_v, scale, r0, shifted)
            assert np.array_equal(out[r0:r1], expect_out)
            assert np.array_equal(lse[:, r0:r1], expect_lse)

    @settings(max_examples=20, deadline=None)
    @given(causal_kernel_case(), st.integers(1, 40))
    def test_tail_tile_lse_equals_kernel_rows(self, case, w_last):
        # the short-prompt detection call: attend over only the last m rows
        q, k, x, w_v, scale = case
        n = q.shape[1]
        m = min(w_last, n)
        _, lse = _causal_attention(q, k, x, w_v, scale)
        pos = np.arange(n)
        out, tail = attend(q[:, n - m :], k, scale, pos[n - m :], pos)
        assert out is None
        assert np.allclose(tail, lse[:, n - m :], atol=1e-12, rtol=0)


class TestPrefill:
    def test_p_equals_l_bit_identical_to_forward_full(self):
        config, weights = make_model(0, n_layers=3)
        detect = DetectParams(w_last=4, w_sink=2, w_recent=4, n_full=config.n_layers)
        session = Session(weights, config, EngineParams(detect=detect))
        tokens = random_prompt(np.random.default_rng(1), config, 12)
        logits, report = session.prefill(tokens)
        assert np.array_equal(logits, forward_full(tokens, weights, config).logits[-1])
        assert report.lazy_layers == []

    def test_returned_logits_row_owns_its_memory(self):
        # a view would keep the prompt's whole (n, vocab) logits matrix alive
        # for as long as the caller holds the row
        config, weights = make_model(0)
        session = Session(weights, config, EngineParams())
        logits, _ = session.prefill(random_prompt(np.random.default_rng(1), config, 12))
        assert logits.base is None and logits.shape == (config.vocab_size,)

    def test_short_prompt_all_ratios_one(self):
        config, weights = make_model(2)
        detect = DetectParams(w_last=4, w_sink=4, w_recent=16, n_full=1)
        session = Session(weights, config, EngineParams(detect=detect))
        tokens = random_prompt(np.random.default_rng(3), config, 8)
        _, report = session.prefill(tokens)
        assert np.allclose(report.ratios, 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed, n", [(28, 93), (56, 121), (116, 181)])
    def test_covered_prompt_ties_exactly_on_the_tiled_path(self, seed, n):
        # Above 64 tokens the full lse comes from the tiled kernel and the
        # kept lse from a gathered attend call. A window that covers every
        # row keeps the whole causal set, so each ratio is exactly 1 and the
        # queue pops the deepest layers; a rounding gap of 1e-16 in one
        # ratio is enough to move a shallower layer into the lazy set.
        config = ModelConfig(
            n_layers=8, n_heads=4, d_model=64, d_head=16, vocab_size=256,
            ln_mode="rms", logit_scaling="inv_sqrt_dk",
        )
        detect = DetectParams(w_last=32, w_sink=4, w_recent=1020, n_full=4)
        session = Session(random_init(config, 1, 0.2), config, EngineParams(detect=detect))
        _, report = session.prefill(random_prompt(np.random.default_rng(seed), config, n))
        assert all(r == 1.0 for r in report.ratios)
        assert report.lazy_layers == [4, 5, 6, 7]

    def test_lazy_set_matches_ratio_sort_oracle_and_peak_full(self):
        config, weights = make_model(4, n_layers=4, d_model=6, d_head=4)
        detect = DetectParams(w_last=8, w_sink=2, w_recent=6, n_full=2)
        tokens = random_prompt(np.random.default_rng(5), config, 64)
        session = Session(weights, config, EngineParams(detect=detect))
        _, report = session.prefill(tokens)
        oracle = bruteforce_layer_ratios(tokens, weights, config, detect)
        assert np.allclose(report.ratios, oracle, atol=1e-10)
        expect_full = sorted(sorted(range(4), key=lambda i: (oracle[i], i))[:2])
        assert report.full_layers == expect_full
        assert session.peak_full_caches <= detect.n_full + 1
        # popped layers' caches already shrunk to the streaming window
        for i in report.lazy_layers:
            assert session.caches[i].size <= detect.w_sink + detect.w_recent
        for i in report.full_layers:
            assert session.caches[i].size == tokens.size

    def test_blocked_prefill_matches_forward_full_above_threshold(self):
        # prompts longer than the attention row-block still prefill exactly
        config, weights = make_model(80, n_layers=1, d_model=8, d_head=4, vocab=17)
        n = _PREFILL_BLOCK + 173
        detect = DetectParams(w_last=4, w_sink=2, w_recent=6, n_full=1)
        session = Session(weights, config, EngineParams(detect=detect))
        tokens = random_prompt(np.random.default_rng(81), config, n)
        logits, _ = session.prefill(tokens)
        expect = forward_full(tokens, weights, config).logits[-1]
        assert np.array_equal(logits, expect)

    @pytest.mark.parametrize("mode", ["online", "static"])
    @pytest.mark.parametrize(
        # 4 * _PREFILL_TILE + 1: one row past a tile boundary, above the block
        "n", [_PREFILL_BLOCK, _PREFILL_BLOCK + 1, 4 * _PREFILL_TILE + 1, 600]
    )
    def test_prefill_logits_bit_identical_to_forward_full(self, mode, n):
        # prefill and forward_full make the same attention call on either
        # side of the threshold and across tile boundaries
        config, weights = make_model(84, n_layers=3, d_model=8, d_head=4, vocab=17)
        detect = DetectParams(w_last=8, w_sink=2, w_recent=6, n_full=1)
        policy = None
        if mode == "static":
            policy = PolicyFile(fingerprint="", lazy_layers=[0, 2], w_sink=2,
                                w_recent=6, provenance="manual")
        session = Session(weights, config, EngineParams(detect=detect, policy=policy))
        tokens = random_prompt(np.random.default_rng(85 + n), config, n)
        logits, _ = session.prefill(tokens)
        assert np.array_equal(logits, forward_full(tokens, weights, config).logits[-1])

    def test_online_detection_above_threshold_matches_bruteforce(self):
        # above the threshold the ratios read the tiled kernel's lse rows
        config, weights = make_model(82, n_layers=3, d_model=8, d_head=4, vocab=17)
        n = _PREFILL_BLOCK + 173
        detect = DetectParams(w_last=8, w_sink=2, w_recent=6, n_full=1)
        tokens = random_prompt(np.random.default_rng(83), config, n)
        session = Session(weights, config, EngineParams(detect=detect))
        _, report = session.prefill(tokens)
        oracle = bruteforce_layer_ratios(tokens, weights, config, detect)
        assert np.allclose(report.ratios, oracle, atol=1e-10, rtol=0)
        expect_full = sorted(sorted(range(3), key=lambda i: (oracle[i], i))[:1])
        assert report.full_layers == expect_full

    def test_empty_prompt_rejected(self):
        config, weights = make_model(6)
        session = Session(weights, config, EngineParams())
        with pytest.raises(InputError):
            session.prefill([])

    def test_static_mode_trims_listed_layers(self):
        config, weights = make_model(7, n_layers=3)
        policy = PolicyFile(fingerprint="", lazy_layers=[0, 2], w_sink=1,
                            w_recent=4, provenance="manual")
        session = Session(weights, config, EngineParams(policy=policy))
        tokens = random_prompt(np.random.default_rng(8), config, 20)
        logits, report = session.prefill(tokens)
        # prefill stays exact regardless of trimming
        assert np.array_equal(logits, forward_full(tokens, weights, config).logits[-1])
        assert [c.size for c in session.caches] == [5, 20, 5]
        assert report.lazy_layers == [0, 2] and report.ratios == []

    def test_cached_rows_after_prefill_match_closed_form(self):
        # P full caches hold N rows each, the rest hold the window
        config, weights = make_model(50, n_layers=4)
        detect = DetectParams(w_last=4, w_sink=2, w_recent=6, n_full=2)
        n = 40
        session = Session(weights, config, EngineParams(detect=detect))
        session.prefill(random_prompt(np.random.default_rng(51), config, n))
        total = sum(c.size for c in session.caches)
        assert total == 2 * n + 2 * (detect.w_sink + detect.w_recent)

    def test_pyramid_policy_applies_per_layer_windows(self):
        config, weights = make_model(52, n_layers=4)
        detect = DetectParams(w_last=4, w_sink=2, w_recent=8, n_full=2)
        policy = make_policy("pyramid", config, detect)
        session = Session(weights, config, EngineParams(detect=detect, policy=policy))
        n = 64
        session.prefill(random_prompt(np.random.default_rng(53), config, n))
        expect = [
            min(n, detect.w_sink + policy.recent_windows[i]) for i in range(4)
        ]
        assert [c.size for c in session.caches] == expect


NON_INTEGER_PROMPTS = {
    "floats": [1.7, 3.2],
    "integral-floats": [1.0, 2.0],
    "float-array": np.array([0.5, 1.5]),
    "bools": [True, False],
    "bool-in-ints": [1, True, 2],
    "numpy-bool-in-ints": [1, np.True_],
    "bool-array": np.array([True, False]),
    "strings": ["1", "2"],
    "past-int64": [1, 2**64],
}
INTEGER_PROMPTS = {
    "python-ints": [1, 2, 3],
    "numpy-scalars": [np.int64(1), np.int32(2), np.uint8(3)],
    "int32-array": np.array([1, 2, 3], dtype=np.int32),
    "uint64-array": np.array([1, 2, 3], dtype=np.uint64),
}


class TestTokenIds:
    """Prefill, decode and the plain forward pass share one id check: it
    refuses non-integer ids instead of truncating them, and accepts every
    integer type, Python or numpy, as the same ids."""

    @pytest.mark.parametrize("tokens", NON_INTEGER_PROMPTS.values(), ids=NON_INTEGER_PROMPTS)
    def test_prefill_refuses_non_integer_ids(self, tokens):
        config, weights = make_model(2)
        with pytest.raises(InputError, match="integers"):
            Session(weights, config, EngineParams()).prefill(tokens)

    @pytest.mark.parametrize("tokens", NON_INTEGER_PROMPTS.values(), ids=NON_INTEGER_PROMPTS)
    def test_forward_full_refuses_non_integer_ids(self, tokens):
        config, weights = make_model(2)
        with pytest.raises(InputError, match="integers"):
            forward_full(tokens, weights, config)

    @pytest.mark.parametrize(
        "token", [2.9, 2.0, np.float64(2.0), True, np.True_, "2", [2], np.array(2)],
        ids=["float", "integral-float", "numpy-float", "bool", "numpy-bool", "string",
             "list", "0-d-array"],
    )
    def test_decode_refuses_non_integer_ids(self, token):
        config, weights = make_model(2)
        session = Session(weights, config, EngineParams())
        session.prefill([1, 2, 3])
        with pytest.raises(InputError, match="integer"):
            session.decode_step(token)

    @pytest.mark.parametrize("tokens", INTEGER_PROMPTS.values(), ids=INTEGER_PROMPTS)
    def test_integer_types_give_the_same_logits(self, tokens):
        config, weights = make_model(2)
        expect = forward_full([1, 2, 3], weights, config).logits
        assert np.array_equal(forward_full(tokens, weights, config).logits, expect)
        logits = []
        for token in (4, np.int64(4), np.uint16(4)):
            session = Session(weights, config, EngineParams())
            assert np.array_equal(session.prefill(tokens)[0], expect[-1])
            logits.append(session.decode_step(token))
        assert all(np.array_equal(row, logits[0]) for row in logits)

    @pytest.mark.parametrize("tokens", [[], [[1, 2]], [[1], [1, 2]], [[1], [2, 3]], 3, [-1, 2],
                                        [1, 9]],
                             ids=["empty", "2-d", "ragged", "ragged-rows", "scalar", "negative",
                                  "past-vocab"])
    def test_prefill_and_forward_full_refuse_bad_sequences(self, tokens):
        config, weights = make_model(2)
        with pytest.raises(InputError):
            Session(weights, config, EngineParams()).prefill(tokens)
        with pytest.raises(InputError):
            forward_full(tokens, weights, config)

    @pytest.mark.parametrize("token", [-1, 9, np.int64(9)])
    def test_decode_refuses_ids_outside_the_vocabulary(self, token):
        config, weights = make_model(2)
        session = Session(weights, config, EngineParams())
        session.prefill([1, 2, 3])
        with pytest.raises(InputError, match="lie in"):
            session.decode_step(token)


class TestDecode:
    def test_decode_before_prefill_rejected(self):
        config, weights = make_model(9)
        session = Session(weights, config, EngineParams())
        with pytest.raises(ContractViolation):
            session.decode_step(0)

    def test_all_full_matches_full_recompute(self):
        config, weights = make_model(10, n_layers=3)
        detect = DetectParams(w_last=4, w_sink=1, w_recent=4, n_full=config.n_layers)
        session = Session(weights, config, EngineParams(detect=detect))
        rng = np.random.default_rng(11)
        tokens = random_prompt(rng, config, 10)
        session.prefill(tokens)
        seq = list(tokens)
        for step in range(6):
            t = int(rng.integers(0, config.vocab_size))
            logits = session.decode_step(t)
            seq.append(t)
            expect = forward_full(seq, weights, config).logits[-1]
            assert np.allclose(logits, expect, atol=1e-10, rtol=0)

    def test_streaming_without_eviction_matches_full(self):
        config, weights = make_model(12, n_layers=2)
        detect = DetectParams(w_last=2, w_sink=4, w_recent=30, n_full=0)
        session = Session(weights, config, EngineParams(detect=detect))
        rng = np.random.default_rng(13)
        tokens = random_prompt(rng, config, 8)
        session.prefill(tokens)
        seq = list(tokens)
        for _ in range(10):  # 8 + 10 < 4 + 30: nothing evicted
            t = int(rng.integers(0, config.vocab_size))
            logits = session.decode_step(t)
            seq.append(t)
            expect = forward_full(seq, weights, config).logits[-1]
            assert np.allclose(logits, expect, atol=1e-10, rtol=0)

    def test_mixed_policies_match_masked_forward_oracle(self):
        config, weights = make_model(14, n_layers=3, logit_scaling="none")
        w_sink, w_recent = 2, 16
        lazy = [0, 2]
        policy = PolicyFile(fingerprint="", lazy_layers=lazy, w_sink=w_sink,
                            w_recent=w_recent, provenance="manual")
        session = Session(weights, config, EngineParams(policy=policy))
        rng = np.random.default_rng(15)
        tokens = random_prompt(rng, config, 128)
        session.prefill(tokens)
        seq = list(tokens)
        for _ in range(8):
            t = int(rng.integers(0, config.vocab_size))
            logits = session.decode_step(t)
            seq.append(t)
            allowed = hybrid_allowed_sets(
                len(seq), tokens.size, lazy, config, w_sink, w_recent
            )
            expect = masked_forward_logits(seq, weights, config, allowed)[-1]
            assert np.allclose(logits, expect, atol=1e-10, rtol=0)

    def test_exact_while_nothing_evicted_any_p(self):
        rng = np.random.default_rng(16)
        for trial in range(5):
            config, weights = make_model(17 + trial, n_layers=int(rng.integers(1, 4)))
            n_full = int(rng.integers(0, config.n_layers + 1))
            detect = DetectParams(w_last=3, w_sink=2, w_recent=20, n_full=n_full)
            session = Session(weights, config, EngineParams(detect=detect))
            n = int(rng.integers(1, 10))
            tokens = random_prompt(rng, config, n)
            logits, _ = session.prefill(tokens)
            seq = list(tokens)
            assert np.allclose(
                logits, forward_full(seq, weights, config).logits[-1], atol=1e-10
            )
            for _ in range(22 - n - 1):
                t = int(rng.integers(0, config.vocab_size))
                logits = session.decode_step(t)
                seq.append(t)
                expect = forward_full(seq, weights, config).logits[-1]
                assert np.allclose(logits, expect, atol=1e-10, rtol=0)


class TestGenerate:
    def test_zero_new_tokens(self):
        config, weights = make_model(20)
        session = Session(weights, config, EngineParams())
        assert session.generate_greedy([1, 2, 3], 0) == []

    @pytest.mark.parametrize("count", [2.5, 3.0, "3", True, np.True_, None, [2], -1],
                             ids=["float", "integral-float", "string", "bool", "numpy-bool",
                                  "none", "list", "negative"])
    def test_bad_token_counts_are_refused_before_prefill(self, count):
        config, weights = make_model(20)
        session = Session(weights, config, EngineParams())
        with pytest.raises(InputError, match="max_new_tokens"):
            session.generate_greedy([1, 2, 3], count)
        assert not session.prefilled and session.prefill_seconds is None

    def test_numpy_integer_counts_run_as_ints(self):
        config, weights = make_model(20)
        runs = [Session(weights, config, EngineParams()).generate_greedy([1, 2, 3], count)
                for count in (4, np.int64(4), np.uint8(4))]
        assert runs[0] == runs[1] == runs[2] and len(runs[0]) == 4

    def test_times_the_prefill_and_each_decode_step(self):
        config, weights = make_model(20)
        session = Session(weights, config, EngineParams())
        session.generate_greedy([1, 2, 3], 5)
        assert session.prefill_seconds > 0
        assert len(session.decode_seconds) == 4 and min(session.decode_seconds) > 0
        assert session.run_report()["decode_ms_per_step"] > 0

    def test_p_equals_l_matches_full_recompute_tokens(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            config, weights = make_model(22 + trial, n_layers=2)
            detect = DetectParams(w_last=4, w_sink=1, w_recent=4, n_full=config.n_layers)
            session = Session(weights, config, EngineParams(detect=detect))
            prompt = random_prompt(rng, config, int(rng.integers(3, 12)))
            got = session.generate_greedy(prompt, 6)

            seq = list(prompt)
            expect = []
            for _ in range(6):
                logits = forward_full(seq, weights, config).logits[-1]
                t = int(np.argmax(logits))
                expect.append(t)
                seq.append(t)
            assert got == expect

    def test_fixed_seed_reproducible(self):
        config, weights = make_model(30, n_layers=3)
        detect = DetectParams(w_last=4, w_sink=1, w_recent=6, n_full=1)
        prompt = random_prompt(np.random.default_rng(31), config, 24)
        runs = []
        for _ in range(2):
            session = Session(weights, config, EngineParams(detect=detect))
            runs.append(session.generate_greedy(prompt, 8))
        assert runs[0] == runs[1]

    def test_streaming_cache_rows_bounded_during_decode(self):
        config, weights = make_model(32, n_layers=2)
        detect = DetectParams(w_last=2, w_sink=1, w_recent=4, n_full=0)
        session = Session(weights, config, EngineParams(detect=detect))
        session.generate_greedy(random_prompt(np.random.default_rng(33), config, 30), 20)
        for cache in session.caches:
            assert cache.size <= detect.w_sink + detect.w_recent


class TestCacheBytes:
    def test_peak_kv_bytes_prices_each_row_at_keys_plus_one_input_row(self):
        config, weights = make_model(34, n_layers=3, n_heads=3, d_model=5, d_head=2)
        detect = DetectParams(w_last=2, w_sink=1, w_recent=4, n_full=1)
        session = Session(weights, config, EngineParams(detect=detect))
        session.generate_greedy(random_prompt(np.random.default_rng(35), config, 12), 4)
        report = session.run_report()
        assert report["peak_rows"] == session.peak_rows > 0
        row = (config.n_heads * config.d_head + config.d_model) * 8
        assert report["peak_kv_bytes"] == report["peak_rows"] * row

    def test_benchmark_model_buffers_hold_1024_bytes_per_row(self):
        # 8 layers, 4 heads, d_model 64, d_head 16: 4 * 16 key floats plus
        # 64 input-row floats, where per-head value rows would add 4 * 64.
        config = ModelConfig(
            n_layers=8, n_heads=4, d_model=64, d_head=16, vocab_size=256,
            ln_mode="rms", logit_scaling="inv_sqrt_dk",
        )
        weights = random_init(config, 1, 0.2)
        prompt = random_prompt(np.random.default_rng(36), config, 1024)

        def prefill(w_recent):
            policy = PolicyFile(fingerprint="", lazy_layers=[1, 3, 5, 7], w_sink=4,
                                w_recent=w_recent, provenance="manual")
            session = Session(weights, config, EngineParams(policy=policy))
            session.prefill(prompt)
            return session.caches

        def buffer_bytes(cache):
            return cache._k.nbytes + cache._x.nbytes

        for cache in prefill(1020):  # 4 + 1020 holds the whole prompt
            assert cache.size == 1024
            assert buffer_bytes(cache) == 1024 * cache.size
        caches = prefill(60)
        for layer, cache in enumerate(caches):
            rows = 4 + 60 if layer % 2 else 1024
            assert cache.size == cache._k.shape[1] == cache._x.shape[0] == rows
            assert buffer_bytes(cache) == 1024 * rows


class TestReplay:
    def test_static_replay_reproduces_online_tokens(self):
        rng = np.random.default_rng(34)
        for trial in range(5):
            config, weights = make_model(35 + trial, n_layers=3)
            detect = DetectParams(w_last=4, w_sink=1, w_recent=5, n_full=1)
            prompt = random_prompt(rng, config, int(rng.integers(12, 40)))

            online = Session(weights, config, EngineParams(detect=detect))
            tokens_online = online.generate_greedy(prompt, 10)
            policy = PolicyFile(
                fingerprint="", lazy_layers=online.report.lazy_layers,
                w_sink=detect.w_sink, w_recent=detect.w_recent, provenance="online",
            )
            static = Session(weights, config, EngineParams(detect=detect, policy=policy))
            assert static.generate_greedy(prompt, 10) == tokens_online

    def test_static_replay_reproduces_decode_logits_bitwise(self):
        config, weights = make_model(60, n_layers=3)
        detect = DetectParams(w_last=4, w_sink=1, w_recent=5, n_full=1)
        prompt = random_prompt(np.random.default_rng(61), config, 24)
        tokens = [3, 1, 4, 1, 5]

        online = Session(weights, config, EngineParams(detect=detect))
        online.prefill(prompt)
        online_logits = [online.decode_step(t) for t in tokens]
        policy = PolicyFile(
            fingerprint="", lazy_layers=online.report.lazy_layers,
            w_sink=detect.w_sink, w_recent=detect.w_recent, provenance="online",
        )
        static = Session(weights, config, EngineParams(detect=detect, policy=policy))
        static.prefill(prompt)
        for t, expect in zip(tokens, online_logits):
            assert np.array_equal(static.decode_step(t), expect)


@st.composite
def replay_case(draw):
    n_layers = draw(st.integers(1, 4))
    w_sink, w_recent = draw(st.integers(0, 3)), draw(st.integers(1, 6))
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_layers=n_layers,
        n_heads=draw(st.integers(1, 3)),
        detect=DetectParams(
            w_last=draw(st.integers(1, 4)), w_sink=w_sink, w_recent=w_recent,
            n_full=draw(st.integers(0, n_layers - 1)),
        ),
        n_prompt=draw(st.integers(1, 24)),
        # enough steps that every lazy layer's ring wraps at least once
        n_steps=w_sink + 2 * w_recent,
    )


@settings(max_examples=25, deadline=None)
@given(replay_case())
def test_static_replay_of_random_online_runs_is_bitwise(case):
    config, weights = make_model(case["seed"], n_layers=case["n_layers"],
                                 n_heads=case["n_heads"])
    detect = case["detect"]
    rng = np.random.default_rng(case["seed"])
    prompt = random_prompt(rng, config, case["n_prompt"])
    tokens = random_prompt(rng, config, case["n_steps"])

    online = Session(weights, config, EngineParams(detect=detect))
    online.prefill(prompt)
    online_logits = [online.decode_step(t) for t in tokens]
    policy = PolicyFile(
        fingerprint="", lazy_layers=online.report.lazy_layers,
        w_sink=detect.w_sink, w_recent=detect.w_recent, provenance="online",
    )
    static = Session(weights, config, EngineParams(detect=detect, policy=policy))
    static.prefill(prompt)
    for t, expect in zip(tokens, online_logits):
        assert np.array_equal(static.decode_step(t), expect)


class TestRowCounts:
    """``peak_rows`` and ``rows_per_layer`` read the caches' own sizes."""

    def test_zeros_before_any_append(self):
        config, weights = make_model(74)
        session = Session(weights, config, EngineParams())
        assert session.peak_rows == 0
        assert session.run_report()["rows_per_layer"] == [0, 0]

    def test_single_full_layer(self):
        config, weights = make_model(75, n_layers=1)
        session = Session(weights, config, baseline_params(DetectParams()))
        session.prefill(random_prompt(np.random.default_rng(76), config, 100))
        assert session.peak_rows == 100
        assert session.run_report()["rows_per_layer"] == [100]

    def test_mixed_policies_match_hand_count(self):
        # a full and a streaming (1 + 4) layer over 30 positions: a one-token
        # prompt, then 29 decode steps
        config, weights = make_model(77)
        policy = PolicyFile(fingerprint="", lazy_layers=[1], w_sink=1, w_recent=4,
                            provenance="manual")
        session = Session(weights, config, EngineParams(policy=policy))
        rng = np.random.default_rng(78)
        session.prefill(random_prompt(rng, config, 1))
        peak = 2
        for t in range(1, 30):
            session.decode_step(int(rng.integers(config.vocab_size)))
            sizes = [c.size for c in session.caches]
            assert sizes == [t + 1, min(t + 1, 5)]
            peak = max(peak, sum(sizes))
            assert session.peak_rows == peak
            assert session.run_report()["rows_per_layer"] == sizes
        assert session.peak_rows == 30 + 5


@st.composite
def peak_case(draw):
    n_layers = draw(st.integers(1, 4))
    w_sink, w_recent = draw(st.integers(0, 3)), draw(st.integers(1, 6))
    detect = DetectParams(w_last=draw(st.integers(1, 4)), w_sink=w_sink, w_recent=w_recent,
                          n_full=draw(st.integers(0, n_layers)))
    policy = None
    if draw(st.booleans()):  # static: any subset of layers, as replays and manual policies
        lazy = draw(st.lists(st.integers(0, n_layers - 1), unique=True))
        policy = PolicyFile.from_detect(detect, lazy, "manual")
    return dict(seed=draw(st.integers(0, 2**32 - 1)), n_layers=n_layers,
                params=EngineParams(detect=detect, policy=policy),
                n_prompt=draw(st.integers(1, 24)), n_steps=draw(st.integers(0, 30)))


@settings(max_examples=40, deadline=None)
@given(peak_case())
def test_derived_peaks_equal_a_running_max_over_every_append(case):
    """``peak_rows`` is derived, not counted: it must equal the running max
    of the total held rows, taken after every prefill append and every
    decode step, and ``peak_full_caches`` must not move during decode."""
    config, weights = make_model(case["seed"], n_layers=case["n_layers"])
    rng = np.random.default_rng(case["seed"])
    session = Session(weights, config, case["params"])
    totals, fulls = [], []
    append = LayerCache.append

    def observed_append(cache, keys, inputs):
        append(cache, keys, inputs)
        totals.append(sum(c.size for c in session.caches))
        fulls.append(sum(c.policy.kind == "full" and c.size > 0 for c in session.caches))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(LayerCache, "append", observed_append)
        session.prefill(random_prompt(rng, config, case["n_prompt"]))
    assert len(totals) == config.n_layers
    assert session.peak_rows == max(totals)
    assert session.peak_full_caches == max(fulls)
    peak, full = max(totals), session.peak_full_caches
    for token in random_prompt(rng, config, case["n_steps"]):
        session.decode_step(token)
        peak = max(peak, sum(c.size for c in session.caches))
        assert session.peak_rows == peak
        assert session.peak_full_caches == full
        assert session.run_report()["peak_rows"] == peak


class TestPolicies:
    def test_policy_round_trip(self, tmp_path):
        policy = PolicyFile(
            fingerprint="ab" * 32, lazy_layers=[1, 3], w_sink=4, w_recent=1020,
            provenance="random", seed=7,
        )
        path = tmp_path / "p.json"
        policy.save(path)
        assert PolicyFile.load(path) == policy

    def test_random_policy_reproducible(self):
        config, _ = make_model(40, n_layers=6)
        detect = DetectParams(w_last=4, w_sink=1, w_recent=4, n_full=2)
        a = make_policy("random", config, detect, seed=5)
        b = make_policy("random", config, detect, seed=5)
        assert a.lazy_layers == b.lazy_layers
        assert len(a.lazy_layers) == 4

    def test_unseeded_random_policy_records_a_seed_that_replays_it(self):
        config, _ = make_model(40, n_layers=6)
        detect = DetectParams(w_last=4, w_sink=1, w_recent=4, n_full=2)
        drawn = make_policy("random", config, detect)
        assert 0 <= drawn.seed < 2**63
        assert make_policy("random", config, detect, seed=drawn.seed) == drawn

    def test_random_range_too_small_rejected(self):
        config, _ = make_model(41, n_layers=6)
        detect = DetectParams(w_last=4, w_sink=1, w_recent=4, n_full=2)
        with pytest.raises(InputError):
            make_policy("random", config, detect, seed=5, layer_range=(0, 3))

    def test_manual_policy(self):
        config, _ = make_model(42, n_layers=4)
        detect = DetectParams(w_last=4, w_sink=1, w_recent=4, n_full=2)
        policy = make_policy("manual", config, detect, manual_layers=[0, 2])
        assert policy.lazy_layers == [0, 2]
        assert policy.provenance == "manual"

    def test_pyramid_schedule_oracle(self):
        # independent largest-remainder recomputation of the 4:1 ramp
        def oracle(L, budget):
            if L == 1:
                return [budget]
            ramp = np.linspace(2.0, 0.5, L)
            scaled = ramp * (L * budget / ramp.sum())
            floors = np.maximum(np.floor(scaled).astype(int), 1)
            deficit = L * budget - floors.sum()
            rema = scaled - np.floor(scaled)
            for idx in sorted(range(L), key=lambda i: (-rema[i], i))[:deficit]:
                floors[idx] += 1
            return floors.tolist()

        assert pyramid_windows(4, 8) == oracle(4, 8) == [13, 10, 6, 3]
        for L in (1, 2, 3, 5, 8):
            for budget in (1, 4, 9, 1020):
                got = pyramid_windows(L, budget)
                assert sum(got) == L * budget
                assert all(w >= 1 for w in got)
                assert got == sorted(got, reverse=True)
                assert got == oracle(L, budget)

    def test_pyramid_sums_exactly_up_to_2_53(self):
        # the float64 ramp holds every integer up to 2**53; past it, refused
        budget = 2**53 // 8
        assert sum(pyramid_windows(8, budget)) == 2**53
        with pytest.raises(InputError, match="2\\*\\*53"):
            pyramid_windows(8, budget + 1)

    def test_pyramid_policy_streams_every_layer(self):
        config, _ = make_model(43, n_layers=4)
        detect = DetectParams(w_last=4, w_sink=2, w_recent=8, n_full=2)
        policy = make_policy("pyramid", config, detect)
        assert policy.lazy_layers == [0, 1, 2, 3]
        assert policy.recent_windows == pyramid_windows(4, 8)
        assert policy.window_for(0) == policy.recent_windows[0]
