"""Corpus-frequency pre-selection: determinism, recovery, degenerate corpora."""

import numpy as np
import pytest

from lazykv.engine import EngineParams, Session
from lazykv.errors import InputError
from lazykv.lazydetect import DetectParams
from lazykv.model import ModelConfig, forward_full, ln, random_init
from lazykv.numerics import masked_row_softmax
from lazykv.offline import CorpusSample, FrequencyTable, load_corpus, preselect

from oracles import lazy_ratio_bruteforce


def make_model(seed, n_layers=3):
    config = ModelConfig(
        n_layers=n_layers, n_heads=2, d_model=4, d_head=3, vocab_size=9,
        ln_mode="rms", logit_scaling="inv_sqrt_dk",
    )
    return config, random_init(config, seed, 0.6)


def random_corpus(rng, config, n_samples, low=8, high=40):
    out = []
    for _ in range(n_samples):
        nq = int(rng.integers(1, high // 2))
        na = int(rng.integers(1, high // 2))
        out.append(
            CorpusSample(
                question=tuple(int(t) for t in rng.integers(0, config.vocab_size, nq)),
                answer=tuple(int(t) for t in rng.integers(0, config.vocab_size, na)),
            )
        )
    return out


def engineered_model(uniform_layer, n_layers=4, coupling=60.0):
    """All layers attend sharply to 'middle marker' tokens except one.

    Value and feed-forward weights are zero, so hidden states stay at the
    embeddings and the construction survives depth. Token 0 embeds to (1, 0)
    (the marker); token 1 to (0.9, 0.1). With W_Q W_K^T = coupling * I,
    non-marker queries score markers above everything else, so every layer
    except ``uniform_layer`` (zero q/k weights, uniform attention) puts its
    mass on the discarded middle.
    """
    config = ModelConfig(
        n_layers=n_layers, n_heads=1, d_model=2, d_head=2, vocab_size=2,
        ln_mode="clip", logit_scaling="none",
    )
    weights = random_init(config, 0, 0.0)
    weights.embedding[0] = [1.0, 0.0]
    weights.embedding[1] = [0.9, 0.1]
    root = np.sqrt(coupling)
    for layer in range(n_layers):
        if layer == uniform_layer:
            continue
        weights.w_q[layer, 0] = np.eye(2) * root
        weights.w_k[layer, 0] = np.eye(2) * root
    return config, weights


def engineered_corpus(rng, n_samples=4):
    """Prompts of token 1 with a marker block in the middle, outside any window."""
    samples = []
    for _ in range(n_samples):
        n = int(rng.integers(56, 72))
        toks = np.ones(n, dtype=int)
        mid = n // 2
        toks[mid - 4 : mid + 4] = 0
        cut = int(rng.integers(1, n))
        samples.append(
            CorpusSample(question=tuple(toks[:cut].tolist()), answer=tuple(toks[cut:].tolist()))
        )
    return samples


def bruteforce_layer_ratios(tokens, weights, config, detect):
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


DETECT = DetectParams(w_last=8, w_sink=2, w_recent=10, n_full=2)


class TestPreselect:
    def test_single_sample_equals_online_lazy_set(self):
        config, weights = make_model(0)
        sample = CorpusSample(question=(1, 2, 3, 4, 5, 6, 7, 8), answer=(2, 4, 6) * 6)
        detect = DetectParams(w_last=4, w_sink=1, w_recent=5, n_full=1)
        table, policy = preselect(weights, config, [sample], detect)
        session = Session(weights, config, EngineParams(detect=detect))
        _, report = session.prefill(np.asarray(sample.question + sample.answer))
        assert policy.lazy_layers == report.lazy_layers
        assert table.n_samples == 1
        assert policy.provenance == "preselect"

    def test_engineered_uniform_layer_always_selected(self):
        uniform_layer = 2
        config, weights = engineered_model(uniform_layer)
        rng = np.random.default_rng(1)
        corpus = engineered_corpus(rng)
        # the uniform layer's ratio is maximal in every sample (brute force)
        for sample in corpus:
            ratios = bruteforce_layer_ratios(
                np.asarray(sample.question + sample.answer), weights, config, DETECT
            )
            assert np.argmax(ratios) == uniform_layer
            others = [r for i, r in enumerate(ratios) if i != uniform_layer]
            assert ratios[uniform_layer] > 10 * max(others)
        table, policy = preselect(weights, config, corpus, DETECT)
        assert uniform_layer in policy.lazy_layers
        assert table.counts[uniform_layer] == len(corpus)

    def test_short_samples_warn_and_fall_back_to_tiebreak(self):
        config, weights = make_model(2, n_layers=4)
        detect = DetectParams(w_last=4, w_sink=4, w_recent=32, n_full=2)
        corpus = random_corpus(np.random.default_rng(3), config, 3, high=16)
        with pytest.warns(UserWarning, match="tie-break"):
            table, policy = preselect(weights, config, corpus, detect)
        # all ratios 1: the queue pops the deepest layers once it overflows
        assert policy.lazy_layers == [2, 3]
        assert table.counts == [0, 0, 3, 3]

    def test_corpus_permutation_invariance(self):
        config, weights = make_model(4)
        detect = DetectParams(w_last=6, w_sink=1, w_recent=6, n_full=1)
        corpus = random_corpus(np.random.default_rng(5), config, 6, high=36)
        table_a, policy_a = preselect(weights, config, corpus, detect)
        table_b, policy_b = preselect(weights, config, corpus[::-1], detect)
        assert table_a.counts == table_b.counts
        assert policy_a.lazy_layers == policy_b.lazy_layers

    def test_selected_count_is_layers_minus_p(self):
        config, weights = make_model(6, n_layers=4)
        for n_full in range(5):
            detect = DetectParams(w_last=6, w_sink=1, w_recent=6, n_full=n_full)
            _, policy = preselect(
                weights, config,
                random_corpus(np.random.default_rng(7), config, 3, high=30), detect,
            )
            assert len(policy.lazy_layers) == 4 - n_full

    def test_empty_corpus_rejected(self):
        config, weights = make_model(8)
        with pytest.raises(InputError):
            preselect(weights, config, [], DETECT)


class TestCorpusIO:
    def test_load_corpus_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"question": [1, 2], "answer": [3]}\n\n{"question": [4], "answer": []}\n'
        )
        corpus = load_corpus(path)
        assert corpus == [
            CorpusSample(question=(1, 2), answer=(3,)),
            CorpusSample(question=(4,), answer=()),
        ]

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"question": [1], "answer": [2]}\n{"nope": 1}\n')
        with pytest.raises(InputError, match=":2:"):
            load_corpus(path)

    def test_frequency_table_serializes(self):
        table = FrequencyTable(counts=[1, 2, 0], n_samples=3)
        assert table.to_dict() == {"lazy_counts": [1, 2, 0], "n_samples": 3}
