"""Error-bound verification: traces, margins, and the inequality oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazykv.errors import ContractViolation, InputError
from lazykv.model import ModelConfig, forward_full, random_init
from lazykv.theory import (
    ErrorTrace,
    TheoremConstants,
    check_logit_bound,
    check_recursive_bound,
    discarded_mass,
    lemma_oracles,
    run_pair,
    streaming_allowed_sets,
    verify_theorem,
)
from lazykv.theory import (
    _trial_kv_truncation,
    _trial_mha_lipschitz,
    _trial_matvec_norm,
    _trial_softmax_lipschitz,
)


def theory_config(n_layers=2, n_heads=2, d_model=4, d_head=3, vocab=6, activation="relu"):
    return ModelConfig(
        n_layers=n_layers, n_heads=n_heads, d_model=d_model, d_head=d_head,
        vocab_size=vocab, activation=activation, ln_mode="clip", logit_scaling="none",
    )


def scaled_weights(config, seed, target_b=1.0):
    largest = max(config.d_model * config.d_model, config.d_model * config.vocab_size)
    return random_init(config, seed, target_b / math.sqrt(largest))


# --- independent oracle: a from-scratch masked forward pass -------------------


def oracle_ln(rows):
    out = rows.copy()
    for i in range(rows.shape[0]):
        norm = math.sqrt(float((rows[i] ** 2).sum()))
        if norm > 1.0:
            out[i] = rows[i] / norm
    return out


def oracle_forward(tokens, weights, config, lazy_layers, allowed_sets):
    act = {"relu": lambda v: np.maximum(v, 0.0),
           "sigmoid": lambda v: 1.0 / (1.0 + np.exp(-v))}[config.activation]
    x = weights.embedding[np.asarray(tokens)]
    xs = [x]
    n = x.shape[0]
    for layer in range(config.n_layers):
        xn = oracle_ln(x)
        attn = np.zeros((n, config.d_model))
        for h in range(config.n_heads):
            q = xn @ weights.w_q[layer, h]
            k = xn @ weights.w_k[layer, h]
            v = xn @ weights.w_v[layer, h]
            for i in range(n):
                cols = (
                    np.asarray(allowed_sets[i])
                    if layer in lazy_layers
                    else np.arange(i + 1)
                )
                s = np.array([q[i] @ k[j] for j in cols])
                e = np.exp(s - s.max())
                p = e / e.sum()
                for w, j in zip(p, cols):
                    attn[i] += w * v[j]
        y = x + attn
        x = y + act(oracle_ln(y) @ weights.w_ff1[layer]) @ weights.w_ff2[layer]
        xs.append(x)
    return xs, x @ weights.unembed


def oracle_discarded(x_prev, weights, layer, allowed_sets, config):
    n = x_prev.shape[0]
    xn = oracle_ln(x_prev)
    worst = 0.0
    for i in range(n):
        head_sum = 0.0
        for h in range(config.n_heads):
            q = xn @ weights.w_q[layer, h]
            k = xn @ weights.w_k[layer, h]
            s = np.array([q[i] @ k[j] for j in range(i + 1)])
            e = np.exp(s - s.max())
            p = e / e.sum()
            allowed = set(np.asarray(allowed_sets[i]).tolist())
            head_sum += sum(p[j] for j in range(i + 1) if j not in allowed)
        worst = max(worst, head_sum / config.n_heads)
    return worst


class TestDiscardedMass:
    def test_nothing_discarded_is_zero(self):
        config = theory_config()
        weights = scaled_weights(config, 0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, config.d_model))
        full_sets = [np.arange(i + 1) for i in range(6)]
        assert discarded_mass(x, weights, 0, full_sets, config) == 0.0

    def test_uniform_row_mass_fraction(self):
        # zero q/k weights give uniform attention; drop 4 of the last row's 10
        config = theory_config(n_heads=1)
        weights = random_init(config, 0, 0.0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, config.d_model))
        sets = [np.arange(i + 1) for i in range(9)]
        sets.append(np.array([0, 1, 2, 3, 4, 5]))  # row 9 discards 6..9
        got = discarded_mass(x, weights, 0, sets, config)
        assert abs(got - 0.4) <= 1e-12

    def test_matches_full_softmax_oracle(self):
        config = theory_config(n_heads=2)
        weights = scaled_weights(config, 3, target_b=1.1)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((9, config.d_model))
        sets = streaming_allowed_sets(9, 1, 3)
        got = discarded_mass(x, weights, 1, sets, config)
        assert abs(got - oracle_discarded(x, weights, 1, sets, config)) <= 1e-12

    def test_monotone_in_discarded_set(self):
        config = theory_config(n_heads=1)
        weights = scaled_weights(config, 5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, config.d_model))
        wide = streaming_allowed_sets(8, 2, 4)   # keeps more
        narrow = streaming_allowed_sets(8, 1, 2)  # keeps less, discards more
        assert discarded_mass(x, weights, 0, narrow, config) >= discarded_mass(
            x, weights, 0, wide, config
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracle_on_random_sets(self, data):
        # streaming windows, or any non-empty sets, entries above the row too
        n = data.draw(st.integers(1, 24))
        n_heads = data.draw(st.integers(1, 3))
        config = theory_config(n_heads=n_heads, d_model=5, d_head=3)
        weights = scaled_weights(config, data.draw(st.integers(0, 2**16)), target_b=1.2)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        x = rng.standard_normal((n, config.d_model)) * data.draw(st.sampled_from([0.3, 1.0, 3.0]))
        if data.draw(st.booleans()):
            sets = streaming_allowed_sets(
                n, data.draw(st.integers(0, 3)), data.draw(st.integers(1, max(1, n)))
            )
        else:
            cols = st.lists(st.integers(0, n - 1), min_size=1, max_size=n)
            sets = [np.array(data.draw(cols)) for _ in range(n)]
        layer = data.draw(st.integers(0, config.n_layers - 1))
        got = discarded_mass(x, weights, layer, sets, config)
        assert abs(got - oracle_discarded(x, weights, layer, sets, config)) <= 1e-12

    def test_wrong_number_of_sets_is_input_error(self):
        config = theory_config()
        weights = scaled_weights(config, 0)
        x = np.zeros((3, config.d_model))
        with pytest.raises(InputError):
            discarded_mass(x, weights, 0, [np.array([0]), np.array([0, 1])], config)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_index_raises(self, bad):
        # a bare scatter would wrap -1 round to column n-1
        config = theory_config()
        weights = scaled_weights(config, 0)
        x = np.random.default_rng(0).standard_normal((3, config.d_model))
        sets = [np.array([0]), np.array([0, 1]), np.array([0, bad])]
        with pytest.raises(ContractViolation, match="row 2"):
            discarded_mass(x, weights, 0, sets, config)

    def test_requires_theory_config(self):
        config = ModelConfig(n_layers=1, n_heads=1, d_model=3, d_head=2,
                             vocab_size=4, ln_mode="rms")
        weights = random_init(config, 0, 0.1)
        with pytest.raises(ContractViolation):
            discarded_mass(np.zeros((2, 3)), weights, 0,
                           [np.array([0]), np.array([0, 1])], config)


class TestRunPair:
    def test_no_lazy_layers_zero_errors(self):
        config = theory_config()
        weights = scaled_weights(config, 7)
        trace = run_pair(weights, config, [0, 1, 2, 3], [], streaming_allowed_sets(4, 1, 2))
        assert trace.hidden_errors == [0.0] * (config.n_layers + 1)
        assert trace.logit_error == 0.0

    def test_vacuous_masks_zero_errors(self):
        config = theory_config()
        weights = scaled_weights(config, 8)
        full_sets = [np.arange(i + 1) for i in range(5)]
        trace = run_pair(weights, config, [1, 2, 3, 4, 5], [1], full_sets)
        assert trace.hidden_errors == [0.0] * (config.n_layers + 1)
        assert trace.logit_error == 0.0
        assert trace.discarded[1] == 0.0

    def test_matches_independent_oracle(self):
        config = theory_config(n_layers=3, n_heads=2, d_model=5, d_head=3)
        weights = scaled_weights(config, 9, target_b=1.1)
        rng = np.random.default_rng(10)
        tokens = rng.integers(0, config.vocab_size, size=16)
        lazy = [2]
        sets = streaming_allowed_sets(16, 1, 4)
        trace = run_pair(weights, config, tokens, lazy, sets)

        ref_xs, _ = oracle_forward(tokens, weights, config, [], sets)
        mod_xs, mod_logits = oracle_forward(tokens, weights, config, lazy, sets)
        orig = forward_full(tokens, weights, config)
        for i in range(config.n_layers + 1):
            expect = max(np.sqrt(((ref_xs[i] - mod_xs[i]) ** 2).sum(axis=1)))
            assert abs(trace.hidden_errors[i] - expect) <= 1e-10
        expect_logit = max(np.sqrt(((orig.logits - mod_logits) ** 2).sum(axis=1)))
        assert abs(trace.logit_error - expect_logit) <= 1e-10
        assert abs(
            trace.discarded[2] - oracle_discarded(orig.xs[2], weights, 2, sets, config)
        ) <= 1e-10


class TestBounds:
    def constants(self):
        return TheoremConstants(b=1.1, n_heads=2, n_layers=3, lipschitz=1.0)

    def test_coefficient_formulas(self):
        c = self.constants()
        b, h, lip, L = 1.1, 2, 1.0, 3
        assert c.step_gain == pytest.approx(h * b + lip * b**2 + 4 * h * b**3)
        assert c.amplification == pytest.approx(1 + h * b * (1 + 4 * b**2))
        assert c.fresh_mass_gain == pytest.approx(2 * h * (b + lip * b**3))
        assert c.logit_offset == pytest.approx(2 * L * b**2 * (h + lip * b + 4 * h * b**2))
        assert c.logit_mass_gain == pytest.approx(2 * h * b**2 * (1 + lip * b**2))

    def test_recursive_margins_trivial_when_no_divergence(self):
        c = self.constants()
        trace = ErrorTrace(hidden_errors=[0.0, 0.0, 0.0, 0.0], discarded={}, logit_error=0.0)
        margins = check_recursive_bound(trace, c, [])
        assert margins == [0.0, 0.0, 0.0]

    def test_single_layer_transcription(self):
        c = TheoremConstants(b=0.9, n_heads=1, n_layers=1, lipschitz=0.25)
        trace = ErrorTrace(hidden_errors=[0.0, 0.05], discarded={0: 0.3}, logit_error=0.01)
        margins = check_recursive_bound(trace, c, [0])
        rhs = 0.0 + c.step_gain * min(2.0, c.amplification * 0.0) + c.fresh_mass_gain * 0.3
        assert margins == [pytest.approx(rhs - 0.05)]
        logit_margin = check_logit_bound(trace, c, [0])
        assert logit_margin == pytest.approx(
            c.logit_offset + c.logit_mass_gain * 0.3 - 0.01
        )

    def test_logit_bound_no_lazy_layers(self):
        c = self.constants()
        trace = ErrorTrace(hidden_errors=[0.0] * 4, discarded={}, logit_error=0.0)
        assert check_logit_bound(trace, c, []) == pytest.approx(c.logit_offset)

    def test_zero_weights_trivial_pass(self):
        config = theory_config()
        weights = random_init(config, 0, 0.0)
        sets = streaming_allowed_sets(6, 1, 2)
        trace = run_pair(weights, config, [0, 1, 2, 3, 4, 5], [0, 1], sets)
        constants = TheoremConstants.from_model(weights, config)
        assert all(m >= 0 for m in check_recursive_bound(trace, constants, [0, 1]))
        assert check_logit_bound(trace, constants, [0, 1]) >= 0

    def test_randomized_margins_nonnegative(self):
        report = verify_theorem(n_trials=30, seed=123)
        assert report["violations"] == 0
        assert report["min_recursive_margin"] >= -1e-9
        assert report["min_logit_margin"] >= -1e-9
        assert len(report["trials"]) == 30

    @pytest.mark.parametrize("n_trials", [0, -2])
    def test_trial_count_below_one_is_input_error(self, n_trials):
        with pytest.raises(InputError):
            verify_theorem(n_trials=n_trials)
        with pytest.raises(InputError):
            lemma_oracles(n_trials=n_trials)

    def test_verify_theorem_deterministic(self):
        a = verify_theorem(n_trials=5, seed=7)
        b = verify_theorem(n_trials=5, seed=7)
        assert a == b


class TestLemmaOracles:
    def test_softmax_lipschitz_equal_inputs(self):
        x = np.array([0.5, -1.0, 2.0])
        sm = lambda v: np.exp(v - v.max()) / np.exp(v - v.max()).sum()
        assert np.abs(sm(x) - sm(x)).sum() <= 2 * 0.0

    def test_truncation_with_empty_second_set(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal(3)
        k1 = rng.standard_normal((4, 3))
        v1 = rng.standard_normal((4, 3))
        sm = lambda v: np.exp(v - v.max()) / np.exp(v - v.max()).sum()
        lhs = np.linalg.norm(sm(k1 @ q) @ v1 - sm(k1 @ q) @ v1)
        assert lhs == 0.0

    @pytest.mark.parametrize(
        "trial",
        [_trial_softmax_lipschitz, _trial_matvec_norm, _trial_mha_lipschitz, _trial_kv_truncation],
    )
    def test_individual_trials_never_exceed(self, trial):
        rng = np.random.default_rng(99)
        worst = max(trial(rng) for _ in range(200))
        assert worst <= 1e-9

    def test_full_oracle_run_clean(self):
        report = lemma_oracles(n_trials=200, seed=5)
        assert set(report) == {
            "softmax_l1_lipschitz",
            "matvec_operator_norms",
            "attention_lipschitz",
            "kv_truncation",
        }
        for entry in report.values():
            assert entry["violations"] == 0
            assert entry["max_excess"] <= 1e-9
