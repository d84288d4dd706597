"""The hybrid vs all-full timing protocol behind ``lazykv bench``."""

import numpy as np
import pytest

from lazykv import bench
from lazykv.bench import baseline_params, compare
from lazykv.engine import Session
from lazykv.lazydetect import DetectParams

from test_engine import make_model, random_prompt

DETECT = DetectParams(w_last=4, w_sink=1, w_recent=8, n_full=1)


def record_runs(monkeypatch):
    """Log one ``[prompt length, variant, decode steps]`` entry per prefill."""
    log = []

    class Recording(Session):
        def prefill(self, tokens):
            self.entry = [len(tokens), "full" if self.params.policy else "hybrid", 0]
            log.append(self.entry)
            return super().prefill(tokens)

        def decode_step(self, token):
            self.entry[2] += 1
            return super().decode_step(token)

    monkeypatch.setattr(bench, "Session", Recording)
    return log


class TestProtocol:
    @pytest.mark.parametrize("max_new", [0, 3])
    @pytest.mark.parametrize("span, inner", [(0.0, 1), (1e9, 32)])
    def test_warm_up_pairs_then_interleaved_blocks(self, monkeypatch, max_new, span, inner):
        # max_new 0 makes the prefill-only overhead protocol's runs in its order
        config, weights = make_model(48, n_layers=2)
        rng = np.random.default_rng(49)
        prompts = {n: random_prompt(rng, config, n) for n in (24, 12)}
        monkeypatch.setattr(bench, "MIN_SPAN_SECONDS", span)
        log = record_runs(monkeypatch)
        repeats = 2
        report = compare(weights, config, prompts, DETECT, repeats=repeats, max_new=max_new)
        order = (["full", "hybrid"] * bench.WARMUP_PAIRS
                 + ["full", "hybrid", "hybrid", "full"] * repeats * inner)
        assert len(order) == 2 * bench.WARMUP_PAIRS + 4 * repeats * inner
        assert log == [[n, v, max_new] for n in (12, 24) for v in order]
        for n in ("12", "24"):
            assert report["identification_overhead"][n]["pairs"] == 2 * repeats * inner

    def test_results_only_with_decode_steps(self):
        config, weights = make_model(50, n_layers=2)
        prompts = {16: random_prompt(np.random.default_rng(51), config, 16)}
        assert compare(weights, config, prompts, DETECT, repeats=1)["results"] == {}
        entry = compare(weights, config, prompts, DETECT, repeats=1, max_new=4)["results"]["16"]
        assert set(entry) == {"hybrid", "full_baseline", "decode_throughput_ratio"}
        for run in (entry["hybrid"], entry["full_baseline"]):
            assert set(run) == {"prefill_s", "decode_step_s", "decode_tokens_per_s",
                                "peak_rows", "peak_kv_bytes",
                                "rows_after_prefill_and_decode"}
            assert run["decode_step_s"] > 0 and run["decode_tokens_per_s"] > 0
            assert run["rows_after_prefill_and_decode"] <= run["peak_rows"]
        assert entry["full_baseline"]["rows_after_prefill_and_decode"] == 2 * (16 + 4)
        assert entry["decode_throughput_ratio"] > 0


class TestOverheadHarness:
    def test_report_shape_and_sanity(self, monkeypatch):
        monkeypatch.setattr(bench, "MIN_SPAN_SECONDS", 0.05)
        config, weights = make_model(44, n_layers=2)
        rng = np.random.default_rng(45)
        prompts = {n: random_prompt(rng, config, n) for n in (32, 64)}
        report = compare(weights, config, prompts, DETECT, repeats=2)
        overhead = report["identification_overhead"]
        assert sorted(overhead) == ["32", "64"]
        for entry in overhead.values():
            assert entry["prefill_s_with_detection"] > 0
            assert entry["prefill_s_without_detection"] > 0
            assert entry["pairs"] >= 2
            assert entry["ratio"] > 0
            assert entry["relative_slowdown"] == pytest.approx(entry["ratio"] - 1.0)

    def test_baseline_params_disable_detection(self):
        config, weights = make_model(46, n_layers=2)
        session = Session(weights, config, baseline_params(DETECT))
        session.prefill(random_prompt(np.random.default_rng(47), config, 16))
        assert session.report.ratios == []
        assert all(c.policy.kind == "full" for c in session.caches)
