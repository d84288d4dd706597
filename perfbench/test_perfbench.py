"""Smoke runs of every benchmark workload at a tiny size.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the repo root.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import lazykv.engine  # noqa: E402
import lazykv.kvcache  # noqa: E402
import lkbench  # noqa: E402
import lktrace  # noqa: E402

TINY_MODEL = dict(lkbench.MODEL, n_layers=2, n_heads=2, d_model=8, d_head=4, vocab_size=32)
L, H, P = 2, 2, 1
N_OUT = 5
R = 3  # requests per traced pass


def _tiny(spec):
    if isinstance(spec, lkbench.TheoryWorkload):
        return dataclasses.replace(spec, trace_requests=R)
    lo, hi = (48, 48) if spec.mode == "static" else (8, 64)
    return dataclasses.replace(
        spec, prompt=(lo, hi), n_out=N_OUT, w_recent=min(spec.w_recent, 20),
        w_last=8, n_full=P, warmup=(16, 2), trace_requests=R,
        check_every=min(spec.check_every, 2),
    )


TINY = {name: _tiny(spec) for name, spec in lkbench.WORKLOADS.items()}


def _run(name, trace, tmp_path):
    return lkbench.run(
        name, seed=3, seconds=0.3, trace=trace, workdir=tmp_path,
        workloads=TINY, model=TINY_MODEL,
    )


def _calls(name):
    """Closed forms of the traced span counts for one pass of R requests."""
    if name == "verify_theory":
        trials = TINY[name].trials * R
        return {"theory.verify_theorem": trials, "theory.lemma_oracles": R,
                "model.forward_full": trials, "engine.prefill": 0, "kvcache.append": 0}
    tokens = R * N_OUT  # each output after the first costs one decode step
    online = TINY[name].mode == "online"
    return {
        "engine.prefill": R,
        "engine.decode_step": R * (N_OUT - 1),
        "model.project_qkv": L * tokens,
        "model.ln": 2 * L * tokens,
        "model.ffn_forward": L * tokens,
        "kvcache.append": L * tokens,
        "kvcache.attend_from_cache": L * R * (N_OUT - 1),
        # Prompts are under the prefill block: the unblocked path.
        "model.mha_from_projections": L * R,
        "numerics.masked_row_softmax": H * L * R,
        "kvcache.transfer": (L - P) * R,
        "lazydetect.lse_log_ratios": L * R if online else 0,
        "lazydetect.push": L * R if online else 0,
        "theory.verify_theorem": 0,
    }


@pytest.mark.parametrize("name", list(lkbench.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result = _run(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["detail"]["failed_frac"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == lkbench.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert list(tmp_path.iterdir()) == []  # the model and policy files are gone


@pytest.mark.parametrize("name", list(lkbench.WORKLOADS))
def test_traced_run_counts_match_closed_forms(name, tmp_path):
    originals = (lazykv.engine.ln, lazykv.kvcache.LayerCache.append, lazykv.engine.Session.prefill)
    result = _run(name, True, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * R  # an untraced and a traced pass
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == lkbench.per_layer_units()
    assert metrics["trace.absent"]["value"] == 0
    for span, calls in _calls(name).items():
        assert metrics[f"{span}.calls"]["value"] == calls, span
    assert metrics["trace.overhead"]["value"] > 0
    # Every wrapper is gone again.
    assert (lazykv.engine.ln, lazykv.kvcache.LayerCache.append, lazykv.engine.Session.prefill) == originals


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        lktrace, "TARGETS",
        lktrace.TARGETS + [("model.ln", "lazykv.engine", "no_such_name"),
                           ("model.ln", "lazykv.no_such_module", "ln")],
    )
    original = lazykv.engine.ln
    with lktrace.Tracer() as tracer:
        assert lazykv.engine.ln is not original
    assert tracer.absent == ["lazykv.engine.no_such_name", "lazykv.no_such_module.ln"]
    assert lazykv.engine.ln is original
    assert not hasattr(lazykv.engine, "no_such_name")


def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == lkbench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == lkbench.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(lkbench.WORKLOADS)
