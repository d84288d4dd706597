"""End-to-end CLI: every subcommand, JSON schemas, exit codes."""

import json

import numpy as np
import pytest

from lazykv.cli import main
from lazykv.model import forward_full, load_model


def run_cli(*argv):
    return main([str(a) for a in argv])


def _reject_constant(name):
    raise ValueError(f"{name} is not standard JSON")


def read_json(path):
    """Standard JSON only: NaN and Infinity are refused."""
    with open(path) as f:
        return json.load(f, parse_constant=_reject_constant)


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.lazykv"
    rc = run_cli(
        "gen-model", "--layers", 3, "--heads", 2, "--dim", 4, "--dk", 3,
        "--vocab", 11, "--seed", 5, "--scale", 0.6, "--out", path,
        "--report", tmp_path / "gen.json",
    )
    assert rc == 0
    return path


class TestGenModel:
    def test_same_flags_same_bytes(self, tmp_path):
        args = ["gen-model", "--layers", 2, "--heads", 1, "--dim", 3, "--dk", 2,
                "--vocab", 5, "--seed", 9, "--scale", 0.2]
        assert run_cli(*args, "--out", tmp_path / "a") == 0
        assert run_cli(*args, "--out", tmp_path / "b") == 0
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_scale_zero_all_zero_weights(self, tmp_path):
        assert run_cli(
            "gen-model", "--layers", 1, "--heads", 1, "--dim", 3, "--dk", 2,
            "--vocab", 4, "--seed", 0, "--scale", 0, "--out", tmp_path / "z",
        ) == 0
        _, weights, _ = load_model(tmp_path / "z")
        assert np.all(weights.unembed == 0)

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_is_input_error(self, tmp_path, capsys, scale):
        assert run_cli(
            "gen-model", "--layers", 1, "--heads", 1, "--dim", 3, "--dk", 2,
            "--vocab", 4, "--scale", scale, "--out", tmp_path / "m",
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_loader_round_trip_preserves_logits(self, tmp_path, model_path):
        config, weights, _ = load_model(model_path)
        again = tmp_path / "again"
        from lazykv.model import save_model

        save_model(again, config, weights)
        config2, weights2, _ = load_model(again)
        tokens = [0, 4, 2]
        assert np.array_equal(
            forward_full(tokens, weights, config).logits,
            forward_full(tokens, weights2, config2).logits,
        )


class TestRun:
    def test_p_equals_layers_reports_no_lazy(self, tmp_path, model_path):
        report = tmp_path / "r.json"
        rc = run_cli(
            "run", "--model", model_path, "--tokens", "1,2,3,4,5,6,7",
            "--p-layers", 3, "--w-sink", 1, "--w-recent", 4, "--w-last", 4,
            "--max-new", 5, "--report", report,
        )
        assert rc == 0
        data = read_json(report)
        assert data["lazy_layers"] == []
        assert len(data["generated_tokens"]) == 5

        config, weights, _ = load_model(model_path)
        seq = [1, 2, 3, 4, 5, 6, 7]
        expect = []
        for _ in range(5):
            logits = forward_full(seq, weights, config).logits[-1]
            t = int(np.argmax(logits))
            expect.append(t)
            seq.append(t)
        assert data["generated_tokens"] == expect

    def test_short_prompt_reports_unit_ratios(self, tmp_path, model_path):
        report = tmp_path / "r.json"
        rc = run_cli(
            "run", "--model", model_path, "--tokens", "1,2,3",
            "--p-layers", 1, "--w-sink", 4, "--w-recent", 1020,
            "--max-new", 2, "--report", report,
        )
        assert rc == 0
        assert all(abs(r - 1.0) <= 1e-12 for r in read_json(report)["per_layer_ratios"])

    def test_emitted_policy_replays_identically(self, tmp_path, model_path):
        tokens = ",".join(str(t) for t in np.random.default_rng(0).integers(0, 11, 40))
        rep1, rep2 = tmp_path / "1.json", tmp_path / "2.json"
        policy = tmp_path / "policy.json"
        assert run_cli(
            "run", "--model", model_path, "--tokens", tokens, "--p-layers", 1,
            "--w-sink", 1, "--w-recent", 6, "--w-last", 4, "--max-new", 8,
            "--emit-policy", policy, "--report", rep1,
        ) == 0
        assert run_cli(
            "run", "--model", model_path, "--tokens", tokens, "--policy", policy,
            "--w-sink", 1, "--w-recent", 6, "--w-last", 4, "--max-new", 8,
            "--report", rep2,
        ) == 0
        a, b = read_json(rep1), read_json(rep2)
        assert a["generated_tokens"] == b["generated_tokens"]
        assert b["mode"] == "static"

    def test_fingerprint_mismatch_refused(self, tmp_path, model_path):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({
            "fingerprint": "0" * 64, "lazy_layers": [0], "w_sink": 1,
            "w_recent": 4, "provenance": "manual",
        }))
        rc = run_cli(
            "run", "--model", model_path, "--tokens", "1,2,3",
            "--policy", policy, "--max-new", 1,
        )
        assert rc == 1

    def test_tokens_from_json_file(self, tmp_path, model_path):
        toks = tmp_path / "toks.json"
        toks.write_text("[1, 2, 3, 4]")
        assert run_cli(
            "run", "--model", model_path, "--tokens", toks, "--max-new", 1,
            "--report", tmp_path / "r.json",
        ) == 0

    def test_bad_token_string_is_input_error(self, model_path):
        assert run_cli("run", "--model", model_path, "--tokens", "1,x,3") == 1

    @pytest.mark.parametrize(
        "text", ["[1.7, 2.2]", "[1, true]", "{\"a\": 1}", "[1, 2", "[99999999999999999999]"]
    )
    def test_bad_token_file_is_input_error(self, tmp_path, model_path, capsys, text):
        # non-integers are refused, not truncated; unreadable JSON is refused
        toks = tmp_path / "toks.json"
        toks.write_text(text)
        assert run_cli("run", "--model", model_path, "--tokens", toks) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


GOOD_POLICY = {
    "fingerprint": "", "lazy_layers": [0], "w_sink": 1, "w_recent": 4,
    "provenance": "manual",
}


class TestPolicyBoundary:
    """Each malformed policy file exits 1 with a one-line message."""

    def run_policy(self, tmp_path, model_path, capsys, text):
        policy = tmp_path / "policy.json"
        policy.write_text(text)
        rc = run_cli(
            "run", "--model", model_path, "--tokens", "1,2,3",
            "--policy", policy, "--max-new", 1, "--report", tmp_path / "r.json",
        )
        err = capsys.readouterr().err
        return rc, err

    def test_good_policy_runs(self, tmp_path, model_path, capsys):
        assert self.run_policy(tmp_path, model_path, capsys, json.dumps(GOOD_POLICY))[0] == 0

    @pytest.mark.parametrize("text", ["{\"lazy_layers\": [0", "[1, 2]", "7"])
    def test_malformed_json_or_non_object(self, tmp_path, model_path, capsys, text):
        rc, err = self.run_policy(tmp_path, model_path, capsys, text)
        assert rc == 1 and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value", [("w_sink", -3), ("w_recent", 0), ("w_recent", 2.5)]
    )
    def test_bad_windows(self, tmp_path, model_path, capsys, field, value):
        text = json.dumps(dict(GOOD_POLICY, **{field: value}))
        rc, err = self.run_policy(tmp_path, model_path, capsys, text)
        assert rc == 1 and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("layers", [[0, 0], [0, 1.5], "0"])
    def test_duplicate_or_non_integer_lazy_layers(self, tmp_path, model_path, capsys, layers):
        text = json.dumps(dict(GOOD_POLICY, lazy_layers=layers))
        rc, err = self.run_policy(tmp_path, model_path, capsys, text)
        assert rc == 1 and err.startswith("error:") and err.count("\n") == 1

    def test_recent_windows_length_must_match_layers(self, tmp_path, model_path, capsys):
        # the fixture model has 3 layers
        text = json.dumps(dict(GOOD_POLICY, recent_windows=[4, 4]))
        rc, err = self.run_policy(tmp_path, model_path, capsys, text)
        assert rc == 1 and err.startswith("error:") and err.count("\n") == 1


class TestModelHeader:
    """A missing or mistyped architecture field exits 1 with a one-line message."""

    @pytest.mark.parametrize(
        "field, value",
        [("n_layers", None), ("d_model", "3"), ("n_layers", True), ("ln_mode", 1)],
    )
    def test_bad_architecture_field(self, tmp_path, capsys, field, value):
        # one layer and one head, so a bool read as 1 would fit the blob
        path = tmp_path / "model.lazykv"
        assert run_cli(
            "gen-model", "--layers", 1, "--heads", 1, "--dim", 3, "--dk", 2,
            "--vocab", 5, "--seed", 0, "--scale", 0.5, "--out", path,
        ) == 0
        header_line, blob = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        if value is None:
            del header[field]
        else:
            header[field] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        capsys.readouterr()
        rc = run_cli("run", "--model", path, "--tokens", "1,2,3", "--max-new", 1,
                     "--report", tmp_path / "r.json")
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and err.count("\n") == 1
        assert field in err


class TestVerifyTheory:
    def test_small_run_deterministic_and_green(self, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        for r in (r1, r2):
            rc = run_cli(
                "verify-theory", "--trials", 4, "--lemma-trials", 20,
                "--seed", 3, "--report", r,
            )
            assert rc == 0
        assert read_json(r1) == read_json(r2)
        data = read_json(r1)
        assert data["pass"] is True
        assert data["theorem"]["violations"] == 0

    def test_full_trials_flag_includes_rows(self, tmp_path):
        report = tmp_path / "full.json"
        assert run_cli(
            "verify-theory", "--trials", 2, "--lemma-trials", 5,
            "--full-trials", "--report", report,
        ) == 0
        assert len(read_json(report)["theorem"]["trials"]) == 2


class TestPolicies:
    def test_make_policy_random_reproducible(self, tmp_path, model_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli(
                "make-policy", "--model", model_path, "--strategy", "random",
                "--p-layers", 1, "--seed", 11, "--out", out,
            ) == 0
        assert read_json(a) == read_json(b)
        assert len(read_json(a)["lazy_layers"]) == 2

    def test_make_policy_pyramid(self, tmp_path, model_path):
        out = tmp_path / "p.json"
        assert run_cli(
            "make-policy", "--model", model_path, "--strategy", "pyramid",
            "--w-recent", 8, "--out", out,
        ) == 0
        data = read_json(out)
        assert data["lazy_layers"] == [0, 1, 2]
        assert sum(data["recent_windows"]) == 3 * 8

    def test_make_policy_manual(self, tmp_path, model_path):
        out = tmp_path / "m.json"
        assert run_cli(
            "make-policy", "--model", model_path, "--strategy", "manual",
            "--layers", "0,2", "--out", out,
        ) == 0
        assert read_json(out)["lazy_layers"] == [0, 2]

    def test_bad_range_is_input_error(self, tmp_path, model_path):
        assert run_cli(
            "make-policy", "--model", model_path, "--strategy", "random",
            "--p-layers", 0, "--range", "0:2", "--out", tmp_path / "x.json",
        ) == 1


class TestPreselectCommand:
    def test_single_sample_matches_run(self, tmp_path, model_path):
        rng = np.random.default_rng(4)
        toks = rng.integers(0, 11, 30).tolist()
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps({"question": toks[:10], "answer": toks[10:]}) + "\n")
        report = tmp_path / "pre.json"
        policy_out = tmp_path / "pol.json"
        assert run_cli(
            "preselect", "--model", model_path, "--corpus", corpus,
            "--p-layers", 1, "--w-sink", 1, "--w-recent", 6, "--w-last", 4,
            "--out-policy", policy_out, "--report", report,
        ) == 0
        run_report = tmp_path / "run.json"
        assert run_cli(
            "run", "--model", model_path, "--tokens", ",".join(map(str, toks)),
            "--p-layers", 1, "--w-sink", 1, "--w-recent", 6, "--w-last", 4,
            "--max-new", 0, "--report", run_report,
        ) == 0
        assert read_json(report)["policy"]["lazy_layers"] == read_json(run_report)["lazy_layers"]

    @pytest.mark.parametrize(
        "line",
        [
            {"question": [1.7, 2.2], "answer": [3.9]},
            {"question": "12", "answer": "3"},
            {"question": [1, True], "answer": [3]},
            {"question": [99999999999999999999], "answer": [3]},
        ],
        ids=["floats", "strings", "bool", "beyond-int64"],
    )
    def test_non_integer_ids_are_input_errors(self, tmp_path, model_path, capsys, line):
        # refused, not coerced; the message names the file and the line
        corpus = tmp_path / "c.jsonl"
        good = {"question": [1, 2, 3], "answer": [4]}
        corpus.write_text(json.dumps(good) + "\n" + json.dumps(line) + "\n")
        capsys.readouterr()
        assert run_cli("preselect", "--model", model_path, "--corpus", corpus) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{corpus}:2:" in err

    def test_missing_corpus_is_input_error(self, tmp_path, model_path):
        assert run_cli(
            "preselect", "--model", model_path, "--corpus", tmp_path / "nope.jsonl",
        ) == 1


class TestAnalyze:
    def test_consistency_matrix_shape(self, tmp_path, model_path):
        report = tmp_path / "an.json"
        rc = run_cli(
            "analyze", "--model", model_path, "--tokens", "1,2,3,4,5,6,7,8,9,10",
            "--w-last-sweep", "2,4", "--w-sink", 1, "--w-recent", 4,
            "--max-new", 6, "--report", report,
        )
        assert rc == 0
        data = read_json(report)
        assert set(data["prefill_ratios_by_w_last"]) == {"2", "4"}
        assert len(data["prefill_ratios_by_w_last"]["2"]) == 3
        assert len(data["decode_step_kept_mass"]) == 6
        assert all(len(row) == 3 for row in data["decode_step_kept_mass"])
        assert all(
            0.0 <= m <= 1.0 + 1e-9 for row in data["decode_step_kept_mass"] for m in row
        )
        assert len(data["decode_step_lazy_sets"]) == 6


class TestBench:
    def test_tiny_bench_schema(self, tmp_path, model_path):
        report = tmp_path / "bench.json"
        rc = run_cli(
            "bench", "--model", model_path, "--lengths", "48,96",
            "--p-layers", 1, "--w-sink", 1, "--w-recent", 8, "--w-last", 4,
            "--repeats", 2, "--max-new", 6, "--report", report,
        )
        assert rc == 0
        data = read_json(report)
        assert data["lengths"] == [48, 96]
        for n in ("48", "96"):
            entry = data["results"][n]
            assert entry["hybrid"]["decode_tokens_per_s"] > 0
            assert entry["full_baseline"]["peak_rows"] > 0
            assert entry["decode_throughput_ratio"] > 0
            assert data["identification_overhead"][n]["ratio"] > 0

    def test_p_equals_layers_ratio_near_one(self, tmp_path, model_path):
        report = tmp_path / "bench.json"
        rc = run_cli(
            "bench", "--model", model_path, "--lengths", "64",
            "--p-layers", 3, "--w-sink", 1, "--w-recent", 8, "--w-last", 4,
            "--repeats", 5, "--max-new", 24, "--report", report,
        )
        assert rc == 0
        ratio = read_json(report)["results"]["64"]["decode_throughput_ratio"]
        # same work on both sides; the band only needs to exclude systematic
        # asymmetry, not microsecond-scale scheduler noise
        assert 1 / 3 <= ratio <= 3.0


class TestFlagBoundary:
    """Each malformed flag value exits 1 with a one-line message."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--lengths", "8,x"],
            ["bench", "--repeats", 0],
            ["bench", "--max-new", 0],
            ["bench", "--lengths", "-3"],
            ["analyze", "--tokens", "1,2,3", "--w-last-sweep", ","],
            ["analyze", "--tokens", "1,2,3", "--max-new", -1],
            ["make-policy", "--strategy", "manual", "--layers", "0,z", "--out", "p.json"],
        ],
        ids=["bench-lengths-text", "bench-repeats-0", "bench-max-new-0",
             "bench-lengths-negative", "analyze-empty-sweep", "analyze-max-new-negative",
             "make-policy-layers-text"],
    )
    def test_model_commands(self, tmp_path, model_path, capsys, argv):
        capsys.readouterr()
        argv = [tmp_path / a if a == "p.json" else a for a in argv]
        assert run_cli(*argv[:1], "--model", model_path, *argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--max-tokens", "--max-dim"])
    def test_verify_theory_sizes(self, capsys, flag):
        assert run_cli("verify-theory", "--trials", 1, "--lemma-trials", 1, flag, 1) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["--trials", 0, "--lemma-trials", 1], ["--trials", -2, "--lemma-trials", 1],
         ["--trials", 1, "--lemma-trials", 0], ["--trials", 1, "--lemma-trials", -5]],
        ids=["trials-0", "trials-negative", "lemma-trials-0", "lemma-trials-negative"],
    )
    def test_verify_theory_trial_counts(self, tmp_path, capsys, argv):
        # no report: neither a traceback nor a vacuous pass with Infinity margins
        report = tmp_path / "t.json"
        assert run_cli("verify-theory", *argv, "--report", report) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not report.exists()


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["definitely-not-a-command"])


def test_thread_cap_env_fans_out(monkeypatch):
    from lazykv.cli import _cap_threads

    monkeypatch.setenv("LAZYKV_THREADS", "3")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    _cap_threads()
    import os

    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize(
    "command, lazykv_threads, expect",
    [("bench", None, "1"), ("bench", "3", "3"), ("run", None, None)],
)
def test_bench_caps_blas_threads_unless_told(tmp_path, monkeypatch, command,
                                             lazykv_threads, expect):
    # the model file is missing, so the command stops after the cap
    import os

    for var in _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    if lazykv_threads is None:
        monkeypatch.delenv("LAZYKV_THREADS", raising=False)
    else:
        monkeypatch.setenv("LAZYKV_THREADS", lazykv_threads)
    argv = [command, "--model", tmp_path / "missing"]
    if command == "run":
        argv += ["--tokens", "1"]
    assert run_cli(*argv) == 1
    assert os.environ.get("OPENBLAS_NUM_THREADS") == expect
