"""End-to-end CLI: every subcommand, JSON schemas, exit codes."""

import json

import numpy as np
import pytest

import lazykv.engine
from lazykv.cli import main
from lazykv.kvcache import kept_positions_for
from lazykv.model import forward_full, ln, load_model


def run_cli(*argv):
    return main([str(a) for a in argv])


def run_cli_process(argv, model_path, out):
    """The CLI in a separate process, so that a traceback or a warning
    reaches stderr; ``MODEL`` and ``OUT`` in argv name the given paths."""
    import os
    import subprocess
    import sys

    import lazykv

    argv = [{"MODEL": model_path, "OUT": out}.get(a, a) for a in argv]
    src = os.path.dirname(os.path.dirname(lazykv.__file__))
    return subprocess.run(
        [sys.executable, "-m", "lazykv.cli", *map(str, argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )


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

    def test_unallocatable_model_is_one_line_input_error(self, tmp_path, capsys):
        # about 2.4e21 bytes: refused before any weight is drawn
        L = H = d = dk = v = 10**5
        out = tmp_path / "m"
        assert run_cli(
            "gen-model", "--layers", L, "--heads", H, "--dim", d, "--dk", dk,
            "--vocab", v, "--out", out,
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str((2 * v * d + L * (H * (2 * d * dk + d * d) + 2 * d * d)) * 8) in err
        assert not out.exists()

    def test_zero_layer_model_round_trip(self, tmp_path):
        path = tmp_path / "m"
        assert run_cli(
            "gen-model", "--layers", 0, "--heads", 2, "--dim", 4, "--dk", 3,
            "--vocab", 5, "--out", path, "--report", tmp_path / "gen.json",
        ) == 0
        _, weights, _ = load_model(path)
        assert weights.w_q.shape == weights.w_k.shape == (0, 2, 4, 3)
        assert weights.w_v.shape == (0, 2, 4, 4)
        assert run_cli("run", "--model", path, "--tokens", "1,2,3", "--max-new", 2,
                       "--report", tmp_path / "r.json") == 0

    def test_weight_bytes_is_the_blob_size(self, model_path):
        config, _, _ = load_model(model_path)
        assert len(model_path.read_bytes().split(b"\n", 1)[1]) == config.weight_bytes


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
        assert "tokens" not in data  # the ids are reported once

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

    @pytest.mark.parametrize(
        "flags", [[], ["--policy"], ["--emit-policy"], ["--policy", "--emit-policy"]]
    )
    def test_model_hashed_only_for_policy_flags(self, tmp_path, model_path, monkeypatch,
                                                flags):
        import lazykv.model

        policy = tmp_path / "policy.json"
        assert run_cli("make-policy", "--model", model_path, "--strategy", "manual",
                       "--layers", 0, "--out", policy, "--report", tmp_path / "p.json") == 0
        hashes = []
        fingerprint = lazykv.model.model_fingerprint
        monkeypatch.setattr(lazykv.model, "model_fingerprint",
                            lambda path: hashes.append(path) or fingerprint(path))
        paths = {"--policy": policy, "--emit-policy": tmp_path / "emitted.json"}
        argv = [a for flag in flags for a in (flag, paths[flag])]
        assert run_cli("run", "--model", model_path, "--tokens", "1,2,3", "--max-new", 1,
                       *argv, "--report", tmp_path / "r.json") == 0
        assert len(hashes) == min(len(flags), 1)

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

    def test_weights_too_large_for_float64_are_one_line_error(self, tmp_path, model_path,
                                                              capsys):
        # finite weights whose squares overflow: refused, not a warning per
        # site and tokens computed from infinities
        from lazykv.model import save_model

        config, weights, _ = load_model(model_path)
        weights.embedding[:] = 1e300
        path = tmp_path / "huge"
        save_model(path, config, weights)
        capsys.readouterr()
        assert run_cli("run", "--model", path, "--tokens", "1,2,3", "--max-new", 1,
                       "--report", tmp_path / "r.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "overflow" in err

    def test_bad_token_string_is_input_error(self, model_path):
        assert run_cli("run", "--model", model_path, "--tokens", "1,x,3") == 1

    @pytest.mark.parametrize(
        "text",
        ["[1.7, 2.2]", "[1, true]", "{\"a\": 1}", "[1, 2", "[99999999999999999999]",
         "[[1], [1, 2]]", "[]", "[1, 99]", pytest.param("[" * 100_000, id="deep-nesting")],
    )
    def test_bad_token_file_is_input_error(self, tmp_path, model_path, capsys, text):
        # non-integers are refused, not truncated; unreadable JSON is refused
        toks = tmp_path / "toks.json"
        toks.write_text(text)
        assert run_cli("run", "--model", model_path, "--tokens", toks) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and str(toks) in err

    @pytest.mark.parametrize("command", ["run", "analyze"])
    @pytest.mark.parametrize("source", ["file", "list"])
    def test_token_ids_are_checked_before_any_prefill(self, tmp_path, model_path, capsys,
                                                      monkeypatch, command, source):
        def no_prefill(*args):
            raise AssertionError("prefill ran on ids outside the vocabulary")

        monkeypatch.setattr(lazykv.engine.Session, "prefill", no_prefill)
        spec = "1,99,3"
        if source == "file":
            spec = tmp_path / "toks.json"
            spec.write_text("[1, 99, 3]")
        capsys.readouterr()
        assert run_cli(command, "--model", model_path, "--tokens", spec) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "[0, 11)" in err and str(spec if source == "file" else "--tokens") in err


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

    @pytest.mark.parametrize(
        "text",
        ["{\"lazy_layers\": [0", "[1, 2]", "7", pytest.param("[" * 100_000, id="deep-nesting")],
    )
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

    def test_foreign_fingerprint_is_echoed_on_one_line(self, tmp_path, model_path, capsys):
        text = json.dumps(dict(GOOD_POLICY, fingerprint="a\nb"))
        rc, err = self.run_policy(tmp_path, model_path, capsys, text)
        assert rc == 1 and err.startswith("error:") and err.count("\n") == 1

    def test_recent_windows_length_must_match_layers(self, tmp_path, model_path, capsys):
        # the fixture model has 3 layers
        text = json.dumps(dict(GOOD_POLICY, recent_windows=[4, 4]))
        rc, err = self.run_policy(tmp_path, model_path, capsys, text)
        assert rc == 1 and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value",
        [("w_sink", 2**63), ("w_recent", 2**63), ("recent_windows", [4, 2**63, 4])],
    )
    def test_windows_past_int64(self, tmp_path, model_path, capsys, field, value):
        text = json.dumps(dict(GOOD_POLICY, **{field: value}))
        rc, err = self.run_policy(tmp_path, model_path, capsys, text)
        assert rc == 1 and err.startswith("error:") and err.count("\n") == 1
        assert "2**63 - 1" in err


class TestModelHeader:
    """A missing, mistyped or unreadable header field exits 1 with a
    one-line message. A bytes value is raw JSON text, which json.dumps
    cannot write; None deletes the field."""

    @pytest.mark.parametrize(
        "field, value",
        [("n_layers", None), ("d_model", "3"), ("n_layers", True), ("ln_mode", 1),
         ("version", 2), ("version", "x"), ("version", True), ("version", 1.0),
         pytest.param("n_layers", b"[" * 100_000, id="n_layers-deep-nesting"),
         pytest.param("n_layers", b"9" * 5000, id="n_layers-5000-digits")],
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
        raw = isinstance(value, bytes)
        if value is None:
            del header[field]
        else:
            header[field] = "RAW" if raw else value
        header_line = json.dumps(header).encode()
        if raw:
            header_line = header_line.replace(b'"RAW"', value)
        path.write_bytes(header_line + b"\n" + blob)
        capsys.readouterr()
        rc = run_cli("run", "--model", path, "--tokens", "1,2,3", "--max-new", 1,
                     "--report", tmp_path / "r.json")
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and err.count("\n") == 1
        assert ("not valid JSON" if raw else field) in err


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

    def test_make_policy_random_records_its_drawn_seed(self, tmp_path, model_path):
        drawn, again = tmp_path / "drawn.json", tmp_path / "again.json"
        args = ["make-policy", "--model", model_path, "--strategy", "random",
                "--range", "0:3", "--p-layers", 1]
        assert run_cli(*args, "--out", drawn) == 0
        seed = read_json(drawn)["seed"]
        assert isinstance(seed, int) and 0 <= seed < 2**63
        assert run_cli(*args, "--seed", seed, "--out", again) == 0
        assert read_json(again) == read_json(drawn)

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

    @pytest.mark.parametrize(
        "line",
        [b"[" * 100_000, b'{"question": [' + b"9" * 5000 + b'], "answer": [3]}', b"\xff\xfe"],
        ids=["deep-nesting", "5000-digits", "not-utf-8"],
    )
    def test_unreadable_line_is_input_error(self, tmp_path, model_path, capsys, line):
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(b'{"question": [1, 2, 3], "answer": [4]}\n' + line + b"\n")
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

    def test_decode_masses_match_forward_trace_oracle(self, tmp_path):
        # each step's kept mass of the newest row, brute force over the plain
        # model's causal softmax weights of every layer and head
        path = tmp_path / "raw.lazykv"
        assert run_cli(
            "gen-model", "--layers", 3, "--heads", 2, "--dim", 4, "--dk", 3,
            "--vocab", 9, "--seed", 70, "--scale", 0.6, "--scaling", "none",
            "--out", path, "--report", tmp_path / "gen.json",
        ) == 0
        config, weights, _ = load_model(path)
        w_sink, w_recent, steps = 1, 4, 5
        seq = [int(t) for t in np.random.default_rng(71).integers(0, 9, size=12)]
        report = tmp_path / "an.json"
        assert run_cli(
            "analyze", "--model", path, "--tokens", ",".join(map(str, seq)),
            "--w-last-sweep", 2, "--w-sink", w_sink, "--w-recent", w_recent,
            "--max-new", steps, "--report", report,
        ) == 0
        masses = read_json(report)["decode_step_kept_mass"]
        assert len(masses) == steps
        for step in range(steps):
            # analyze decodes greedily; all-full decode logits are the plain model's
            seq.append(int(np.argmax(forward_full(seq, weights, config).logits[-1])))
            trace = forward_full(seq, weights, config)
            kept = kept_positions_for(len(seq), w_sink, w_recent)
            for layer in range(config.n_layers):
                x_norm = ln(trace.xs[layer], config.ln_mode)
                expect = []
                for h in range(config.n_heads):
                    s = (x_norm[-1] @ weights.w_q[layer, h]) @ (x_norm @ weights.w_k[layer, h]).T
                    e = np.exp(s - s.max())
                    expect.append((e / e.sum())[kept].sum())
                assert masses[step][layer] == pytest.approx(float(np.mean(expect)), abs=1e-10)

    def test_every_cache_stays_full_through_decode(self, tmp_path, model_path, monkeypatch):
        # the kept masses read the newest row of each cache; a 1 + 4 window
        # would have dropped rows of these 16 positions
        sessions = []

        class Recorded(lazykv.engine.Session):
            def __init__(self, *args):
                super().__init__(*args)
                sessions.append(self)

        monkeypatch.setattr(lazykv.engine, "Session", Recorded)
        assert run_cli(
            "analyze", "--model", model_path, "--tokens", "1,2,3,4,5,6,7,8,9,10",
            "--w-sink", 1, "--w-recent", 4, "--max-new", 6, "--p-layers", 0,
            "--report", tmp_path / "an.json",
        ) == 0
        (session,) = sessions
        for cache in session.caches:
            assert cache.policy.kind == "full"
            assert np.array_equal(cache.held()[2], np.arange(16))

    @pytest.mark.parametrize("p_layers, n_lazy", [(0, 3), (1, 2), (3, 0), (4, 0)])
    def test_step_lazy_sets_hold_layers_minus_p(self, tmp_path, model_path, p_layers, n_lazy):
        # P above the 3-layer stack leaves no layer lazy, as make-policy does
        report = tmp_path / "an.json"
        assert run_cli(
            "analyze", "--model", model_path, "--tokens", "1,2,3,4,5,6,7,8,9,10",
            "--w-sink", 1, "--w-recent", 4, "--max-new", 4, "--p-layers", p_layers,
            "--report", report,
        ) == 0
        data = read_json(report)
        for masses, lazy in zip(data["decode_step_kept_mass"], data["decode_step_lazy_sets"]):
            laziest = sorted(range(3), key=lambda i: (-masses[i], -i))[:n_lazy]
            assert lazy == sorted(laziest)


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
            for variant in ("hybrid", "full_baseline"):
                # 2 heads of 3 key floats plus one 4-float input row
                run = entry[variant]
                assert run["peak_kv_bytes"] == run["peak_rows"] * (2 * 3 + 4) * 8
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
            ["analyze", "--tokens", "1,2,3", "--p-layers", -1],
            ["make-policy", "--strategy", "manual", "--layers", "0,z", "--out", "p.json"],
        ],
        ids=["bench-lengths-text", "bench-repeats-0", "bench-max-new-0",
             "bench-lengths-negative", "analyze-empty-sweep", "analyze-max-new-negative",
             "analyze-p-layers-negative",
             "make-policy-layers-text"],
    )
    def test_model_commands(self, tmp_path, model_path, capsys, argv):
        capsys.readouterr()
        argv = [tmp_path / a if a == "p.json" else a for a in argv]
        assert run_cli(*argv[:1], "--model", model_path, *argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value",
        [pytest.param(f, 1, id=f) for f in ("--max-tokens", "--max-dim")]
        # past int64 the draws' bounds overflow; at 2**63 - 1 the arrays do
        + [pytest.param(f, v, id=f"{f}={label}")
           for v, label in ((10**20, "10**20"), (2**63 - 1, "2**63-1"))
           for f in ("--max-tokens", "--max-layers", "--max-heads", "--max-dim")],
    )
    def test_verify_theory_sizes(self, capsys, flag, value):
        assert run_cli("verify-theory", "--trials", 1, "--lemma-trials", 1, flag, value) == 1
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

    @pytest.mark.parametrize("command", ["run", "analyze", "bench", "make-policy"])
    @pytest.mark.parametrize("flag", ["--w-sink", "--w-recent"])
    def test_windows_past_int64(self, tmp_path, model_path, capsys, command, flag):
        capsys.readouterr()
        argv = [command, "--model", model_path, flag, 10**23]
        if command in ("run", "analyze"):
            argv += ["--tokens", "1,2,3"]
        if command == "make-policy":
            argv += ["--strategy", "pyramid", "--out", tmp_path / "p.json"]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "2**63 - 1" in err

    @pytest.mark.parametrize(
        "argv",
        [["run", "--model", "m", "--tokens", "1", "--max-new", "abc"],
         ["run", "--model", "m", "--tokens", "1", "--no-such-flag"],
         ["run", "--tokens", "1"],
         ["gen-model", "--layers"]],
        ids=["type-error", "unknown-flag", "missing-flag", "missing-value"],
    )
    def test_argument_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code in (0, None)
        assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-model", "--layers", 1, "--heads", 1, "--dim", 3, "--dk", 2, "--vocab", 4,
         "--seed", -1, "--out", "OUT"],
        ["bench", "--model", "MODEL", "--lengths", 8, "--repeats", 1, "--max-new", 1,
         "--seed", -3],
        ["verify-theory", "--trials", 1, "--lemma-trials", 1, "--seed", -1],
        ["make-policy", "--model", "MODEL", "--strategy", "random", "--seed", -2,
         "--out", "OUT"],
    ],
    ids=["gen-model", "bench", "verify-theory", "make-policy"],
)
def test_negative_seed_is_one_line_input_error(tmp_path, model_path, argv):
    out = tmp_path / "out"
    done = run_cli_process(argv, model_path, out)
    assert done.returncode == 1
    assert done.stderr.startswith("error: seed must be >= 0")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        # 1.42 PiB of prompt token ids
        (["bench", "--model", "MODEL", "--lengths", 2 * 10**14], "error: out of memory"),
        # the seed-0 trial draws 165,276,355,285,292 tokens: 1.17 PiB of ids
        (["verify-theory", "--max-tokens", 10**16, "--seed", 0], "error: out of memory"),
        # the seed-0 trial's embedding table is 2.18 EiB
        (["verify-theory", "--max-dim", 10**9, "--seed", 0], "error: out of memory"),
        (["gen-model", "--layers", 1, "--heads", 1, "--dim", 2, "--dk", 2, "--vocab", 2,
          "--scale", 1e308, "--out", "OUT"], "error: scale"),
        (["make-policy", "--model", "MODEL", "--strategy", "pyramid",
          "--w-recent", 2**63 - 1, "--out", "OUT"], "error: 3 layers"),
    ],
    ids=["bench-lengths", "verify-max-tokens", "verify-max-dim", "gen-model-scale",
         "pyramid-past-2**53"],
)
def test_unservable_sizes_are_one_line_errors(tmp_path, model_path, argv, message):
    # Every size here is refused or fails its first allocation at a PiB or
    # more; none can be allocated.
    out = tmp_path / "out"
    done = run_cli_process(argv, model_path, out)
    assert done.returncode == 1
    assert done.stderr.startswith(message)
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert not out.exists()


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
