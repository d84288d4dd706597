"""Command-line front end.

Subcommands:
  gen-model     write a reproducible random model file
  run           greedy generation with online or static cache policies
  bench         decode throughput + peak cache rows, hybrid vs full baseline
  verify-theory randomized error-bound and inequality checks
  analyze       lazy-ratio sweep and per-decode-step kept-mass matrix
  preselect     corpus-frequency layer selection, emits a policy file
  make-policy   pyramid / random / manual policy files

Every command emits JSON (stdout or --report). Exit codes: 0 success,
1 bad input, 2 verification or internal-contract failure. Set
LAZYKV_THREADS to cap BLAS parallelism. ``bench`` times with one BLAS
thread unless LAZYKV_THREADS says otherwise: on a small shared machine a
thread pool makes its timings depend on what the neighbours run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time


def _cap_threads(default=None) -> None:
    """Fan LAZYKV_THREADS (or ``default`` when it is unset) out to the BLAS
    thread variables; a no-op when neither is given. Must run before numpy
    is first imported."""
    cap = os.environ.get("LAZYKV_THREADS") or default
    if not cap:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = cap


def _emit(payload: dict, path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)


def _parse_tokens(spec: str):
    import numpy as np

    from .errors import InputError
    from .offline import is_token_list

    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as f:
            try:
                data = json.load(f)
            except ValueError as exc:
                raise InputError(f"{spec} is not valid JSON: {exc}") from exc
        if not is_token_list(data):
            raise InputError(f"{spec} must hold a JSON list of integer token ids")
    else:
        try:
            data = [int(t) for t in spec.split(",") if t != ""]
        except ValueError as exc:
            raise InputError(f"--tokens must be a file or comma-separated ids: {exc}") from exc
    try:
        return np.asarray(data, dtype=np.int64)
    except OverflowError as exc:
        raise InputError(f"token id out of range: {exc}") from exc


def _parse_int_list(spec: str, flag: str, minimum=None):
    """A non-empty comma list of integers, each at least ``minimum``."""
    from .errors import InputError

    try:
        values = [int(x) for x in spec.split(",") if x != ""]
    except ValueError as exc:
        raise InputError(f"{flag} must be a comma list of integers: {exc}") from exc
    if not values:
        raise InputError(f"{flag} names no integers: {spec!r}")
    if minimum is not None and min(values) < minimum:
        raise InputError(f"{flag} values must be >= {minimum}, got {min(values)}")
    return values


def _default_p(n_layers: int, p_arg) -> int:
    if p_arg is not None:
        return p_arg
    return math.ceil(n_layers / 2)


def _detect_from_args(args, n_layers: int):
    from .lazydetect import DetectParams

    return DetectParams(
        w_last=args.w_last,
        w_sink=args.w_sink,
        w_recent=args.w_recent,
        n_full=_default_p(n_layers, args.p_layers),
    )


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--w-sink", type=int, default=4)
    p.add_argument("--w-recent", type=int, default=1020)
    p.add_argument("--w-last", type=int, default=32)
    p.add_argument(
        "--p-layers",
        type=int,
        default=None,
        help="layers kept on full attention (default: half the stack, rounded up)",
    )


# -- commands ------------------------------------------------------------------


def cmd_gen_model(args) -> int:
    from .model import ModelConfig, model_fingerprint, random_init, save_model

    config = ModelConfig(
        n_layers=args.layers,
        n_heads=args.heads,
        d_model=args.dim,
        d_head=args.dk,
        vocab_size=args.vocab,
        activation=args.activation,
        ln_mode=args.ln,
        logit_scaling=args.scaling,
    )
    weights = random_init(config, args.seed, args.scale)
    save_model(args.out, config, weights, seed=args.seed)
    _emit(
        {
            "path": args.out,
            "fingerprint": model_fingerprint(args.out),
            "n_layers": config.n_layers,
            "n_heads": config.n_heads,
            "d_model": config.d_model,
            "d_head": config.d_head,
            "vocab_size": config.vocab_size,
        },
        args.report,
    )
    return 0


def cmd_run(args) -> int:
    from .engine import EngineParams, PolicyFile, Session
    from .errors import InputError
    from .model import load_model, model_fingerprint

    config, weights, _ = load_model(args.model)
    tokens = _parse_tokens(args.tokens)
    detect = _detect_from_args(args, config.n_layers)
    policy = None
    if args.policy:
        policy = PolicyFile.load(args.policy)
        fp = model_fingerprint(args.model)
        if policy.fingerprint and policy.fingerprint != fp:
            raise InputError(
                f"policy {args.policy} was built for model {policy.fingerprint[:12]}..., "
                f"refusing to run it against {fp[:12]}..."
            )
    session = Session(weights, config, EngineParams(detect=detect, policy=policy))
    generated = session.generate_greedy(tokens, args.max_new)
    report = session.run_report()
    report.update(
        {
            "prompt_tokens": int(tokens.size),
            "mode": "static" if policy is not None else "online",
            "generated_tokens": generated,
        }
    )
    if args.emit_policy:
        PolicyFile(
            fingerprint=model_fingerprint(args.model),
            lazy_layers=session.report.lazy_layers,
            w_sink=detect.w_sink,
            w_recent=detect.w_recent,
            provenance="online",
        ).save(args.emit_policy)
        report["emitted_policy"] = args.emit_policy
    _emit(report, args.report)
    return 0


def _timed_generation(weights, config, params, tokens, max_new, warmup=2):
    from .engine import Session

    import numpy as np

    session = Session(weights, config, params)
    t0 = time.perf_counter()
    session.prefill(tokens)
    prefill_s = time.perf_counter() - t0
    next_id = 0
    for _ in range(max_new):
        logits = session.decode_step(next_id)
        next_id = int(np.argmax(logits))
    steps = session.decode_seconds[warmup:] or session.decode_seconds
    step_s = float(np.median(steps))
    return {
        "prefill_s": prefill_s,
        "decode_step_s": step_s,
        "decode_tokens_per_s": 1.0 / step_s if step_s > 0 else float("inf"),
        "peak_rows": session.meter.peak_total,
        "rows_after_prefill_and_decode": sum(c.size for c in session.caches),
    }


def cmd_bench(args) -> int:
    import numpy as np

    from .engine import EngineParams, baseline_params, identification_overhead
    from .errors import InputError
    from .model import load_model

    # The report takes medians over runs and over decode steps.
    for flag, value in (("--repeats", args.repeats), ("--max-new", args.max_new)):
        if value < 1:
            raise InputError(f"{flag} must be >= 1, got {value}")
    lengths = _parse_int_list(args.lengths, "--lengths", minimum=1)
    config, weights, _ = load_model(args.model)
    detect = _detect_from_args(args, config.n_layers)
    rng = np.random.default_rng(args.seed)
    prompts = {
        n: rng.integers(0, config.vocab_size, size=n) for n in lengths
    }
    results = {}
    for n in lengths:
        hybrid_runs, full_runs = [], []
        for _ in range(args.repeats):
            hybrid_runs.append(
                _timed_generation(
                    weights, config, EngineParams(detect=detect), prompts[n], args.max_new
                )
            )
            full_runs.append(
                _timed_generation(
                    weights, config, baseline_params(detect), prompts[n], args.max_new
                )
            )
        med = lambda runs, key: float(np.median([r[key] for r in runs]))
        results[str(n)] = {
            "hybrid": {k: med(hybrid_runs, k) for k in hybrid_runs[0]},
            "full_baseline": {k: med(full_runs, k) for k in full_runs[0]},
            "decode_throughput_ratio": med(hybrid_runs, "decode_tokens_per_s")
            / med(full_runs, "decode_tokens_per_s"),
        }
    overhead = identification_overhead(
        weights, config, prompts, detect, repeats=args.repeats
    )
    _emit(
        {
            "lengths": lengths,
            "p_layers": detect.n_full,
            "results": results,
            "identification_overhead": {str(k): v for k, v in overhead.items()},
        },
        args.report,
    )
    return 0


def cmd_verify_theory(args) -> int:
    from .theory import lemma_oracles, verify_theorem

    theorem = verify_theorem(
        n_trials=args.trials,
        seed=args.seed,
        max_layers=args.max_layers,
        max_heads=args.max_heads,
        max_dim=args.max_dim,
        max_tokens=args.max_tokens,
    )
    lemmas = lemma_oracles(n_trials=args.lemma_trials, seed=args.seed)
    lemma_violations = sum(v["violations"] for v in lemmas.values())
    ok = theorem["pass"] and lemma_violations == 0
    payload = {
        "theorem": theorem,
        "lemmas": lemmas,
        "pass": ok,
    }
    if not args.full_trials:
        payload["theorem"] = {k: v for k, v in theorem.items() if k != "trials"}
    _emit(payload, args.report)
    return 0 if ok else 2


def cmd_analyze(args) -> int:
    import numpy as np

    from .engine import EngineParams, Session
    from .lazydetect import DetectParams
    from .model import load_model

    config, weights, _ = load_model(args.model)
    tokens = _parse_tokens(args.tokens)
    sweep = sorted(set(_parse_int_list(args.w_last_sweep, "--w-last-sweep", minimum=1)))
    detect = DetectParams(
        w_last=max(sweep),
        w_sink=args.w_sink,
        w_recent=args.w_recent,
        n_full=config.n_layers,  # observe only; never transfer
    )
    params = EngineParams(detect=detect, max_new_tokens=args.max_new)  # refuses < 0
    session = Session(weights, config, params)
    session.mass_probe = (args.w_sink, args.w_recent)
    logits, report = session.prefill(tokens)

    ratios_by_w = {}
    for w in sweep:
        w_eff = min(w, tokens.size)
        ratios_by_w[str(w)] = [
            float(np.exp(lr[:, lr.shape[1] - w_eff :]).mean())
            for lr in report.log_ratios
        ]
    next_id = int(np.argmax(logits))
    decode_masses = []
    step_lazy_sets = []
    n_lazy = config.n_layers - _default_p(config.n_layers, args.p_layers)
    for _ in range(args.max_new):
        logits = session.decode_step(next_id)
        masses = session.mass_trace[-1]
        decode_masses.append([float(v) for v in masses])
        order = sorted(range(config.n_layers), key=lambda i: (-masses[i], -i))
        step_lazy_sets.append(sorted(order[:n_lazy]))
        next_id = int(np.argmax(logits))
    _emit(
        {
            "prompt_tokens": int(tokens.size),
            "prefill_ratios_by_w_last": ratios_by_w,
            "decode_step_kept_mass": decode_masses,
            "decode_step_lazy_sets": step_lazy_sets,
            "w_sink": args.w_sink,
            "w_recent": args.w_recent,
        },
        args.report,
    )
    return 0


def cmd_preselect(args) -> int:
    from .model import load_model, model_fingerprint
    from .offline import load_corpus, preselect

    config, weights, _ = load_model(args.model)
    corpus = load_corpus(args.corpus)
    detect = _detect_from_args(args, config.n_layers)
    table, policy = preselect(
        weights, config, corpus, detect, fingerprint=model_fingerprint(args.model)
    )
    if args.out_policy:
        policy.save(args.out_policy)
    _emit(
        {
            "frequency": table.to_dict(),
            "policy": policy.to_dict(),
            "out_policy": args.out_policy,
        },
        args.report,
    )
    return 0


def cmd_make_policy(args) -> int:
    from .engine import make_policy
    from .errors import InputError
    from .model import load_model, model_fingerprint

    config, _, _ = load_model(args.model)
    detect = _detect_from_args(args, config.n_layers)
    layer_range = None
    if args.range:
        try:
            lo, hi = args.range.split(":")
            layer_range = (int(lo), int(hi))
        except ValueError as exc:
            raise InputError(f"--range must be lo:hi, got {args.range!r}") from exc
    manual = _parse_int_list(args.layers, "--layers") if args.layers else None
    policy = make_policy(
        args.strategy,
        config,
        detect,
        seed=args.seed,
        layer_range=layer_range,
        manual_layers=manual,
        fingerprint=model_fingerprint(args.model),
    )
    policy.save(args.out)
    _emit({"out": args.out, "policy": policy.to_dict()}, args.report)
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lazykv",
        description="Hybrid full/streaming-attention transformer inference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="write a reproducible random model file")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--heads", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--dk", type=int, required=True)
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--activation", default="relu", choices=["relu", "gelu", "sigmoid"])
    p.add_argument("--ln", default="rms", choices=["clip", "rms"])
    p.add_argument("--scaling", default="inv_sqrt_dk", choices=["none", "inv_sqrt_dk"])
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_gen_model)

    p = sub.add_parser("run", help="greedy generation with cache policies")
    p.add_argument("--model", required=True)
    p.add_argument("--tokens", required=True, help="JSON file of ids, or comma list")
    _add_window_flags(p)
    p.add_argument("--policy", default=None, help="static policy file (skips detection)")
    p.add_argument("--emit-policy", default=None, help="write the detected policy here")
    p.add_argument("--max-new", type=int, default=16)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="decode throughput and cache-size benchmark")
    p.add_argument("--model", required=True)
    p.add_argument("--lengths", default="1024,2048,4096,8192")
    _add_window_flags(p)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--max-new", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify-theory", help="randomized error-bound checks")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--lemma-trials", type=int, default=500)
    p.add_argument("--max-layers", type=int, default=4)
    p.add_argument("--max-heads", type=int, default=3)
    p.add_argument("--max-dim", type=int, default=8)
    p.add_argument("--max-tokens", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full-trials", action="store_true", help="include per-trial rows")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_verify_theory)

    p = sub.add_parser("analyze", help="ratio sweep and per-step kept-mass matrix")
    p.add_argument("--model", required=True)
    p.add_argument("--tokens", required=True)
    p.add_argument("--w-last-sweep", default="8,16,32,64")
    p.add_argument("--w-sink", type=int, default=4)
    p.add_argument("--w-recent", type=int, default=1020)
    p.add_argument("--p-layers", type=int, default=None)
    p.add_argument("--max-new", type=int, default=16)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("preselect", help="corpus-frequency layer selection")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True, help="JSON-lines question/answer ids")
    _add_window_flags(p)
    p.add_argument("--out-policy", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_preselect)

    p = sub.add_parser("make-policy", help="pyramid / random / manual policies")
    p.add_argument("--model", required=True)
    p.add_argument("--strategy", required=True, choices=["pyramid", "random", "manual"])
    _add_window_flags(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--range", default=None, help="lo:hi index range for random")
    p.add_argument("--layers", default=None, help="comma list for manual")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_make_policy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Parsing imports no numpy, so the cap still reaches BLAS.
    _cap_threads("1" if args.command == "bench" else None)
    from .errors import ContractViolation, InputError

    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
