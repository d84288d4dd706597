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


def _parse_tokens(spec: str, vocab_size: int):
    """``--tokens``: a JSON file or a comma list of ids in ``[0, vocab_size)``."""
    from .errors import InputError, parse_json
    from .model import check_tokens

    if os.path.exists(spec):
        with open(spec, "rb") as f:
            data, source = parse_json(f.read(), spec), spec
    else:
        data, source = _parse_int_list(spec, "--tokens"), "--tokens"
    try:
        return check_tokens(data, vocab_size)
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from exc


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
    from .errors import InputError

    if p_arg is None:
        return math.ceil(n_layers / 2)
    if p_arg < 0:
        raise InputError(f"--p-layers must be >= 0, got {p_arg}")
    return p_arg


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


def _memory_bytes():
    """Physical memory in bytes, or infinity where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def cmd_gen_model(args) -> int:
    from .errors import InputError
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
    if config.weight_bytes > _memory_bytes():
        raise InputError(f"a model of {config.weight_bytes} bytes does not fit in memory")
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
    tokens = _parse_tokens(args.tokens, config.vocab_size)
    detect = _detect_from_args(args, config.n_layers)
    fp = model_fingerprint(args.model) if args.policy or args.emit_policy else ""
    policy = None
    if args.policy:
        policy = PolicyFile.load(args.policy)
        if policy.fingerprint and policy.fingerprint != fp:
            raise InputError(
                f"policy {args.policy} was built for model {policy.fingerprint[:12]!r}..., "
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
        PolicyFile.from_detect(detect, session.report.lazy_layers, "online", fp).save(
            args.emit_policy
        )
        report["emitted_policy"] = args.emit_policy
    _emit(report, args.report)
    return 0


def cmd_bench(args) -> int:
    import numpy as np

    from .bench import compare
    from .errors import InputError, check_seed
    from .model import load_model

    # The report takes medians over runs and over decode steps.
    for flag, value in (("--repeats", args.repeats), ("--max-new", args.max_new)):
        if value < 1:
            raise InputError(f"{flag} must be >= 1, got {value}")
    lengths = _parse_int_list(args.lengths, "--lengths", minimum=1)
    config, weights, _ = load_model(args.model)
    detect = _detect_from_args(args, config.n_layers)
    rng = np.random.default_rng(check_seed(args.seed))
    prompts = {
        n: rng.integers(0, config.vocab_size, size=n) for n in lengths
    }
    report = compare(weights, config, prompts, detect, args.repeats, args.max_new)
    _emit({"lengths": lengths, "p_layers": detect.n_full, **report}, args.report)
    return 0


def cmd_verify_theory(args) -> int:
    from .errors import InputError
    from .model import ModelConfig
    from .theory import check_trial_sizes, lemma_oracles, verify_theorem

    sizes = (args.max_layers, args.max_heads, args.max_dim, args.max_tokens)
    check_trial_sizes(args.trials, *sizes)
    largest = ModelConfig(args.max_layers, args.max_heads, args.max_dim, args.max_dim,
                          2 * args.max_dim)
    # The largest drawable model's weights and its longest prompt's (H, n, n) scores.
    need = largest.weight_bytes + 8 * args.max_heads * args.max_tokens**2
    if need > _memory_bytes():
        raise InputError(f"out of memory: a trial may need {need} bytes")
    theorem = verify_theorem(args.trials, args.seed, *sizes)
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
    from .errors import InputError
    from .lazydetect import DetectParams, IdentifierState, lse_log_ratios
    from .model import load_model
    from .numerics import attend

    if args.max_new < 0:
        raise InputError(f"--max-new must be >= 0, got {args.max_new}")
    config, weights, _ = load_model(args.model)
    tokens = _parse_tokens(args.tokens, config.vocab_size)
    sweep = sorted(set(_parse_int_list(args.w_last_sweep, "--w-last-sweep", minimum=1)))
    L, scale = config.n_layers, config.score_scale
    p = _default_p(L, args.p_layers)
    detect = DetectParams(
        w_last=max(sweep),
        w_sink=args.w_sink,
        w_recent=args.w_recent,
        n_full=L,  # observe only: every cache stays full, in position order
    )
    session = Session(weights, config, EngineParams(detect=detect))
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
    for _ in range(args.max_new):
        logits = session.decode_step(next_id)
        # Each layer's kept mass for the newest row: its query, its lse over
        # every held row, then the log-sum-exp shortcut of prefill detection.
        masses = []
        ranking = IdentifierState(p, L)
        for layer, cache in enumerate(session.caches):
            keys, inputs, _ = cache.held()
            q = np.matmul(inputs[-1:], weights.w_q[layer])
            _, lse = attend(q, keys, scale)
            masses.append(float(np.exp(lse_log_ratios(q, keys, lse, detect, scale)).mean()))
            ranking.push(layer, masses[-1])
        decode_masses.append(masses)
        step_lazy_sets.append(ranking.finalize()[1])
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


class _Parser(argparse.ArgumentParser):
    """Bad flags are bad input: one ``error:`` line and exit 1, no usage
    block. Subparsers inherit the class."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    import numpy as np

    from .errors import ContractViolation, InputError

    try:
        # A float64 overflow or NaN comes from weights too large for the
        # arithmetic: one error line, not a warning per site and NaN output.
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except FloatingPointError as exc:
        print(f"error: {exc}; the model's weights are too large for float64", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
