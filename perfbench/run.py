"""lazykv benchmark entry point.

One workload, one process (what BENCHMARK.json names):

    python3 perfbench/run.py --workload long_decode --seed 0 --seconds 25 --trace 0

The last stdout line is the result JSON (correct, attempted, failed,
metrics); the lines before it give the environment and the workload's
detail figures. ``--trace 1`` reports the per-layer metrics instead.

Every workload, each run in its own fresh process, with a summary table:

    python3 perfbench/run.py --all --runs 10 --seed 0 --out perfbench/results/baseline.json

Run from the root of a checkout: the package is imported from ``src/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy is first imported: the machine is small
# and shared, and thread pools make timings depend on the neighbours.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="the workload to measure")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="every workload, one process each")
    p.add_argument("--runs", type=int, default=1, help="with --all: seeds per workload")
    p.add_argument("--out", help="with --all: write the collected results here")
    args = p.parse_args(argv)
    if not args.all and not args.workload:
        p.error("give --workload NAME or --all")
    if args.runs < 1 or args.seconds <= 0:
        p.error("--runs and --seconds must be positive")
    return args


def _one(args) -> int:
    import lkbench

    if args.workload not in lkbench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(lkbench.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    result = lkbench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, import_s=import_s
    )
    print("env: " + json.dumps(lkbench.environment(), sort_keys=True))
    print("detail: " + json.dumps(result["detail"], sort_keys=True))
    if result["absent"]:
        print("absent (reported as 0): " + ", ".join(result["absent"]))
    for name, m in result["metrics"].items():
        print(f"  {args.workload:15s} {name:34s} {m['value']:.6g} {m['unit']}")
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: result[k] for k in keys}))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    out = json.loads(lines[-1])
    for line in lines:
        for tag in ("env", "detail"):
            if line.startswith(tag + ": "):
                out[tag] = json.loads(line[len(tag) + 2 :])
    out.update(workload=workload, seed=seed, trace=trace)
    return out


def _spread(values):
    """(median, q1, q3, (q3 - q1) / median): the run-to-run spread."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def _all(args) -> int:
    import lkbench

    names = list(lkbench.WORKLOADS)
    seeds = [args.seed + i for i in range(args.runs)]
    runs = []
    # Seed-major order spreads slow spells of the machine over all workloads.
    for seed in seeds:
        for name in names:
            runs.append(_child(name, seed, args.seconds, 0))
            r = runs[-1]
            print(f"{name:15s} seed {seed:3d} correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
    traced = [_child(name, args.seed, args.seconds, 1) for name in names]
    summary = {}
    print(f"\n{'workload':15s} {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} unit")
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        rows = {}
        for metric, unit in lkbench.END_TO_END.items():
            med, q1, q3, spread = _spread([r["metrics"][metric]["value"] for r in mine])
            rows[metric] = dict(unit=unit, median=med, q1=q1, q3=q3, spread=spread)
            print(f"{name:15s} {metric:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {unit}")
        details = {}
        for key in sorted({k for r in mine for k in r["detail"]}):
            vals = [r["detail"][key] for r in mine if key in r["detail"]]
            details[key] = dict(median=statistics.median(vals), runs=len(vals))
            print(f"{name:15s} {key:34s} {details[key]['median']:12.6g}   (detail, {len(vals)} runs)")
        summary[name] = {"end_to_end": rows, "detail": details}
    for r in traced:
        print(f"\n{r['workload']} traced, seed {r['seed']}:")
        for metric, m in r["metrics"].items():
            print(f"  {metric:40s} {m['value']:.6g} {m['unit']}")
    ok = all(r["correct"] for r in runs + traced)
    if args.out:
        payload = {
            "seeds": seeds,
            "seconds": args.seconds,
            "env": runs[0].get("env"),
            "correct": ok,
            "summary": summary,
            "runs": runs,
            "traced": traced,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
    print(f"\nall outputs correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "lazykv" / "__init__.py").is_file():
        print(f"perfbench: no lazykv sources under {ROOT / 'src'}; run it from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return _all(args) if args.all else _one(args)


if __name__ == "__main__":
    sys.exit(main())
