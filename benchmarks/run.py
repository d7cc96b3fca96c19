#!/usr/bin/env python3
"""Benchmark of the dpconic pipeline: end-to-end metrics and a traced per-layer split.

    python3 benchmarks/run.py --workload privatize-large --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run prepares the workload's inputs from the seed, then repeats
one round of operations until ``--seconds`` have passed, without starting a
round expected to end more than half a round late; experiment-mix and every
traced run make at least two rounds.  With
``--trace 1`` rounds alternate untraced and traced; the traced ones run with
timing wrappers around dpconic's public functions and give the per-layer
metrics, the untraced ones the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``).
Everything the run measured, with the environment, goes to
``.bench_out/result-<workload>-seed<seed>-trace<t>.json``; a traced run also
writes its spans to ``.bench_out/spans-<workload>-seed<seed>.jsonl.gz``.
See benchmarks/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
NAMES = ("privatize-large", "sensitivity-small", "experiment-mix")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "DP_CONIC_THREADS")


def _fail(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def _import_package() -> str | None:
    """Import dpconic from this checkout's src/; return an error or None."""
    src = ROOT / "src"
    if not (src / "dpconic" / "__init__.py").is_file():
        return f"no dpconic sources under {src}; run from a source checkout"
    sys.path.insert(0, str(src))
    import dpconic
    if Path(dpconic.__file__).resolve().parent != (src / "dpconic").resolve():
        return f"imported dpconic from {dpconic.__file__}, not from {src}"
    return None


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- environment --------------------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():   # an exported tree has no history
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return {"name": dep.get("name"), "version": dep.get("version"),
                "config": dep.get("openblas configuration")}

    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# --- one run -------------------------------------------------------------------


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of a fresh interpreter that imports dpconic and builds the
    workload's inputs, repeated SETUP_REPEATS times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    import layers
    import tracer as tracing
    import workloads
    from dpconic import kkt_report
    from dpconic.conic import Status

    wl = workloads.WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    setup_times = _setup_seconds(workload_name, seed)
    state = wl.prepare(seed, OUT)
    env = environment(seed)

    tr = tracing.Tracer()
    solves: list = []
    targets = layers.targets(solves)
    rounds = []      # (traced, seconds, ops)
    cpu = []         # process CPU seconds of the untraced rounds
    problems: list[str] = []
    # a traced run needs an untraced and a traced round
    min_rounds = max(wl.min_rounds, 2 if trace else 1)
    t_start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tr.install(targets)
            try:
                t0 = time.perf_counter()
                with tr.span("bench.round", "bench"):
                    ops = wl.run_round(state, len(rounds))
                dt = time.perf_counter() - t0
            finally:
                wrapped = tr.patched_names
                bad = tr.uninstall()
            if not wrapped:
                problems.append("tracer wrapped nothing")
            problems += [f"tracer left {n} wrapped" for n in bad]
        else:
            t0, c0 = time.perf_counter(), time.process_time()
            ops = wl.run_round(state, len(rounds))
            dt = time.perf_counter() - t0
            cpu.append(time.process_time() - c0)
        rounds.append((traced, dt, ops))
        elapsed = time.perf_counter() - t_start
        typical = _median([r[1] for r in rounds])
        if len(rounds) >= min_rounds and elapsed + typical / 2 >= seconds:
            break
    # before the checks, whose oracles are not the program's memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checks, outside every timed round
    first = rounds[0][2]
    for i, (_, _, ops) in enumerate(rounds):
        for op in ops:
            if op.check is not None:
                problems += op.check()
        if [op.out for op in ops] != [op.out for op in first]:
            problems.append(f"round {i} outputs differ from round 0")

    ops_all = [op for r in rounds for op in r[2]]
    attempted = sum(op.attempted for op in ops_all)
    failed = sum(op.failed for op in ops_all)
    untraced = [r for r in rounds if not r[0]]
    round_s = _median([r[1] for r in untraced])
    named = {
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_ops_frac": (failed / attempted, "failed/attempted"),
        "round_s": (round_s, "s"),
        **wl.headline([r[2] for r in untraced], round_s),
    }

    result = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env,
        "setup_times_s": setup_times,
        "untraced_round_cpu_s": cpu,
        "rounds": [{"traced": t, "seconds": s,
                    "ops": [{"kind": op.kind, "seconds": op.seconds,
                             "attempted": op.attempted, "failed": op.failed,
                             "note": op.note, **op.info} for op in ops]}
                   for t, s, ops in rounds],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "attempted": attempted, "failed": failed,
        "residual_bounds": {**workloads.RESIDUAL_BOUND,
                            "all_solves": workloads.WORKLOAD_RESIDUAL_BOUND[workload_name]},
    }

    if trace:
        traced_rounds = [r for r in rounds if r[0]]
        spans = tr.spans
        lm = layers.layer_metrics(spans, len(traced_rounds))
        lm["trace.overhead_frac"] = _median([r[1] for r in traced_rounds]) / round_s - 1.0
        bound = workloads.WORKLOAD_RESIDUAL_BOUND[workload_name]
        worst, over = 0.0, 0
        for program, sol in solves:
            if sol.status == Status.OPTIMAL:
                r = max(kkt_report(program, sol).values())
                worst = max(worst, r)
                over += not r <= bound
        lm["solver.kkt_residual_max"] = worst
        if over:
            problems.append(f"{over} Optimal solves above the kkt_report bound {bound:g}")
        problems += tracing.check_spans(spans)
        shapes = {}
        for s in spans:
            if s.name.startswith("apps.privatize:") and s.info:
                shapes.setdefault(s.name.split(":")[1], s.info)
        result["program_shapes"] = shapes
        result["layer_metrics"] = lm
        result["wrapped"] = wrapped
        tr.write(OUT / f"spans-{workload_name}-seed{seed}.jsonl.gz")

    result["problems"] = problems
    result["correct"] = not problems
    path = OUT / f"result-{workload_name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
    result["path"] = str(path.relative_to(ROOT))
    return result


# --- reporting ----------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(result: dict, spec: dict, trace: bool) -> dict:
    w = result["workload"]
    print(f"workload {w}  seed {result['seed']}  rounds {len(result['rounds'])}"
          f"  attempted {result['attempted']}  failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:24s} {_fmt(m['value']):>14s} {m['unit']}")
    for name in ("svm_privatize_s", "ellipsoid_privatize_s", "pairs_per_s", "experiment_s"):
        if name not in result["metrics"]:
            print(f"  {name:24s} {'-':>14s} (not run by {w})")
    lm = result.get("layer_metrics", {})
    if lm:
        print("  per layer, per traced round:")
        for name in sorted(lm):
            print(f"    {name:36s} {_fmt(lm[name]):>14s}")
    for p in result["problems"]:
        print(f"  CHECK FAILED: {p}")
    print(f"  details: {result['path']}")

    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": int(lm[k]) if u == "count" and float(lm[k]).is_integer()
                       else lm[k], "unit": u} for k, u in units.items()}
    else:
        metrics = {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Run every workload in its own interpreter and merge their last lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return _fail(f"workload {name} exited with {proc.returncode}")
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be >= 1")
    if args.seed < 0:
        return _fail("--seed must be >= 0")
    err = _import_package()
    if err:
        return _fail(err)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        import workloads
        workloads.WORKLOADS[args.workload].prepare(args.seed, OUT)
        return 0
    spec = _spec()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(result, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
