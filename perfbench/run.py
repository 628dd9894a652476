"""Benchmark of the assortopt solver, reference solver and sweep.

Run from the root of a checkout (the program is imported from its ``src``):

    python3 perfbench/run.py --workload solve-large --seed 0 --seconds 15 --trace 0

Workloads are listed in BENCHMARK.json and described in perfbench/README.md.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds and reports the per-layer metrics
and the tracing overhead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The result is
also written under ``.perfbench/results`` and, for traced runs, the spans
under ``.perfbench/traces``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-large", "reference-mnl", "sweep-desk"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and make sure it is what gets imported."""
    init = os.path.join(SRC, "assortopt", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: no assortopt package at {init}")
    sys.path[:0] = [SRC, HERE]
    import assortopt

    if os.path.abspath(assortopt.__file__) != init:
        raise SystemExit(f"perfbench: imported {assortopt.__file__}, not {init}")


def child_import() -> None:
    """Start a fresh interpreter that imports the CLI, as every command-line use does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", "import assortopt.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)


def set_up(workload, log) -> float:
    """Import, generate the inputs and warm up each distinct op once; returns seconds."""
    start = perf_counter()
    child_import()
    workload.prepare()
    for op in workload.warmup_ops():
        try:
            op.run()
        except Exception as exc:  # the timed runs of this op will count the failure
            log(f"warm-up {op.name} failed: {type(exc).__name__}: {exc}")
    return perf_counter() - start


def tail(values: list[float]) -> str:
    """The highest whole percentile with at least 10 samples beyond it; none below 40 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 40:
        return f"median only ({n} ops)"
    p = math.floor(100 * (n - 10) / n)
    rank = math.ceil(p / 100 * n)
    return f"p{p} {1000.0 * ordered[rank - 1]:.1f} ms ({n - rank} of {n} ops beyond)"


def measure(workload, seconds: float, tracer, log) -> dict:
    """Run whole rounds until ``seconds`` have passed; checks every op's output."""
    untraced, traced_times = [], []
    attempted = failed = wrong = 0
    rounds = 0
    start = perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in workload.round_ops(rounds):
                if traced:
                    tracer.begin_op(op.name)
                t0 = perf_counter()
                try:
                    output = op.run()
                except Exception as exc:  # the program failed; count it and go on
                    output, error = None, f"{type(exc).__name__}: {exc}"
                else:
                    error = None
                elapsed = perf_counter() - t0
                if traced:
                    tracer.end_op()
                attempted += 1
                if error is not None:
                    failed += 1
                    log(f"FAILED {op.name}: {error}")
                    continue
                try:
                    problems = op.check(output)
                except Exception as exc:  # a malformed output is a wrong output
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                if problems:
                    failed += 1
                    wrong += 1
                    for problem in problems:
                        log(f"WRONG {op.name}: {problem}")
                    continue
                (traced_times if traced else untraced).append(elapsed)
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        if perf_counter() - start >= seconds and (tracer is None or rounds % 2 == 0):
            break
    return {"untraced": untraced, "traced": traced_times, "attempted": attempted,
            "failed": failed, "wrong": wrong, "rounds": rounds,
            "wall_s": perf_counter() - start}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its children (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def median_ms(values: list[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    import_program()
    import independent
    import workloads

    def log(message: str) -> None:
        print(f"perfbench: {message}", file=sys.stderr, flush=True)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
        problems = independent.self_check(args.seed)
        repeats = 1 if args.trace else SETUP_REPEATS
        setup_s = [set_up(workload, log) for _ in range(repeats)]
        workload.reference()
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        run = measure(workload, args.seconds, tracer, log)
        try:
            problems += workload.determinism()
        except Exception as exc:  # the program failed on a rerun of an op that passed
            problems.append(f"determinism rerun raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        log(f"WRONG {problem}")

    times = run["untraced"]
    info = (f"{args.workload} seed={args.seed}: {run['attempted']} ops in {run['rounds']} rounds "
            f"over {run['wall_s']:.1f} s, {run['failed']} failed; untraced op_ms p50 "
            f"{median_ms(times):.1f} from {len(times)} ops, {tail(times)}; set-up "
            + ", ".join(f"{s:.2f}" for s in setup_s) + " s")
    if getattr(workload, "jobs1_s", None) is not None and times:
        info += (f"; first op {times[0]:.3f} s at --jobs 2, "
                 f"{workload.jobs1_s:.3f} s rerun at --jobs 1")
    if args.trace:
        values = tracer.metrics()
        values["trace.op_ms_p50_untraced"] = median_ms(times)
        values["trace.op_ms_p50_traced"] = median_ms(run["traced"])
        values["trace.overhead_ms"] = values["trace.op_ms_p50_traced"] - values["trace.op_ms_p50_untraced"]
        declared = spec["per_layer"]
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.write(os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
    else:
        values = {
            "op_ms.p50": median_ms(times),
            "ops_per_s": len(times) / sum(times) if times else 0.0,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "oracle_calls_per_op": workload.oracle_calls_per_op(),
        }
        declared = spec["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in declared):
        raise SystemExit(f"perfbench: measured {sorted(values)} but BENCHMARK.json declares "
                         f"{sorted(m['name'] for m in declared)}")
    result = {
        "correct": run["wrong"] == 0 and not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"result": result, "info": info, "setup_s": setup_s,
                   "op_s": times, "traced_op_s": run["traced"]}, handle, indent=1)
    print(info)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
