#!/usr/bin/env python3
"""The pase benchmark: three closed-loop workloads, timed end to end, and a
traced run that times each module.

    python3 perfbench/run.py --workload pretrain-b8 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Run it from the root of a checkout: it measures the program in `src/pase`.
One process runs one workload. A single caller makes one job call at a
time and waits for it (closed loop, one client), repeating until `--seconds`
have passed. Inputs are made from `--seed` in a child process before the
measuring starts, and cached in `.perfbench_work/`, where results and traces
are also written. The last line of standard output is the result as one
JSON object; see perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("pretrain-b8", "extract-probe", "contaminate-all")
PREPARE_TIMEOUT_S = 600  # a run that finds no cached inputs makes them


def _limit_blas_threads() -> None:
    """At most one BLAS thread per usable CPU; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def _modules():
    import contaminate_all
    import extract_probe
    import pretrain_b8

    return {"pretrain-b8": pretrain_b8, "extract-probe": extract_probe,
            "contaminate-all": contaminate_all}


def _prepare(workload: str, seed: int, sizes, work: str) -> bool:
    """Make the workload's inputs in a child process, so that the measuring
    process holds only the job: none of generation's memory, and the same
    state whether or not the inputs were already cached. The child is a plain
    subprocess that is always waited for; it starts no helper of its own."""
    cmd = [sys.executable, os.path.abspath(__file__), "--prepare", "--workload", workload,
           "--seed", str(seed), "--sizes", sizes.name, "--work", work]
    child = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr.fileno())
    try:
        code = child.wait(PREPARE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: making the {workload} inputs took over {PREPARE_TIMEOUT_S} s",
              file=sys.stderr)
        return False
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code:
        print(f"perfbench: making the {workload} inputs failed", file=sys.stderr)
    return code == 0


def _measure(workload: str, seed: int, seconds: float, trace: bool, sizes, work: str, marks):
    from measure import Context

    if not _prepare(workload, seed, sizes, work):
        return None
    ctx = Context(workload, seed, seconds, sizes, work, marks)
    module = _modules()[workload]
    shutil.rmtree(ctx.jobs, ignore_errors=True)  # left behind by a run that was killed
    try:
        return module.run_traced(ctx) if trace else module.run(ctx)
    finally:
        shutil.rmtree(ctx.jobs, ignore_errors=True)


def _expected_names(trace: bool) -> list[str]:
    from metrics import END_TO_END, per_layer_names

    return per_layer_names() if trace else [name for name, _ in END_TO_END]


def _write_outputs(stem: str, record: dict, tracer) -> None:
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        tracer.write(os.path.join(WORK, "traces", stem + ".jsonl"))


def benchmark(args, load) -> int:
    import corpora
    from measure import Marks, machine_record
    from metrics import OVERHEAD

    machine = machine_record(load)
    print("machine: " + json.dumps(machine, sort_keys=True))
    outcome = _measure(args.workload, args.seed, args.seconds, bool(args.trace), corpora.FULL,
                       WORK, Marks())
    if outcome is None:
        return 1
    for name, ok, detail in outcome.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    for line in outcome.report:
        print(line)
    for name, unit, _ in OVERHEAD if args.trace else ():
        if name in outcome.metrics:
            print(f"{args.workload} {name} = {outcome.metrics[name][0]:+.4f} {unit}"
                  "  (traced job minus untraced call)")
    print(f"{args.workload} error_rate = {outcome.failed}/{outcome.attempted}")
    missing = [n for n in _expected_names(bool(args.trace)) if n not in outcome.metrics]
    if missing:
        print(f"perfbench: no figure for {', '.join(missing)}", file=sys.stderr)
    result = {
        "correct": outcome.correct and not missing,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write_outputs(stem, {"machine": machine, "workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "trace": args.trace,
                          "checks": outcome.checks, "report": outcome.report,
                          "samples": outcome.samples, **result},
                   outcome.tracer)
    print(json.dumps(result))
    return 1 if missing else 0


def self_check() -> int:
    """Every workload, untraced and traced, at tiny sizes with every
    correctness check; the metric names must match BENCHMARK.json."""
    import corpora
    from measure import Marks

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        listed = [m["name"] for m in declared[key]]
        if listed != _expected_names(trace):
            problems.append(f"BENCHMARK.json {key} does not list the metrics the benchmark prints")
    marks = Marks()
    for workload in WORKLOADS:
        for trace in (False, True):
            outcome = _measure(workload, 0, 0.0, trace, corpora.TINY,
                               os.path.join(WORK, "self-check"), marks)
            label = f"{workload} trace={int(trace)}"
            if outcome is None:
                problems.append(f"{label}: making the inputs failed")
                continue
            failed = [name for name, ok, _ in outcome.checks if not ok]
            missing = [n for n in _expected_names(trace) if n not in outcome.metrics]
            print(f"{label}: {len(outcome.checks)} checks, {outcome.failed}/{outcome.attempted} "
                  f"failed, {len(outcome.metrics)} metrics")
            if failed or missing or outcome.failed:
                problems.append(f"{label}: failed checks {failed}, missing metrics {missing}")
    for problem in problems:
        print("self-check FAIL: " + problem)
    print("self-check " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload and check at tiny sizes, in seconds")
    # Used by the benchmark itself to make a workload's inputs in a child process.
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sizes", default="full", help=argparse.SUPPRESS)
    parser.add_argument("--work", default=WORK, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    load = os.getloadavg()
    if not os.path.isfile(os.path.join(ROOT, "src", "pase", "__init__.py")):
        print(f"perfbench: no program to measure under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.prepare:
        import corpora

        corpora.prepare(args.workload, args.seed, corpora.SIZES[args.sizes], args.work)
        return 0
    # A termination signal unwinds like an exception, so the input child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return self_check() if args.self_check else benchmark(args, load)


if __name__ == "__main__":
    sys.exit(main())
