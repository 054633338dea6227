"""pdeltaflow benchmark: one workload per invocation, result as one JSON line.

    python3 perfbench/run.py --workload certified8 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  A run sets up the seeded inputs, then repeats the
workload's operation until the next one would end past ``--seconds`` (at
least once) and checks every outcome.  With ``--trace 0`` it prints the
end-to-end metrics, each the median over the operations of its time at
the reference machine speed (see ``speed``); with ``--trace 1`` it wraps
the program's public functions while each operation runs, prints the
per-layer metrics, in wall seconds, of the fastest operation and writes
all spans to
``.perfbench/trace-<workload>-seed<seed>.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext
from pathlib import Path

import metrics
import recorder
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"  # one thread: no BLAS thread hand-offs in the timings
SETUP_REPEATS = 5
EXIT_NO_PROGRAM = 2


def _wrapper_cost(n=20000):
    """Seconds one traced call adds to a call of an empty function."""

    def empty():
        return None

    traced = recorder.traced_function(recorder.Recorder(), "calibration", empty)
    t0 = time.perf_counter()
    for _ in range(n):
        empty()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    return max(time.perf_counter() - t0 - bare, 0.0) / n


def _run_op(wl, inputs, traced):
    """One operation: timed calls, then the checks. Returns (rec, t0, t1, outcome, failures).

    ``traced`` is None, or the (functions, namespaces) to wrap while the calls run.
    """
    rec = recorder.Recorder()
    outcome, failures = None, []
    ctx = nullcontext() if traced is None else recorder.instrument(rec, *traced)
    t0 = time.perf_counter()
    try:
        with ctx:
            outcome = wl.run(inputs, rec)
    except Exception as exc:  # a failed operation is counted and the run goes on
        traceback.print_exc(file=sys.stderr)
        failures.append(f"{type(exc).__name__}: {exc}")
    t1 = time.perf_counter()
    if outcome is not None:
        failures += wl.check(outcome)
    return rec, t0, t1, outcome, failures


def end_to_end(probe, ops, setup_s, rss_mb):
    """End-to-end metrics: each time the median over ``ops``, at the reference speed.

    ``ops`` holds (rec, t0, t1) per operation.
    """
    totals = [probe.scaled(t0, t1) for _, t0, t1 in ops]
    solves = [
        sum(probe.scaled(rec.starts[i], rec.ends[i]) for i, n in enumerate(rec.names) if n == "stage.solve")
        for rec, _, _ in ops
    ]
    values = {
        "total_s": statistics.median(totals),
        "solve_s": statistics.median(solves),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, (unit, _) in metrics.END_TO_END.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pdeltaflow" / "__init__.py").is_file():
        print(f"no program source: {ROOT / 'src' / 'pdeltaflow'} is missing", file=sys.stderr)
        return EXIT_NO_PROGRAM
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    with ExitStack() as stack:
        # the untraced run measures the machine's speed throughout; the traced run reads wall seconds
        probe = None if args.trace else stack.enter_context(speed.SpeedProbe())
        t_import = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        imported = time.perf_counter()
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        wl = workloads.WORKLOADS[args.workload]

        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = wl.setup(args.seed)
            setups.append((t0, time.perf_counter()))
        traced = (workloads.program_functions(), workloads.program_namespaces()) if args.trace else None
        wrapper_cost = _wrapper_cost() if args.trace else 0.0

        per_op, ops, completed, failed, traces = [], [], [], 0, []
        start = time.perf_counter()
        while True:
            rec, t0, t1, outcome, failures = _run_op(wl, inputs, traced)
            for msg in failures:
                print(f"check failed [{args.workload} seed {args.seed}]: {msg}", file=sys.stderr)
            failed += bool(failures)
            completed.append(outcome is not None)
            ops.append((rec, t0, t1))
            if args.trace:
                records = wl.records(outcome) if outcome is not None else []
                facts = wl.facts(outcome) if outcome is not None else {}
                per_op.append(metrics.per_layer(rec, t1 - t0, records, facts, wrapper_cost))
                traces.append(rec.to_json())
            if time.perf_counter() - start + (t1 - t0) > args.seconds:
                break

    # an operation that raised has partial timings; use them only when no other exists
    timed = [i for i, done in enumerate(completed) if done] or list(range(len(ops)))
    if args.trace:
        fastest = min((per_op[i] for i in timed), key=lambda op: op["trace.total_s"])
        result = {name: {"value": float(fastest[name]), "unit": unit} for name, (unit, _) in metrics.per_layer_spec().items()}
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": result, "operations": traces}, fh)
            fh.write("\n")
    else:
        setup_s = probe.scaled(t_import, imported) + statistics.median(probe.scaled(a, b) for a, b in setups)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = end_to_end(probe, [ops[i] for i in timed], setup_s, rss_mb)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
