"""One workload process: set up, run the closed loop, check the outputs.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  The
last line of standard output is one JSON object for the parent.  Modes:

* ``setup``: build the inputs and run the warm-up instance, then stop;
* ``measure``: untraced timed loop (end-to-end metrics);
* ``reference``: untraced loop for the tracing-overhead baseline;
* ``traced``: the same loop with every layer wrapped (per-layer metrics).

The CLI session runs each call as a fresh process in ``setup`` and
``measure`` mode, and in-process through ``mbqcflow.cli.run_command`` in
``reference`` and ``traced`` mode.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import mbqcflow as mf
import mbqcflow.cli  # noqa: F401  (makes mf.cli available for in-process calls)
import tracing
import workloads

#: Error messages kept in the result when instances fail.
KEPT_ERRORS = 5
#: Iterations of the calibration kernel (about half a millisecond).
CALIBRATION_STEPS = 16
_CALIBRATION_INDEX = np.arange(4096)
#: Calibration samples taken right after set-up, to scale the set-up time.
SETUP_CALIBRATION_SAMPLES = 15
#: Branch counts are reported for pools small enough for the dense oracle.
BRANCH_REPORT_LIMIT = 16


def calibration_kernel() -> float:
    """Fixed NumPy work timed before every instance.

    None of it is mbqcflow code, so a change to mbqcflow cannot change its
    time; only the speed of the machine can.  Of the kernels tried (integer
    bit loops, dictionary merging, NumPy bit masks) this one tracked the
    slow-downs of all four in-process workloads most closely on a shared
    host: a log-log slope near 1 against each workload's instance times.
    """
    total = 0.0
    for shift in range(CALIBRATION_STEPS):
        bit = (_CALIBRATION_INDEX >> shift) & 1
        total += float(np.linalg.norm(np.where(bit == 0, 0.5, -0.5) * _CALIBRATION_INDEX))
    return total


def time_calibration() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def run_cli_in_process(inst: workloads.Instance) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mf.cli.run_command(list(inst.argv))
    return code, out.getvalue().encode()


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def manifest(pool: list, summaries: dict) -> dict:
    """Input properties of the pool, measured outside the timed region."""
    props: dict = {"instances": len(pool)}
    graphs = [inst for inst in pool if inst.graph is not None]
    if graphs:
        props["n_range"] = [min(i.n for i in graphs), max(i.n for i in graphs)]
        edges = [len(i.graph.edges) for i in graphs]
        props["edge_range"] = [min(edges), max(edges)]
        measured = [i.measured for i in graphs]
        props["measured_range"] = [min(measured), max(measured)]
        if max(measured) <= BRANCH_REPORT_LIMIT:
            props["branch_range"] = [2 ** min(measured), 2 ** max(measured)]
        has_gflow = [
            i.gflow is not None or summaries.get(i.index, {}).get("gflow") is not None
            for i in graphs
        ]
        props["gflow_share"] = sum(has_gflow) / len(graphs)
        props["causal_flow_share"] = sum(
            mf.find_causal_flow(i.graph) is not None for i in graphs
        ) / len(graphs)
    marks = [max(c for _, c in s["high_water"]) for s in summaries.values() if "high_water" in s]
    if marks:
        props["high_water_quartiles"] = [float(q) for q in np.percentile(marks, [0, 25, 50, 75, 100])]
    if pool[0].argv:
        props["commands"] = sorted({inst.label for inst in pool})
    props["digest"] = workloads.digest([inst.manifest_item() for inst in pool])
    return props


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "measure", "reference", "traced"])
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-instances", type=int, default=1)
    parser.add_argument("--workdir", help="scratch directory for the CLI session's files")
    parser.add_argument("--trace-out", help="gzipped JSON lines file for spans")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    pool = workloads.build_pool(args.workload, args.seed)
    run = workload.run
    if pool[0].argv:
        os.chdir(args.workdir)
        for name, text in pool[0].files.items():
            with open(name, "w", encoding="utf-8") as handle:
                handle.write(text)
        if args.mode in ("reference", "traced"):
            run = run_cli_in_process
    run(pool[0])  # warm-up, untimed
    setup_end = time.perf_counter()
    setup_calibration = statistics.median(time_calibration() for _ in range(SETUP_CALIBRATION_SAMPLES))
    if args.mode == "setup":
        print(json.dumps({"setup_end": setup_end, "setup_calibration": setup_calibration}))
        return 0

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer) if args.mode == "traced" else None
    wrapped = tracing.traced_bindings()
    summaries: dict[int, dict] = {}
    first_items: dict[int, object] = {}
    first_digests: dict[int, str] = {}
    rows: list[dict] = []
    latencies: list[float | None] = []
    calibration: list[float] = []
    errors: list[str] = []
    raised = 0
    loop_start = time.perf_counter()
    passes = 0
    while passes == 0 or (
        time.perf_counter() - loop_start < args.seconds or len(latencies) < args.min_instances
    ):
        for inst in pool:
            calibration.append(time_calibration())
            try:
                start = time.perf_counter()
                if restore is not None:
                    out = tracer.run_instance(inst.index, lambda: run(inst))
                else:
                    out = run(inst)
                elapsed = time.perf_counter() - start
            except Exception:  # an instance failure is data, not a crash
                if len(errors) < KEPT_ERRORS:
                    errors.append(f"{inst.label}: {traceback.format_exc(limit=3)}")
                raised += 1
                latencies.append(None)
                continue
            latencies.append(elapsed)
            summary = workload.summarize(inst, out)
            item = workload.digest_item(inst, summary)
            item_digest = workloads.digest(item)
            if inst.index not in summaries:
                summaries[inst.index] = summary
                first_items[inst.index] = item
                first_digests[inst.index] = item_digest
            repeated = item_digest == first_digests[inst.index]
            if not repeated and len(errors) < KEPT_ERRORS:
                errors.append(f"{inst.label}: output differs between repetitions")
            row = {"index": inst.index, "label": inst.label, "n": inst.n,
                   "measured": inst.measured, "seconds": elapsed, "repeated": repeated}
            if "high_water" in summary:
                row["high_water"] = max(c for _, c in summary["high_water"])
            if "branch_count" in summary:
                row["branches"] = summary["branch_count"]
            rows.append(row)
        passes += 1
    rss = resource.getrusage(
        resource.RUSAGE_CHILDREN if pool[0].argv and args.mode == "measure" else resource.RUSAGE_SELF
    ).ru_maxrss
    if restore is not None:
        restore()

    problems: dict[int, list[str]] = {}
    for inst in pool:
        if inst.index in summaries:
            found = workload.check(inst, summaries[inst.index])
            if found:
                problems[inst.index] = found
        else:
            problems[inst.index] = ["never completed"]
    failed = raised + sum(1 for row in rows if not row["repeated"] or row["index"] in problems)

    result = {
        "setup_end": setup_end,
        "setup_calibration": setup_calibration,
        "latencies": latencies,
        "calibration": calibration,
        "attempted": len(latencies),
        "failed": failed,
        "passes": passes,
        "errors": errors,
        "problems": {pool[i].label + f"#{i}": p for i, p in problems.items()},
        "output_digest": workloads.digest([first_items.get(inst.index) for inst in pool]),
        "manifest": manifest(pool, summaries),
        "peak_rss_kb": rss,
        "traced_bindings": wrapped,
        "environment": environment(),
    }
    if args.mode in ("reference", "traced"):
        result["rows"] = rows
    if args.mode == "traced":
        result["layers"] = tracing.layer_metrics(tracer)
        if args.trace_out:
            tracer.write(args.trace_out, rows)
        # The stdout of in-process CLI calls is counted in the summaries.
        sizes = [s["stdout_bytes"] for s in summaries.values() if "stdout_bytes" in s]
        if sizes:
            result["layers"]["cli.stdout_bytes"] = sum(sizes) / len(sizes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
