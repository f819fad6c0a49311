"""mbqcflow benchmark: seeded closed-loop workloads over the public API and CLI.

Run from the root of an mbqcflow checkout:

    python3 perfbench/run.py --workload flow-scan --seed 1 --seconds 10 --trace 0

One caller sends the next instance only after the previous one completes.
With ``--trace 0`` the workload runs untraced in its own child process and
the end-to-end metrics are reported; with ``--trace 1`` a reference child
and a traced child run the same instances and the per-layer metrics are
reported.  Each child gets a memory rlimit and one BLAS thread.  The last
line of standard output is the result object; the line before it holds the
details (input manifest, output digest, sample counts, environment, and
the latencies before scaling).  Traced spans are written to
``perfbench/results/``.

End-to-end times are stated at a nominal machine speed: a fixed NumPy
calibration kernel is timed before every instance, and each time is scaled
by the nominal kernel time over the kernel times measured around it (see
``scaled_latencies``).  On a shared host this removed most of the
run-to-run drift: the quartile spread of latency_p90_ms over five seeds
fell from 0.21-0.48 of the median unscaled to 0.04-0.11 scaled.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: Address-space limit of each workload process (and its children).
MEMORY_LIMIT_BYTES = 2 << 30
#: Each run times at least this many instances, so ten lie beyond the p90.
MIN_INSTANCES = 100
#: Processes whose set-up is timed; setup_s is their median.
SETUP_SAMPLES = 3
#: Fresh interpreters timed for cli.import_s and cli.bare_python_s.
IMPORT_SAMPLES = 5
#: A typical median time of the worker's calibration kernel on a 2-CPU
#: 2.1 GHz Xeon VM: the machine speed at which latencies are stated.
CALIBRATION_NOMINAL_S = 0.45e-3
#: Calibration samples around an instance that set its speed factor.
CALIBRATION_WINDOW = 15
#: Wall-clock budget of one benchmark invocation.
RUN_BUDGET_S = 170.0

WAIT_NOTE = "no wait-time metrics: no layer has a queue or a second thread"


class WorkerError(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(BENCH_DIR)]),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def run_child(cmd: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run ``cmd`` in its own session; returns (start time, stdout).

    On timeout the whole process group, CLI children included, is killed
    and reaped.  Workers wait for their own children, so a finished worker
    leaves none behind.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
        preexec_fn=_limit_memory,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"timed out: {' '.join(cmd[1:])}") from None
    if proc.returncode != 0:
        raise WorkerError(f"exit {proc.returncode}: {' '.join(cmd[1:])}")
    return start, stdout


def worker(mode: str, args, env: dict, deadline: float, **extra) -> tuple[float, dict]:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
    ]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    start, stdout = run_child(cmd, env, deadline)
    lines = stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"{mode} worker printed no result")
    return start, json.loads(lines[-1])


def scaled_latencies(latencies: list, calibration: list[float]) -> list[float]:
    """Completed instances' latencies restated at the nominal machine speed.

    On a shared host the speed of the CPU drifts by tens of percent over
    seconds, and the workloads share most of that drift with the NumPy
    calibration kernel (correlation about 0.9 over 4-second windows).  Each
    latency is multiplied by the nominal calibration time over the median
    of the calibration samples taken around it, which cancels most of it.
    """
    half = CALIBRATION_WINDOW // 2
    scaled = []
    for i, latency in enumerate(latencies):
        if latency is not None:
            local = statistics.median(calibration[max(0, i - half) : i + half + 1])
            scaled.append(latency * CALIBRATION_NOMINAL_S / local)
    return scaled


def fresh_interpreter_s(code: str, env: dict, deadline: float) -> float:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start, _ = run_child([sys.executable, "-c", code], env, deadline)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def measure_end_to_end(args, env: dict, deadline: float, workdir: Path, units: dict) -> tuple[dict, dict]:
    setups = []

    def scaled_setup(start: float, res: dict) -> float:
        return (res["setup_end"] - start) * CALIBRATION_NOMINAL_S / res["setup_calibration"]

    for _ in range(SETUP_SAMPLES - 1):
        setups.append(scaled_setup(*worker("setup", args, env, deadline, workdir=workdir)))
    start, res = worker(
        "measure", args, env, deadline,
        seconds=args.seconds, min_instances=MIN_INSTANCES, workdir=workdir,
    )
    setups.append(scaled_setup(start, res))
    raw = [x for x in res["latencies"] if x is not None]
    lat = scaled_latencies(res["latencies"], res["calibration"])
    if len(lat) < 2:
        raise WorkerError(f"only {len(lat)} instances completed")
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    raw_deciles = statistics.quantiles(raw, n=10, method="inclusive")
    metrics = {
        "instances_per_s": len(lat) / sum(lat),
        "latency_p50_ms": deciles[4] * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    res["unscaled"] = {
        "latency_p50_ms": raw_deciles[4] * 1e3,
        "latency_p90_ms": raw_deciles[8] * 1e3,
        "speed_factor": CALIBRATION_NOMINAL_S / statistics.median(res["calibration"]),
    }
    res["sample_counts"] = {
        "latency": len(lat),
        "beyond_p90": sum(1 for x in lat if x * 1e3 > metrics["latency_p90_ms"]),
        "setup": len(setups),
        "passes": res["passes"],
    }
    res["fail_rate"] = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, res


def measure_layers(args, env: dict, deadline: float, workdir: Path, units: dict) -> tuple[dict, dict]:
    half = args.seconds / 2.0
    _, ref = worker("reference", args, env, deadline, seconds=half, workdir=workdir)
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    trace_out = results / f"{args.workload}-seed{args.seed}-trace.jsonl.gz"
    _, res = worker("traced", args, env, deadline, seconds=half, workdir=workdir, trace_out=trace_out)
    layers = res["layers"]
    # Both processes' times are scaled to the nominal speed, so that drift
    # between the two runs does not read as tracing overhead.
    layers["trace.overhead_ratio"] = statistics.fmean(
        scaled_latencies(res["latencies"], res["calibration"])
    ) / statistics.fmean(scaled_latencies(ref["latencies"], ref["calibration"]))
    if args.workload == "cli-session":
        by_command: dict[str, list[float]] = {}
        for row in ref["rows"]:
            by_command.setdefault(row["label"], []).append(row["seconds"])
        for command, seconds in by_command.items():
            layers[f"cli.{command}.p50_ms"] = statistics.median(seconds) * 1e3
        layers["cli.import_s"] = fresh_interpreter_s("import mbqcflow.cli", env, deadline)
        layers["cli.bare_python_s"] = fresh_interpreter_s("pass", env, deadline)
    res["trace_file"] = str(trace_out.relative_to(BENCH_DIR.parent))
    res["reference_instances"] = len(ref["rows"])
    res["correct_reference"] = ref["failed"] == 0 and not ref["problems"]
    exercised = {k for k, v in layers.items() if v}
    res["not_exercised"] = sorted(name for name in units if name not in exercised)
    metrics = {
        name: {"value": float(layers.get(name, 0.0)), "unit": unit} for name, unit in units.items()
    }
    return metrics, res


def main(argv: list[str] | None = None) -> int:
    root = Path.cwd()
    if not (root / "src" / "mbqcflow" / "__init__.py").is_file():
        print("perfbench: run from the root of an mbqcflow checkout (no src/mbqcflow)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description="mbqcflow benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(whys))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_BUDGET_S
    env = child_env(root)
    workdir = BENCH_DIR / f".work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        metrics, res = measure(args, env, deadline, workdir, units)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The untraced process must never see a wrapper.
    correct = res["failed"] == 0 and not res["problems"] and (
        res["correct_reference"] if args.trace else res["traced_bindings"] == 0
    )
    details = {
        "workload": args.workload,
        "why": whys[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        **{
            k: v for k, v in res.items()
            if k not in ("latencies", "calibration", "rows", "layers", "setup_end")
        },
        "wait_time": WAIT_NOTE,
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
