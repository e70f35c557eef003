"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ops-churn --seed 3 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` every end-to-end metric of ``BENCHMARK.json``, with
``--trace 1`` every per-layer metric.  Tables, the raw host figures
and the host clock's probes go to standard error.  The workloads are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

from hostclock import CLOCK, REFERENCE_PROBE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

#: every run is a fresh interpreter with a fixed hash seed and
#: single-threaded numeric libraries
FIXED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

WORKLOADS = ("paper-warmup", "ops-churn", "service-roundtrip")

#: set-up samples per simulation cycle (setup_s is the median of the run's)
SETUP_SAMPLES = 7
#: cycles per run, at least
MIN_CYCLES = 1


def cycle_count(seconds: int, nominal_cycle_s: float) -> int:
    """Cycles per run: fixed by ``--seconds`` alone, so that runs with
    the same arguments do the same work whatever the host's speed."""
    return max(MIN_CYCLES, int(seconds // nominal_cycle_s))


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _center(values, out, what: str, center) -> float:
    if not values:
        out.problems.append(f"no {what} samples")
        return 0.0
    return center(values)


def _percentile(values, q: float, out, what: str) -> float:
    import numpy as np

    if not values:
        out.problems.append(f"no {what} samples")
        return 0.0
    return float(np.percentile(values, q))


def read_spans(out) -> list:
    if out.requests:
        return [span for kind, span in out.requests if kind == "read"]
    return out.reads


def end_to_end_metrics(name: str, out, seconds) -> dict:
    """The end-to-end metrics of a run, every span read through
    ``seconds`` (``HostClock.seconds`` for reference-host seconds, or
    ``lambda span: span.host_seconds`` for the raw figures).

    Set-up is the median of the run's samples.  Warm-up is one figure
    per cycle: their mean where the cycles simulate different inputs
    (the simulation workloads), else their median.  Restore is the
    median of the run's samples.  A checkpoint sample is a list of
    requests (one write in the simulation workloads, a cycle's
    checkpoint requests in the service); checkpoint is the sum over
    its requests of each request's median over the samples."""
    per_cycle = statistics.median if name == "service-roundtrip" else statistics.fmean
    reads = [seconds(span) for span in read_spans(out)]
    plan_seconds = sum(seconds(span) for span in out.plans)
    return {
        "setup_s": _center([seconds(s) for s in out.setup], out, "set-up",
                           statistics.median),
        "warmup_s": _center([seconds(s) for s in out.warmup], out, "warm-up", per_cycle),
        "ops_per_s": out.plan_operations / plan_seconds if plan_seconds else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "request_ms_p50": 1e3 * _percentile(reads, 50.0, out, "read"),
        "request_ms_p90": 1e3 * _percentile(reads, 90.0, out, "read"),
        "checkpoint_s": _center(out.checkpoint, out, "checkpoint", lambda samples: sum(
            statistics.median(seconds(spans[k]) for spans in samples)
            for k in range(len(samples[0])))),
        "restore_s": _center([seconds(s) for s in out.restore], out, "restore",
                             statistics.median),
    }


def run_cycles(name: str, seed: int, cycles: int, work_dir: str, out,
               tiny: bool = False, setup_samples: int = SETUP_SAMPLES) -> None:
    """``cycles`` cycles (rounds, for the simulation workloads) of
    workload ``name`` into ``out``."""
    import checks
    import workloads

    if name == "service-roundtrip":
        if tiny:
            script, hosts = workloads.service_script(seed, plans=3, scale=0.2), 60
        else:
            script, hosts = workloads.service_script(seed), None
        logs = []
        for __ in range(cycles):
            workloads.service_cycle(script, work_dir, out, hosts=hosts)
            logs.append(out.logs[-1])
        control = workloads.control_logs(script, work_dir, hosts)
        out.fail(checks.all_equal([control] + logs, "plan logs vs a never-evicted session"))
        return
    workload = workloads.SIM_WORKLOADS[name]
    size = {"hosts": 60, "plan_scale": 0.05} if tiny else {}
    for r in range(cycles):
        for cycle in workload.round(seed, r):
            workloads.sim_cycle(workload, cycle, work_dir, out,
                                setup_samples=setup_samples, **size)


def timed_run(name: str, seed: int, seconds: int, work_dir: str):
    """The run's rounds; returns the samples and the metrics in
    reference-host seconds.  The raw figures go to standard error."""
    import workloads

    if name == "service-roundtrip":
        nominal = workloads.SERVICE_CYCLE_S
    else:
        nominal = workloads.SIM_WORKLOADS[name].nominal_round_s
    out = workloads.Samples()
    run_cycles(name, seed, cycle_count(seconds, nominal), work_dir, out)
    raw = end_to_end_metrics(name, out, lambda span: span.host_seconds)
    print("raw host figures: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()),
          file=sys.stderr)
    return out, end_to_end_metrics(name, out, CLOCK.seconds)


def traced_run(name: str, seed: int, work_dir: str):
    """An untraced round, then a traced round on the same input.  The
    overhead is the traced round's time minus the untraced round's (a
    little low, as the untraced round also bears the run's one-time
    costs); both must produce byte-identical operation logs.  Two rounds,
    not three, keep a `paper-warmup` traced run well inside the time a
    run may take on a slow host."""
    import checks
    import tracing
    import workloads

    def cycle(out) -> float:
        start = time.perf_counter()
        run_cycles(name, seed, 1, work_dir, out, setup_samples=1)
        return time.perf_counter() - start

    before, out = workloads.Samples(), workloads.Samples()
    untraced_s = cycle(before)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s = cycle(out)
    finally:
        tracer.uninstall()
    out.fail(checks.all_equal([b"".join(s.logs) for s in (before, out)],
                              "operation logs, untraced / traced"))
    out.attempted += before.attempted
    out.failed += before.failed
    out.failures += before.failures
    out.problems += before.problems
    client = [span.host_seconds for __, span in out.requests]
    print(tracing.table(tracer), file=sys.stderr)
    print(
        f"tracing overhead: {traced_s - untraced_s:.3f} s "
        f"(untraced {untraced_s:.3f} s, traced {traced_s:.3f} s)",
        file=sys.stderr,
    )
    return out, tracing.layer_metrics(tracer, client, traced_s - untraced_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
            {**os.environ, **FIXED_ENV},
        )
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    specs = load_metric_specs()
    # One processor for the whole run, threads included: the host clock
    # probes from the main thread, and the service's server thread then
    # runs on the processor those probes measure.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    # The host's speed is probed through every run, so that a slow host
    # can be told from a slow program; the timed metrics are scaled by it.
    CLOCK.start()
    try:
        if args.trace:
            out, values = traced_run(args.workload, args.seed, work_dir)
            units = specs["per_layer"]
        else:
            out, values = timed_run(args.workload, args.seed, args.seconds, work_dir)
            units = specs["end_to_end"]
    finally:
        CLOCK.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    probes = [cpu for __, cpu in CLOCK.probes]
    print(f"host clock: {len(probes)} probes, mean-ms={statistics.fmean(probes) * 1e3:.4f}, "
          f"quartiles {' '.join(f'{q * 1e3:.4f}' for q in statistics.quantiles(probes, n=4))} ms "
          f"(reference {REFERENCE_PROBE_S * 1e3:.4f} ms)", file=sys.stderr)
    if out.slivers:
        ratios = " ".join(f"hs={r['hs']:.3f},vs={r['vs']:.3f}" for r in out.slivers)
        print(f"sliver ratios: {ratios}", file=sys.stderr)
    for failure in out.failures:
        print(f"OPERATION FAILED: {failure}", file=sys.stderr)
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        # failed operations are counted in ``failed``; ``correct`` speaks
        # of everything else
        "correct": not out.problems,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
