"""Quick self-test of the benchmark itself.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload at a tiny size (two cycles each) and requires a
clean result, then shows that every check fires on a deliberately
corrupted output: a 5 ms hop, a hop-0 delivery that took time, a
multicast delivering to more nodes than were eligible (counted as one
failed operation), a row left pending, a missing row, a wrong clock, a wrong online count, a sliver
size out of band, a restored aggregation that differs, and a traced log
that differs.  It also checks that probing the host's speed and
tracing leave the operation logs byte-identical and that a probe whose function is gone is reported
absent instead of crashing.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
failures = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def tiny_runs(work_dir: str) -> dict:
    """Every workload at a tiny size; returns one log per workload."""
    logs = {}
    clock = hostclock.CLOCK
    for name in run.WORKLOADS:
        started = time.perf_counter()
        out = workloads.Samples()
        clock.start()
        try:
            run.run_cycles(name, SEED, 2, work_dir, out, tiny=True)
        finally:
            clock.stop()
        metrics = run.end_to_end_metrics(name, out, clock.seconds)
        expect(not out.problems and out.failed == 0 and out.attempted > 0,
               f"{name}: tiny run passes every check "
               f"({out.attempted} attempted, {time.perf_counter() - started:.1f} s) "
               f"{out.problems[:3]}")
        expect(all(value > 0 for value in metrics.values()),
               f"{name}: every end-to-end metric is measured and above 0")
        logs[name] = out.logs[0]
    return logs


def host_clock(work_dir: str) -> None:
    plain, probed = workloads.Samples(), workloads.Samples()
    run.run_cycles("ops-churn", SEED, 1, work_dir, plain, tiny=True, setup_samples=1)
    clock = hostclock.HostClock()
    clock.start()
    try:
        run.run_cycles("ops-churn", SEED, 1, work_dir, probed, tiny=True, setup_samples=1)
    finally:
        clock.stop()
    expect(bool(clock.probes), f"the host clock probes ({len(clock.probes)} probes)")
    expect(plain.logs == probed.logs, "probing the host leaves the operation log byte-identical")
    slow = hostclock.HostClock()
    slow.probes = [(t, 2 * hostclock.REFERENCE_PROBE_S) for t in range(10)]
    span = hostclock.Span(4.0, 6.0, 2.0)
    expect(abs(slow.seconds(span) - 1.0) < 1e-9,
           "a span on a host probing twice as slow as the reference reads half")


def tracing_identity(work_dir: str) -> None:
    plain, traced = workloads.Samples(), workloads.Samples()
    run.run_cycles("ops-churn", SEED, 1, work_dir, plain, tiny=True, setup_samples=1)
    tracer = tracing.Tracer(tracing.PROBES + (
        tracing.Probe("gone", "core.node", ("repro.core.node:AvmemNode.no_such_step",)),
    ))
    tracer.install()
    try:
        run.run_cycles("ops-churn", SEED, 1, work_dir, traced, tiny=True, setup_samples=1)
    finally:
        tracer.uninstall()
    expect(plain.logs == traced.logs, "tracing leaves the operation log byte-identical")
    expect(tracer.absent["gone"] == ["repro.core.node:AvmemNode.no_such_step"],
           "a renamed function shows as absent and the run goes on")
    metrics = tracing.layer_metrics(tracer, [], 0.0)
    expect(metrics["node.discovery_calls"] > 0 and metrics["sim.events"] > 0,
           "the traced run counts calls into the layers")
    from repro.core.node import AvmemNode
    expect(not hasattr(AvmemNode.discovery_step, "__wrapped__"),
           "uninstalling restores the original functions")


def load_log(log_bytes: bytes, work_dir: str):
    from repro.ops.log import OperationLog

    path = os.path.join(work_dir, "log.json")
    with open(path, "wb") as fh:
        fh.write(log_bytes)
    return OperationLog.from_json(path)


def corrupted_outputs(logs: dict, work_dir: str) -> None:
    from repro.ops.log import STATUSES, OperationLog

    log_bytes = logs["ops-churn"]
    log = load_log(log_bytes, work_dir)
    paper = load_log(logs["paper-warmup"], work_dir)
    expect(checks.failed_rows(log).size == 0 and checks.failed_rows(paper).size == 0,
           "the real logs pass the row checks")

    def corrupt(column: str, row: int, value, log=log) -> OperationLog:
        columns = {k: v.copy() for k, v in log.columns.items()}
        columns[column][row] = value
        return OperationLog(columns)

    c = log.columns
    delivered = (c["status"] == STATUSES.index("delivered")) & (c["retries"] == 0)
    hopped = [int(i) for i in (delivered & (c["hops"] == 1)).nonzero()[0]]
    expect(bool(hopped), "the tiny log has a one-hop delivery to corrupt")
    if hopped:
        bad = corrupt("latency", hopped[0], 0.005)
        expect(list(checks.hop_latency_rows(bad)) == [hopped[0]],
               "a 5 ms hop breaks the U[20, 80] ms check")
        bad = corrupt("hops", hopped[0], 0)
        expect(list(checks.hop_latency_rows(bad)) == [hopped[0]],
               "a hop-0 delivery with non-zero latency breaks it too")
    multicast = [int(i) for i in (paper.columns["eligible"] >= 0).nonzero()[0]]
    expect(bool(multicast), "the tiny paper-warmup log has a multicast to corrupt")
    if multicast:
        row = multicast[0]
        bad = corrupt("delivered_count", row, paper.columns["eligible"][row] + 1, paper)
        expect(list(checks.multicast_tally_rows(bad)) == [row],
               "delivered_count above eligible breaks the multicast check")
        out = workloads.Samples()
        workloads.check_plan_log(out, bad, workloads.paper_plan(0.05), "paper")
        expect(out.failed == 1 and len(out.failures) == 1 and not out.problems,
               "a broken row counts as one failed operation, not as broken state")
    bad = corrupt("status", 0, STATUSES.index("pending"))
    expect(0 in checks.failed_rows(bad), "a row left pending breaks the terminal-status check")

    plan = workloads.churn_plan(0.05)
    expect(not checks.plan_row_counts(log, plan), "the real log matches its plan's counts")
    short = OperationLog({k: v[1:] for k, v in log.columns.items()})
    expect(bool(checks.plan_row_counts(short, plan)), "a missing row breaks the count check")
    moved = corrupt("item", 0, (int(c["item"][0]) + 1) % len(plan.items))
    expect(bool(checks.plan_row_counts(moved, plan)), "a row counted under the wrong item breaks it")
    out = workloads.Samples()
    workloads.check_plan_log(out, short, plan, "storm")
    expect(out.failed == 1 and not out.problems, "a missing row counts as a failed operation")
    out = workloads.Samples()
    workloads.check_plan_log(out, moved, plan, "storm")
    expect(out.failed == 0 and out.problems, "a misfiled row is broken state")

    before = [workloads.read_payload(log, g) for g in workloads.READ_GROUPINGS]
    changed = [workloads.read_payload(moved, g) for g in workloads.READ_GROUPINGS]
    expect(not checks.same_payloads(before, before, "reads"), "equal aggregations pass")
    expect(bool(checks.same_payloads(before, changed, "reads")),
           "a restored aggregation that differs is caught")
    expect(bool(checks.all_equal([log_bytes, log_bytes.replace(b"1", b"2", 1)], "logs")),
           "a traced log that differs by one byte is caught")

    expect(bool(checks.sliver_band({"hs": 2.5, "vs": 1.0}, workloads.OPS_CHURN.sliver_band)),
           "an HS size 2.5 times its closed form is out of band")


def trace_parity() -> None:
    import numpy as np
    from repro.simulation import AvmemSimulation

    for workload in workloads.SIM_WORKLOADS.values():
        made = workloads.make_trace(workload, 3, hosts=60).timeline
        built = AvmemSimulation(workload.settings(3, hosts=60)).trace.timeline
        expect(all(np.array_equal(getattr(made, k), getattr(built, k))
                   for k in ("starts", "ends", "offsets")),
               f"{workload.name}: make_trace gives the trace the simulation generates")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workloads.make_trace(workload, 3, hosts=60)
        finally:
            tracer.uninstall()
        expect(tracer.stats["churn.trace"].calls == 1,
               f"{workload.name}: the traced run sees the trace generation")


def warmup_checks() -> None:
    workload = workloads.OPS_CHURN
    simulation = workloads.build_simulation(workload, workload.round(SEED, 0)[0], hosts=60)
    simulation.setup(warmup=7800.0, settle=1200.0)
    expect(not checks.warmup_state(simulation, 7800.0), "a real warm-up passes its state checks")
    online = simulation.online_ids()
    simulation.online_ids = lambda: online[:-1]
    expect(bool(checks.warmup_state(simulation, 7800.0)),
           "an online count that disagrees with the trace is caught")
    del simulation.online_ids
    simulation.sim.run_until(7801.0)
    expect(bool(checks.warmup_state(simulation, 7800.0)), "a clock past the warm-up is caught")


def main() -> int:
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)
    try:
        logs = tiny_runs(work_dir)
        host_clock(work_dir)
        tracing_identity(work_dir)
        corrupted_outputs(logs, work_dir)
        warmup_checks()
        trace_parity()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(run.WORK_ROOT)
        except OSError:
            pass
    print(f"{len(failures)} expectation(s) failed" if failures else "all expectations hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
