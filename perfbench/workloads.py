"""The benchmark's three workloads.

Each workload is a sequence of identical-shape *cycles*.  A simulation
cycle builds a fresh :class:`~repro.simulation.AvmemSimulation`, warms
it up, runs one operation plan, writes the plan's operation log to disk
("checkpoint"), reloads it ("restore") and serves grouped log reads from
the reloaded copy.  A service cycle starts the HTTP server behind
``repro serve`` on loopback over a fresh store, creates a session and
drives it with one sequential :class:`~repro.service.client.ServiceClient`
through plans, advances, reads, checkpoints, an eviction and the
journal-replay restore that follows.

Every timed phase is a span of :data:`hostclock.CLOCK`, which keeps
the host's speed around it (see :mod:`hostclock`); the garbage
collector runs before each.  The checks of :mod:`checks` run between
phases, outside every timed span.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import random
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.churn import overnet
from repro.core.ids import make_node_ids
from repro.experiments.harness import get_scale
from repro.ops.log import OperationLog
from repro.ops.plan import OperationItem, OperationPlan, OperationTiming
from repro.ops.spec import TargetSpec
from repro.scenarios.registry import get_scenario
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.http import make_server
from repro.service.orchestrator import SessionOrchestrator
from repro.service.session import SimulationSession
from repro.service.spec import SessionSpec
from repro.service.store import SessionStore
from repro.simulation import AvmemSimulation, SimulationSettings
from repro.util.randomness import RandomRouter

import checks
from hostclock import CLOCK, Span

#: grouped log reads a user makes on a finished run: the same groupings
#: the figure tables and the service's log endpoint use
READ_GROUPINGS: Tuple[Tuple[str, ...], ...] = (
    ("kind",),
    ("policy", "status"),
    ("band", "kind"),
    ("item",),
    ("mode", "status"),
    ("target",),
)


@dataclass
class Samples:
    """Everything one run measured and checked."""

    setup: List[Span] = field(default_factory=list)
    warmup: List[Span] = field(default_factory=list)
    plans: List[Span] = field(default_factory=list)
    plan_operations: int = 0
    reads: List[Span] = field(default_factory=list)
    #: per sample the spans it sums (one each in the simulation workloads,
    #: a cycle's checkpoint requests in the service)
    checkpoint: List[List[Span]] = field(default_factory=list)
    restore: List[Span] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: what failed operations broke (counted in ``failed``)
    failures: List[str] = field(default_factory=list)
    #: state checks that failed (the run is not correct)
    problems: List[str] = field(default_factory=list)
    #: per cycle: the byte content of every operation log it produced
    logs: List[bytes] = field(default_factory=list)
    #: per request, in order: (kind, client latency) -- service only
    requests: List[Tuple[str, Span]] = field(default_factory=list)
    #: per cycle: HS/VS size ratios against the closed forms
    slivers: List[Dict[str, float]] = field(default_factory=list)

    def fail(self, problems: List[str], operations: int = 0) -> None:
        """Record what a check found: failed operations when
        ``operations`` is given, else broken state."""
        (self.failures if operations else self.problems).extend(problems)
        self.failed += operations


def check_plan_log(out: Samples, log, plan, label: str) -> None:
    """The count and row checks of one plan's log.  Missing rows fail
    their operations; counts that are off with no row missing mean a
    misfiled row, which is broken state."""
    missing = max(0, plan.total_operations - len(log))
    out.fail([f"{label}: {p}" for p in checks.plan_row_counts(log, plan)], missing)
    bad = checks.failed_rows(log)
    out.fail([f"{label} row {i}: {checks.describe_row(log, i)}" for i in bad], len(bad))


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
def _anycast(target, count, band, policy, timing, retry=None):
    return OperationItem(
        kind="anycast", target=target, count=count, band=band, policy=policy,
        retry=retry, timing=timing,
    )


def _multicast(target, count, band, mode, timing):
    return OperationItem(
        kind="multicast", target=target, count=count, band=band, mode=mode,
        timing=timing,
    )


def paper_plan(scale: float = 1.0):
    """The figure-sized plan: range anycasts under the three policies
    (Figs 7-9 targets) and threshold multicasts in both modes (Figs
    11-13 targets), interval-timed like the figure drivers."""
    n = max(1, int(150 * scale))
    m = max(1, int(60 * scale))
    anycast_every = OperationTiming(mode="interval", spacing=2.0)
    multicast_every = OperationTiming(mode="interval", spacing=5.0)
    items = (
        _anycast(TargetSpec.range(0.85, 0.95), n, "mid", "greedy", anycast_every),
        _anycast(TargetSpec.range(0.15, 0.25), n, "high", "retry-greedy",
                 anycast_every, retry=8),
        _anycast(TargetSpec.range(0.44, 0.54), n, "mid", "anneal", anycast_every),
        _multicast(TargetSpec.threshold(0.90), m, "high", "flood", multicast_every),
        _multicast(TargetSpec.threshold(0.20), m, "low", "gossip", multicast_every),
    )
    return OperationPlan(items=items, settle=30.0, name="paper-figures")


def churn_plan(scale: float = 1.0):
    """The storm: Poisson anycasts for every (policy, initiator band)
    pair, ~27 launches per simulated second so that many operations are
    in flight at once."""
    n = max(1, int(600 * scale))
    targets = {
        "greedy": TargetSpec.range(0.85, 0.95),
        "retry-greedy": TargetSpec.range(0.15, 0.25),
        "anneal": TargetSpec.range(0.44, 0.54),
    }
    items = tuple(
        _anycast(targets[policy], n, band, policy,
                 OperationTiming(mode="poisson", rate=3.0),
                 retry=4 if policy == "retry-greedy" else None)
        for policy in ("greedy", "retry-greedy", "anneal")
        for band in ("low", "mid", "high")
    )
    return OperationPlan(items=items, settle=60.0, name="ops-churn-storm")


def mixed_churn_plan(scale: float = 1.0):
    """The storm plus 240 Poisson multicasts in flood and gossip mode
    (60 each: HIGH > 0.9 flood, LOW > 0.2 gossip, MID > 0.5 flood, HIGH
    > 0.6 gossip), in flight among the anycasts."""
    storm = churn_plan(scale)
    m = max(1, int(60 * scale))
    every = OperationTiming(mode="poisson", rate=0.3)
    multicasts = (
        _multicast(TargetSpec.threshold(0.9), m, "high", "flood", every),
        _multicast(TargetSpec.threshold(0.2), m, "low", "gossip", every),
        _multicast(TargetSpec.threshold(0.5), m, "mid", "flood", every),
        _multicast(TargetSpec.threshold(0.6), m, "high", "gossip", every),
    )
    return OperationPlan(items=storm.items + multicasts, settle=storm.settle,
                         name="ops-churn-mixed")


@dataclass(frozen=True)
class CycleInput:
    """What one simulation cycle runs: the churn trace's seed, the seed
    of everything else (protocols, monitoring, hop latencies, operation
    timing and initiators), the plan, and the seed of the plan items'
    start offsets (``None``: every item starts with the plan)."""

    trace_seed: int
    sim_seed: int
    plan: Callable[[float], object]
    phase_seed: Optional[int] = None

    def make_plan(self, scale: float = 1.0):
        """The plan, each item shifted by 0-5 s drawn from ``phase_seed``."""
        plan = self.plan(scale)
        if self.phase_seed is None:
            return plan
        rng = random.Random(self.phase_seed)
        items = tuple(
            dataclasses.replace(item, timing=dataclasses.replace(
                item.timing, phase=round(rng.uniform(0.0, 5.0), 3)))
            for item in plan.items
        )
        return dataclasses.replace(plan, items=items)


@dataclass(frozen=True)
class SimWorkload:
    """A library-driven workload: rounds of simulation cycles."""

    name: str
    tier: str
    scenario: Optional[str]
    #: the cycles of round ``r`` of a run with ``--seed seed``
    round: Callable[[int, int], Tuple[CycleInput, ...]]
    #: allowed measured / closed-form mean sliver size ratios
    sliver_band: Dict[str, Tuple[float, float]]
    #: log writes, reloads and passes over READ_GROUPINGS per cycle
    persist_repeats: int
    #: nominal seconds per round on the reference host (round count only)
    nominal_round_s: float

    def settings(self, seed: int, hosts: Optional[int] = None):
        tier = get_scale(self.tier)
        return SimulationSettings(
            hosts=hosts or tier.hosts, epochs=tier.epochs, seed=seed,
            scenario=self.scenario,
        )

    def warmup(self) -> Tuple[float, float]:
        tier = get_scale(self.tier)
        return tier.warmup, tier.settle


def cycle_seed(seed: int, cycle: int) -> int:
    """The phase seed of one cycle: the operations' start offsets differ
    in every cycle of every run."""
    return seed * 1000 + cycle


def make_trace(workload: SimWorkload, trace_seed: int, hosts: Optional[int] = None):
    """The churn trace that ``AvmemSimulation(workload.settings(trace_seed))``
    generates, made through the same public generators (the self-test
    checks that the two agree)."""
    s = workload.settings(trace_seed, hosts)
    rng = RandomRouter(s.seed).get("churn")
    node_ids = make_node_ids(s.hosts)
    if s.scenario is not None:
        compiled = get_scenario(s.scenario).compile(
            hosts=s.hosts, epochs=s.epochs, epoch_seconds=s.epoch_seconds, rng=rng
        )
        return compiled.to_trace(node_ids)
    config = overnet.OvernetTraceConfig(
        hosts=s.hosts, epochs=s.epochs, epoch_seconds=s.epoch_seconds,
        diurnal_amplitude=s.diurnal_amplitude, diurnal_fraction=s.diurnal_fraction,
    )
    # called through the module, so that a tracer's wrapper is seen
    return overnet.generate_overnet_trace(node_keys=node_ids, config=config, rng=rng)


def build_simulation(workload: SimWorkload, cycle: CycleInput,
                     hosts: Optional[int] = None):
    """The cycle's whole construction: its trace from the trace seed, then
    the simulation on that trace with the cycle's own seed."""
    trace = make_trace(workload, cycle.trace_seed, hosts)
    return AvmemSimulation(workload.settings(cycle.sim_seed, hosts), trace=trace)


def read_payload(log, grouping) -> dict:
    """One log read: the service log-poll payload for ``grouping``."""
    return {"summary": log.summary(), "groups": log.aggregate(by=grouping)}


def restore_log(path: str):
    """Reload a log and answer the first read from it."""
    restored = OperationLog.from_json(path)
    return restored, read_payload(restored, READ_GROUPINGS[0])


def sim_cycle(
    workload: SimWorkload,
    cycle: CycleInput,
    work_dir: str,
    out: Samples,
    *,
    hosts: Optional[int] = None,
    plan_scale: float = 1.0,
    setup_samples: int = 1,
) -> None:
    """One simulation cycle; appends its samples, failures and problems
    to ``out``.

    The set-up is timed ``setup_samples`` times, each a whole
    construction of the same input; the last one built is the one that
    runs.
    """
    plan = cycle.make_plan(plan_scale)
    warmup, settle = workload.warmup()
    if hosts is not None:
        # tiny self-test sizes: a short warm-up on a few hosts
        warmup, settle = 7800.0, 1200.0
    for __ in range(setup_samples):
        simulation = None  # the previous sample's, freed before the next build
        simulation, span = CLOCK.timed(lambda: build_simulation(workload, cycle, hosts))
        out.setup.append(span)
    __, span = CLOCK.timed(lambda: simulation.setup(warmup=warmup, settle=settle))
    out.warmup.append(span)
    out.fail(checks.warmup_state(simulation, warmup))
    ratios = checks.sliver_ratios(simulation)
    out.slivers.append(ratios)
    if hosts is None:  # the band holds at the workload's size only
        out.fail(checks.sliver_band(ratios, workload.sliver_band))

    out.attempted += plan.total_operations
    try:
        log, span = CLOCK.timed(lambda: simulation.ops.run(plan))
    except Exception as exc:  # the program raised: every operation failed
        out.fail([f"plan raised {type(exc).__name__}: {exc}"], plan.total_operations)
        return
    finally:
        del simulation
    out.plans.append(span)
    out.plan_operations += len(log)
    check_plan_log(out, log, plan, plan.name)

    # Checkpoints, reloads and read passes alternate, so that each
    # metric's samples spread over the whole phase.
    path = os.path.join(work_dir, "log.json")
    before = [read_payload(log, g) for g in READ_GROUPINGS]
    repeats = 1 if hosts is not None else workload.persist_repeats
    for __ in range(repeats):
        __, span = CLOCK.timed(lambda: log.to_json(path))
        out.checkpoint.append([span])
        (restored, first), span = CLOCK.timed(lambda: restore_log(path))
        out.restore.append(span)
        after = [first]
        for g in READ_GROUPINGS[1:]:
            payload, span = CLOCK.timed(lambda: read_payload(restored, g))
            out.reads.append(span)
            after.append(payload)
        out.fail(checks.same_payloads(before, after, "log read after reload"))
    with open(path, "rb") as fh:
        out.logs.append(fh.read())
    os.remove(path)


def paper_round(seed: int, r: int) -> Tuple[CycleInput, ...]:
    """One cycle: trace and simulation seed 1 in even rounds, 2 in odd
    ones; the plan items' start offsets come from ``seed``."""
    fixed = 1 + r % 2
    return (CycleInput(fixed, fixed, paper_plan, cycle_seed(seed, r)),)


#: the input on which the multicast tally fault shows (CHANGES.md,
#: FOUND): trace and simulation seed, independent of ``--seed``
FAULT_SEED = 102003


def churn_round(seed: int, r: int) -> Tuple[CycleInput, ...]:
    """The anycast storm on trace and simulation seed ``1 + r % 7``, its
    items' start offsets drawn from ``seed``, then the mixed storm with
    multicasts on the fixed input :data:`FAULT_SEED`.

    The multicasts run on a fixed input because the program's multicast
    tally is wrong on some inputs: on a seeded one the number of failed
    operations would change from seed to seed.  On this input exactly
    one multicast fails, in every round of every run.
    """
    fixed = 1 + r % 7
    return (
        CycleInput(fixed, fixed, churn_plan, cycle_seed(seed, r)),
        CycleInput(FAULT_SEED, FAULT_SEED, mixed_churn_plan),
    )


PAPER_WARMUP = SimWorkload(
    name="paper-warmup",
    tier="medium",
    scenario=None,
    round=paper_round,
    sliver_band={"hs": (0.55, 1.05), "vs": (0.6, 1.5)},
    persist_repeats=48,
    nominal_round_s=20.0,
)

OPS_CHURN = SimWorkload(
    name="ops-churn",
    tier="small",
    scenario="pareto-heavy-tail",
    round=churn_round,
    sliver_band={"hs": (0.4, 2.0), "vs": (0.4, 2.5)},
    persist_repeats=10,
    nominal_round_s=14.0,
)

SIM_WORKLOADS = {w.name: w for w in (PAPER_WARMUP, OPS_CHURN)}


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
SERVICE_PLANS = 20
CHECKPOINT_EVERY = 4
#: nominal seconds per service cycle on the reference host (cycle count only)
SERVICE_CYCLE_S = 6.5
#: every session simulates this seed's trace; the client's script comes
#: from ``--seed`` (see :func:`service_script`)
SESSION_SEED = 1


def service_plan(k: int, scale: float = 1.0, phase: float = 0.0) -> dict:
    """Plan ``k`` of a service session (JSON, as a client sends it)."""
    n = max(1, int(20 * scale))
    plan = {
        "name": f"plan-{k}",
        "settle": 20.0,
        "items": [
            {"kind": "anycast", "target": {"kind": "range", "lo": 0.85, "hi": 0.95},
             "count": n, "band": "mid", "policy": "greedy",
             "timing": {"mode": "poisson", "rate": 2.0}},
            {"kind": "anycast", "target": {"kind": "range", "lo": 0.15, "hi": 0.25},
             "count": max(1, n // 2), "band": "high", "policy": "retry-greedy",
             "retry": 4, "timing": {"mode": "poisson", "rate": 1.0}},
            {"kind": "anycast", "target": {"kind": "range", "lo": 0.44, "hi": 0.54},
             "count": max(1, n // 4), "band": "low", "policy": "anneal",
             "timing": {"mode": "interval", "spacing": 2.0}},
            {"kind": "multicast", "target": {"kind": "threshold", "lo": 0.9, "hi": 1.0},
             "count": 2, "band": "high", "mode": "gossip" if k % 2 else "flood",
             "timing": {"mode": "interval", "spacing": 5.0}},
        ],
    }
    for item in plan["items"]:
        item["timing"]["phase"] = phase
    return plan


def service_script(seed: int, plans: int = SERVICE_PLANS,
                   scale: float = 1.0) -> List[Tuple[dict, float]]:
    """The client's commands for ``--seed seed``: ``plans + 1`` rounds of
    (plan, then advance seconds).  Each plan starts 0-5 s into its
    round and each advance runs 45-75 s, both drawn from the seed; the
    last plan (run after the restore) is not followed by an advance."""
    rng = random.Random(seed)
    rounds = []
    for k in range(plans + 1):
        phase = round(rng.uniform(0.0, 5.0), 3)
        advance = round(rng.uniform(45.0, 75.0), 3)
        rounds.append((service_plan(k, scale, phase), advance if k < plans else 0.0))
    return rounds


def service_request(scale: str, seed: int, hosts: Optional[int]) -> dict:
    request = {"scale": scale, "settings": {"seed": seed}}
    if hosts is not None:
        request["settings"]["hosts"] = hosts
        request["warmup"], request["settle"] = 7800.0, 1200.0
    return request


class _Client:
    """Times every request of one cycle and counts failures."""

    def __init__(self, out: Samples):
        self.out = out

    def __call__(self, kind: str, request: Callable[[], dict], operations: int = 0):
        self.out.attempted += 1 + operations
        if kind in ("create", "restore"):
            gc.collect()
        mark = CLOCK.mark()
        try:
            result = request()
        except (ServiceClientError, OSError) as exc:
            result = None
            self.out.fail([f"{kind} request failed: {exc}"], 1 + operations)
        self.out.requests.append((kind, CLOCK.since(mark)))
        return result

    @property
    def last(self) -> Span:
        return self.out.requests[-1][1]


def service_cycle(
    script: List[Tuple[dict, float]],
    work_dir: str,
    out: Samples,
    *,
    hosts: Optional[int] = None,
) -> None:
    """One service cycle driven by ``script`` (:func:`service_script`)."""
    store_dir = tempfile.mkdtemp(prefix="store-", dir=work_dir)
    sid = "bench"
    sent: List[dict] = []
    call = _Client(out)
    gc.collect()
    mark = CLOCK.mark()
    server = make_server(SessionOrchestrator(SessionStore(store_dir)))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        body = service_request("small", SESSION_SEED, hosts)
        if call("create", lambda: client.create_session(id=sid, **body)) is None:
            out.logs.append(b"")
            shutil.rmtree(store_dir, ignore_errors=True)
            return
        out.setup.append(CLOCK.since(mark))
        out.warmup.append(call.last)

        def run_plan(plan: dict) -> None:
            sent.append(plan)
            operations = sum(item["count"] for item in plan["items"])
            answer = call("plan", lambda: client.run_plan(sid, plan), operations)
            if answer is not None:
                out.plans.append(call.last)
                out.plan_operations += int(answer["rows"])

        reads = (
            lambda: client.log(sid, by=["kind"]),
            lambda: client.log(sid, by=["policy", "status"]),
            lambda: client.log(sid, by=["band", "kind"]),
            lambda: client.session(sid),
            lambda: client.telemetry(sid, phases=True),
        )
        checkpoints: List[Span] = []
        for k, (plan, advance) in enumerate(script[:-1]):
            run_plan(plan)
            for read in reads:
                call("read", read)
            call("command", lambda: client.advance(sid, advance))
            if k % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
                call("checkpoint", lambda: client.checkpoint(sid))
                checkpoints.append(call.last)

        groupings = (["kind"], ["policy", "status"], ["band", "kind"], ["item"])
        before = [call("read", lambda: client.log(sid, by=g)) for g in groupings]
        call("command", lambda: client.evict(sid))
        # The first request after eviction restores the session by
        # journal replay.
        after = [call("restore", lambda: client.log(sid, by=groupings[0]))]
        out.restore.append(call.last)
        after += [call("read", lambda: client.log(sid, by=g)) for g in groupings[1:]]
        differ = checks.same_payloads(before, after, "log aggregation after restore")
        out.fail(differ, len(differ))

        run_plan(script[-1][0])
        call("checkpoint", lambda: client.checkpoint(sid))
        checkpoints.append(call.last)
        out.checkpoint.append(checkpoints)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()

    blobs = []
    for k, plan in enumerate(sent):
        path = os.path.join(store_dir, sid, "logs", f"plan-{k:04d}.json")
        parsed = OperationPlan.from_dict(plan)
        if not os.path.exists(path):
            out.fail([f"plan {k}: no stored log"], parsed.total_operations)
            continue
        log = OperationLog.from_json(path)
        check_plan_log(out, log, parsed, f"plan {k}")
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    out.logs.append(b"".join(blobs))
    shutil.rmtree(store_dir, ignore_errors=True)


def control_logs(script: List[Tuple[dict, float]], work_dir: str,
                 hosts: Optional[int] = None) -> bytes:
    """The same commands on a session that is never evicted, run
    in-process: the logs a restored session must reproduce."""
    session = SimulationSession.build(
        "control", SessionSpec.from_request(service_request("small", SESSION_SEED, hosts))
    )
    blobs = []
    path = os.path.join(work_dir, "control.json")
    for plan, advance in script:
        log = session.run_plan(OperationPlan.from_dict(plan))
        if advance:
            session.advance(advance)
        log.to_json(path)
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    os.remove(path)
    return b"".join(blobs)
