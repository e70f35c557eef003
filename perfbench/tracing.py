"""Per-layer tracing from outside the program.

:class:`Tracer` replaces the public functions of each layer with timing
wrappers before the simulation is built, so bound methods captured later
(``PeriodicTask`` callbacks, network handlers) pick them up; it restores
the originals afterwards.  Each wrapper records, per *probe* (one layer
quantity, possibly spread over several functions):

* ``calls`` -- outermost calls only: a probe re-entered from inside one of
  its own functions (``evaluate_kind`` calling ``evaluate``) counts once;
* ``seconds`` -- inclusive host time of those calls;
* ``self_seconds`` -- inclusive time minus the time spent in other probes'
  wrapped calls beneath it;
* ``items`` -- a probe-specific tally taken from the arguments or result
  (rows passed, neighbors added, edges built, bytes written).

A function that a later change renames or deletes is reported as absent
rather than crashing the run.  The benchmark drives the HTTP server with
one sequential client, so wrapped code never runs on two threads at once;
the call stack is kept per thread all the same.
"""

from __future__ import annotations

import importlib
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

clock = time.perf_counter


@dataclass
class Stat:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    items: float = 0.0
    samples: List[float] = field(default_factory=list)


def _length_of(position: int) -> Callable:
    def tally(stat: Stat, args, result, elapsed) -> None:
        stat.items += len(args[position])

    return tally


def _sum_result(stat: Stat, args, result, elapsed) -> None:
    stat.items += int(result or 0)


def _keep_sample(stat: Stat, args, result, elapsed) -> None:
    stat.samples.append(elapsed)


def _edges(stat: Stat, args, result, elapsed) -> None:
    graph = args[0]  # OverlayGraph.__init__: the graph just built
    if hasattr(graph, "number_of_edges"):
        stat.items += graph.number_of_edges


def _directory_bytes(stat: Stat, args, result, elapsed) -> None:
    total = 0
    for root, __, files in os.walk(result):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    stat.items = total  # the session's checkpoint as last written


@dataclass(frozen=True)
class Probe:
    name: str
    layer: str
    targets: Tuple[str, ...]  # "module:Qualified.name"
    tally: Optional[Callable] = None


PROBES: Tuple[Probe, ...] = (
    Probe("churn.trace", "churn", (
        "repro.simulation:generate_overnet_trace",
        "repro.churn.overnet:generate_overnet_trace",
        "repro.scenarios.spec:ScenarioSpec.compile",
    )),
    Probe("churn.presence", "churn", (
        "repro.churn.trace:ChurnTrace.is_online",
        "repro.churn.trace:ChurnTrace.is_online_array",
        "repro.churn.trace:ChurnTrace.online_mask",
        "repro.churn.trace:ChurnTrace.online_nodes",
        "repro.churn.timeline:ChurnTimeline.online_mask",
        "repro.churn.timeline:ChurnTimeline.is_online_array",
    )),
    Probe("coarse_view.view", "monitor.coarse_view", (
        "repro.monitor.coarse_view:GlobalSampleView.view",
        "repro.monitor.coarse_view:ShuffledCoarseView.view",
    )),
    Probe("cache.fetch", "monitor.cache", (
        "repro.monitor.cache:CachedAvailabilityView.fetch",
    )),
    Probe("cache.fetch_array", "monitor.cache", (
        "repro.monitor.cache:CachedAvailabilityView.fetch_array",
    ), _length_of(1)),
    Probe("oracle.query", "monitor.oracle", (
        "repro.monitor.oracle:OracleAvailability.query",
        "repro.monitor.oracle:OracleAvailability.query_array",
    )),
    Probe("predicate.evaluate", "core.predicates", (
        "repro.core.predicates:AvmemPredicate.evaluate",
        "repro.core.predicates:AvmemPredicate.evaluate_kind",
    )),
    Probe("predicate.evaluate_many", "core.predicates", (
        "repro.core.predicates:AvmemPredicate.evaluate_many",
    ), _length_of(2)),
    Probe("node.discovery", "core.node", (
        "repro.core.node:AvmemNode.discovery_step",
    ), _sum_result),
    Probe("node.refresh", "core.node", (
        "repro.core.node:AvmemNode.refresh_step",
    ), _sum_result),
    Probe("membership.upsert", "core.membership", (
        "repro.core.membership:MembershipTable.upsert",
    )),
    Probe("membership.neighbor_arrays", "core.membership", (
        "repro.core.membership:MembershipTable.neighbor_arrays",
    )),
    Probe("membership.refresh_round", "core.membership", (
        "repro.core.membership:MembershipTable.refresh_round",
    )),
    Probe("overlay.build", "overlays.graphs", (
        "repro.core.predicates:AvmemPredicate.evaluate_all_rows",
        "repro.overlays.graphs:OverlayGraph.__init__",
    ), _edges),
    Probe("sim.run_until", "sim.engine", (
        "repro.sim.engine:Simulator.run_until",
    )),
    Probe("net.send", "sim.network", (
        "repro.sim.network:Network.send",
        "repro.sim.network:Network.send_batch",
        "repro.sim.network:Network.send_batch_suppressing",
        "repro.sim.network:Network.send_many",
    )),
    Probe("ops.execute", "ops.runner", (
        "repro.ops.runner:OperationRunner.execute",
    )),
    Probe("log.aggregate", "ops.log", (
        "repro.ops.log:OperationLog.aggregate",
    )),
    Probe("log.to_json", "ops.log", (
        "repro.ops.log:OperationLog.to_json",
    )),
    Probe("http.handler", "service.http", (
        "repro.service.http:ServiceHandler._dispatch",
    ), _keep_sample),
    Probe("session.run_plan", "service.session", (
        "repro.service.session:SimulationSession.run_plan",
    )),
    Probe("session.replay", "service.session", (
        "repro.service.session:SimulationSession._apply",
    )),
    Probe("store.checkpoint", "service.store", (
        "repro.service.store:SessionStore.checkpoint",
    ), _directory_bytes),
    Probe("store.load", "service.store", (
        "repro.service.store:SessionStore.load",
    )),
)

#: constructors whose instances the tracer keeps, to read their own
#: counters (events processed, messages sent and dropped) afterwards
_INSTANCES = (
    ("simulators", "repro.sim.engine:Simulator.__init__"),
    ("networks", "repro.sim.network:Network.__init__"),
    ("executions", "repro.ops.runner:OperationRunner.execute"),
)


def _resolve(target: str):
    """``(owner, attribute, original)`` or None when the target is gone."""
    module_name, __, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attribute = parts[-1]
    namespace = vars(owner)
    if attribute not in namespace or not callable(namespace[attribute]):
        return None
    return owner, attribute, namespace[attribute]


class Tracer:
    """Installs and removes the probes; collects their statistics."""

    def __init__(self, probes: Tuple[Probe, ...] = PROBES):
        self.probes = probes
        self.stats: Dict[str, Stat] = {p.name: Stat() for p in probes}
        self.absent: Dict[str, List[str]] = {p.name: [] for p in probes}
        self.instances: Dict[str, list] = {name: [] for name, __ in _INSTANCES}
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for probe in self.probes:
            for target in probe.targets:
                found = _resolve(target)
                if found is None:
                    self.absent[probe.name].append(target)
                    continue
                owner, attribute, original = found
                wrapper = self._wrap(probe, original)
                self._installed.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)
        for bucket, target in _INSTANCES:
            found = _resolve(target)
            if found is None:
                continue
            owner, attribute, original = found
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self._keep(bucket, owner, attribute))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    def _frames(self) -> Tuple[list, set]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = set()
        return local.stack, local.active

    def _wrap(self, probe: Probe, original):
        stat = self.stats[probe.name]
        name = probe.name
        tally = probe.tally
        frames = self._frames

        def wrapper(*args, **kwargs):
            stack, active = frames()
            if name in active:
                return original(*args, **kwargs)
            active.add(name)
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                active.discard(name)
                stat.calls += 1
                stat.seconds += elapsed
                stat.self_seconds += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if tally is not None:
                tally(stat, args, result, elapsed)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        return wrapper

    def _keep(self, bucket: str, owner, attribute: str):
        current = getattr(owner, attribute)  # possibly a probe's wrapper
        kept = self.instances[bucket]

        def keeper(*args, **kwargs):
            result = current(*args, **kwargs)
            kept.append(result if attribute != "__init__" else args[0])
            return result

        keeper.__wrapped__ = current
        return keeper


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, client_latencies: List[float],
                  overhead_s: float) -> Dict[str, float]:
    """The per-layer metric values (units in :data:`PER_LAYER_UNITS`)."""
    s = tracer.stats
    simulators = tracer.instances["simulators"]
    networks = tracer.instances["networks"]
    logs = [execution.log for execution in tracer.instances["executions"]]
    events = sum(sim.events_processed for sim in simulators)
    messages = sum(net.stats.sent for net in networks)
    dropped = sum(net.stats.dropped.get("dst_offline", 0) for net in networks)
    launched = sum(int(log.launched.sum()) for log in logs)
    delivered = sum(int((log.delivered & log.launched).sum()) for log in logs)
    transmissions = sum(int(log.columns["transmissions"].sum()) for log in logs)
    handler = s["http.handler"].samples
    paired = min(len(handler), len(client_latencies))
    overhead = [c - h for c, h in zip(client_latencies[:paired], handler[:paired])]
    return {
        "churn.trace_s": s["churn.trace"].seconds,
        "churn.presence_calls": s["churn.presence"].calls,
        "churn.presence_s": s["churn.presence"].seconds,
        "coarse_view.view_calls": s["coarse_view.view"].calls,
        "coarse_view.view_s": s["coarse_view.view"].seconds,
        "cache.fetch_calls": s["cache.fetch"].calls,
        "cache.fetch_s": s["cache.fetch"].seconds,
        "cache.fetch_array_rows": s["cache.fetch_array"].items,
        "cache.fetch_array_s": s["cache.fetch_array"].seconds,
        "oracle.query_s": s["oracle.query"].seconds,
        "predicate.evaluate_calls": s["predicate.evaluate"].calls,
        "predicate.evaluate_s": s["predicate.evaluate"].seconds,
        "predicate.evaluate_many_rows": s["predicate.evaluate_many"].items,
        "predicate.evaluate_many_s": s["predicate.evaluate_many"].seconds,
        "node.discovery_calls": s["node.discovery"].calls,
        "node.discovery_s": s["node.discovery"].seconds,
        "node.discovery_added": s["node.discovery"].items,
        "node.refresh_calls": s["node.refresh"].calls,
        "node.refresh_s": s["node.refresh"].seconds,
        "node.refresh_evicted": s["node.refresh"].items,
        "membership.upsert_calls": s["membership.upsert"].calls,
        "membership.neighbor_arrays_calls": s["membership.neighbor_arrays"].calls,
        "membership.neighbor_arrays_s": s["membership.neighbor_arrays"].seconds,
        "membership.refresh_round_s": s["membership.refresh_round"].seconds,
        "overlay.build_s": s["overlay.build"].seconds,
        "overlay.edges": s["overlay.build"].items,
        "sim.events": events,
        "sim.event_us": 1e6 * s["sim.run_until"].seconds / events if events else 0.0,
        "sim.run_until_s": s["sim.run_until"].seconds,
        "net.messages": messages,
        "net.send_s": s["net.send"].seconds,
        "net.dropped_offline": dropped,
        "net.cohort_mean": messages / s["net.send"].calls if s["net.send"].calls else 0.0,
        "ops.execute_s": s["ops.execute"].seconds,
        "ops.launched": launched,
        "ops.delivered_ratio": delivered / launched if launched else 0.0,
        "ops.transmissions": transmissions,
        "log.aggregate_calls": s["log.aggregate"].calls,
        "log.aggregate_ms": 1e3 * s["log.aggregate"].seconds,
        "log.to_json_ms": 1e3 * s["log.to_json"].seconds,
        "http.requests": s["http.handler"].calls,
        "http.handler_ms_p50": 1e3 * _median(handler),
        "http.overhead_ms_p50": 1e3 * _median(overhead),
        "session.run_plan_s": s["session.run_plan"].seconds,
        "session.replay_s": s["session.replay"].seconds,
        "session.replay_commands": s["session.replay"].calls,
        "store.checkpoint_s": s["store.checkpoint"].seconds,
        "store.checkpoint_bytes": s["store.checkpoint"].items,
        "store.load_s": s["store.load"].seconds,
        "trace.overhead_s": overhead_s,
    }


def table(tracer: Tracer) -> str:
    """The human-readable per-probe table (calls, inclusive and self
    seconds, tally), with absent functions named."""
    lines = [f"{'probe':28s} {'layer':20s} {'calls':>10s} {'incl s':>9s} "
             f"{'self s':>9s} {'items':>10s}"]
    for probe in tracer.probes:
        stat = tracer.stats[probe.name]
        lines.append(
            f"{probe.name:28s} {probe.layer:20s} {stat.calls:10d} "
            f"{stat.seconds:9.3f} {stat.self_seconds:9.3f} {stat.items:10.0f}"
        )
        for target in tracer.absent[probe.name]:
            lines.append(f"    absent: {target}")
    return "\n".join(lines)
