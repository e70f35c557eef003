"""Output checks: properties every run's results must have.

Each check compares the program's output against a computation made
apart from the program (the plan's own operation counts, the paper's
U[20, 80] ms hop latency, a count taken straight from the trace's
session intervals, the Section 2.2 closed forms) -- never against a
stored copy of an earlier output.

Row checks return the indices of the offending log rows, so a broken
row counts as one failed operation; state checks return a list of
problem strings.  An empty result means the check passed.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence

import numpy as np
from repro.core.theory import expected_horizontal_size, expected_vertical_size
from repro.ops.log import KINDS, STATUSES

#: the paper's per-hop latency, U[20, 80] ms, in seconds
HOP_LATENCY_MIN = 0.020
HOP_LATENCY_MAX = 0.080
#: float slack when summing per-hop draws
_LATENCY_SLACK = 1e-9

# Status codes, decoded through the log's own vocabulary at check time.
_PENDING = "pending"
_DELIVERED = "delivered"


def _codes(log, column: str, label: str) -> int:
    vocabulary = {"kind": KINDS, "status": STATUSES}[column]
    return vocabulary.index(label)


def plan_row_counts(log, plan) -> List[str]:
    """Rows equal the plan's operation count, in total, per kind and per
    item; every row is in a terminal status (never ``pending``)."""
    problems: List[str] = []
    columns = log.columns
    if len(log) != plan.total_operations:
        problems.append(
            f"log has {len(log)} rows, plan launched {plan.total_operations}"
        )
    for index, item in enumerate(plan.items):
        rows = int(np.count_nonzero(columns["item"] == index))
        if rows != item.count:
            problems.append(f"item {index}: {rows} rows for {item.count} operations")
    for kind in ("anycast", "multicast"):
        expected = sum(item.count for item in plan.items if item.kind == kind)
        rows = int(np.count_nonzero(columns["kind"] == _codes(log, "kind", kind)))
        if rows != expected:
            problems.append(f"{kind}: {rows} rows for {expected} operations")
    return problems


def pending_rows(log) -> np.ndarray:
    """Rows left in the non-terminal ``pending`` status."""
    return np.flatnonzero(log.columns["status"] == _codes(log, "status", _PENDING))


def hop_latency_rows(log) -> np.ndarray:
    """Delivered first-try rows whose latency is not the sum of ``hops``
    draws from U[20, 80] ms (and hop-0 deliveries that took any time).

    Multicast rows carry their stage-1 anycast here, so both kinds are
    checked.
    """
    columns = log.columns
    first_try = (columns["status"] == _codes(log, "status", _DELIVERED)) & (
        columns["retries"] == 0
    )
    hops = columns["hops"].astype(float)
    latency = columns["latency"]
    low = HOP_LATENCY_MIN * hops - _LATENCY_SLACK
    high = HOP_LATENCY_MAX * hops + _LATENCY_SLACK
    with np.errstate(invalid="ignore"):
        bad = first_try & ~((latency >= low) & (latency <= high))
    bad |= first_try & (hops < 0)
    return np.flatnonzero(bad)


def multicast_tally_rows(log) -> np.ndarray:
    """Multicasts that report more in-range deliveries than eligible
    nodes."""
    columns = log.columns
    multicast = columns["kind"] == _codes(log, "kind", "multicast")
    launched = columns["eligible"] >= 0
    return np.flatnonzero(
        multicast & launched & (columns["delivered_count"] > columns["eligible"])
    )


def failed_rows(log) -> np.ndarray:
    """Every row that breaks a row check, each counted once."""
    return np.union1d(
        np.union1d(pending_rows(log), hop_latency_rows(log)),
        multicast_tally_rows(log),
    )


def describe_row(log, row: int) -> str:
    """One line on what a failed row shows."""
    c = log.columns
    status = STATUSES[int(c["status"][row])]
    text = (f"{KINDS[int(c['kind'][row])]} {status}, {int(c['hops'][row])} hops, "
            f"latency {float(c['latency'][row]):.4f} s, {int(c['retries'][row])} retries")
    if int(c["eligible"][row]) >= 0:
        text += (f", delivered to {int(c['delivered_count'][row])} "
                 f"of {int(c['eligible'][row])} eligible")
    return text


def online_from_intervals(trace, time: float) -> int:
    """Nodes online at ``time``, counted from each node's raw session
    intervals (half-open ``[start, end)``) in plain Python."""
    online = 0
    for node in trace.nodes:
        for start, end in trace.schedule(node).intervals:
            if start <= time < end:
                online += 1
                break
    return online


def warmup_state(simulation, warmup: float) -> List[str]:
    """After ``setup(warmup, ...)``: the clock reads exactly ``warmup``
    and the simulation's online population matches the trace."""
    problems: List[str] = []
    now = simulation.sim.now
    if now != warmup:
        problems.append(f"clock reads {now!r} after a warm-up to {warmup!r}")
    counted = online_from_intervals(simulation.trace, now)
    reported = len(simulation.online_ids())
    if counted != reported:
        problems.append(
            f"{reported} nodes online, the trace's session intervals give {counted}"
        )
    return problems


def sliver_ratios(simulation) -> Dict[str, float]:
    """Mean HS and VS sizes of the online nodes over their Section 2.2
    expectations (``core/theory.py``), each at the node's lifetime
    availability.

    The closed forms are integrated on a 101-point availability grid and
    interpolated, which is far finer than the band the ratio must meet.
    """
    predicate = simulation.predicate
    grid = np.linspace(0.0, 1.0, 101)
    expected_hs = np.array([expected_horizontal_size(predicate, a) for a in grid])
    expected_vs = np.array([expected_vertical_size(predicate, a) for a in grid])
    rows = np.flatnonzero(simulation.trace.timeline.online_mask(simulation.sim.now))
    availability = simulation.population.availabilities[rows]
    nodes = [simulation.nodes[simulation.node_ids[i]] for i in rows]
    hs = np.array([node.lists.horizontal_count for node in nodes], dtype=float)
    vs = np.array([node.lists.vertical_count for node in nodes], dtype=float)
    return {
        "hs": float(hs.mean() / np.interp(availability, grid, expected_hs).mean()),
        "vs": float(vs.mean() / np.interp(availability, grid, expected_vs).mean()),
    }


def sliver_band(ratios: Dict[str, float], band: Dict[str, tuple]) -> List[str]:
    """Each ratio of :func:`sliver_ratios` lies in its ``band`` (README,
    "Sliver-size band")."""
    return [
        f"mean {name.upper()} size is {ratio:.3f} x its closed form, "
        f"outside [{band[name][0]}, {band[name][1]}]"
        for name, ratio in sorted(ratios.items())
        if not band[name][0] <= ratio <= band[name][1]
    ]


def same_payloads(before: Sequence[dict], after: Sequence[dict], what: str) -> List[str]:
    """Two lists of JSON payloads are equal, compared as canonical JSON."""
    problems = []
    if len(before) != len(after):
        return [f"{what}: {len(before)} payloads before, {len(after)} after"]
    for k, (a, b) in enumerate(zip(before, after)):
        if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
            problems.append(f"{what} #{k} differs")
    return problems


def all_equal(blobs: Iterable[bytes], what: str) -> List[str]:
    """Every blob is byte-identical to the first."""
    blobs = list(blobs)
    return [
        f"{what}: copy {k} differs from copy 0"
        for k, blob in enumerate(blobs[1:], start=1)
        if blob != blobs[0]
    ]
