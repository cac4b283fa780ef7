"""Host-speed calibration for the benchmark's timed metrics.

The benchmark host is a shared VM whose speed swings by up to 2× from one
second to the next, with each vCPU in its own phase. A median over a run
does not remove that: two runs of the same code a minute apart can differ
by a third. So every timed unit runs a fixed calibration loop in the same
process just before and just after it, and the runner rescales the unit's
host time to a host on which the loop takes ``REFERENCE_S``:

    time at reference speed = host time × REFERENCE_S / calibration time

The loop uses only the standard library and nothing from motesim, so a
change to motesim cannot move it. It has two halves that the host's slow
phases hit differently: an event-loop half (heap, small objects, dicts, a
scan over a growing log, RNG draws), which resembles the simulator, and a
plain integer-arithmetic half. Timing the sum of both tracks the
simulator's own slowdown more closely than either half alone.
"""

from __future__ import annotations

import heapq
import random
import time

# seconds one calibration() call takes on a 2-vCPU Intel Xeon VM in a
# fast phase, with Python 3.11.7; a fixed scale, so results stay comparable
REFERENCE_S = 0.03
REPS = 2


class _Event:
    __slots__ = ("node", "kind")

    def __init__(self, node, kind):
        self.node = node
        self.kind = kind


class _Node:
    def __init__(self, address: int):
        self.address = address
        self.state = "sleep"
        self.since = 0
        self.dwell: dict = {}

    def transition(self, state: str, now: int) -> None:
        self.dwell[self.state] = self.dwell.get(self.state, 0) + now - self.since
        self.state = state
        self.since = now


def _event_loop(steps: int = 3000) -> float:
    rng = random.Random(7)
    nodes = [_Node(a) for a in range(20)]
    heap = [(rng.randrange(1000), i, _Event(nodes[i % 20], "tx"))
            for i in range(40)]
    heapq.heapify(heap)
    log: list = []
    total = 0.0
    for step in range(steps):
        now, seq, event = heapq.heappop(heap)
        event.node.transition(event.kind, now)
        log.append((now, now + 50, event.node.address, rng.gauss(0.0, 4.0)))
        for start, end, address, power in log[-60:]:
            if start < now + 50 and end > now and address != event.node.address:
                total += power
        event.kind = "rx" if event.kind == "tx" else "tx"
        heapq.heappush(heap, (now + rng.randrange(1, 1000),
                              seq + 40 * (step + 1), event))
    return total


def _arithmetic(steps: int = 200_000) -> int:
    total = 0
    for i in range(steps):
        total += i * i % 7
    return total


def calibration() -> float:
    """Host seconds one pass of the fixed loop takes now."""
    started = time.perf_counter()
    _event_loop()
    _arithmetic()
    return time.perf_counter() - started


def sample(reps: int = REPS) -> list:
    return [calibration() for _ in range(reps)]
